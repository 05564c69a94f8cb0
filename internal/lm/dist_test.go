package lm

import (
	"sort"
	"testing"

	"adaserve/internal/mathutil"
)

// distsEqual compares two distributions entry-by-entry (order included).
func distsEqual(a, b Dist) bool {
	if len(a.Entries) != len(b.Entries) || a.Tail != b.Tail || a.Vocab != b.Vocab {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// walkContexts yields a deterministic stream of contexts mixing fresh seeds
// and incremental extensions, the same access pattern decoding produces.
func walkContexts(n int, visit func(Context)) {
	rng := mathutil.NewRNG(0xcafe)
	for i := 0; i < n; i++ {
		ctx := Context{ReqSeed: uint64(i % 17)}
		steps := 1 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			visit(ctx)
			ctx = ctx.Extend(Token(rng.Intn(64)))
		}
	}
}

// TestDistAllocatesNothing is the allocation gate of Dist, Top and Sample:
// every call on a fresh context rebuilds (a prefix of) the distribution in
// the model's own buffer. It covers the target, a draft, and a mistaken
// draft over tied weights (sharpness 0), whose entries are re-sorted in
// place.
func TestDistAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	uniform := MustSyntheticLM("u", 3, 4096, 16, 0, 0.02)
	rng := mathutil.NewRNG(5)
	seed := uint64(0)
	for _, m := range []Model{
		target,
		MustDraftLM("d", target, 0.85, 9),
		MustDraftLM("d0", uniform, 0, 9),
	} {
		for _, c := range []struct {
			op   string
			call func(Context)
		}{
			{"Dist", func(ctx Context) { m.Dist(ctx) }},
			{"Top", func(ctx Context) { m.Top(ctx, 4) }},
			{"Sample", func(ctx Context) { m.Sample(ctx, rng) }},
		} {
			allocs := testing.AllocsPerRun(200, func() {
				seed++
				c.call(Context{ReqSeed: seed})
			})
			if allocs != 0 {
				t.Fatalf("%s: %s allocates %.1f times, want 0", m.Name(), c.op, allocs)
			}
		}
	}
}

// equivalenceModels lists the model kinds whose lazy Top and Sample must
// match the full Dist: a strict-weight target with aligned, mistaken and
// half-aligned drafts; a tied-weight (sharpness 0) target with a mistaken
// draft; and a tail-heavy target on a vocabulary that is not a power of
// two, with a mistaken draft.
func equivalenceModels() []Model {
	strict := MustSyntheticLM("strict", 3, 4096, 16, 3.2, 0.02)
	uniform := MustSyntheticLM("uniform", 5, 4096, 16, 0, 0.02)
	heavy := MustSyntheticLM("heavy", 7, 1000, 12, 1.2, 0.5)
	return []Model{
		strict,
		MustDraftLM("aligned", strict, 1, 9),
		MustDraftLM("mistaken", strict, 0, 9),
		MustDraftLM("half", strict, 0.5, 9),
		uniform,
		MustDraftLM("tied", uniform, 0, 9),
		heavy,
		MustDraftLM("heavy-mistaken", heavy, 0, 9),
	}
}

// TestTopAndSampleMatchDist pins the prefix-lazy paths to the full build:
// Top(ctx, k) is Dist(ctx).Entries[:min(k, branch)] for every k, and
// Sample(ctx, rng) returns the token Dist(ctx).Sample draws and leaves rng
// in the same state, tail draws included.
func TestTopAndSampleMatchDist(t *testing.T) {
	tails := 0
	for _, m := range equivalenceModels() {
		rng := mathutil.NewRNG(0x5eed)
		walkContexts(150, func(ctx Context) {
			tails += crossCheckLazy(t, m, ctx, rng, 0)
		})
	}
	if tails == 0 {
		t.Fatal("no draw landed in the tail: the tail path went untested")
	}
}

// TestDistSurvivesOtherModelCalls pins the lifetime contract across models:
// a Dist stays valid until the next Dist, Top or Sample call on the same
// model, so a target Dist is unchanged by later draft calls, and a draft
// Dist by later target calls, for aligned and mistaken drafts alike.
func TestDistSurvivesOtherModelCalls(t *testing.T) {
	for _, alpha := range []float64{1, 0} {
		target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
		draft := MustDraftLM("d", target, alpha, 9)
		a, b := Context{ReqSeed: 1}, Context{ReqSeed: 2}

		rng := mathutil.NewRNG(3)
		p := target.Dist(a)
		want := own(p)
		draft.Dist(a)
		draft.Dist(b)
		draft.Top(a, 4)
		draft.Top(b, 16)
		draft.Sample(b, rng)
		if !distsEqual(p, want) {
			t.Fatalf("alpha %g: target dist changed under draft calls:\n got %v\nwant %v",
				alpha, p.Entries, want.Entries)
		}

		q := draft.Dist(a)
		want = own(q)
		target.Dist(b)
		target.Top(b, 4)
		target.Sample(a, rng)
		if !distsEqual(q, want) {
			t.Fatalf("alpha %g: draft dist changed under a target call:\n got %v\nwant %v",
				alpha, q.Entries, want.Entries)
		}
	}
}

// TestDraftMatchesTargetCandidates checks drafts against the target's own
// candidates over a decoding-shaped context stream: an aligned draft (alpha
// 1) equals the target everywhere, and a mistaken one (alpha 0) keeps the
// target's probabilities rank by rank but moves the target's argmax off the
// top to exactly one lower rank, whose token it promotes.
func TestDraftMatchesTargetCandidates(t *testing.T) {
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	aligned := MustDraftLM("d", target, 1, 9)
	mistaken := MustDraftLM("d", target, 0, 9)
	walkContexts(300, func(ctx Context) {
		p := target.Dist(ctx)
		if q := aligned.Dist(ctx); !distsEqual(q, p) {
			t.Fatalf("aligned draft differs from target at ctx %+v:\n got %v\nwant %v", ctx, q.Entries, p.Entries)
		}
		q := mistaken.Dist(ctx)
		if len(q.Entries) != len(p.Entries) || q.Tail != p.Tail || q.Vocab != p.Vocab {
			t.Fatalf("mistaken draft shape differs at ctx %+v", ctx)
		}
		moved := 0
		for i := range p.Entries {
			if q.Entries[i].Prob != p.Entries[i].Prob {
				t.Fatalf("rank %d probability %g, target's %g at ctx %+v", i, q.Entries[i].Prob, p.Entries[i].Prob, ctx)
			}
			if i > 0 && q.Entries[i].Token != p.Entries[i].Token {
				moved++
				if q.Entries[i].Token != p.Entries[0].Token || q.Entries[0].Token != p.Entries[i].Token {
					t.Fatalf("rank %d is not swapped with the top at ctx %+v:\n got %v\nwant %v", i, ctx, q.Entries, p.Entries)
				}
			}
		}
		if moved != 1 {
			t.Fatalf("mistaken draft moved %d ranks, want 1, at ctx %+v", moved, ctx)
		}
	})
}

// TestDraftSortFreePathMatchesSort pins the in-place mistaken-draft
// construction, both the strict-weight token swap and the tied-weight
// insertion sort, against an independent reference: copy the target's
// entries, swap the probabilities at ranks 0 and j, and stable-sort them.
func TestDraftSortFreePathMatchesSort(t *testing.T) {
	strict := MustSyntheticLM("t", 7, 4096, 16, 3.2, 0.02)
	if !strict.strictOrder {
		t.Fatal("sharpness 3.2 should produce strictly decreasing weights")
	}
	uniform := MustSyntheticLM("u", 7, 256, 8, 0, 0.02)
	// Partly tied weights: ties at several ranks, in hash order.
	tied := MustSyntheticLM("p", 7, 256, 8, 1, 0)
	copy(tied.weights, []float64{0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.03, 0.02})
	tied.strictOrder = false
	for _, target := range []*SyntheticLM{strict, uniform, tied} {
		draft := MustDraftLM("d", target, 0.0, 11) // mistaken everywhere
		walkContexts(200, func(ctx Context) {
			want := own(target.Dist(ctx))
			e := want.Entries
			j := disagreeRank(mathutil.SplitMix64(ctx.hash(draft.seed)), len(e)-1)
			e[0].Prob, e[j].Prob = e[j].Prob, e[0].Prob
			sort.SliceStable(e, func(a, b int) bool {
				if e[a].Prob != e[b].Prob {
					return e[a].Prob > e[b].Prob
				}
				return e[a].Token < e[b].Token
			})
			if got := draft.Dist(ctx); !distsEqual(got, want) {
				t.Fatalf("%s: in-place draft path diverged at ctx %+v:\n got %v\nwant %v",
					target.Name(), ctx, got.Entries, want.Entries)
			}
		})
	}
}

// TestUniformWeightsUseSortPath covers the tied-weight path end to end:
// sharpness 0 gives equal weights, where the mistaken-draft "swap" is an
// identity on probabilities and the insertion sort orders tokens ascending.
func TestUniformWeightsUseSortPath(t *testing.T) {
	target := MustSyntheticLM("t", 7, 256, 8, 0, 0.02)
	if target.strictOrder {
		t.Fatal("sharpness 0 should not report strictly decreasing weights")
	}
	draft := MustDraftLM("d", target, 0.0, 11)
	for i := uint64(0); i < 50; i++ {
		d := draft.Dist(Context{ReqSeed: i})
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
}

// TestSampleTailAvoidsCandidates verifies the tail fallback fix: a tail draw
// must land outside the candidate set (the old code could return a candidate,
// double-counting its mass).
func TestSampleTailAvoidsCandidates(t *testing.T) {
	// Large tail and tiny vocab make tail hits and collisions frequent.
	m := MustSyntheticLM("m", 1, 32, 8, 1.0, 0.4)
	d := m.Dist(Context{ReqSeed: 2})
	cand := make(map[Token]bool, len(d.Entries))
	for _, e := range d.Entries {
		cand[e.Token] = true
	}
	rng := mathutil.NewRNG(77)
	counts := make(map[Token]int)
	const n = 200000
	tailDraws := 0
	for i := 0; i < n; i++ {
		tok := d.Sample(rng)
		counts[tok]++
		if !cand[tok] {
			tailDraws++
		}
	}
	if tailDraws == 0 {
		t.Fatal("tail never sampled — test exercised nothing")
	}
	// Tail frequency should match the tail mass.
	if got := float64(tailDraws) / n; got < 0.35 || got > 0.45 {
		t.Fatalf("tail sampled %.3f of draws, want ≈ 0.40", got)
	}
	// Candidate frequencies must match their stated probabilities (the old
	// fallback inflated candidates by the tail's collision mass).
	for _, e := range d.Entries {
		got := float64(counts[e.Token]) / n
		if diff := got - e.Prob; diff > 0.01 || diff < -0.01 {
			t.Fatalf("token %d sampled %.3f, want %.3f", e.Token, got, e.Prob)
		}
	}
	// Each non-candidate should get roughly tail/(vocab-branch) mass.
	per := d.Tail / float64(d.Vocab-len(d.Entries))
	for tok := Token(0); tok < Token(d.Vocab); tok++ {
		if cand[tok] {
			continue
		}
		got := float64(counts[tok]) / n
		if diff := got - per; diff > 0.01 || diff < -0.01 {
			t.Fatalf("tail token %d sampled %.4f, want ≈ %.4f", tok, got, per)
		}
	}
}
