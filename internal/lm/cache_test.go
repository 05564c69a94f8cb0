package lm

import (
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

// TestDistCacheExact verifies a cached model agrees byte-for-byte with an
// identically seeded uncached one over a decoding-shaped context stream.
func TestDistCacheExact(t *testing.T) {
	cached := MustSyntheticLM("m", 3, 4096, 16, 3.2, 0.02)
	plain := MustSyntheticLM("m", 3, 4096, 16, 3.2, 0.02)
	plain.SetDistCacheSize(0)
	walkContexts(300, func(ctx Context) {
		if !distsEqual(cached.Dist(ctx), plain.Dist(ctx)) {
			t.Fatalf("cached dist differs at ctx %+v", ctx)
		}
	})
	if hits, _ := cached.CacheStats(); hits == 0 {
		t.Fatal("cache never hit — test exercised nothing")
	}
	if hits, misses := plain.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded activity: %d hits %d misses", hits, misses)
	}
}

// TestDistCacheEvictionCorrectness forces constant eviction with a 1-slot
// cache: results must still be exact (the cache validates full keys, never
// trusts the slot).
func TestDistCacheEvictionCorrectness(t *testing.T) {
	tiny := MustSyntheticLM("m", 5, 4096, 16, 3.2, 0.02)
	tiny.SetDistCacheSize(1)
	plain := MustSyntheticLM("m", 5, 4096, 16, 3.2, 0.02)
	plain.SetDistCacheSize(0)
	// Alternate between two contexts so the single slot thrashes.
	a, b := Context{ReqSeed: 1}, Context{ReqSeed: 2}
	for i := 0; i < 50; i++ {
		if !distsEqual(tiny.Dist(a), plain.Dist(a)) {
			t.Fatal("evicting cache corrupted dist for ctx a")
		}
		if !distsEqual(tiny.Dist(b), plain.Dist(b)) {
			t.Fatal("evicting cache corrupted dist for ctx b")
		}
	}
	if _, misses := tiny.CacheStats(); misses < 2 {
		t.Fatalf("expected eviction-driven misses, got %d", misses)
	}
}

// TestDraftCacheExact is TestDistCacheExact for the draft model, whose cache
// is keyed on the (draft hash, target hash) pair.
func TestDraftCacheExact(t *testing.T) {
	targetA := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	targetB := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	targetB.SetDistCacheSize(0)
	cached := MustDraftLM("d", targetA, 0.85, 9)
	plain := MustDraftLM("d", targetB, 0.85, 9)
	plain.SetDistCacheSize(0)
	walkContexts(300, func(ctx Context) {
		if !distsEqual(cached.Dist(ctx), plain.Dist(ctx)) {
			t.Fatalf("cached draft dist differs at ctx %+v", ctx)
		}
	})
	if hits, _ := cached.CacheStats(); hits == 0 {
		t.Fatal("draft cache never hit")
	}
}

// TestDraftSurvivesTargetEviction pins the in-place buffer contract across
// models. With one-slot caches every target miss refills the one target
// buffer, so a cached draft must own its entries: an aligned draft (alpha 1)
// that handed out, or cached, the target's entries would change under the
// next target miss. That holds for the first fill into an empty draft slot
// too, which must not be mistaken for a disabled cache (the only case where
// the draft may return the target's entries as-is).
func TestDraftSurvivesTargetEviction(t *testing.T) {
	for _, alpha := range []float64{1, 0} {
		target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
		target.SetDistCacheSize(1)
		draft := MustDraftLM("d", target, alpha, 9)
		draft.SetDistCacheSize(1)
		refTarget := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
		refTarget.SetDistCacheSize(0)
		ref := MustDraftLM("d", refTarget, alpha, 9)
		ref.SetDistCacheSize(0)
		a, b := Context{ReqSeed: 1}, Context{ReqSeed: 2}
		want := ref.Dist(a)
		// Round 0 fills the empty draft slot; later rounds hit it.
		for round := 0; round < 3; round++ {
			q := draft.Dist(a)
			if !distsEqual(q, want) {
				t.Fatalf("alpha %g round %d: draft dist differs from the uncached reference:\n got %v\nwant %v",
					alpha, round, q.Entries, want.Entries)
			}
			target.Dist(b) // evicts a's target entries, refilling the buffer
			if !distsEqual(q, want) {
				t.Fatalf("alpha %g round %d: draft dist changed under a target eviction:\n got %v\nwant %v",
					alpha, round, q.Entries, want.Entries)
			}
		}
		if hits, misses := draft.CacheStats(); hits != 2 || misses != 1 {
			t.Fatalf("alpha %g: draft cache %d hits %d misses, want 2 and 1", alpha, hits, misses)
		}
	}
}

// TestWarmMissAllocatesNothing is the allocation gate of the miss path: once
// every slot of both caches has been filled, a miss on a fresh context
// rebuilds the distribution in the evicted slot's buffer, allocating nothing.
func TestWarmMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	target.SetDistCacheSize(64)
	draft := MustDraftLM("d", target, 0.85, 9)
	draft.SetDistCacheSize(64)
	seed := uint64(0)
	fresh := func() Context {
		seed++
		return Context{ReqSeed: seed}
	}
	full := func(c *distCache) bool {
		if c.slots == nil {
			return false
		}
		for i := range c.slots {
			if !c.slots[i].full {
				return false
			}
		}
		return true
	}
	for !full(target.cache) || !full(draft.cache) {
		if seed > 1e5 {
			t.Fatal("caches never filled")
		}
		draft.Dist(fresh())
	}
	const runs = 200
	for _, m := range []interface {
		Model
		CacheStats() (hits, misses uint64)
	}{target, draft} {
		_, before := m.CacheStats()
		allocs := testing.AllocsPerRun(runs, func() { m.Dist(fresh()) })
		// AllocsPerRun makes one extra warm-up call.
		if _, after := m.CacheStats(); after-before != runs+1 {
			t.Fatalf("%s: %d misses over %d calls — not measuring the miss path",
				m.Name(), after-before, runs+1)
		}
		if allocs != 0 {
			t.Fatalf("%s: warm-cache miss allocates %.1f times, want 0", m.Name(), allocs)
		}
	}
}

// TestDraftSortFreePathMatchesSort pins the sort-free mistaken-draft
// construction (strictly decreasing Zipf weights) against the reference
// sort-based path, which still runs for non-strict weight tables.
func TestDraftSortFreePathMatchesSort(t *testing.T) {
	target := MustSyntheticLM("t", 7, 4096, 16, 3.2, 0.02)
	if !target.strictOrder {
		t.Fatal("sharpness 3.2 should produce strictly decreasing weights")
	}
	draft := MustDraftLM("d", target, 0.0, 11) // mistaken everywhere
	draft.SetDistCacheSize(0)
	ref := MustDraftLM("d", target, 0.0, 11)
	ref.SetDistCacheSize(0)
	walkContexts(200, func(ctx Context) {
		got := draft.Dist(ctx)
		// Reference: recompute via the generic sort path.
		target.strictOrder = false
		want := ref.Dist(ctx)
		target.strictOrder = true
		if !distsEqual(got, want) {
			t.Fatalf("sort-free draft path diverged at ctx %+v:\n got %v\nwant %v",
				ctx, got.Entries, want.Entries)
		}
	})
}

// TestUniformWeightsUseSortPath covers the non-strict fallback end to end:
// sharpness 0 gives equal weights, where the mistaken-draft "swap" is an
// identity on probabilities and the stable sort orders tokens ascending.
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
