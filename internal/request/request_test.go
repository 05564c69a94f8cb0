package request

import (
	"math"
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func newReq(t *testing.T) *Request {
	t.Helper()
	r := New(1, Coding, 0.040, 10.0, 128, 64, 42)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCategoryAndPhaseStrings(t *testing.T) {
	if Coding.String() != "coding" || Chat.String() != "chat" || Summarization.String() != "summarization" {
		t.Fatal("category names wrong")
	}
	if Category(9).String() == "" || Phase(9).String() == "" {
		t.Fatal("unknown enum should render")
	}
	for _, p := range []Phase{Queued, Prefilling, Decoding, Preempted, Done} {
		if p.String() == "" {
			t.Fatal("phase name empty")
		}
	}
	if NumCategories != 3 {
		t.Fatalf("NumCategories = %d", NumCategories)
	}
}

func TestNewDefaults(t *testing.T) {
	r := newReq(t)
	if r.Phase != Queued {
		t.Fatal("new request should be queued")
	}
	if r.FirstDecodeTime >= 0 || r.FirstTokenTime >= 0 || r.DoneTime >= 0 || r.AdmitTime >= 0 {
		t.Fatal("timestamps should start unset")
	}
	if r.Priority != int(Coding) {
		t.Fatal("priority should derive from category")
	}
	if r.Ctx.ReqSeed != 42 {
		t.Fatal("context seed not set")
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	bad := []*Request{
		New(1, Chat, 0, 0, 10, 10, 1),
		New(2, Chat, 0.05, 0, 0, 10, 1),
		New(3, Chat, 0.05, 0, 10, 0, 1),
	}
	for _, r := range bad {
		if r.Validate() == nil {
			t.Errorf("request %d should not validate", r.ID)
		}
	}
}

func TestCommitLifecycle(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 3, 7)
	r.Phase = Decoding
	r.FirstDecodeTime = 1.0

	kept := r.Commit([]lm.Token{10, 11}, 1.1)
	if kept != 2 || r.OutputLen() != 2 {
		t.Fatalf("kept=%d len=%d", kept, r.OutputLen())
	}
	if r.FirstTokenTime != 1.1 {
		t.Fatal("first token time not stamped")
	}
	if r.Phase != Decoding {
		t.Fatal("phase should stay decoding")
	}

	// Third token completes; fourth is clipped.
	kept = r.Commit([]lm.Token{12, 13}, 1.2)
	if kept != 1 {
		t.Fatalf("clip kept %d", kept)
	}
	if r.Phase != Done || r.DoneTime != 1.2 {
		t.Fatal("completion not recorded")
	}
	if r.OutputLen() != 3 {
		t.Fatalf("output len %d", r.OutputLen())
	}
	if r.AcceptedTokens != 3 {
		t.Fatalf("accepted tokens %d", r.AcceptedTokens)
	}
}

func TestCommitExtendsContext(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 10, 7)
	r.Commit([]lm.Token{5, 6}, 1)
	if w := r.Ctx.Window(); len(w) != 2 || w[1] != 6 {
		t.Fatalf("context window %v", w)
	}
	if r.LastToken() != 6 {
		t.Fatal("LastToken should be the newest")
	}
}

func TestCommit1MatchesCommit(t *testing.T) {
	a := New(1, Chat, 0.05, 0, 16, 3, 7)
	b := New(1, Chat, 0.05, 0, 16, 3, 7)
	a.Commit([]lm.Token{5}, 1)
	b.Commit1(5, 1)
	a.Commit([]lm.Token{6, 8}, 2) // second call clips at MaxNewTokens
	b.Commit1(6, 2)
	b.Commit1(8, 2)
	if a.Phase != b.Phase || a.DoneTime != b.DoneTime ||
		a.FirstTokenTime != b.FirstTokenTime || a.AcceptedTokens != b.AcceptedTokens ||
		a.OutputLen() != b.OutputLen() || a.Ctx != b.Ctx {
		t.Fatalf("Commit1 state diverged from Commit: %+v vs %+v", a, b)
	}
}

func TestLastTokenBeforeOutput(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 10, 300)
	if got := r.LastToken(); got != lm.Token(300%256) {
		t.Fatalf("pre-output LastToken = %d", got)
	}
}

func TestDecodeLatency(t *testing.T) {
	r := newReq(t)
	if r.DecodeLatency(99) != 0 {
		t.Fatal("latency before decoding should be 0")
	}
	r.FirstDecodeTime = 10
	if got := r.DecodeLatency(12.5); got != 2.5 {
		t.Fatalf("latency %g", got)
	}
}

func TestMinAcceptForSLO(t *testing.T) {
	r := newReq(t) // SLO 40ms
	r.FirstDecodeTime = 0
	r.Output = make([]lm.Token, 4) // o_i = 4

	// At now=0.2s with tspec=0.04: A = (0.2+0.04)/0.04 - 4 = 2.
	got := r.MinAcceptForSLO(0.2, 0.04)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("A(r) = %g, want 2", got)
	}
	// Ahead of schedule: negative A.
	r.Output = make([]lm.Token, 10)
	if r.MinAcceptForSLO(0.2, 0.04) >= 0 {
		t.Fatal("ahead-of-SLO request should have negative A")
	}
	// Tighter target raises A.
	if r.MinAcceptFor(0.2, 0.04, 0.020) <= r.MinAcceptFor(0.2, 0.04, 0.040) {
		t.Fatal("halving the target should raise A")
	}
}

func TestAvgTPOTAndAttainment(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 10, 7)
	if r.AvgTPOT(1) != 0 {
		t.Fatal("TPOT before decode should be 0")
	}
	r.FirstDecodeTime = 1.0
	toks := make([]lm.Token, 10)
	r.Commit(toks, 1.4) // 10 tokens in 0.4s -> 40ms/token
	if got := r.AvgTPOT(99); math.Abs(got-0.04) > 1e-9 {
		t.Fatalf("TPOT %g", got)
	}
	if !r.AttainedSLO() {
		t.Fatal("40ms <= 50ms SLO should attain")
	}
	// A slower request violates.
	r2 := New(2, Chat, 0.05, 0, 16, 10, 7)
	r2.FirstDecodeTime = 1.0
	r2.Commit(toks, 1.6) // 60ms/token
	if r2.AttainedSLO() {
		t.Fatal("60ms > 50ms SLO should violate")
	}
}

func TestAttainedSLORequiresCompletion(t *testing.T) {
	r := newReq(t)
	r.FirstDecodeTime = 0
	r.Commit([]lm.Token{1}, 0.001)
	if r.Phase == Done {
		t.Fatal("not done yet")
	}
	if r.AttainedSLO() {
		t.Fatal("incomplete request cannot attain")
	}
}

func TestTTFT(t *testing.T) {
	r := newReq(t) // arrival 10.0
	if r.TTFT() != -1 {
		t.Fatal("TTFT before first token should be -1")
	}
	r.Commit([]lm.Token{1}, 10.7)
	if math.Abs(r.TTFT()-0.7) > 1e-9 {
		t.Fatalf("TTFT %g", r.TTFT())
	}
}

func TestContextAndPrefillAccounting(t *testing.T) {
	r := newReq(t) // prompt 128
	if r.ContextLen() != 128 {
		t.Fatal("context = prompt before output")
	}
	if r.RemainingPrefill() != 128 {
		t.Fatal("nothing prefilled yet")
	}
	r.PrefillDone = 100
	if r.RemainingPrefill() != 28 {
		t.Fatal("remaining prefill wrong")
	}
	r.Commit([]lm.Token{1, 2}, 1)
	if r.ContextLen() != 130 {
		t.Fatal("context should include output")
	}
}

// refPromptSeeds is the reference per-token content derivation: the seeds
// of all PromptLen prompt tokens, segment by segment, padded with
// request-private content.
func refPromptSeeds(r *Request) []uint64 {
	out := make([]uint64, 0, r.PromptLen)
	segs := r.PromptSegs
	if segs == nil {
		segs = []PromptSegment{{Seed: r.Seed, Len: r.PromptLen}}
	}
	for _, seg := range segs {
		for i := 0; i < seg.Len && len(out) < r.PromptLen; i++ {
			out = append(out, mathutil.Hash2(seg.Seed, uint64(i)))
		}
	}
	for len(out) < r.PromptLen {
		out = append(out, mathutil.Hash2(r.Seed, uint64(len(out))))
	}
	return out
}

// refBlockChain is the reference block chain over a materialized seed
// slice: each full block's fingerprint hashes the block length and its seeds
// into the previous fingerprint (anchored at the chain seed), 0 remapped
// to 1.
func refBlockChain(r *Request, bs int) []uint64 {
	seeds := refPromptSeeds(r)
	var out []uint64
	prev := uint64(0x70726566697843)
	for b := 0; (b+1)*bs <= len(seeds); b++ {
		h := mathutil.Hash2(prev, uint64(bs))
		for _, t := range seeds[b*bs : (b+1)*bs] {
			h = mathutil.Hash2(h, t)
		}
		if h == 0 {
			h = 1
		}
		out = append(out, h)
		prev = h
	}
	return out
}

// TestBlockChainMatchesPerTokenSeeds pins the streamed chain to the
// per-token derivation over random segment decompositions, segments shorter
// than PromptLen (the padding path), segments longer than it, prompts
// shorter than one block, and several block sizes.
func TestBlockChainMatchesPerTokenSeeds(t *testing.T) {
	rng := mathutil.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		promptLen := 1 + rng.Intn(90)
		r := New(trial, Chat, 0.05, 0, promptLen, 4, rng.Uint64())
		switch trial % 4 {
		case 0: // nil: one request-private segment
		case 1, 2: // exact decomposition (trial%4 == 2 then trims it short)
			for left := promptLen; left > 0; {
				n := 1 + rng.Intn(left)
				r.PromptSegs = append(r.PromptSegs, PromptSegment{Seed: uint64(rng.Intn(4)), Len: n})
				left -= n
			}
			if trial%4 == 2 {
				last := &r.PromptSegs[len(r.PromptSegs)-1]
				last.Len = rng.Intn(last.Len)
			}
		case 3: // segments overrunning PromptLen are clipped
			r.PromptSegs = []PromptSegment{{Seed: 1, Len: promptLen / 2}, {Seed: 2, Len: promptLen + 7}}
		}
		for _, bs := range []int{1, 4, 16, 128} {
			want := refBlockChain(r, bs)
			got := r.BlockChain(bs)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d bs %d segs %v len %d: chain %v, want %v",
					trial, bs, r.PromptSegs, promptLen, got, want)
			}
		}
	}
}

// TestBlockChainSegments covers what the chain means for sharing: requests
// agree on exactly the blocks their segment decompositions agree on, padding
// never aliases, and the memo serves repeat calls without recomputing.
func TestBlockChainSegments(t *testing.T) {
	shared := PromptSegment{Seed: 0xabc, Len: 9}
	a := New(2, Chat, 0.05, 0, 16, 4, 7)
	a.PromptSegs = []PromptSegment{shared, {Seed: 1, Len: 7}}
	b := New(3, Chat, 0.05, 0, 16, 4, 8)
	b.PromptSegs = []PromptSegment{shared, {Seed: 2, Len: 7}}
	ca, cb := a.BlockChain(4), b.BlockChain(4)
	if len(ca) != 4 || !reflect.DeepEqual(ca[:2], cb[:2]) {
		t.Fatalf("blocks inside the shared segment differ: %v vs %v", ca, cb)
	}
	if ca[2] == cb[2] || ca[3] == cb[3] {
		t.Fatal("blocks past the shared segment collided")
	}
	if again := a.BlockChain(4); &again[0] != &ca[0] {
		t.Fatal("repeat call recomputed the memoized chain")
	}
	if other := a.BlockChain(8); len(other) != 2 || other[0] == ca[1] {
		t.Fatalf("block-size change served the stale memo: %v", other)
	}
	if cl := a.Clone(); cl.chainBS != 0 || !reflect.DeepEqual(cl.BlockChain(8), a.BlockChain(8)) {
		t.Fatal("clone must recompute the same chain from its own memo")
	}
	if short := New(4, Chat, 0.05, 0, 3, 4, 9); len(short.BlockChain(4)) != 0 {
		t.Fatal("a prompt shorter than one block has no full block to fingerprint")
	}

	// Segments shorter than PromptLen pad with request-private content.
	c := New(4, Chat, 0.05, 0, 8, 4, 11)
	c.PromptSegs = []PromptSegment{{Seed: 0xabc, Len: 5}}
	d := New(5, Chat, 0.05, 0, 8, 4, 12)
	d.PromptSegs = []PromptSegment{{Seed: 0xabc, Len: 5}}
	cc, cd := c.BlockChain(4), d.BlockChain(4)
	if cc[0] != cd[0] || cc[1] == cd[1] {
		t.Fatalf("padding aliased across requests: %v vs %v", cc, cd)
	}
}
