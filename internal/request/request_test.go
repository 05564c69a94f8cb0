package request

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

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

// randomSegs appends segments totalling n tokens, each 1..max long, with
// seeds from a small alphabet so unrelated decompositions still collide on
// some seeds.
func randomSegs(rng *mathutil.RNG, segs []PromptSegment, n, max int) []PromptSegment {
	for n > 0 {
		l := 1 + rng.Intn(min(n, max))
		segs = append(segs, PromptSegment{Seed: uint64(rng.Intn(5)), Len: l})
		n -= l
	}
	return segs
}

// continuation builds a request whose prompt is parent's segments followed
// by extra more tokens of fresh segments: a session's next turn.
func continuation(rng *mathutil.RNG, id int, parent *Request, extra int) *Request {
	segs := append([]PromptSegment(nil), parent.PromptSegs...)
	segs = randomSegs(rng, segs, extra, 9)
	n := 0
	for _, seg := range segs {
		n += seg.Len
	}
	r := New(id, Chat, 0.05, 0, n, 4, rng.Uint64())
	r.PromptSegs = segs
	return r
}

// TestBlockChainResumesParent checks chain resume against hashing from
// scratch: over random segment decompositions and block sizes, a request
// linked to its parent by ContinueFrom has exactly the chain a fresh Clone
// computes, whether it resumed or fell back. The named cases pin which of
// the two happens: a parent ending in a partial block and a parent shorter
// than one block resume; a parent memoized at another block size, one whose
// segments the child does not repeat, and one padded past its segments fall
// back. The link is gone after the first BlockChain call.
func TestBlockChainResumesParent(t *testing.T) {
	rng := mathutil.NewRNG(17)
	for trial := 0; trial < 400; trial++ {
		bs := []int{1, 3, 4, 16}[trial%4]
		parentLen := 1 + rng.Intn(60)
		parent := New(trial, Chat, 0.05, 0, parentLen, 4, rng.Uint64())
		parent.PromptSegs = randomSegs(rng, nil, parentLen, 12)
		parent.BlockChain(bs)
		child := continuation(rng, trial+1000, parent, rng.Intn(40))
		child.ContinueFrom(parent)
		if child.resumable(bs, child.PromptLen/bs*bs) == nil {
			t.Fatalf("trial %d: a child of a parent memoized at its block size did not resume", trial)
		}
		want := child.Clone().BlockChain(bs)
		if got := child.BlockChain(bs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d bs %d: resumed chain %v, from scratch %v", trial, bs, got, want)
		}
		if child.parent != nil {
			t.Fatalf("trial %d: the parent link outlived its use", trial)
		}
	}

	newParent := func(n int) *Request {
		p := New(1, Chat, 0.05, 0, n, 4, 99)
		p.PromptSegs = randomSegs(rng, nil, n, 5)
		return p
	}
	cases := []struct {
		name   string
		build  func() (parent, child *Request)
		resume bool
	}{
		{"partial trailing block", func() (*Request, *Request) {
			p := newParent(4*5 + 3)
			p.BlockChain(4)
			return p, continuation(rng, 2, p, 30)
		}, true},
		{"shorter than one block", func() (*Request, *Request) {
			p := newParent(3)
			p.BlockChain(4)
			return p, continuation(rng, 2, p, 30)
		}, true},
		{"memo at another block size", func() (*Request, *Request) {
			p := newParent(40)
			p.BlockChain(8)
			return p, continuation(rng, 2, p, 30)
		}, false},
		{"segments not a prefix", func() (*Request, *Request) {
			p := newParent(40)
			p.BlockChain(4)
			c := continuation(rng, 2, p, 30)
			c.PromptSegs[1].Seed++
			return p, c
		}, false},
		{"parent padded past its segments", func() (*Request, *Request) {
			p := newParent(40)
			c := continuation(rng, 2, p, 30)
			p.PromptLen += 8 // its last two blocks hash request-private padding
			p.BlockChain(4)
			return p, c
		}, false},
	}
	for _, tc := range cases {
		parent, child := tc.build()
		child.ContinueFrom(parent)
		if got := child.resumable(4, child.PromptLen/4*4) != nil; got != tc.resume {
			t.Errorf("%s: resumes %v, want %v", tc.name, got, tc.resume)
		}
		want := child.Clone().BlockChain(4)
		if got := child.BlockChain(4); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: chain %v, from scratch %v", tc.name, got, want)
		}
	}
}

// TestContinueFromKeepsNoChain checks the link's lifetime: a parent without
// a memoized chain is not linked, and linking a child drops the parent's own
// link, so a session's turns never form a chain that keeps old turns alive.
func TestContinueFromKeepsNoChain(t *testing.T) {
	a := New(1, Chat, 0.05, 0, 8, 4, 1)
	b := New(2, Chat, 0.05, 0, 8, 4, 2)
	b.ContinueFrom(a)
	if b.parent != nil {
		t.Fatal("linked to a parent with no memoized chain")
	}
	a.BlockChain(4)
	b.BlockChain(4)
	b.ContinueFrom(a) // a link that outlives b's own chain
	if b.parent != a {
		t.Fatal("not linked to a parent with a memoized chain")
	}
	c := New(3, Chat, 0.05, 0, 8, 4, 3)
	c.ContinueFrom(b)
	if c.parent != b || b.parent != nil {
		t.Fatalf("links after ContinueFrom: c→%p b→%p, want c→b and b→nil", c.parent, b.parent)
	}
}

// TestRequestSizeClass keeps Request in the 320-byte allocation size class.
func TestRequestSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 320 {
		t.Fatalf("Request is %d bytes, past the 320-byte size class", n)
	}
}
