package kvcache

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"adaserve/internal/mathutil"
)

// newPrefixAlloc builds an allocator with prefix caching on.
func newPrefixAlloc(t *testing.T, blockSize, numBlocks int, cfg PrefixConfig) *Allocator {
	t.Helper()
	a := newAlloc(t, blockSize, numBlocks)
	if err := a.EnablePrefix(cfg); err != nil {
		t.Fatal(err)
	}
	return a
}

// prompt fabricates the block fingerprint chain, in the 4-token blocks every
// prefix test uses, of n tokens of "document" doc.
func prompt(doc uint64, n int) []uint64 {
	c := NewChainHasher(4, n)
	for i := 0; i < n; i++ {
		c.Add(mathutil.Hash2(doc, uint64(i)))
	}
	return c.Chain()
}

// rescanMarks applies MarkComputed's full-rescan definition — every
// registry-backed block of the sequence fully covered by doneTokens is
// computed — and reports whether that set any flag still unset.
func rescanMarks(a *Allocator, seqID, doneTokens int) bool {
	changed := false
	for i, e := range a.seqs[seqID].entries {
		if (i+1)*a.cfg.BlockSize > doneTokens {
			break
		}
		if e != nil && !e.computed {
			e.computed = true
			changed = true
		}
	}
	return changed
}

// check fails the test on the first invariant violation.
func check(t *testing.T, a *Allocator) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkToZeroKeepsSeqRegistered(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := a.Shrink(1, 40); err != nil {
		t.Fatal(err)
	}
	if !a.Has(1) || a.SeqTokens(1) != 0 {
		t.Fatalf("shrunk-to-zero sequence gone: has=%v tokens=%d", a.Has(1), a.SeqTokens(1))
	}
	if bt := a.BlockTable(1); len(bt) != 0 {
		t.Fatalf("shrunk-to-zero sequence still holds blocks %v", bt)
	}
	if a.UsedBlocks() != 0 {
		t.Fatalf("used %d blocks after shrink to zero", a.UsedBlocks())
	}
	// The empty registration must still extend and free normally.
	if err := a.Extend(1, 17); err != nil {
		t.Fatal(err)
	}
	if a.UsedBlocks() != 2 {
		t.Fatalf("used %d blocks after re-extend, want 2", a.UsedBlocks())
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateZeroTokens(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 0); err != nil {
		t.Fatal(err)
	}
	if !a.Has(1) || a.UsedBlocks() != 0 {
		t.Fatalf("zero-token allocation: has=%v used=%d", a.Has(1), a.UsedBlocks())
	}
	if err := a.Allocate(1, 0); err == nil {
		t.Fatal("duplicate zero-token allocation accepted")
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if a.Has(1) {
		t.Fatal("zero-token sequence survived Free")
	}
}

func TestCanAllocateUnknownSeq(t *testing.T) {
	a := newAlloc(t, 16, 4)
	// An unknown sequence starts from zero tokens: the answer depends only on
	// pool headroom, and asking must not register anything.
	if !a.CanAllocate(42, 64) || a.CanAllocate(42, 65) {
		t.Fatal("unknown-sequence headroom wrong")
	}
	if a.Has(42) || a.NumSeqs() != 0 {
		t.Fatal("CanAllocate registered a sequence")
	}
}

func TestPrefixMatchSkipsSharedBlocks(t *testing.T) {
	a := newPrefixAlloc(t, 4, 16, PrefixConfig{})
	doc := prompt(7, 12)

	hit, err := a.AllocateWithPrefix(1, 12, doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 0 {
		t.Fatalf("first arrival hit %d tokens", hit.Tokens)
	}
	check(t, a)

	// Until prefill completes the registered blocks are not matchable.
	if n := a.MatchPrefixTokens(doc); n != 0 {
		t.Fatalf("uncomputed blocks matched %d tokens", n)
	}
	a.MarkComputed(1, 12)
	if n := a.MatchPrefixTokens(doc); n != 12 {
		t.Fatalf("computed prefix matches %d tokens, want 12", n)
	}
	n, blocks := a.MatchPrefix(doc)
	if n != 12 || len(blocks) != 3 {
		t.Fatalf("MatchPrefix = %d tokens, %v", n, blocks)
	}

	used := a.UsedBlocks()
	hit, err = a.AllocateWithPrefix(2, 12, doc, 12)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 12 || hit.Reloaded != 0 || hit.Stall != 0 {
		t.Fatalf("second arrival hit %+v, want 12 cached tokens", hit)
	}
	if a.UsedBlocks() != used {
		t.Fatalf("full-prefix hit consumed blocks: %d -> %d", used, a.UsedBlocks())
	}
	bt1, bt2 := a.BlockTable(1), a.BlockTable(2)
	for i := range bt2 {
		if bt1[i] != bt2[i] {
			t.Fatalf("shared prefix maps to different blocks: %v vs %v", bt1, bt2)
		}
	}
	check(t, a)

	st := a.PrefixStats()
	if st.Lookups != 1 || st.Hits != 1 || st.HitTokens != 12 {
		t.Fatalf("stats %+v", st)
	}

	// matchLimit caps the hit at full blocks below the limit: with limit 11
	// only the first two 4-token blocks may match.
	hit, err = a.AllocateWithPrefix(3, 12, doc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 8 {
		t.Fatalf("limit-11 hit %d tokens, want 8", hit.Tokens)
	}
	check(t, a)
}

func TestPrefixCopyOnWriteDiverges(t *testing.T) {
	a := newPrefixAlloc(t, 4, 16, PrefixConfig{})
	doc := prompt(3, 8)
	if _, err := a.AllocateWithPrefix(1, 8, doc, 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if _, err := a.AllocateWithPrefix(2, 8, doc, 8); err != nil {
		t.Fatal(err)
	}
	check(t, a)

	// Speculative decode discards a token and re-extends: the sequence's last
	// block is now partially filled AND shared, so appending must first take
	// a private copy instead of mutating the block sequence 1 still reads.
	if err := a.Shrink(2, 1); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if err := a.Extend(2, 2); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	bt1, bt2 := a.BlockTable(1), a.BlockTable(2)
	if bt1[0] != bt2[0] {
		t.Fatalf("untouched prefix block diverged: %v vs %v", bt1, bt2)
	}
	if bt1[1] == bt2[1] {
		t.Fatalf("shared block written without copy: %v vs %v", bt1, bt2)
	}
	// Sequence 1's copy is untouched and still matchable in full.
	if n := a.MatchPrefixTokens(doc); n != 8 {
		t.Fatalf("donor prefix matches %d tokens after COW, want 8", n)
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(2); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if a.UsedBlocks() != a.ColdBlocks() {
		t.Fatalf("used %d != cold %d after freeing everything", a.UsedBlocks(), a.ColdBlocks())
	}
}

func TestPrefixEvictionDemotionAndReload(t *testing.T) {
	stall := 0.0125
	a := newPrefixAlloc(t, 4, 4, PrefixConfig{
		HostBlocks:    2,
		ReloadLatency: func(tokens int) float64 { return stall * float64(tokens) / 4 },
	})
	docA, docB := prompt(1, 8), prompt(2, 16)

	// A's two blocks go cold on Free: still GPU-resident and matchable.
	if _, err := a.AllocateWithPrefix(1, 8, docA, 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if a.ColdBlocks() != 2 || a.MatchPrefixTokens(docA) != 8 {
		t.Fatalf("cold=%d match=%d after free", a.ColdBlocks(), a.MatchPrefixTokens(docA))
	}

	// B needs the whole pool: both cold blocks are reclaimed and demote to
	// the host tier, where they remain matchable.
	if _, err := a.AllocateWithPrefix(2, 16, docB, 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || st.HostEvictions != 0 || a.HostBlocksResident() != 2 {
		t.Fatalf("after pressure: %+v, host %d", st, a.HostBlocksResident())
	}
	if a.MatchPrefixTokens(docA) != 8 {
		t.Fatal("host-resident prefix no longer matchable")
	}
	n, blocks := a.MatchPrefix(docA)
	if n != 8 || blocks[0] != -1 || blocks[1] != -1 {
		t.Fatalf("MatchPrefix on host tier = %d, %v (want -1 markers)", n, blocks)
	}
	if err := a.Free(2); err != nil {
		t.Fatal(err)
	}
	check(t, a)

	// A's return pays the reload: both blocks promote back to the GPU and the
	// hit carries the priced stall.
	hit, err := a.AllocateWithPrefix(3, 8, docA, 8)
	if err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if hit.Tokens != 8 || hit.Reloaded != 8 {
		t.Fatalf("reload hit %+v, want 8 tokens all reloaded", hit)
	}
	if want := stall * 2; hit.Stall != want {
		t.Fatalf("stall %g, want %g", hit.Stall, want)
	}
	st = a.PrefixStats()
	if st.Reloads != 2 || st.ReloadedTokens != 8 || st.ReloadStall != stall*2 {
		t.Fatalf("reload stats %+v", st)
	}
	if a.HostBlocksResident() != 0 {
		t.Fatalf("host tier still holds %d after reload", a.HostBlocksResident())
	}
}

func TestPrefixHostTierOverflowDrops(t *testing.T) {
	a := newPrefixAlloc(t, 4, 2, PrefixConfig{HostBlocks: 1})
	if _, err := a.AllocateWithPrefix(1, 8, prompt(1, 8), 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	// Reclaiming both cold blocks demotes both, but the 1-block tier can only
	// keep the newer one: the older demotion is dropped for good.
	if _, err := a.AllocateWithPrefix(2, 8, prompt(2, 8), 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || st.HostEvictions != 1 || a.HostBlocksResident() != 1 {
		t.Fatalf("overflow: %+v, host %d", st, a.HostBlocksResident())
	}
	// The drop took the chain's FIRST block (demoted earliest, so oldest on
	// the host LRU); the surviving second block is unreachable without its
	// predecessor, because a chained fingerprint match must be contiguous
	// from the prompt start.
	if n := a.MatchPrefixTokens(prompt(1, 8)); n != 0 {
		t.Fatalf("broken chain still matches %d tokens", n)
	}
}

func TestPrefixNoTierDropsOnEviction(t *testing.T) {
	a := newPrefixAlloc(t, 4, 2, PrefixConfig{})
	if _, err := a.AllocateWithPrefix(1, 8, prompt(1, 8), 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocateWithPrefix(2, 8, prompt(2, 8), 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || a.HostBlocksResident() != 0 {
		t.Fatalf("tier-less eviction: %+v, host %d", st, a.HostBlocksResident())
	}
	if a.MatchPrefixTokens(prompt(1, 8)) != 0 {
		t.Fatal("dropped blocks still match")
	}
}

func TestEnablePrefixValidation(t *testing.T) {
	a := newAlloc(t, 4, 4)
	if err := a.EnablePrefix(PrefixConfig{HostBlocks: -1}); err == nil {
		t.Fatal("negative host tier accepted")
	}
	if err := a.EnablePrefix(PrefixConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := a.EnablePrefix(PrefixConfig{}); err == nil {
		t.Fatal("double enable accepted")
	}
	b := newAlloc(t, 4, 4)
	if err := b.Allocate(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.EnablePrefix(PrefixConfig{}); err == nil {
		t.Fatal("enable on a non-empty allocator accepted")
	}
}

// TestPrefixInvariantProperty drives random allocator operations — prefix
// allocations over a tiny document alphabet (forcing heavy sharing), extends
// (copy-on-write when the last block is shared and partial), shrinks, frees
// and prefill completions — and runs the full CheckInvariants accounting
// after every single mutation: refcounts equal actual holders, every block
// has exactly one owner, LRU lists agree with entry states, the host tier
// respects its bound, and blocks below each watermark are computed. Every
// MarkComputed is checked against a full rescan: the watermark walk must
// leave exactly the computed flags the rescan would.
func TestPrefixInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathutil.NewRNG(seed)
		a := MustNew(Config{BlockSize: 4, NumBlocks: 24})
		if err := a.EnablePrefix(PrefixConfig{HostBlocks: int(rng.Intn(3)) * 4}); err != nil {
			return false
		}
		live := map[int]bool{}
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0, 1: // allocate with prefix matching
				id := next
				next++
				tokens := rng.Intn(40)
				doc := prompt(uint64(rng.Intn(3)), tokens)
				limit := tokens
				if limit > 0 {
					limit = rng.Intn(tokens + 1)
				}
				if _, err := a.AllocateWithPrefix(id, tokens, doc, limit); err == nil {
					live[id] = true
				}
			case 2: // extend
				for id := range live {
					_ = a.Extend(id, rng.Intn(12))
					break
				}
			case 3: // shrink
				for id := range live {
					if n := a.SeqTokens(id); n > 0 {
						_ = a.Shrink(id, rng.Intn(n+1))
					}
					break
				}
			case 4: // prefill progress makes blocks matchable
				for id := range live {
					done := rng.Intn(a.SeqTokens(id) + 1)
					a.MarkComputed(id, done)
					if rescanMarks(a, id, done) {
						t.Logf("seq %d: MarkComputed(%d) left blocks a full rescan marks", id, done)
						return false
					}
					break
				}
			case 5: // free
				for id := range live {
					if a.Free(id) == nil {
						delete(live, id)
					}
					break
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefixEnabledReporting(t *testing.T) {
	a := newAlloc(t, 4, 8)
	if a.PrefixEnabled() {
		t.Fatal("fresh allocator reports prefix caching enabled")
	}
	if err := a.EnablePrefix(PrefixConfig{}); err != nil {
		t.Fatal(err)
	}
	if !a.PrefixEnabled() {
		t.Fatal("enabled allocator reports prefix caching disabled")
	}
}

// TestPrefixReloadSurvivesHostOverflow regression-tests an eviction race
// inside AllocateWithPrefix: reloading a matched host-tier block can itself
// demote cold blocks to the host tier, and the resulting overflow drop used
// to claim the oldest host entry — which could be the very entry being
// reloaded, leaving the new sequence chained to a deleted fingerprint and
// the host LRU corrupted by a double remove.
func TestPrefixReloadSurvivesHostOverflow(t *testing.T) {
	a := newPrefixAlloc(t, 4, 3, PrefixConfig{HostBlocks: 1})

	// doc1's single block: computed, freed to cold, then forced to the host
	// tier by a private allocation that drains the pool.
	if _, err := a.AllocateWithPrefix(1, 4, prompt(1, 4), 4); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 4)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate(90, 12); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(90); err != nil {
		t.Fatal(err)
	}
	if a.HostBlocksResident() != 1 {
		t.Fatalf("host tier holds %d, want doc1's block", a.HostBlocksResident())
	}
	check(t, a)

	// Two more cold single-block entries and a private holder so the free
	// list is empty: the doc1 reload below must evict cold blocks, and each
	// eviction demotes into the already-full host tier.
	for doc := uint64(2); doc <= 3; doc++ {
		id := int(doc)
		if _, err := a.AllocateWithPrefix(id, 4, prompt(doc, 4), 4); err != nil {
			t.Fatal(err)
		}
		a.MarkComputed(id, 4)
		if err := a.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Allocate(91, 4); err != nil {
		t.Fatal(err)
	}
	if a.FreeBlocks() != 0 || a.ColdBlocks() != 2 {
		t.Fatalf("free %d cold %d, want 0/2", a.FreeBlocks(), a.ColdBlocks())
	}
	check(t, a)

	// Match doc1's host-resident block and extend past it: the reload's own
	// evictions overflow the host tier, but must drop the unmatched cold
	// demotions, never the matched entry.
	hit, err := a.AllocateWithPrefix(4, 8, prompt(1, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if hit.Tokens != 4 || hit.Reloaded != 4 {
		t.Fatalf("hit %+v, want 4 cached tokens, all reloaded", hit)
	}
	a.MarkComputed(4, 8)
	if got := a.MatchPrefixTokens(prompt(1, 8)); got != 8 {
		t.Fatalf("donor prefix matches %d tokens after reload, want 8", got)
	}
}

// TestChainHasherPrefixStable checks the chain's shape: one fingerprint per
// full block, none for a trailing partial block, never the 0 sentinel, and
// the chain of a prompt's first k tokens is a prefix of the full chain.
func TestChainHasherPrefixStable(t *testing.T) {
	full := prompt(9, 64)
	if len(full) != 16 {
		t.Fatalf("64 tokens in 4-token blocks gave %d fingerprints", len(full))
	}
	for k := 0; k <= 64; k++ {
		part := prompt(9, k)
		if len(part) != k/4 {
			t.Fatalf("%d tokens gave %d fingerprints, want %d", k, len(part), k/4)
		}
		for i, h := range part {
			if h == 0 || h != full[i] {
				t.Fatalf("%d-token chain entry %d = %#x, full chain has %#x", k, i, h, full[i])
			}
		}
	}
}

// TestMarkComputedAllocatesNothing gates the per-iteration MarkComputed call
// schedulers make for every running request.
func TestMarkComputedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	a := newPrefixAlloc(t, 4, 64, PrefixConfig{})
	if _, err := a.AllocateWithPrefix(1, 200, prompt(1, 200), 0); err != nil {
		t.Fatal(err)
	}
	done := 0
	allocs := testing.AllocsPerRun(100, func() {
		done += 2
		a.MarkComputed(1, done)
	})
	if allocs != 0 {
		t.Fatalf("MarkComputed allocates %.1f times, want 0", allocs)
	}
	check(t, a)
}

// cycleAllocs measures one admit/compute/free cycle of a blocks-block prompt
// on an allocator whose GPU pool holds two such prompts and whose host tier
// holds hostPrompts of them: every cycle's prompt is new, so each admission
// evicts the previous prompts' cold blocks, and with a host tier each
// demotion overflows it. Warm-up fills the pool, the tier and the table.
func cycleAllocs(t *testing.T, blocks, hostPrompts int) float64 {
	const bs = 4
	a := newPrefixAlloc(t, bs, 2*blocks, PrefixConfig{HostBlocks: hostPrompts * blocks})
	tokens := blocks * bs
	chain := make([]uint64, blocks)
	doc := uint64(0)
	cycle := func() {
		doc++
		for i := range chain {
			chain[i] = mathutil.Hash2(doc, uint64(i)) | 1
		}
		if _, err := a.AllocateWithPrefix(1, tokens, chain, tokens); err != nil {
			t.Fatal(err)
		}
		a.MarkComputed(1, tokens)
		if err := a.Free(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*(hostPrompts+2); i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	check(t, a)
	if a.PrefixStats().Evictions == 0 || (hostPrompts > 0 && a.PrefixStats().HostEvictions == 0) {
		t.Fatalf("stats %+v: the cycle must evict (and overflow the host tier)", a.PrefixStats())
	}
	return allocs
}

// TestPrefixCycleAllocationsConstant gates entry recycling: once warm, an
// admit/compute/free cycle over a new prompt allocates the same few objects
// (the sequence and its two tables) whatever the prompt's block count, with
// no host tier (every eviction drops entries) and with one that overflows.
// Entries that were not recycled would cost a chunk every entryChunk blocks.
func TestPrefixCycleAllocationsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, host := range []int{0, 3} {
		small, large := cycleAllocs(t, 64, host), cycleAllocs(t, 4*entryChunk, host)
		if small != large || large > 3 {
			t.Errorf("host tier of %d prompts: a cycle allocates %.0f times at 64 blocks and %.0f at %d, want equal and at most 3",
				host, small, large, 4*entryChunk)
		}
	}
}

// TestCheckInvariantsFlagsRecycledEntries corrupts the entry free list two
// ways CheckInvariants must catch: a sequence still holding an entry that
// was recycled, and a recycled entry that is still in the table.
func TestCheckInvariantsFlagsRecycledEntries(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(p *prefixState, e *shared)
	}{
		{"held entry recycled", "the table does not", func(p *prefixState, e *shared) { p.drop(e) }},
		{"spare entry in table", "on the spare list", func(p *prefixState, e *shared) {
			e.next, p.spare = p.spare, e
		}},
	} {
		a := newPrefixAlloc(t, 4, 8, PrefixConfig{})
		if _, err := a.AllocateWithPrefix(1, 12, prompt(1, 12), 12); err != nil {
			t.Fatal(err)
		}
		check(t, a)
		tc.corrupt(a.prefix, a.seqs[1].entries[1])
		err := a.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestEntryChunkFitsSizeClass keeps an entry chunk, plus the allocator's
// 8-byte header for pointerful objects, inside the 6144 B size class.
func TestEntryChunkFitsSizeClass(t *testing.T) {
	if n := entryChunk*unsafe.Sizeof(shared{}) + 8; n > 6144 {
		t.Fatalf("a %d-entry chunk takes %d B, past the 6144 B size class", entryChunk, n)
	}
}
