package kvcache

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"adaserve/internal/mathutil"
)

func newAlloc(t *testing.T, blockSize, numBlocks int) *Allocator {
	t.Helper()
	a, err := New(Config{BlockSize: blockSize, NumBlocks: numBlocks})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// internalFragmentation returns the fraction of a's allocated block capacity
// that holds no token (waste inside partially filled last blocks).
func internalFragmentation(a *Allocator) float64 {
	used := a.UsedBlocks() * a.cfg.BlockSize
	if used == 0 {
		return 0
	}
	return float64(used-a.TotalTokens()) / float64(used)
}

// seqIDs returns a's registered sequence IDs in ascending order.
func seqIDs(a *Allocator) []int {
	ids := make([]int, 0, len(a.seqs))
	for id := range a.seqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func TestConfigValidate(t *testing.T) {
	if (Config{BlockSize: 0, NumBlocks: 1}).Validate() == nil {
		t.Error("zero block size accepted")
	}
	if (Config{BlockSize: 16, NumBlocks: 0}).Validate() == nil {
		t.Error("zero block count accepted")
	}
	if (Config{BlockSize: 16, NumBlocks: 8}).Validate() != nil {
		t.Error("valid config rejected")
	}
}

func TestConfigForTokens(t *testing.T) {
	c := ConfigForTokens(100, 16)
	if c.NumBlocks != 7 {
		t.Fatalf("100 tokens / 16 per block = 7 blocks, got %d", c.NumBlocks)
	}
	if ConfigForTokens(0, 16).NumBlocks != 1 {
		t.Fatal("zero capacity should still allocate one block")
	}
}

func TestAllocateAndFree(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	if a.UsedBlocks() != 3 || a.FreeBlocks() != 5 {
		t.Fatalf("used=%d free=%d", a.UsedBlocks(), a.FreeBlocks())
	}
	if a.SeqTokens(1) != 40 {
		t.Fatalf("seq tokens %d", a.SeqTokens(1))
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if a.UsedBlocks() != 0 || a.NumSeqs() != 0 {
		t.Fatal("free did not release blocks")
	}
}

func TestAllocateDuplicateFails(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate(1, 10); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
}

func TestAllocateCapacityExhausted(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 64); err != nil { // exactly 4 blocks
		t.Fatal(err)
	}
	if err := a.Allocate(2, 1); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	if a.Failures != 1 {
		t.Fatalf("failures = %d", a.Failures)
	}
}

func TestExtendAcrossBlockBoundary(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 15); err != nil {
		t.Fatal(err)
	}
	if a.UsedBlocks() != 1 {
		t.Fatal("15 tokens should use 1 block")
	}
	if err := a.Extend(1, 1); err != nil { // 16 tokens, still 1 block
		t.Fatal(err)
	}
	if a.UsedBlocks() != 1 {
		t.Fatal("16 tokens should still use 1 block")
	}
	if err := a.Extend(1, 1); err != nil { // 17 tokens -> 2 blocks
		t.Fatal(err)
	}
	if a.UsedBlocks() != 2 {
		t.Fatal("17 tokens should use 2 blocks")
	}
}

func TestExtendUnknownSeq(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Extend(9, 1); err == nil {
		t.Fatal("extend of unknown sequence accepted")
	}
}

func TestShrinkReleasesBlocks(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 48); err != nil {
		t.Fatal(err)
	}
	if err := a.Shrink(1, 33); err != nil { // 15 tokens -> 1 block
		t.Fatal(err)
	}
	if a.UsedBlocks() != 1 || a.SeqTokens(1) != 15 {
		t.Fatalf("used=%d tokens=%d", a.UsedBlocks(), a.SeqTokens(1))
	}
	if err := a.Shrink(1, 100); err == nil {
		t.Fatal("over-shrink accepted")
	}
}

func TestCanAllocate(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if !a.CanAllocate(1, 64) {
		t.Fatal("64 tokens should fit in 4 blocks")
	}
	if a.CanAllocate(1, 65) {
		t.Fatal("65 tokens should not fit")
	}
	if err := a.Allocate(1, 16); err != nil {
		t.Fatal(err)
	}
	// Sequence 1 holds 1 block; extending by 48 needs 3 more: OK.
	if !a.CanAllocate(1, 48) {
		t.Fatal("extension should fit")
	}
	if a.CanAllocate(1, 49) {
		t.Fatal("extension should not fit")
	}
}

func TestBlockTableStable(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 33); err != nil {
		t.Fatal(err)
	}
	bt := a.BlockTable(1)
	if len(bt) != 3 {
		t.Fatalf("block table %v", bt)
	}
	seen := map[int]bool{}
	for _, b := range bt {
		if b < 0 || b >= 8 || seen[b] {
			t.Fatalf("invalid block table %v", bt)
		}
		seen[b] = true
	}
	if a.BlockTable(99) != nil {
		t.Fatal("unknown sequence should have nil table")
	}
}

func TestFragmentationAccounting(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 1); err != nil { // 1 token in a 16-token block
		t.Fatal(err)
	}
	frag := internalFragmentation(a)
	if frag < 0.9 {
		t.Fatalf("fragmentation %g, want ~0.94", frag)
	}
	if err := a.Extend(1, 15); err != nil {
		t.Fatal(err)
	}
	if internalFragmentation(a) != 0 {
		t.Fatal("full block should have zero fragmentation")
	}
}

func TestPeakTracking(t *testing.T) {
	a := newAlloc(t, 16, 8)
	_ = a.Allocate(1, 64)
	_ = a.Free(1)
	_ = a.Allocate(2, 16)
	if a.PeakUsedBlocks != 4 {
		t.Fatalf("peak %d, want 4", a.PeakUsedBlocks)
	}
}

func TestSeqIDsSorted(t *testing.T) {
	a := newAlloc(t, 16, 8)
	for _, id := range []int{5, 1, 3} {
		if err := a.Allocate(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	ids := seqIDs(a)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("SeqIDs = %v", ids)
	}
}

// TestAllocatorInvariantProperty drives random operations and checks the
// conservation invariant: used + free == total, no block owned twice.
func TestAllocatorInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathutil.NewRNG(seed)
		a := MustNew(Config{BlockSize: 8, NumBlocks: 32})
		live := map[int]bool{}
		next := 0
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0: // allocate
				id := next
				next++
				if a.Allocate(id, rng.Intn(60)) == nil {
					live[id] = true
				}
			case 1: // extend
				for id := range live {
					_ = a.Extend(id, rng.Intn(20))
					break
				}
			case 2: // shrink
				for id := range live {
					n := a.SeqTokens(id)
					if n > 0 {
						_ = a.Shrink(id, rng.Intn(n+1))
					}
					break
				}
			case 3: // free
				for id := range live {
					if a.Free(id) == nil {
						delete(live, id)
					}
					break
				}
			}
			if a.UsedBlocks()+a.FreeBlocks() != 32 {
				return false
			}
			owned := map[int]bool{}
			for _, id := range seqIDs(a) {
				for _, b := range a.BlockTable(id) {
					if owned[b] {
						return false
					}
					owned[b] = true
				}
			}
			if len(owned) != a.UsedBlocks() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreeListMatchesReversedSlice checks the recycled stack plus fresh
// counter against the free list it replaced — all IDs in one slice, highest
// first, popped from the end and pushed back on top — over random pop/push
// interleavings: both must hand out the same block-ID sequence.
func TestFreeListMatchesReversedSlice(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathutil.NewRNG(seed)
		const n = 24
		a := MustNew(Config{BlockSize: 4, NumBlocks: n})
		ref := make([]int, n)
		for i := range ref {
			ref[i] = n - 1 - i
		}
		var held []int
		for op := 0; op < 400; op++ {
			if len(ref) != a.FreeBlocks() {
				return false
			}
			if len(ref) > 0 && (len(held) == 0 || rng.Intn(2) == 0) {
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if got := a.pop(); got != want {
					t.Logf("op %d: pop %d, reversed slice pops %d", op, got, want)
					return false
				}
				held = append(held, want)
				continue
			}
			i := rng.Intn(len(held))
			id := held[i]
			held = append(held[:i], held[i+1:]...)
			ref = append(ref, id)
			a.free = append(a.free, id)
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocatesConstantBytes gates construction cost: a fresh allocator
// touches no capacity-sized memory, so building one over 1k or 1M blocks
// allocates the same few bytes. TotalAlloc is process-wide, so a round can
// pick up stray allocations from the runtime or other goroutines: the
// collector is held off in the window and the least bytes-per-New over
// several rounds is compared. Stray bytes only ever add to a round.
func TestNewAllocatesConstantBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytesPerNew := func(blocks int) uint64 {
		const rounds, runs = 5, 100
		cfg := Config{BlockSize: 16, NumBlocks: blocks}
		MustNew(cfg)
		least := uint64(math.MaxUint64)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				MustNew(cfg)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	small, large := bytesPerNew(1<<10), bytesPerNew(1<<20)
	if small != large || large >= 4<<10 {
		t.Fatalf("New allocates %d B for 1k blocks and %d B for 1M, want equal and under 4 KiB", small, large)
	}
}
