// Package kvcache implements a PagedAttention-style block allocator for
// KV-cache memory, the substrate vLLM introduced and every system in this
// repository (AdaServe included) runs on.
//
// Tokens are stored in fixed-size blocks; a sequence owns a block table.
// The allocator tracks capacity so the simulator can enforce admission
// control.
package kvcache

import "fmt"

// Config sizes the allocator.
type Config struct {
	// BlockSize is the tokens per block (vLLM default: 16).
	BlockSize int
	// NumBlocks is the total block pool size.
	NumBlocks int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("kvcache: block size %d <= 0", c.BlockSize)
	}
	if c.NumBlocks <= 0 {
		return fmt.Errorf("kvcache: block count %d <= 0", c.NumBlocks)
	}
	return nil
}

// ConfigForTokens returns a Config able to hold capacityTokens with the
// given block size.
func ConfigForTokens(capacityTokens, blockSize int) Config {
	blocks := (capacityTokens + blockSize - 1) / blockSize
	if blocks < 1 {
		blocks = 1
	}
	return Config{BlockSize: blockSize, NumBlocks: blocks}
}

// seq tracks one sequence's allocation. With prefix caching enabled, entries
// runs parallel to blocks over the prompt's full blocks: a non-nil entry is
// the fingerprint-table entry of a registry-backed (shared or shareable)
// block, nil marks a private block. Holding the entry itself means release,
// copy-on-write and MarkComputed never look a fingerprint up. entries is
// always at most as long as blocks and empty when prefix caching is off.
// marked is MarkComputed's watermark: entries[:marked] are known computed (or
// private), so each block is marked once.
type seq struct {
	blocks  []int
	tokens  int
	entries []*shared
	marked  int
}

// Allocator manages the block pool. It is not safe for concurrent use; the
// simulator is single-threaded per serving instance.
type Allocator struct {
	cfg Config
	// free is the stack of recycled block IDs, popped LIFO. Block IDs in
	// [fresh, NumBlocks) have never been handed out; they pop in ascending
	// order once free is empty. Together they behave as one descending free
	// list without touching capacity-sized memory at construction.
	free  []int
	fresh int
	seqs  map[int]*seq

	// prefix is nil unless EnablePrefix was called; every shared-prefix path
	// gates on it so the disabled allocator behaves exactly as before.
	prefix *prefixState

	// PeakUsedBlocks records the allocation high-water mark.
	PeakUsedBlocks int
	// Failures counts rejected allocations (capacity exhausted).
	Failures int
}

// New creates an allocator with all blocks free.
func New(cfg Config) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Allocator{cfg: cfg, seqs: make(map[int]*seq)}, nil
}

// MustNew panics on config error.
func MustNew(cfg Config) *Allocator {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }

// blocksFor returns the blocks needed for n tokens.
func (a *Allocator) blocksFor(n int) int {
	return (n + a.cfg.BlockSize - 1) / a.cfg.BlockSize
}

// CanAllocate reports whether extending/creating a sequence to hold
// additional tokens would succeed, given its current token count.
func (a *Allocator) CanAllocate(seqID, additional int) bool {
	cur := 0
	if s, ok := a.seqs[seqID]; ok {
		cur = s.tokens
	}
	need := a.blocksFor(cur+additional) - a.blocksFor(cur)
	return need <= a.availableBlocks()
}

// Allocate registers a new sequence with tokens tokens. It fails if the
// sequence exists or capacity is insufficient.
func (a *Allocator) Allocate(seqID, tokens int) error {
	if _, ok := a.seqs[seqID]; ok {
		return fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	if tokens < 0 {
		return fmt.Errorf("kvcache: negative token count %d", tokens)
	}
	need := a.blocksFor(tokens)
	if avail := a.availableBlocks(); need > avail {
		a.Failures++
		return fmt.Errorf("kvcache: need %d blocks, %d free", need, avail)
	}
	s := &seq{tokens: tokens, blocks: make([]int, need)}
	for i := range s.blocks {
		s.blocks[i], _ = a.popAvailable()
	}
	a.seqs[seqID] = s
	a.updatePeak()
	return nil
}

// Extend grows a sequence by n tokens, allocating blocks as needed.
func (a *Allocator) Extend(seqID, n int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	// Copy-on-write: appending tokens into a partially filled block that is
	// registry-backed would diverge from the cached content every sharer
	// sees, so the sequence must take a private copy of that block first.
	cow := -1
	if n > 0 && s.tokens%a.cfg.BlockSize != 0 {
		if i := len(s.blocks) - 1; i >= 0 && i < len(s.entries) && s.entries[i] != nil {
			cow = i
		}
	}
	need := a.blocksFor(s.tokens+n) - a.blocksFor(s.tokens)
	extra := 0
	if cow >= 0 {
		extra = 1
	}
	if avail := a.availableBlocks(); need+extra > avail {
		a.Failures++
		return fmt.Errorf("kvcache: need %d blocks, %d free", need+extra, avail)
	}
	if cow >= 0 {
		id, _ := a.popAvailable()
		a.release(s.entries[cow])
		s.blocks[cow] = id
		s.entries[cow] = nil
	}
	for i := 0; i < need; i++ {
		id, _ := a.popAvailable()
		s.blocks = append(s.blocks, id)
	}
	s.tokens += n
	a.updatePeak()
	return nil
}

// Shrink releases tokens from the tail of a sequence (e.g. discarded
// speculative tokens), freeing now-empty blocks.
func (a *Allocator) Shrink(seqID, n int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if n < 0 || n > s.tokens {
		return fmt.Errorf("kvcache: shrink %d out of range (have %d)", n, s.tokens)
	}
	s.tokens -= n
	keep := a.blocksFor(s.tokens)
	for len(s.blocks) > keep {
		i := len(s.blocks) - 1
		last := s.blocks[i]
		s.blocks = s.blocks[:i]
		var e *shared
		if i < len(s.entries) {
			e = s.entries[i]
			s.entries = s.entries[:i]
		}
		if e != nil {
			a.release(e)
		} else {
			a.free = append(a.free, last)
		}
	}
	// Blocks below the watermark that survive keep their entries (a held
	// entry is never deleted or un-computed), so only the length can shrink.
	s.marked = min(s.marked, len(s.entries))
	return nil
}

// Free releases all blocks of a sequence.
func (a *Allocator) Free(seqID int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if len(s.entries) == 0 {
		a.free = append(a.free, s.blocks...)
	} else {
		for i, b := range s.blocks {
			if i < len(s.entries) && s.entries[i] != nil {
				a.release(s.entries[i])
			} else {
				a.free = append(a.free, b)
			}
		}
	}
	delete(a.seqs, seqID)
	return nil
}

// Has reports whether the sequence is registered.
func (a *Allocator) Has(seqID int) bool {
	_, ok := a.seqs[seqID]
	return ok
}

// SeqTokens returns the token count of a sequence (0 if absent).
func (a *Allocator) SeqTokens(seqID int) int {
	if s, ok := a.seqs[seqID]; ok {
		return s.tokens
	}
	return 0
}

// UsedBlocks returns the number of allocated blocks.
func (a *Allocator) UsedBlocks() int { return a.cfg.NumBlocks - a.FreeBlocks() }

// FreeBlocks returns the number of free blocks.
func (a *Allocator) FreeBlocks() int { return len(a.free) + a.cfg.NumBlocks - a.fresh }

// FreeTokens returns how many more tokens could be stored in free blocks.
func (a *Allocator) FreeTokens() int { return a.FreeBlocks() * a.cfg.BlockSize }

// NumSeqs returns the number of registered sequences.
func (a *Allocator) NumSeqs() int { return len(a.seqs) }

// TotalTokens returns the total tokens held across sequences.
func (a *Allocator) TotalTokens() int {
	t := 0
	for _, s := range a.seqs {
		t += s.tokens
	}
	return t
}

// BlockTable returns a copy of the block IDs owned by a sequence, in order.
func (a *Allocator) BlockTable(seqID int) []int {
	s, ok := a.seqs[seqID]
	if !ok {
		return nil
	}
	out := make([]int, len(s.blocks))
	copy(out, s.blocks)
	return out
}

// pop takes a free block: the most recently recycled one, else the lowest
// never-used one. The caller checks FreeBlocks() > 0.
func (a *Allocator) pop() int {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b
	}
	a.fresh++
	return a.fresh - 1
}

func (a *Allocator) updatePeak() {
	if u := a.UsedBlocks(); u > a.PeakUsedBlocks {
		a.PeakUsedBlocks = u
	}
}
