// Shared-prefix reuse: content-addressed block hashing over prompt token
// seeds, refcounted shared blocks with copy-on-write divergence, and a tiered
// host-offload pool for evicted cold prefixes.
//
// The scheme follows vLLM's automatic prefix caching: only FULL prompt blocks
// are shareable, each identified by a chained fingerprint — the hash of the
// block's token content mixed with the previous block's fingerprint — so a
// block match implies the entire prefix up to and including that block
// matches. A newly allocated sequence registers its full prompt blocks in the
// fingerprint table; a later sequence whose prompt chains to the same
// fingerprints takes references on the same physical blocks and skips prefill
// for the matched tokens. Blocks whose last reference drops join a cold LRU:
// still GPU-resident and instantly matchable, reclaimed only under allocation
// pressure. With a host tier configured, reclaimed cold blocks demote to a
// bounded host pool instead of vanishing; matching a host-resident block
// costs a reload priced by the configured interconnect latency, charged to
// the admitted request ahead of its first prefill pass.
//
// Everything here is deterministic: LRU order is maintained with intrusive
// lists (never map iteration), fingerprints are pure functions of token
// content, and matching is strictly leftmost-contiguous over computed blocks.
package kvcache

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// PrefixConfig enables shared-prefix reuse on an allocator.
type PrefixConfig struct {
	// HostBlocks caps the host offload tier in blocks. 0 disables the tier:
	// cold blocks reclaimed under allocation pressure are dropped outright.
	HostBlocks int
	// ReloadLatency prices moving n reloaded tokens from the host tier back
	// onto the GPU (typically gpu.KVTransfer.Latency over a PCIe link). nil
	// makes reloads free; the reload still counts in the stats.
	ReloadLatency func(tokens int) float64
}

// PrefixStats counts what the prefix cache did over the allocator's life.
type PrefixStats struct {
	// Lookups counts admissions that attempted a prefix match; Hits those
	// that matched at least one block.
	Lookups, Hits int
	// HitTokens is the total prompt tokens served from cache — prefill work
	// the admitted requests skipped.
	HitTokens int
	// Evictions counts cold blocks reclaimed from the GPU (demoted to the
	// host tier, or dropped when no tier is configured); HostEvictions
	// counts host-tier entries dropped at host-capacity pressure.
	Evictions, HostEvictions int
	// Reloads counts host-resident blocks promoted back to the GPU on a
	// match, covering ReloadedTokens tokens and stalling admitted requests
	// for ReloadStall seconds in total.
	Reloads        int
	ReloadedTokens int
	ReloadStall    float64
}

// PrefixHit reports what AllocateWithPrefix reused for one sequence.
type PrefixHit struct {
	// Tokens is the cached prefix length: prompt tokens whose prefill the
	// sequence skips.
	Tokens int
	// Reloaded is the subset of Tokens that had to be reloaded from the
	// host tier; Stall is the priced reload latency the caller must charge
	// before the sequence's first prefill pass.
	Reloaded int
	Stall    float64
}

// shared is one fingerprint-table entry: a physical block holding one full
// block of some prompt's KV, shared by refs sequences. refs == 0 means cold:
// GPU-resident on the cold LRU (matchable, reclaimable) or demoted to the
// host tier (matchable via reload). The prev/next links thread the entry
// into whichever LRU list currently owns it; a dropped entry waits for reuse
// on the allocator's spare list, threaded through next.
type shared struct {
	hash       uint64
	id         int
	refs       int
	computed   bool
	onHost     bool
	prev, next *shared
}

// lruList is an intrusive doubly linked list of shared entries, front = least
// recently used. Deterministic by construction: order depends only on the
// sequence of push/remove operations, never on map iteration.
type lruList struct {
	head, tail *shared
	n          int
}

func (l *lruList) pushBack(e *shared) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *lruList) remove(e *shared) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) popFront() *shared {
	e := l.head
	l.remove(e)
	return e
}

// entryChunk is the number of entries carved from one allocation. 127 × 48 B
// plus the 8-byte header the Go allocator puts on pointerful objects over
// 512 B fills the 6144 B size class exactly; 128 would round up to 6528 B.
const entryChunk = 127

// prefixState is the allocator's prefix-cache side table.
type prefixState struct {
	cfg   PrefixConfig
	table map[uint64]*shared
	cold  lruList // refs == 0, GPU-resident, LRU reclaim order
	host  lruList // offloaded entries, LRU drop order
	stats PrefixStats
	// matched is AllocateWithPrefix's scratch list of matched entries,
	// reused across calls so failed admission retries allocate nothing.
	matched []*shared
	// spare lists dropped entries for reuse (linked through next) and chunk
	// holds the uncarved rest of the newest chunk. Sequences hold entry
	// pointers, so a dropped entry cannot be left to the collector while
	// its chunk lives on; recycling keeps entry memory O(live entries).
	spare *shared
	chunk []shared
}

// newEntry registers a fresh entry for fingerprint h on GPU block id, held
// by one sequence: a recycled entry if any, else one carved from a chunk.
func (p *prefixState) newEntry(h uint64, id int) *shared {
	e := p.spare
	if e != nil {
		p.spare = e.next
	} else {
		if len(p.chunk) == 0 {
			p.chunk = make([]shared, entryChunk)
		}
		e = &p.chunk[0]
		p.chunk = p.chunk[1:]
	}
	*e = shared{hash: h, id: id, refs: 1}
	p.table[h] = e
	return e
}

// drop deletes an entry from the table and recycles it. The caller has
// already taken it off any LRU list, and no sequence holds it.
func (p *prefixState) drop(e *shared) {
	delete(p.table, e.hash)
	*e = shared{next: p.spare}
	p.spare = e
}

// prefixChainSeed anchors the block fingerprint chain.
const prefixChainSeed uint64 = 0x70726566697843 // "prefixC"

// ChainHasher streams a prompt's token seeds, in prompt order, into its
// block fingerprint chain: one fingerprint per full block, each the hash of
// the block length and the block's seeds mixed into the previous block's
// fingerprint. No per-token slice is ever built. Seeds of a trailing partial
// block are absorbed but never fingerprinted: only full blocks are
// shareable. A fingerprint is never 0.
//
// The chain is a pure function of the seeds and the block size, so callers
// compute it once per prompt and pass it (or a prefix of it) to MatchPrefix,
// MatchPrefixTokens and AllocateWithPrefix of allocators with that block
// size.
type ChainHasher struct {
	bs    int
	n     int    // seeds absorbed into the current block
	h     uint64 // running hash of the current block
	chain []uint64
}

// NewChainHasher starts a chain over blocks of blockSize tokens, with room
// for the full blocks of a tokens-token prompt.
func NewChainHasher(blockSize, tokens int) ChainHasher {
	return ChainHasher{
		bs:    blockSize,
		h:     mathutil.Hash2(prefixChainSeed, uint64(blockSize)),
		chain: make([]uint64, 0, tokens/blockSize),
	}
}

// ResumeChainHasher starts a chain over blocks of blockSize tokens whose
// first len(prefix) fingerprints are prefix, with room for the full blocks of
// a tokens-token prompt: the hasher is in exactly the state NewChainHasher
// reaches after absorbing the seeds prefix was hashed from, so a prompt that
// continues another one only hashes the seeds past the shared full blocks.
// prefix is copied, never retained; an empty prefix is NewChainHasher.
func ResumeChainHasher(blockSize, tokens int, prefix []uint64) ChainHasher {
	c := NewChainHasher(blockSize, tokens)
	if n := len(prefix); n > 0 {
		c.chain = append(c.chain, prefix...)
		c.h = mathutil.Hash2(prefix[n-1], uint64(blockSize))
	}
	return c
}

// Add absorbs the next token seed, closing the current block when it fills.
func (c *ChainHasher) Add(seed uint64) {
	c.h = mathutil.Hash2(c.h, seed)
	if c.n++; c.n < c.bs {
		return
	}
	if c.h == 0 {
		c.h = 1
	}
	c.chain = append(c.chain, c.h)
	c.h = mathutil.Hash2(c.h, uint64(c.bs))
	c.n = 0
}

// Chain returns the fingerprints of the full blocks absorbed so far. The
// slice is the hasher's own; callers must not modify it.
func (c *ChainHasher) Chain() []uint64 { return c.chain }

// EnablePrefix turns on shared-prefix reuse. It must be called on an empty
// allocator (no sequences registered), before any allocation.
func (a *Allocator) EnablePrefix(cfg PrefixConfig) error {
	if a.prefix != nil {
		return fmt.Errorf("kvcache: prefix caching already enabled")
	}
	if len(a.seqs) != 0 || a.UsedBlocks() != 0 {
		return fmt.Errorf("kvcache: prefix caching must be enabled on an empty allocator")
	}
	if cfg.HostBlocks < 0 {
		return fmt.Errorf("kvcache: negative host tier size %d", cfg.HostBlocks)
	}
	a.prefix = &prefixState{cfg: cfg, table: make(map[uint64]*shared)}
	return nil
}

// PrefixEnabled reports whether shared-prefix reuse is on.
func (a *Allocator) PrefixEnabled() bool { return a.prefix != nil }

// PrefixStats returns a copy of the prefix-cache counters (zero when
// disabled).
func (a *Allocator) PrefixStats() PrefixStats {
	if a.prefix == nil {
		return PrefixStats{}
	}
	return a.prefix.stats
}

// ColdBlocks returns the GPU-resident cold (refcount zero, reclaimable)
// shared blocks.
func (a *Allocator) ColdBlocks() int {
	if a.prefix == nil {
		return 0
	}
	return a.prefix.cold.n
}

// HostBlocksResident returns the host-tier entries currently held.
func (a *Allocator) HostBlocksResident() int {
	if a.prefix == nil {
		return 0
	}
	return a.prefix.host.n
}

// availableBlocks is the allocation headroom: free-list blocks plus cold
// shared blocks that can be reclaimed on demand.
func (a *Allocator) availableBlocks() int {
	n := a.FreeBlocks()
	if a.prefix != nil {
		n += a.prefix.cold.n
	}
	return n
}

// popAvailable takes one GPU block: from the free list, or by reclaiming the
// least-recently-used cold shared block (demoting it to the host tier when
// one is configured, dropping it otherwise).
func (a *Allocator) popAvailable() (int, bool) {
	if a.FreeBlocks() > 0 {
		return a.pop(), true
	}
	p := a.prefix
	if p == nil || p.cold.n == 0 {
		return 0, false
	}
	e := p.cold.popFront()
	id := e.id
	p.stats.Evictions++
	if p.cfg.HostBlocks > 0 {
		e.onHost = true
		e.id = -1
		p.host.pushBack(e)
		if p.host.n > p.cfg.HostBlocks {
			p.drop(p.host.popFront())
			p.stats.HostEvictions++
		}
	} else {
		p.drop(e)
	}
	return id, true
}

// acquire takes a reference on a GPU-resident shared entry, pulling it off
// the cold list when this is the first reference back.
func (a *Allocator) acquire(e *shared) {
	if e.refs == 0 {
		a.prefix.cold.remove(e)
	}
	e.refs++
}

// release drops one reference on a registry-backed block. The last release
// of a computed block parks it on the cold LRU (still matchable, reclaimed
// only under pressure); a block whose prefill never completed is worthless
// as a cache entry and returns straight to the free list.
func (a *Allocator) release(e *shared) {
	if e.refs <= 0 || e.onHost {
		panic(fmt.Sprintf("kvcache: release of unowned shared block (hash %#x)", e.hash))
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	if !e.computed {
		a.free = append(a.free, e.id)
		a.prefix.drop(e)
		return
	}
	a.prefix.cold.pushBack(e)
}

// matchedBlocks counts the leading chain entries whose blocks are cached and
// computed (GPU-resident or on the host tier).
func (a *Allocator) matchedBlocks(chain []uint64) int {
	for b, h := range chain {
		if e := a.prefix.table[h]; e == nil || !e.computed {
			return b
		}
	}
	return len(chain)
}

// MatchPrefix returns the longest computed cached prefix of a prompt's block
// fingerprint chain (see ChainHasher): the cached length in tokens (a
// multiple of the block size) and the matched block IDs in position order,
// -1 marking blocks resident on the host tier (matchable, but an allocation
// against them pays a reload). Read-only: no reference counts, LRU positions
// or stats change.
func (a *Allocator) MatchPrefix(chain []uint64) (int, []int) {
	if a.prefix == nil {
		return 0, nil
	}
	n := a.matchedBlocks(chain)
	blocks := make([]int, n)
	for b, h := range chain[:n] {
		if e := a.prefix.table[h]; e.onHost {
			blocks[b] = -1
		} else {
			blocks[b] = e.id
		}
	}
	return n * a.cfg.BlockSize, blocks
}

// MatchPrefixTokens is the allocation-free probe routers use: the cached
// prefix length MatchPrefix would report, without materializing the block
// list.
func (a *Allocator) MatchPrefixTokens(chain []uint64) int {
	if a.prefix == nil {
		return 0
	}
	return a.matchedBlocks(chain) * a.cfg.BlockSize
}

// AllocateWithPrefix registers a new sequence reserving tokens tokens, like
// Allocate, but first matches the prompt's block fingerprint chain (see
// ChainHasher) against the prefix cache: the longest computed cached prefix
// (capped at matchLimit tokens, rounded down to full blocks) is taken by
// reference instead of from the free list, and the sequence's own remaining
// full prompt blocks are registered as shareable for later arrivals.
// matchLimit must not exceed the prompt length. Capacity is only needed for
// the unmatched remainder (plus one GPU slot per host-resident match), which
// is how prefix reuse stretches KV capacity. With prefix caching disabled it
// degrades to plain Allocate.
func (a *Allocator) AllocateWithPrefix(seqID, tokens int, chain []uint64, matchLimit int) (PrefixHit, error) {
	var hit PrefixHit
	if a.prefix == nil {
		return hit, a.Allocate(seqID, tokens)
	}
	if _, ok := a.seqs[seqID]; ok {
		return hit, fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	if tokens < 0 {
		return hit, fmt.Errorf("kvcache: negative token count %d", tokens)
	}
	p := a.prefix
	bs := a.cfg.BlockSize
	if matchLimit > tokens {
		matchLimit = tokens
	}
	// The sequence registers the prompt's full blocks that its reservation
	// covers; at most matchLimit tokens of them may be matched.
	regBlocks := min(len(chain), tokens/bs)
	matchBlocks := min(regBlocks, max(matchLimit, 0)/bs)

	// Match: walk the fingerprint chain while computed entries exist.
	matched := p.matched[:0]
	for _, h := range chain[:matchBlocks] {
		e := p.table[h]
		if e == nil || !e.computed {
			break
		}
		matched = append(matched, e)
	}
	p.matched = matched
	if matchLimit > 0 {
		p.stats.Lookups++
	}

	// Capacity: fresh blocks for the unmatched remainder plus one GPU slot
	// per host-resident match — with cold blocks that are themselves matched
	// excluded from the reclaimable pool.
	totalBlocks := a.blocksFor(tokens)
	hostMatched, coldMatched := 0, 0
	for _, e := range matched {
		switch {
		case e.onHost:
			hostMatched++
		case e.refs == 0:
			coldMatched++
		}
	}
	need := totalBlocks - len(matched) + hostMatched
	if avail := a.FreeBlocks() + p.cold.n - coldMatched; need > avail {
		a.Failures++
		return PrefixHit{}, fmt.Errorf("kvcache: need %d blocks, %d free", need, avail)
	}
	if len(matched) > 0 {
		p.stats.Hits++
		p.stats.HitTokens += len(matched) * bs
		hit.Tokens = len(matched) * bs
	}

	// Acquire GPU-resident matches first: that pulls matched cold entries
	// off the reclaim list before popAvailable can evict them. Matched
	// blocks are computed already, so the MarkComputed watermark starts
	// past them.
	s := &seq{tokens: tokens, marked: len(matched)}
	s.blocks = make([]int, 0, totalBlocks)
	s.entries = make([]*shared, len(matched), regBlocks)
	copy(s.entries, matched)
	for _, e := range matched {
		if e.onHost {
			s.blocks = append(s.blocks, -1) // reload slot, filled below
			continue
		}
		a.acquire(e)
		s.blocks = append(s.blocks, e.id)
	}
	// Pull matched host entries off the host LRU before any popAvailable
	// call: reloads and fresh allocations below can themselves demote cold
	// blocks to the host tier, and the resulting overflow drop must never
	// claim an entry this very allocation matched (it would leave the
	// sequence chained to a deleted fingerprint).
	for _, e := range matched {
		if e.onHost {
			p.host.remove(e)
		}
	}
	for i, e := range matched {
		if !e.onHost {
			continue
		}
		id, ok := a.popAvailable()
		if !ok {
			panic("kvcache: prefix capacity check missed a reload slot")
		}
		e.onHost = false
		e.id = id
		e.refs = 1
		s.blocks[i] = id
		p.stats.Reloads++
		p.stats.ReloadedTokens += bs
		hit.Reloaded += bs
	}
	for len(s.blocks) < totalBlocks {
		id, ok := a.popAvailable()
		if !ok {
			panic("kvcache: prefix capacity check missed a block")
		}
		s.blocks = append(s.blocks, id)
	}

	// Register the sequence's remaining full prompt blocks as shareable.
	// The fingerprint chain continues across blocks whose hash is already
	// claimed (content is content); such blocks simply stay private here.
	for b := len(matched); b < regBlocks; b++ {
		var e *shared
		if h := chain[b]; p.table[h] == nil {
			e = p.newEntry(h, s.blocks[b])
		}
		s.entries = append(s.entries, e)
	}

	a.seqs[seqID] = s
	a.updatePeak()
	if hit.Reloaded > 0 && p.cfg.ReloadLatency != nil {
		hit.Stall = p.cfg.ReloadLatency(hit.Reloaded)
		p.stats.ReloadStall += hit.Stall
	}
	return hit, nil
}

// MarkComputed records that a sequence's prompt KV is materialized up to
// doneTokens: its registry-backed blocks fully covered by that length become
// matchable by later allocations. Schedulers call this as prefill
// progresses, every iteration; it visits only blocks newly covered since the
// sequence's last call, which is exact because an entry a live sequence
// holds is never deleted or un-computed. Blocks acquired from the cache
// were computed already and start below the watermark.
func (a *Allocator) MarkComputed(seqID, doneTokens int) {
	if a.prefix == nil {
		return
	}
	s, ok := a.seqs[seqID]
	if !ok {
		return
	}
	full := min(doneTokens/a.cfg.BlockSize, len(s.entries))
	for ; s.marked < full; s.marked++ {
		if e := s.entries[s.marked]; e != nil {
			e.computed = true
		}
	}
}

// CheckInvariants verifies the allocator's full accounting: every block is
// exactly one of free, privately owned by one sequence, or registry-backed
// with a reference count equal to the sequences actually holding it; every
// entry a sequence holds is the table's entry for its fingerprint; cold and
// host LRU lists agree with entry states; no recycled entry is still in the
// table; and the host tier respects its bound. Tests call it after every
// mutation step; it is read-only and order-independent.
func (a *Allocator) CheckInvariants() error {
	claim := make(map[int]string, a.cfg.NumBlocks)
	take := func(id int, who string) error {
		if id < 0 || id >= a.cfg.NumBlocks {
			return fmt.Errorf("kvcache: block %d out of range (%s)", id, who)
		}
		if prev, ok := claim[id]; ok {
			return fmt.Errorf("kvcache: block %d claimed by both %s and %s", id, prev, who)
		}
		claim[id] = who
		return nil
	}
	if a.fresh < 0 || a.fresh > a.cfg.NumBlocks {
		return fmt.Errorf("kvcache: fresh watermark %d outside [0, %d]", a.fresh, a.cfg.NumBlocks)
	}
	for _, id := range a.free {
		if err := take(id, "free list"); err != nil {
			return err
		}
	}
	for id := a.fresh; id < a.cfg.NumBlocks; id++ {
		if err := take(id, "fresh range"); err != nil {
			return err
		}
	}

	refCount := make(map[*shared]int)
	for seqID, s := range a.seqs {
		if len(s.blocks) != a.blocksFor(s.tokens) {
			return fmt.Errorf("kvcache: seq %d holds %d blocks for %d tokens", seqID, len(s.blocks), s.tokens)
		}
		if len(s.entries) > len(s.blocks) {
			return fmt.Errorf("kvcache: seq %d has %d entries for %d blocks", seqID, len(s.entries), len(s.blocks))
		}
		if s.marked < 0 || s.marked > len(s.entries) {
			return fmt.Errorf("kvcache: seq %d watermark %d outside its %d entries", seqID, s.marked, len(s.entries))
		}
		for i, id := range s.blocks {
			if i < len(s.entries) && s.entries[i] != nil {
				e := s.entries[i]
				if a.prefix.table[e.hash] != e {
					return fmt.Errorf("kvcache: seq %d block %d holds an entry (hash %#x) the table does not", seqID, i, e.hash)
				}
				if e.onHost {
					return fmt.Errorf("kvcache: seq %d block %d references host-resident hash %#x", seqID, i, e.hash)
				}
				if e.id != id {
					return fmt.Errorf("kvcache: seq %d block %d is %d but entry %#x holds %d", seqID, i, id, e.hash, e.id)
				}
				if i < s.marked && !e.computed {
					return fmt.Errorf("kvcache: seq %d block %d below watermark %d is not computed", seqID, i, s.marked)
				}
				refCount[e]++
				continue
			}
			if err := take(id, fmt.Sprintf("seq %d", seqID)); err != nil {
				return err
			}
		}
	}

	if a.prefix != nil {
		p := a.prefix
		inCold := make(map[*shared]bool, p.cold.n)
		for e := p.cold.head; e != nil; e = e.next {
			inCold[e] = true
		}
		if len(inCold) != p.cold.n {
			return fmt.Errorf("kvcache: cold list count %d != %d", len(inCold), p.cold.n)
		}
		inHost := make(map[*shared]bool, p.host.n)
		for e := p.host.head; e != nil; e = e.next {
			inHost[e] = true
		}
		if len(inHost) != p.host.n {
			return fmt.Errorf("kvcache: host list count %d != %d", len(inHost), p.host.n)
		}
		if p.cfg.HostBlocks > 0 && p.host.n > p.cfg.HostBlocks {
			return fmt.Errorf("kvcache: host tier holds %d > cap %d", p.host.n, p.cfg.HostBlocks)
		}
		spare := make(map[*shared]bool)
		for e := p.spare; e != nil; e = e.next {
			if spare[e] {
				return fmt.Errorf("kvcache: spare entry list loops")
			}
			spare[e] = true
		}
		for h, e := range p.table {
			if e.hash != h {
				return fmt.Errorf("kvcache: entry keyed %#x carries hash %#x", h, e.hash)
			}
			if spare[e] {
				return fmt.Errorf("kvcache: entry %#x is in the table and on the spare list", h)
			}
			if e.onHost {
				if e.refs != 0 || !inHost[e] {
					return fmt.Errorf("kvcache: host entry %#x refs=%d inHost=%v", h, e.refs, inHost[e])
				}
				continue
			}
			if e.refs != refCount[e] {
				return fmt.Errorf("kvcache: entry %#x refs=%d but %d sequences hold it", h, e.refs, refCount[e])
			}
			if (e.refs == 0) != inCold[e] {
				return fmt.Errorf("kvcache: entry %#x refs=%d inCold=%v", h, e.refs, inCold[e])
			}
			if err := take(e.id, fmt.Sprintf("shared %#x", h)); err != nil {
				return err
			}
		}
	}

	if len(claim) != a.cfg.NumBlocks {
		return fmt.Errorf("kvcache: %d of %d blocks accounted for", len(claim), a.cfg.NumBlocks)
	}
	return nil
}
