package lm

// DefaultDistCacheSize is the default slot count of a model's distribution
// cache. At branch ≈ 16 a filled cache holds a few MB per model; one cache
// per model per engine keeps even a many-worker parallel sweep modest.
const DefaultDistCacheSize = 1 << 12

// distCache is a fixed-size direct-mapped memo of next-token distributions.
//
// Keys are 64-bit context hashes (one per model whose seed shaped the
// distribution), and lookups compare the FULL key pair, so the cache is
// exact: a collision on the slot index evicts, it never aliases. Eviction is
// overwrite-on-collision — no clocks, no lists, nothing to drift; cached and
// uncached runs are byte-identical by construction.
//
// Each slot owns its entry buffer: a miss rebuilds the distribution in place
// in the buffer of the slot it evicts, so a warm cache allocates nothing.
// The slot array is created on the first lookup and each buffer on its
// slot's first fill, never up front: a model that is never queried (such as
// a draft its system never speculates with) costs a few words.
//
// A nil *distCache is a valid, disabled cache (every lookup misses with a
// nil slot, store is a no-op), which is the reference path for determinism
// tests.
type distCache struct {
	slots  []distCacheSlot
	mask   uint64
	hits   uint64
	misses uint64
}

type distCacheSlot struct {
	k1, k2 uint64
	full   bool
	dist   Dist
}

// newDistCache builds a cache with at least size slots (rounded up to a
// power of two). size <= 0 returns nil: caching disabled.
func newDistCache(size int) *distCache {
	if size <= 0 {
		return nil
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &distCache{mask: uint64(n - 1)}
}

// lookup returns the slot for the key pair and whether it holds that pair.
// On a miss the caller rebuilds the distribution into the slot's buffer
// (entries) and records it with store. A disabled cache returns a nil slot.
func (c *distCache) lookup(k1, k2 uint64) (*distCacheSlot, bool) {
	if c == nil {
		return nil, false
	}
	if c.slots == nil {
		c.slots = make([]distCacheSlot, c.mask+1)
	}
	s := &c.slots[(k1^k2)&c.mask]
	if s.full && s.k1 == k1 && s.k2 == k2 {
		c.hits++
		return s, true
	}
	c.misses++
	return s, false
}

// entries returns an empty buffer of capacity at least n to build a
// distribution into: the slot's own buffer, or a fresh one when the slot has
// none yet or s is nil (cache disabled). Reusing the buffer invalidates the
// distribution the slot held.
func (s *distCacheSlot) entries(n int) []TokenProb {
	if s == nil || cap(s.dist.Entries) < n {
		return make([]TokenProb, 0, n)
	}
	return s.dist.Entries[:0]
}

// store records d under the key pair, evicting the slot's previous content.
// d.Entries must be the buffer that entries returned, never a slice another
// model or slot owns. No-op on a nil slot.
func (s *distCacheSlot) store(k1, k2 uint64, d Dist) {
	if s == nil {
		return
	}
	*s = distCacheSlot{k1: k1, k2: k2, full: true, dist: d}
}

// stats returns cumulative (hits, misses).
func (c *distCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits, c.misses
}
