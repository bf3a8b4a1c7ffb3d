// Package cache models the processor-side cache hierarchy in front of the
// memory coalescer: per-core private L1 and L2 caches and a shared last
// level cache (LLC). Every LLC miss — load miss, store miss or dirty
// write-back — becomes a candidate request for the coalescer (paper §3.1).
//
// The model is a state-accurate tag/LRU simulation. Miss *timing* is not
// resolved here: the caches report the line-granular miss stream and the
// system simulator (internal/sim) charges memory latency through the
// coalescer, MSHRs and HMC device.
//
// The private levels are pure functions of the trace. A core's L1 and L2
// see only that core's accesses, in its program order, whatever the
// memory timing; their victims are clean toward the next level and make
// no memory traffic, and nothing reaches back into them (no
// back-invalidation from the LLC, no coherence between cores). So which
// lines of an access miss both L1 and L2 depends on the trace and the two
// configs alone, not on how the cores interleave at the LLC. A trace is
// therefore walked through the private levels once (FilterPrivate, giving
// a PrivateFilter), on one short-lived L1/L2 pair reset before each
// core's stream, and each run replays only the shared LLC
// (Cache.ReplayLLC), the one level that sees the cores interleaved.
// FuzzPrivateFilter holds that split to the full three-level walk per
// access, which the tests keep as their oracle.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint32
}

func (c Config) validate() error {
	switch {
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways %d must be positive", c.Ways)
	case c.SizeBytes == 0 || c.SizeBytes%(uint64(c.LineBytes)*uint64(c.Ways)) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size", c.SizeBytes)
	}
	sets := c.SizeBytes / uint64(c.LineBytes) / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if sets*uint64(c.LineBytes) < 4 {
		return fmt.Errorf("cache: %d set(s) of %d-byte lines cannot tag every 64-bit address", sets, c.LineBytes)
	}
	return nil
}

// A tag word holds one cache way: (tag+1)<<1 | dirty, so 0 is an invalid
// way and a 16-way set scan reads 128 B. validate asks for LineBytes × sets
// >= 4, so the tag of any 64-bit byte address is at most 2^62-1 and the
// word is exact.
const dirtyBit = 1

// setHeader is the per-set state beside the tag words: the packed recency
// stack and the generation that owns the set's ways.
type setHeader struct {
	order uint64 // packed recency stack (ways <= lruStackWays)
	gen   uint32 // the ways are valid iff gen == Cache.gen
}

// Stats counts per-level activity.
type Stats struct {
	Accesses, Hits, Misses, WriteBacks uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// lruStackWays is the widest associativity the packed recency stack
// supports: one nibble per way in a uint64.
const lruStackWays = 16

// Cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement. It is line-granular: callers present line numbers, a
// byte address divided by LineBytes.
//
// The tag store is one contiguous slice of tag words (sets × ways) indexed
// by shift/mask, and for associativities up to 16 the LRU state of a set is
// a packed recency stack: nibble r of its header's order holds the way at
// recency rank r (rank 0 = MRU, rank ways-1 = LRU). Promoting a way to MRU
// and picking a victim are then register-only word operations instead of
// counter scans, and victim selection is identical to counter LRU: invalid
// ways are consumed in index order, then the least recently touched way.
// Validity is generational and per set: a set's ways count only while its
// header's gen matches the cache's. Reset then invalidates the whole array
// by bumping gen — O(1), no matter how many megabytes of tags the level
// holds — which is what lets a sweep engine recycle cache levels across
// runs at zero cost. The first touch of a set in a new generation reboots
// its recency stack and clears its ways.
//
// Wider caches fall back to counter LRU: lru, parallel to tags, holds each
// way's last-touch clock. It is allocated only for such caches, so the
// tag words themselves stay 8 bytes.
type Cache struct {
	cfg       Config
	tags      []uint64    // sets × ways tag words, set-major
	sets      []setHeader // per-set recency stack and generation
	lru       []uint64    // per-way recency clocks (ways > lruStackWays)
	setMask   uint64      // numSets - 1
	tagBits   uint        // log2(numSets): tag = lineNum >> tagBits
	ways      int
	gen       uint32 // current generation (starts at 1; zeroed headers are stale)
	bootOrder uint64 // initialOrder(ways), the stack a fresh set starts from
	clock     uint64
	stats     Stats
}

// initialOrder is the boot recency stack: way 0 at the LRU end, so empty
// ways fill in index order exactly as the counter scan would pick them.
func initialOrder(ways int) uint64 {
	var o uint64
	for r := 0; r < ways; r++ {
		o |= uint64(ways-1-r) << (4 * r)
	}
	return o
}

// New builds a cache level.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / uint64(cfg.LineBytes) / uint64(cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, numSets*uint64(cfg.Ways)),
		sets:      make([]setHeader, numSets),
		setMask:   numSets - 1,
		tagBits:   uint(bits.TrailingZeros64(numSets)),
		ways:      cfg.Ways,
		gen:       1,
		bootOrder: initialOrder(cfg.Ways),
	}
	if cfg.Ways > lruStackWays {
		c.lru = make([]uint64, len(c.tags))
	}
	return c, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// touch promotes way w of a set to MRU in its packed recency stack.
func touch(h *setHeader, w int) {
	o := h.order
	// Find the rank holding w, then shift every younger nibble up one rank
	// and install w at rank 0.
	for r := 0; ; r++ {
		if int(o>>(4*r))&0xf == w {
			low := o & (1<<(4*r) - 1)
			keep := o &^ (1<<(4*(r+1)) - 1)
			h.order = keep | low<<4 | uint64(w)
			return
		}
	}
}

// word is lineNum's clean tag word.
func (c *Cache) word(lineNum uint64) uint64 { return (lineNum>>c.tagBits + 1) << 1 }

// lineOf decodes the line number a valid tag word w of set s holds.
func (c *Cache) lineOf(w, s uint64) uint64 { return (w>>1-1)<<c.tagBits | s }

// current returns set s's tag words if the set belongs to the current
// generation, else nil: a stale set holds no lines.
func (c *Cache) current(s uint64) []uint64 {
	if c.sets[s].gen != c.gen {
		return nil
	}
	base := s * uint64(c.ways)
	return c.tags[base : base+uint64(c.ways)]
}

// Access touches lineNum (an absolute cache line number). write marks the
// line dirty on hit or after fill. It returns whether the access hit and,
// on a miss that evicted a dirty victim, the victim's line number with
// hasWriteBack set — by value, so the hot path never heap-allocates.
//
// A miss installs the line immediately (the timing of the fill is the
// simulator's concern), so a subsequent access to the same line hits.
func (c *Cache) Access(lineNum uint64, write bool) (hit bool, writeBack uint64, hasWriteBack bool) {
	c.clock++
	c.stats.Accesses++
	set := lineNum & c.setMask
	h := &c.sets[set]
	base := set * uint64(c.ways)
	ways := c.tags[base : base+uint64(c.ways)]
	if h.gen != c.gen {
		// First touch of this set in the current generation: its ways and
		// recency stack still describe an earlier run, so reboot them.
		clear(ways)
		h.order = c.bootOrder
		h.gen = c.gen
	}
	var dirty uint64
	if write {
		dirty = dirtyBit
	}
	key := c.word(lineNum)
	for i, w := range ways {
		if w&^dirtyBit == key {
			c.stats.Hits++
			if c.lru == nil {
				touch(h, i)
			} else {
				c.lru[base+uint64(i)] = c.clock
			}
			ways[i] = w | dirty
			return true, 0, false
		}
	}
	c.stats.Misses++
	// Choose a victim: an invalid way in index order, else the least
	// recently used. With the packed stack both are the stack's LRU rank:
	// a set's never-filled ways keep the cold end in index order from the
	// boot stack on, since only fills and hits move a way to MRU.
	victim := 0
	if c.lru == nil {
		victim = int(h.order>>(4*(c.ways-1))) & 0xf
	} else {
		lru := c.lru[base : base+uint64(c.ways)]
		for i, w := range ways {
			if w == 0 {
				victim = i
				break
			}
			if lru[i] < lru[victim] {
				victim = i
			}
		}
	}
	if v := ways[victim]; v&dirtyBit != 0 {
		c.stats.WriteBacks++
		writeBack = c.lineOf(v, set)
		hasWriteBack = true
	}
	ways[victim] = key | dirty
	if c.lru == nil {
		touch(h, victim)
	} else {
		c.lru[base+uint64(victim)] = c.clock
	}
	return false, writeBack, hasWriteBack
}

// Reset returns the level to its freshly built state — every line invalid,
// recency stacks at boot order, clock and counters zero — in O(1):
// bumping the generation invalidates every set at once, and each set
// reboots on its first touch. A reset cache behaves identically to one
// just returned by New, at no allocation and no memset: sweep engines
// recycle cache levels across runs instead of re-zeroing megabytes per
// job. Once every 2^32 resets the generation wraps to 0, the stamp of
// zeroed headers, so the headers are cleared once and the count restarts
// at 1.
func (c *Cache) Reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.sets)
		c.gen = 1
	}
	c.clock = 0
	c.stats = Stats{}
}

// Contains reports whether the line is present (no LRU update).
func (c *Cache) Contains(lineNum uint64) bool {
	key := c.word(lineNum)
	for _, w := range c.current(lineNum & c.setMask) {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning the dirty line numbers in
// unspecified order.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for s := range c.sets {
		for _, w := range c.current(uint64(s)) {
			if w&dirtyBit != 0 {
				dirty = append(dirty, c.lineOf(w, uint64(s)))
			}
		}
		c.sets[s] = setHeader{} // gen 0: reboots on its next touch
	}
	return dirty
}
