// Package cache models the processor-side cache hierarchy in front of the
// memory coalescer: per-core private L1 and L2 caches and a shared last
// level cache (LLC). Every LLC miss — load miss, store miss or dirty
// write-back — becomes a candidate request for the coalescer (paper §3.1).
//
// The model is a state-accurate tag/LRU simulation with fixed per-level hit
// latencies. Miss *timing* is not resolved here: the hierarchy reports the
// line-granular miss stream and the system simulator (internal/sim) charges
// memory latency through the coalescer, MSHRs and HMC device.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	SizeBytes  uint64
	Ways       int
	LineBytes  uint32
	HitLatency uint64 // cycles charged per access served at this level
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
	return nil
}

// line is one tag entry: 16 bytes, so a 16-way set scan reads 256 B.
type line struct {
	tag   uint64
	gen   uint32 // generation stamp: the line is valid iff gen == Cache.gen
	dirty bool
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
// LRU replacement. It is line-granular: callers present line numbers.
//
// The tag store is one contiguous slice (sets × ways) indexed by
// shift/mask, and for associativities up to 16 the LRU state of a set is a
// packed recency stack: nibble r of order[set] holds the way at recency
// rank r (rank 0 = MRU, rank ways-1 = LRU). Promoting a way to MRU and
// picking a victim are then register-only word operations instead of
// counter scans, and victim selection is identical to counter LRU: invalid
// ways are consumed in index order, then the least recently touched way.
// Line validity is generational: a line is valid only while its gen stamp
// matches the cache's. Reset then invalidates the whole array by bumping
// gen — O(1), no matter how many megabytes of tags the level holds — which
// is what lets a sweep engine recycle cache levels across runs at zero
// cost. The per-set recency stacks are re-initialized lazily the first
// time a set is touched in a new generation (orderGen).
//
// Wider caches fall back to counter LRU: lru, parallel to lines, holds each
// way's last-touch clock. It is allocated only for such caches, so the
// tag entries themselves stay 16 bytes.
type Cache struct {
	cfg       Config
	lines     []line   // sets × ways, set-major
	order     []uint64 // packed per-set recency stacks (ways <= lruStackWays)
	orderGen  []uint32 // generation of each set's recency stack
	lru       []uint64 // per-line recency clocks (ways > lruStackWays)
	setMask   uint64   // numSets - 1
	tagBits   uint     // log2(numSets): tag = lineNum >> tagBits
	ways      int
	gen       uint32 // current generation (starts at 1; zeroed lines are stale)
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
		lines:     make([]line, numSets*uint64(cfg.Ways)),
		setMask:   numSets - 1,
		tagBits:   uint(bits.TrailingZeros64(numSets)),
		ways:      cfg.Ways,
		gen:       1,
		bootOrder: initialOrder(cfg.Ways),
	}
	if cfg.Ways <= lruStackWays {
		c.order = make([]uint64, numSets)
		c.orderGen = make([]uint32, numSets)
	} else {
		c.lru = make([]uint64, len(c.lines))
	}
	return c, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// touch promotes way w of set to MRU in the packed recency stack.
func (c *Cache) touch(set uint64, w int) {
	o := c.order[set]
	// Find the rank holding w, then shift every younger nibble up one rank
	// and install w at rank 0.
	for r := 0; ; r++ {
		if int(o>>(4*r))&0xf == w {
			low := o & (1<<(4*r) - 1)
			keep := o &^ (1<<(4*(r+1)) - 1)
			c.order[set] = keep | low<<4 | uint64(w)
			return
		}
	}
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
	base := set * uint64(c.ways)
	ways := c.lines[base : base+uint64(c.ways)]
	tag := lineNum >> c.tagBits
	if c.order != nil && c.orderGen[set] != c.gen {
		// First touch of this set in the current generation: its recency
		// stack still describes the previous run, so reboot it.
		c.order[set] = c.bootOrder
		c.orderGen[set] = c.gen
	}
	for i := range ways {
		if ways[i].gen == c.gen && ways[i].tag == tag {
			c.stats.Hits++
			if c.order != nil {
				c.touch(set, i)
			} else {
				c.lru[base+uint64(i)] = c.clock
			}
			if write {
				ways[i].dirty = true
			}
			return true, 0, false
		}
	}
	c.stats.Misses++
	// Choose a victim: an invalid (stale-generation) way, else the least
	// recently used. With the packed stack both cases collapse to the
	// stack's LRU rank (invalid ways sit at the cold end in index order by
	// construction).
	victim := 0
	if c.order != nil {
		victim = int(c.order[set]>>(4*(c.ways-1))) & 0xf
		if ways[victim].gen == c.gen {
			for i := range ways {
				if ways[i].gen != c.gen {
					victim = i
					break
				}
			}
		}
	} else {
		lru := c.lru[base : base+uint64(c.ways)]
		for i := range ways {
			if ways[i].gen != c.gen {
				victim = i
				break
			}
			if lru[i] < lru[victim] {
				victim = i
			}
		}
	}
	if ways[victim].gen == c.gen && ways[victim].dirty {
		c.stats.WriteBacks++
		writeBack = ways[victim].tag<<c.tagBits | set
		hasWriteBack = true
	}
	ways[victim] = line{tag: tag, dirty: write, gen: c.gen}
	if c.order != nil {
		c.touch(set, victim)
	} else {
		c.lru[base+uint64(victim)] = c.clock
	}
	return false, writeBack, hasWriteBack
}

// Reset returns the level to its freshly built state — every line invalid,
// recency stacks at boot order, clock and counters zero — in O(1):
// bumping the generation invalidates the whole tag array at once, and the
// recency stacks reboot lazily on first touch. A reset cache behaves
// identically to one just returned by New, at no allocation and no
// memset: sweep engines recycle cache levels across runs instead of
// re-zeroing megabytes per job. Once every 2^32 resets the generation
// wraps to 0, the stamp of zeroed lines, so the tags and recency stamps
// are cleared once and the count restarts at 1.
func (c *Cache) Reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.lines)
		clear(c.orderGen)
		c.gen = 1
	}
	c.clock = 0
	c.stats = Stats{}
}

// CopyFrom makes c an exact copy of src — tag array, recency stacks or
// clocks, generation, access clock and statistics — writing into c's own
// arrays. src must have been built from the same Config. The generation
// is copied along with the tags, since line validity is relative to it.
func (c *Cache) CopyFrom(src *Cache) {
	copy(c.lines, src.lines)
	copy(c.order, src.order)
	copy(c.orderGen, src.orderGen)
	copy(c.lru, src.lru)
	c.gen = src.gen
	c.clock = src.clock
	c.stats = src.stats
}

// Contains reports whether the line is present (no LRU update).
func (c *Cache) Contains(lineNum uint64) bool {
	set := lineNum & c.setMask
	base := set * uint64(c.ways)
	ways := c.lines[base : base+uint64(c.ways)]
	tag := lineNum >> c.tagBits
	for i := range ways {
		if ways[i].gen == c.gen && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning the dirty line numbers in
// unspecified order.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	numSets := c.setMask + 1
	for s := uint64(0); s < numSets; s++ {
		base := s * uint64(c.ways)
		for w := 0; w < c.ways; w++ {
			l := &c.lines[base+uint64(w)]
			if l.gen == c.gen && l.dirty {
				dirty = append(dirty, l.tag<<c.tagBits|s)
			}
			*l = line{} // gen 0: stale in every generation
		}
		if c.order != nil {
			c.order[s] = c.bootOrder
			c.orderGen[s] = c.gen
		}
	}
	return dirty
}
