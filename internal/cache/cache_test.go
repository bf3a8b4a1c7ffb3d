package cache

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	// 4 sets × 2 ways × 64 B lines = 512 B.
	return mustNew(t, Config{SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 512, Ways: 2, LineBytes: 60},
		{SizeBytes: 512, Ways: 0, LineBytes: 64},
		{SizeBytes: 500, Ways: 2, LineBytes: 64},
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
		{SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64}, // 3 sets
		{SizeBytes: 2 * 2, Ways: 2, LineBytes: 2},       // 1 set of 2-byte lines: 2^63 tags
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if hit, _, _ := c.Access(10, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(10, false); !hit {
		t.Error("second access missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways — lines 0, 4, 8 share set 0
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 becomes MRU
	c.Access(8, false) // evicts 4 (LRU)
	if !c.Contains(0) || !c.Contains(8) {
		t.Error("expected lines 0 and 8 resident")
	}
	if c.Contains(4) {
		t.Error("line 4 should have been evicted")
	}
}

func TestDirtyEvictionProducesWriteBack(t *testing.T) {
	c := small(t)
	c.Access(0, true) // dirty
	c.Access(4, false)
	_, wb, ok := c.Access(8, false) // evicts dirty line 0
	if !ok || wb != 0 {
		t.Fatalf("writeback = %d/%v, want line 0", wb, ok)
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", c.Stats().WriteBacks)
	}
	// Clean eviction must not write back.
	c2 := small(t)
	c2.Access(0, false)
	c2.Access(4, false)
	if _, wb, ok := c2.Access(8, false); ok {
		t.Errorf("clean eviction produced writeback %d", wb)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small(t)
	c.Access(0, false) // fill clean
	c.Access(0, true)  // dirty it via hit
	c.Access(4, false)
	if _, _, ok := c.Access(8, false); !ok {
		t.Error("dirtied-on-hit line evicted without writeback")
	}
}

func TestFlush(t *testing.T) {
	c := small(t)
	c.Access(0, true)
	c.Access(1, false)
	c.Access(5, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("Flush returned %d dirty lines, want 2", len(dirty))
	}
	got := map[uint64]bool{}
	for _, l := range dirty {
		got[l] = true
	}
	if !got[0] || !got[5] {
		t.Errorf("dirty lines = %v", dirty)
	}
	for _, l := range []uint64{0, 1, 5} {
		if c.Contains(l) {
			t.Errorf("line %d survived Flush", l)
		}
	}
}

func TestMissRate(t *testing.T) {
	c := small(t)
	if c.Stats().MissRate() != 0 {
		t.Error("idle cache MissRate != 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	if got := c.Stats().MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64})
	lines := uint64(64 << 10 / 64)
	rng := rand.New(rand.NewSource(3))
	for i := uint64(0); i < lines; i++ {
		c.Access(i, false)
	}
	for i := 0; i < 10000; i++ {
		ln := rng.Uint64() % lines
		if hit, _, _ := c.Access(ln, false); !hit {
			t.Fatalf("capacity miss on resident working set, line %d", ln)
		}
	}
}

func TestStreamingThrashes(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 1000; i++ {
		c.Access(i, false)
	}
	if mr := c.Stats().MissRate(); mr < 0.9 {
		t.Errorf("streaming over tiny cache has miss rate %v, want ≈1", mr)
	}
}

// refLRU is a naive reference LRU cache: each set is a recency-ordered
// list of resident lines, most recent first.
type refLRU struct {
	ways    int
	setMask uint64
	sets    [][]refLine
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, setMask: uint64(sets - 1), sets: make([][]refLine, sets)}
}

// access returns hit, the evicted line (if the set was full) and whether
// that victim was dirty.
func (r *refLRU) access(ln uint64, write bool) (hit bool, victim uint64, evicted, dirty bool) {
	s := r.sets[ln&r.setMask]
	for i, l := range s {
		if l.line == ln {
			l.dirty = l.dirty || write
			copy(s[1:i+1], s[:i])
			s[0] = l
			return true, 0, false, false
		}
	}
	if len(s) == r.ways {
		v := s[len(s)-1]
		s = s[:len(s)-1]
		victim, evicted, dirty = v.line, true, v.dirty
	}
	r.sets[ln&r.setMask] = append([]refLine{{line: ln, dirty: write}}, s...)
	return false, victim, evicted, dirty
}

// flush empties the model and returns its dirty lines.
func (r *refLRU) flush() map[uint64]bool {
	dirty := map[uint64]bool{}
	for i, s := range r.sets {
		for _, l := range s {
			if l.dirty {
				dirty[l.line] = true
			}
		}
		r.sets[i] = nil
	}
	return dirty
}

// TestLRUMatchesReference drives caches on either side of lruStackWays —
// the packed recency stack and, at 32 ways, the counter LRU with its
// per-cache recency clocks — with a seeded random line stream and checks
// hit/miss, the victim and the write-back line of every access against a
// naive LRU model. The stream crosses a Reset and a Flush. It runs at the bottom of the line-number space,
// across 2^58 (the top line of a 64-bit address space at 64-byte lines)
// and at the top of the 64-bit line-number space, where the tag word's
// (tag+1)<<1 encoding has the least room.
func TestLRUMatchesReference(t *testing.T) {
	const sets = 4
	for _, ways := range []int{4, 16, 32} {
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) {
			span := uint64(sets * ways * 3 / 2) // working set 1.5× capacity
			for _, base := range []uint64{0, 1<<58 - span/2, math.MaxUint64 - span + 1} {
				t.Run(fmt.Sprintf("base%#x", base), func(t *testing.T) {
					matchReference(t, sets, ways, base, span)
				})
			}
		})
	}
}

// matchReference is one TestLRUMatchesReference case: lines
// base..base+span-1 on a sets × ways cache.
func matchReference(t *testing.T, sets, ways int, base, span uint64) {
	cfg := Config{SizeBytes: uint64(sets * ways * 64), Ways: ways, LineBytes: 64}
	c := mustNew(t, cfg)
	ref := newRefLRU(sets, ways)
	rng := rand.New(rand.NewSource(int64(ways)))
	step := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ln, write := base+rng.Uint64()%span, rng.Intn(3) == 0
			hit, wb, hasWB := c.Access(ln, write)
			rhit, victim, evicted, dirty := ref.access(ln, write)
			if hit != rhit || hasWB != dirty || (dirty && wb != victim) {
				t.Fatalf("%s access %d (line %#x): hit=%v wb=%#x/%v, reference hit=%v victim=%#x dirty=%v",
					phase, i, ln, hit, wb, hasWB, rhit, victim, dirty)
			}
			if evicted && c.Contains(victim) {
				t.Fatalf("%s access %d (line %#x): reference victim %#x still resident", phase, i, ln, victim)
			}
		}
	}

	step("cold", 2000)
	c.Reset()
	ref = newRefLRU(sets, ways)
	step("after Reset", 2000)

	got := map[uint64]bool{}
	for _, ln := range c.Flush() {
		got[ln] = true
	}
	if want := ref.flush(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flush dirty lines %v, reference %v", got, want)
	}
	step("after Flush", 2000)
}

// sameBehaviour drives got and want with one seeded line stream over
// lines 0..span-1 and fails at the first access they answer differently.
// Before the stream, every line must be resident in both or in neither.
func sameBehaviour(t *testing.T, what string, got, want *Cache, span uint64, seed int64) {
	t.Helper()
	for ln := uint64(0); ln < span; ln++ {
		if g, w := got.Contains(ln), want.Contains(ln); g != w {
			t.Fatalf("%s: Contains(%d) = %v, want %v", what, ln, g, w)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		ln, write := rng.Uint64()%span, rng.Intn(3) == 0
		hit, wb, hasWB := got.Access(ln, write)
		whit, wwb, whasWB := want.Access(ln, write)
		if hit != whit || wb != wwb || hasWB != whasWB {
			t.Fatalf("%s: access %d (line %d): hit=%v wb=%d/%v, want hit=%v wb=%d/%v",
				what, i, ln, hit, wb, hasWB, whit, wwb, whasWB)
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, want %+v", what, got.Stats(), want.Stats())
	}
}

// TestStaleSets covers the sets a generation has not touched, on the
// packed recency stack and on the 32-way counter LRU: after a Reset they
// hold nothing for Contains or Flush, and a Flush then a Reset leaves a
// fresh cache.
func TestStaleSets(t *testing.T) {
	const sets = 8
	for _, ways := range []int{4, 16, 32} {
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) {
			cfg := Config{SizeBytes: uint64(sets * ways * 64), Ways: ways, LineBytes: 64}
			span := uint64(2 * sets * ways)
			// fill writes every line of 0..n-1, so every way of the first
			// min(n, sets) sets holds a dirty line.
			fill := func(c *Cache, n uint64) {
				for ln := uint64(0); ln < n; ln++ {
					c.Access(ln, true)
				}
			}

			c := mustNew(t, cfg)
			fill(c, span)
			c.Reset()
			c.Access(2, true) // one set current, the rest untouched since Reset
			for ln := uint64(0); ln < span; ln++ {
				if got := c.Contains(ln); got != (ln == 2) {
					t.Fatalf("after Reset: Contains(%d) = %v", ln, got)
				}
			}
			if dirty := c.Flush(); !reflect.DeepEqual(dirty, []uint64{2}) {
				t.Fatalf("Flush after Reset returned %v, want [2]", dirty)
			}

			c = mustNew(t, cfg)
			fill(c, span)
			c.Flush()
			c.Reset()
			if dirty := c.Flush(); len(dirty) != 0 {
				t.Fatalf("Flush, Reset, Flush returned %v", dirty)
			}
			c.Reset()
			sameBehaviour(t, "Flush then Reset", c, mustNew(t, cfg), span, 1)
		})
	}
}

// TestResetGenerationWrap resets a cache whose generation is about to
// wrap. Lines filled in generation 1 and in the last generation must both
// be gone, and the cache must then behave exactly like a fresh one.
func TestResetGenerationWrap(t *testing.T) {
	for _, ways := range []int{4, 32} { // recency stack and counter LRU
		cfg := Config{SizeBytes: uint64(4 * ways * 64), Ways: ways, LineBytes: 64}
		c := mustNew(t, cfg)
		c.Access(5, true) // stamped generation 1
		c.gen = math.MaxUint32
		for ln := uint64(1); ln < 40; ln++ {
			c.Access(ln, ln%3 == 0)
		}
		c.Reset()
		if c.gen != 1 {
			t.Fatalf("ways %d: generation %d after the wrap, want 1", ways, c.gen)
		}
		for ln := uint64(0); ln < 40; ln++ {
			if c.Contains(ln) {
				t.Fatalf("ways %d: line %d resident after Reset", ways, ln)
			}
		}
		fresh := mustNew(t, cfg)
		rng := rand.New(rand.NewSource(int64(ways)))
		for i := 0; i < 3000; i++ {
			ln, write := rng.Uint64()%uint64(6*ways), rng.Intn(3) == 0
			hit, wb, hasWB := c.Access(ln, write)
			fhit, fwb, fhasWB := fresh.Access(ln, write)
			if hit != fhit || wb != fwb || hasWB != fhasWB {
				t.Fatalf("ways %d access %d (line %d): hit=%v wb=%d/%v, fresh hit=%v wb=%d/%v",
					ways, i, ln, hit, wb, hasWB, fhit, fwb, fhasWB)
			}
		}
		if c.Stats() != fresh.Stats() {
			t.Errorf("ways %d: stats %+v, fresh %+v", ways, c.Stats(), fresh.Stats())
		}
	}
}
