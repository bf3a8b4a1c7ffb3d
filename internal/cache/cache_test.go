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
	return mustNew(t, Config{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 1})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 512, Ways: 2, LineBytes: 60},
		{SizeBytes: 512, Ways: 0, LineBytes: 64},
		{SizeBytes: 500, Ways: 2, LineBytes: 64},
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
		{SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64}, // 3 sets
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
	c := mustNew(t, Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, HitLatency: 1})
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
// naive LRU model. The stream crosses a Reset, a Flush and a CopyFrom
// into a fresh cache.
func TestLRUMatchesReference(t *testing.T) {
	const sets = 4
	for _, ways := range []int{4, 16, 32} {
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) {
			cfg := Config{SizeBytes: uint64(sets * ways * 64), Ways: ways, LineBytes: 64, HitLatency: 1}
			c := mustNew(t, cfg)
			ref := newRefLRU(sets, ways)
			rng := rand.New(rand.NewSource(int64(ways)))
			span := uint64(sets * ways * 3 / 2) // working set 1.5× capacity
			step := func(phase string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					ln, write := rng.Uint64()%span, rng.Intn(3) == 0
					hit, wb, hasWB := c.Access(ln, write)
					rhit, victim, evicted, dirty := ref.access(ln, write)
					if hit != rhit || hasWB != dirty || (dirty && wb != victim) {
						t.Fatalf("%s access %d (line %d): hit=%v wb=%d/%v, reference hit=%v victim=%d dirty=%v",
							phase, i, ln, hit, wb, hasWB, rhit, victim, dirty)
					}
					if evicted && c.Contains(victim) {
						t.Fatalf("%s access %d (line %d): reference victim %d still resident", phase, i, ln, victim)
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

			fresh := mustNew(t, cfg)
			fresh.CopyFrom(c)
			c = fresh
			step("after CopyFrom", 2000)
		})
	}
}

// TestResetGenerationWrap resets a cache whose generation is about to
// wrap. Lines filled in generation 1 and in the last generation must both
// be gone, and the cache must then behave exactly like a fresh one.
func TestResetGenerationWrap(t *testing.T) {
	for _, ways := range []int{4, 32} { // recency stack and counter LRU
		cfg := Config{SizeBytes: uint64(4 * ways * 64), Ways: ways, LineBytes: 64, HitLatency: 1}
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
