package coalescer

import (
	"math/rand"
	"reflect"
	"testing"

	"hmccoal/internal/hmc"
	"hmccoal/internal/mshr"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindTwoPhase, false},
		{"two-phase", KindTwoPhase, false},
		{"warp", KindWarp, false},
		{"Warp", 0, true},
		{"gpu", 0, true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseKind(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if err := Kind(99).Validate(); err == nil {
		t.Errorf("Kind(99).Validate() accepted an unknown kind")
	}
}

func TestParseSched(t *testing.T) {
	cases := []struct {
		in   string
		want Sched
		err  bool
	}{
		{"", SchedFRFCFS, false},
		{"frfcfs", SchedFRFCFS, false},
		{"hetero", SchedHetero, false},
		{"FRFCFS", 0, true},
		{"rr", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSched(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSched(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSched(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if err := Sched(99).Validate(); err == nil {
		t.Errorf("Sched(99).Validate() accepted an unknown scheduler")
	}
}

func TestNameRoundTrips(t *testing.T) {
	for _, name := range Kinds() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseKind(%q).String() = %q", name, k.String())
		}
	}
	for _, name := range Scheds() {
		s, err := ParseSched(name)
		if err != nil {
			t.Fatalf("ParseSched(%q): %v", name, err)
		}
		if s.String() != name {
			t.Errorf("ParseSched(%q).String() = %q", name, s.String())
		}
	}
}

// combo is one gather × scheduler pairing the behavioral tests run.
type combo struct {
	kind  Kind
	sched Sched
}

func (c combo) String() string { return c.kind.String() + "/" + c.sched.String() }

// build makes a coalescer of the combo over the default geometry.
func (c combo) build(t *testing.T, mem *fakeMem) *Coalescer {
	t.Helper()
	co, err := New(DefaultConfig(), TwoPhase, c.kind, c.sched, testLanes, mem.issue, mem.complete)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// fakeMem is a deterministic memory model: every packet completes after a
// latency proportional to its line span, and the completion callback
// records every waiter token with its arrival tick.
type fakeMem struct {
	issued int
	tokens []uint64
	ticks  []uint64
}

func (m *fakeMem) issue(tick uint64, req hmc.Request) (hmc.Completion, error) {
	m.issued++
	return hmc.Completion{Done: tick + 40 + 4*uint64(issueOf(tick, req).lines)}, nil
}

func (m *fakeMem) complete(tick uint64, subs []mshr.Sub, fault bool) {
	for _, s := range subs {
		m.tokens = append(m.tokens, s.Token)
		m.ticks = append(m.ticks, tick)
	}
}

// drive pushes a deterministic mixed stream — runs of adjacent lines,
// strided singles, a write burst — through a front-end and drains it.
func drive(t *testing.T, f *Coalescer, mem *fakeMem, n int) {
	t.Helper()
	now := uint64(0)
	for i := 0; i < n; i++ {
		line := uint64(i/8)*32 + uint64(i%8) // runs of 8 adjacent lines
		if i%5 == 4 {
			line = 1 << 20 >> 6 * uint64(i) // far stride breaking the run
		}
		f.Push(now, Request{
			Line:     line,
			Write:    i%7 == 0,
			Payload:  8,
			Token:    uint64(i),
			CPU:      uint8(i % 4),
			Critical: i%3 == 0,
		})
		now += 2
		f.Advance(now)
	}
	if _, err := f.Drain(now); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := f.CheckDrained(now + 1); err != nil {
		t.Fatalf("CheckDrained: %v", err)
	}
}

func allCombos() []combo {
	var cs []combo
	for _, k := range []Kind{KindTwoPhase, KindWarp} {
		for _, s := range []Sched{SchedFRFCFS, SchedHetero} {
			cs = append(cs, combo{k, s})
		}
	}
	return cs
}

func TestFactoryKinds(t *testing.T) {
	for _, cb := range allCombos() {
		cb.build(t, &fakeMem{})
	}
	mem := &fakeMem{}
	if _, err := New(DefaultConfig(), TwoPhase, Kind(42), SchedFRFCFS, testLanes, mem.issue, mem.complete); err == nil {
		t.Errorf("New accepted an unknown frontend kind")
	}
	if _, err := New(DefaultConfig(), TwoPhase, KindTwoPhase, Sched(42), testLanes, mem.issue, mem.complete); err == nil {
		t.Errorf("New accepted an unknown scheduler kind")
	}
}

// TestDeterministicAndConserving pins the coalescer contract: identical
// push sequences yield identical completions and statistics, every token
// pushed comes back exactly once, and the request count is conserved.
func TestDeterministicAndConserving(t *testing.T) {
	const n = 400
	for _, cb := range allCombos() {
		t.Run(cb.String(), func(t *testing.T) {
			runOne := func() *fakeMem {
				mem := &fakeMem{}
				f := cb.build(t, mem)
				drive(t, f, mem, n)
				if got := f.Stats().Requests; got != n {
					t.Fatalf("Stats().Requests = %d, want %d", got, n)
				}
				return mem
			}
			a, b := runOne(), runOne()
			if !reflect.DeepEqual(a.tokens, b.tokens) || !reflect.DeepEqual(a.ticks, b.ticks) {
				t.Fatalf("identical runs produced different completions")
			}
			seen := make(map[uint64]int, n)
			for _, tok := range a.tokens {
				seen[tok]++
			}
			if len(seen) != n {
				t.Fatalf("completed %d distinct tokens, want %d", len(seen), n)
			}
			for tok, c := range seen {
				if c != 1 {
					t.Fatalf("token %d completed %d times", tok, c)
				}
			}
		})
	}
}

// TestGatherSteadyStateAllocs pins the gathers' allocation profile: once
// the lane buffers, target pool and CRQ ring have grown, a Push/Advance/
// Drain loop allocates no more under warp than under two-phase.
func TestGatherSteadyStateAllocs(t *testing.T) {
	allocs := make(map[Kind]float64)
	for _, k := range []Kind{KindTwoPhase, KindWarp} {
		f := (combo{k, SchedFRFCFS}).build(t, &fakeMem{})
		now := uint64(0)
		loop := func() {
			for i := 0; i < 64; i++ {
				f.Push(now, Request{Line: uint64(i/4)*9 + uint64(i%4), Payload: 8, Token: uint64(i), CPU: uint8(i % testLanes)})
				now += 2
				f.Advance(now)
			}
			end, err := f.Drain(now)
			if err != nil {
				t.Fatal(err)
			}
			now = end
		}
		loop() // warm-up
		allocs[k] = testing.AllocsPerRun(20, loop)
	}
	if allocs[KindWarp] > allocs[KindTwoPhase] {
		t.Errorf("steady-state allocs per loop: warp %v > two-phase %v", allocs[KindWarp], allocs[KindTwoPhase])
	}
}

// laneScanExpiry is the earliest open-warp expiry by a full lane scan, the
// reference for warpGather's cached next.
func laneScanExpiry(g *warpGather) uint64 {
	next := ^uint64(0)
	for _, l := range g.lanes {
		if len(l.reqs) > 0 {
			next = min(next, l.since+g.c.cfg.TimeoutCycles)
		}
	}
	return next
}

// TestWarpNextExpiryMatchesLaneScan drives a warp coalescer with a seeded
// random mix of pushes across lanes, Advances and Fences, and checks after
// every call that the cached earliest expiry equals a full lane scan.
// Every other phase of 1000 calls is a burst at (almost) one tick, where
// an Advance moves the clock by at most one, so warps also close on
// width, not only on timeout and fence.
func TestWarpNextExpiryMatchesLaneScan(t *testing.T) {
	for _, sched := range []Sched{SchedFRFCFS, SchedHetero} {
		t.Run(sched.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			f := (combo{KindWarp, sched}).build(t, &fakeMem{})
			now, token := uint64(0), uint64(0)
			push := func() {
				token++
				f.Push(now, Request{
					Line: uint64(rng.Intn(256)), Write: rng.Intn(4) == 0, Payload: 8,
					Token: token, CPU: uint8(rng.Intn(testLanes)),
				})
			}
			check := func(i int, op string) {
				t.Helper()
				g := f.gather.(*warpGather)
				if got, want := g.nextExpiry(), laneScanExpiry(g); got != want {
					t.Fatalf("op %d (%s) at tick %d: nextExpiry %d, lane scan %d", i, op, now, got, want)
				}
			}
			for i := 0; i < 6000; i++ {
				gap := 4
				if i/1000%2 == 1 {
					gap = 1
				}
				switch r := rng.Intn(100); {
				case r < 70:
					now += uint64(rng.Intn(gap))
					push()
					check(i, "push")
				case r < 97:
					now += uint64(rng.Intn(gap * gap * 2))
					f.Advance(now)
					check(i, "Advance")
				default:
					now += uint64(rng.Intn(4))
					f.Fence(now)
					check(i, "Fence")
				}
			}
			if st := f.Stats(); st.FullFlushes == 0 || st.TimeoutFlushes == 0 || st.FenceFlushes == 0 {
				t.Fatalf("stream missed a close cause: %d full, %d timeout, %d fence flushes",
					st.FullFlushes, st.TimeoutFlushes, st.FenceFlushes)
			}
		})
	}
}
