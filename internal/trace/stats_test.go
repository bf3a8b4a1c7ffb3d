package trace

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	accs := []Access{
		{Addr: 0, Size: 8, Kind: Load, CPU: 0, Tick: 10},
		{Addr: 64, Size: 16, Kind: Store, CPU: 1, Tick: 20},
		{Kind: FenceOp, CPU: 0, Tick: 25},
		{Addr: 60, Size: 8, Kind: Load, CPU: 0, Tick: 30}, // spans lines 0 and 1
	}
	s := Summarize(accs)
	if s.Accesses != 4 || s.Loads != 2 || s.Stores != 1 || s.Fences != 1 {
		t.Errorf("counts = %+v", s)
	}
	if s.PayloadBytes != 32 {
		t.Errorf("PayloadBytes = %d, want 32", s.PayloadBytes)
	}
	if s.FootprintBytes != 128 { // lines 0 and 1
		t.Errorf("FootprintBytes = %d, want 128", s.FootprintBytes)
	}
	if s.SpanTicks != 20 || s.CPUs != 2 {
		t.Errorf("span/cpus = %d/%d", s.SpanTicks, s.CPUs)
	}
	if str := s.String(); !strings.Contains(str, "4 accesses") {
		t.Errorf("String() = %q", str)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Accesses != 0 || s.FootprintBytes != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestMergePreservesOrder(t *testing.T) {
	a := []Access{{Addr: 1, Size: 1, Tick: 5}, {Addr: 2, Size: 1, Tick: 5}, {Addr: 3, Size: 1, Tick: 9}}
	b := []Access{{Addr: 10, Size: 1, Tick: 3}, {Addr: 11, Size: 1, Tick: 7}}
	m := Merge(a, b)
	if len(m) != 5 {
		t.Fatalf("merged %d accesses", len(m))
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	// Same-tick entries from one source keep their relative order.
	i1, i2 := -1, -1
	for i, acc := range m {
		if acc.Addr == 1 {
			i1 = i
		}
		if acc.Addr == 2 {
			i2 = i
		}
	}
	if i1 > i2 {
		t.Error("stable order violated for same-tick accesses")
	}
}

func TestValidate(t *testing.T) {
	good := []Access{{Addr: 0, Size: 4, Tick: 1}, {Kind: FenceOp, Tick: 2}, {Addr: 8, Size: 4, Tick: 2}}
	if err := Validate(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]Access{
		{{Addr: 0, Size: 4, Tick: 5}, {Addr: 0, Size: 4, Tick: 4}}, // ticks decrease
		{{Addr: 0, Size: 0, Tick: 1}},                              // zero size
		{{Addr: 1 << 53, Size: 4, Tick: 1}},                        // address too wide
	}
	for i, accs := range bad {
		if err := Validate(accs); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

// stableSortMerge is the reference Merge: concatenate, then stable-sort by
// tick.
func stableSortMerge(traces ...[]Access) []Access {
	var out []Access
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out
}

// TestMergeMatchesStableSort checks Merge against the stable-sort
// reference on random sources: sorted and unsorted, empty, all on one
// tick, and from 1 to 300 sources. The inputs must come back unmodified.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		nsrc := 1 + rng.Intn(300)
		if iter%2 == 0 {
			nsrc = 1 + rng.Intn(8)
		}
		ticks := 1 + rng.Intn(50) // small tick ranges force ties
		if iter%10 == 0 {
			ticks = 1 // every access on one tick
		}
		srcs := make([][]Access, nsrc)
		for s := range srcs {
			n := rng.Intn(40)
			if rng.Intn(5) == 0 {
				n = 0
			}
			src := make([]Access, n)
			for i := range src {
				// Addr numbers each access so equal-tick order shows.
				src[i] = Access{Addr: uint64(s)<<20 | uint64(i), Size: 8, CPU: uint8(s), Tick: uint64(rng.Intn(ticks))}
			}
			if rng.Intn(3) != 0 {
				sort.SliceStable(src, func(i, j int) bool { return src[i].Tick < src[j].Tick })
			}
			srcs[s] = src
		}
		orig := make([][]Access, nsrc)
		for s := range srcs {
			orig[s] = slices.Clone(srcs[s])
		}
		got := Merge(srcs...)
		if want := stableSortMerge(orig...); !slices.Equal(got, want) {
			t.Fatalf("iter %d (%d sources, %d ticks): Merge differs from the stable sort", iter, nsrc, ticks)
		}
		for s := range srcs {
			if !slices.Equal(srcs[s], orig[s]) {
				t.Fatalf("iter %d: Merge modified source %d", iter, s)
			}
		}
	}
	if got := Merge(); got != nil {
		t.Errorf("Merge() = %v, want nil", got)
	}
	if got := Merge(nil, []Access{}); got != nil {
		t.Errorf("Merge of empty sources = %v, want nil", got)
	}
}
