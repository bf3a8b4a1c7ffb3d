package workloads

import (
	"slices"
	"sort"
	"testing"

	"hmccoal/internal/trace"
)

// generate returns a generator's trace in tick order, the form the
// property tests read.
func generate(g Generator, p Params) ([]trace.Access, error) {
	st, err := g.Generate(p)
	return st.Flatten(), err
}

// TestStreamsMatchStableMerge holds every generator's streams to the
// trace the generators produced before they were kept per core: the
// streams concatenated in CPU order and stable-sorted by tick. Both the
// run-by-run walk of Merged and Flatten must equal it, ties across cores
// included, at 1, 5, 12 and 64 CPUs.
func TestStreamsMatchStableMerge(t *testing.T) {
	ties := 0
	for _, g := range append(All(), StrideLadder()...) {
		for _, cpus := range []int{1, 5, 12, 64} {
			p := Params{CPUs: cpus, OpsPerCPU: 300, Seed: int64(cpus)}
			st, err := g.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Off) != cpus+1 || st.Off[0] != 0 || int(st.Off[cpus]) != len(st.Accs) {
				t.Fatalf("%s/%d: offsets %v over %d accesses", g.Name(), cpus, st.Off, len(st.Accs))
			}
			for c := 0; c < cpus; c++ {
				for _, a := range st.Accs[st.Off[c]:st.Off[c+1]] {
					if int(a.CPU) != c {
						t.Fatalf("%s/%d: CPU %d's stream holds an access from CPU %d", g.Name(), cpus, c, a.CPU)
					}
				}
			}
			want := slices.Clone(st.Accs)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Tick < want[j].Tick })
			for i := 1; i < len(want); i++ {
				if want[i].Tick == want[i-1].Tick && want[i].CPU != want[i-1].CPU {
					ties++
				}
			}
			var walked []trace.Access
			m := st.Merged()
			for run := m.Next(); run != nil; run = m.Next() {
				walked = append(walked, run...)
			}
			if !slices.Equal(walked, want) {
				t.Errorf("%s/%d: Merged walk differs from the stable merge", g.Name(), cpus)
			}
			if !slices.Equal(st.Flatten(), want) {
				t.Errorf("%s/%d: Flatten differs from the stable merge", g.Name(), cpus)
			}
		}
	}
	if ties == 0 {
		t.Error("no equal-tick accesses across cores: the CPU tie-break went untested")
	}
}
