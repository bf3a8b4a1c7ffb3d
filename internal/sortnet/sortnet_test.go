package sortnet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadWidths(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 12, 100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

func TestPaperNetworkShape(t *testing.T) {
	// Figure 4 and §4.1: n=16 → 4 merge stages, 10 steps, 63 comparators.
	net := MustNew(16)
	if got := net.Stages(); got != 4 {
		t.Errorf("Stages() = %d, want 4", got)
	}
	if got := net.Depth(); got != 10 {
		t.Errorf("Depth() = %d, want 10", got)
	}
	if got := net.Comparators(); got != 63 {
		t.Errorf("Comparators() = %d, want 63", got)
	}
	// Merge stage s (1-based) has s steps.
	for s := 0; s < net.Stages(); s++ {
		if got := net.StepsOfStage(s); got != s+1 {
			t.Errorf("StepsOfStage(%d) = %d, want %d", s, got, s+1)
		}
	}
}

func TestDepthFormula(t *testing.T) {
	// Depth of odd-even mergesort for n=2^k is k(k+1)/2 (§3.3).
	for k := 1; k <= 7; k++ {
		n := 1 << k
		net := MustNew(n)
		want := k * (k + 1) / 2
		if got := net.Depth(); got != want {
			t.Errorf("n=%d: Depth() = %d, want %d", n, got, want)
		}
		if got := net.Stages(); got != k {
			t.Errorf("n=%d: Stages() = %d, want %d", n, got, k)
		}
	}
}

func TestComparatorIndexInvariants(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		net := MustNew(n)
		for si := 0; si < net.Depth(); si++ {
			used := make(map[int]bool)
			for _, c := range net.Step(si) {
				if c.I >= c.J {
					t.Fatalf("n=%d step %d: comparator %+v not ordered", n, si, c)
				}
				if c.I < 0 || c.J >= n {
					t.Fatalf("n=%d step %d: comparator %+v out of range", n, si, c)
				}
				// Each wire participates in at most one comparator per step,
				// which is what makes the step executable in parallel.
				if used[c.I] || used[c.J] {
					t.Fatalf("n=%d step %d: wire reused in %+v", n, si, c)
				}
				used[c.I], used[c.J] = true, true
			}
		}
	}
}

// TestZeroOnePrinciple exhaustively sorts every 0-1 sequence. By the 0-1
// principle, a comparator network that sorts all 2^n binary sequences sorts
// all sequences.
func TestZeroOnePrinciple(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		net := MustNew(n)
		keys := make([]uint64, n)
		for mask := 0; mask < 1<<n; mask++ {
			ones := 0
			for i := 0; i < n; i++ {
				keys[i] = uint64(mask >> i & 1)
				ones += mask >> i & 1
			}
			net.Sort(keys, nil)
			for i := 0; i < n; i++ {
				want := uint64(0)
				if i >= n-ones {
					want = 1
				}
				if keys[i] != want {
					t.Fatalf("n=%d mask=%b: position %d = %d, want %d", n, mask, i, keys[i], want)
				}
			}
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 8, 16, 64, 128} {
		net := MustNew(n)
		for trial := 0; trial < 50; trial++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> uint(rng.Intn(60)) // mix of magnitudes, duplicates
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			net.Sort(keys, nil)
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("n=%d trial %d: network sort != stdlib sort", n, trial)
			}
		}
	}
}

func TestSortIsPermutationWithPayload(t *testing.T) {
	net := MustNew(16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, 16)
		payload := make([]int, 16)
		orig := map[uint64]int{}
		for i := range keys {
			keys[i] = uint64(rng.Intn(8)) // heavy duplicates
			payload[i] = i
			orig[keys[i]]++
		}
		wantPayloadKeys := make([]uint64, 16)
		copy(wantPayloadKeys, keys)
		net.Sort(keys, func(i, j int) { payload[i], payload[j] = payload[j], payload[i] })
		// keys must be a sorted permutation of the originals.
		got := map[uint64]int{}
		for i, k := range keys {
			got[k]++
			if i > 0 && keys[i-1] > k {
				return false
			}
			// payload moved in lockstep: payload[i] names the original slot.
			if wantPayloadKeys[payload[i]] != k {
				return false
			}
		}
		return reflect.DeepEqual(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortPanicsOnWidthMismatch(t *testing.T) {
	net := MustNew(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Sort with wrong width did not panic")
		}
	}()
	net.Sort(make([]uint64, 4), nil)
}

func TestSortPrefixPadsAndSorts(t *testing.T) {
	net := MustNew(16)
	const pad = ^uint64(0)
	keys := make([]uint64, 16)
	vals := []uint64{900, 3, 77, 12, 5}
	copy(keys, vals)
	stages := net.SortPrefix(keys, len(vals), pad, nil)
	if stages != 3 { // 5 requests need ceil(log2 5) = 3 merge stages
		t.Errorf("stages = %d, want 3", stages)
	}
	want := []uint64{3, 5, 12, 77, 900}
	for i, w := range want {
		if keys[i] != w {
			t.Fatalf("keys[%d] = %d, want %d", i, keys[i], w)
		}
	}
	for i := len(vals); i < 16; i++ {
		if keys[i] != pad {
			t.Fatalf("keys[%d] = %d, want padding", i, keys[i])
		}
	}
}

func TestSortPrefixBoundsCheck(t *testing.T) {
	net := MustNew(8)
	defer func() {
		if recover() == nil {
			t.Fatal("SortPrefix with m>n did not panic")
		}
	}()
	net.SortPrefix(make([]uint64, 8), 9, ^uint64(0), nil)
}

func TestStagesNeeded(t *testing.T) {
	cases := []struct{ m, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {32, 5},
	}
	for _, c := range cases {
		if got := StagesNeeded(c.m); got != c.want {
			t.Errorf("StagesNeeded(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestBitonicZeroOnePrinciple(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		net := MustNewBitonic(n)
		keys := make([]uint64, n)
		for mask := 0; mask < 1<<n; mask++ {
			ones := 0
			for i := 0; i < n; i++ {
				keys[i] = uint64(mask >> i & 1)
				ones += mask >> i & 1
			}
			net.Sort(keys, nil)
			for i := 0; i < n; i++ {
				want := uint64(0)
				if i >= n-ones {
					want = 1
				}
				if keys[i] != want {
					t.Fatalf("n=%d mask=%b: position %d = %d, want %d", n, mask, i, keys[i], want)
				}
			}
		}
	}
}

func TestBitonicMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{8, 16, 64} {
		net := MustNewBitonic(n)
		for trial := 0; trial < 30; trial++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> uint(rng.Intn(58))
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			net.Sort(keys, nil)
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("n=%d: bitonic sort != stdlib sort", n)
			}
		}
	}
}

// TestOddEvenBeatsBitonic checks the §3.3 selection argument: the odd-even
// mergesort needs fewer comparators than bitonic sort at equal depth.
func TestOddEvenBeatsBitonic(t *testing.T) {
	for k := 1; k <= 7; k++ {
		n := 1 << k
		oe := MustNew(n)
		bi := MustNewBitonic(n)
		if bi.Comparators() != BitonicComparators(n) {
			t.Errorf("n=%d: bitonic comparators %d != formula %d",
				n, bi.Comparators(), BitonicComparators(n))
		}
		if oe.Depth() != bi.Depth() {
			t.Errorf("n=%d: depths differ %d vs %d", n, oe.Depth(), bi.Depth())
		}
		if n >= 4 && oe.Comparators() >= bi.Comparators() {
			t.Errorf("n=%d: odd-even %d comparators not below bitonic %d",
				n, oe.Comparators(), bi.Comparators())
		}
	}
	// The paper's n=16 numbers: 63 vs 80.
	if got := MustNewBitonic(16).Comparators(); got != 80 {
		t.Errorf("bitonic n=16 comparators = %d, want 80", got)
	}
}

func TestBitonicRejectsBadWidths(t *testing.T) {
	if _, err := NewBitonic(6); err == nil {
		t.Error("NewBitonic(6) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewBitonic(3) did not panic")
		}
	}()
	MustNewBitonic(3)
}

func TestBitonicPipelineFolds(t *testing.T) {
	net := MustNewBitonic(16)
	p, err := NewPipeline(net, PerStage)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 4 {
		t.Errorf("bitonic per-stage fold = %d stages, want 4", p.NumStages())
	}
	if p.Buffers() != 64 {
		t.Errorf("Buffers = %d, want 64", p.Buffers())
	}
}
