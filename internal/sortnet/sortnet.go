// Package sortnet implements Batcher's odd–even mergesort network and the
// pipelined request sorting model from paper §3.3 and §4.1.
//
// The network for n = 2^k inputs consists of k merge stages; merge stage s
// (1-based) has s parallel comparator steps, so the whole network has
// k(k+1)/2 steps. For the paper's n = 16 this gives 4 stages, 10 steps and
// 63 comparators (Figure 4).
//
// The package is pure: it knows nothing about memory requests. Callers sort
// raw uint64 keys (the extended addresses of internal/trace) and move their
// own payload through the swap callback.
package sortnet

import (
	"fmt"
	"math/bits"
)

// Comparator is a compare-and-exchange element between wires I < J. After
// the operation the smaller key is on wire I — unless Down is set
// (descending comparator, used by bitonic networks), in which case the
// larger key lands on wire I.
type Comparator struct {
	I, J int
	Down bool
}

// Network is an odd–even mergesort network for a fixed power-of-two width.
type Network struct {
	n     int
	steps [][]Comparator // parallel layers, in execution order
	stage []int          // merge stage (0-based) of each step
}

// New constructs the odd–even mergesort network for n inputs. n must be a
// power of two and at least 2.
func New(n int) (*Network, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("sortnet: width %d is not a power of two ≥ 2", n)
	}
	net := &Network{n: n}
	stage := 0
	// Iterative Batcher construction: outer loop p enumerates merge stages
	// (merging sorted runs of length p), inner loop k enumerates the
	// parallel steps of that merge.
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			var step []Comparator
			for j := k % p; j <= n-1-k; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						step = append(step, Comparator{I: i + j, J: i + j + k})
					}
				}
			}
			net.steps = append(net.steps, step)
			net.stage = append(net.stage, stage)
		}
		stage++
	}
	return net, nil
}

// MustNew is New but panics on error; for widths known good at compile time.
func MustNew(n int) *Network {
	net, err := New(n)
	if err != nil {
		panic(err)
	}
	return net
}

// Width returns the number of input wires n.
func (net *Network) Width() int { return net.n }

// Depth returns the number of parallel comparator steps (k(k+1)/2).
func (net *Network) Depth() int { return len(net.steps) }

// Stages returns the number of merge stages (log2 n).
func (net *Network) Stages() int { return bits.TrailingZeros(uint(net.n)) }

// Comparators returns the total comparator count of the network.
func (net *Network) Comparators() int {
	total := 0
	for _, s := range net.steps {
		total += len(s)
	}
	return total
}

// Step returns the comparators of parallel step i (0-based). The returned
// slice must not be modified.
func (net *Network) Step(i int) []Comparator { return net.steps[i] }

// StepsOfStage returns how many parallel steps merge stage s (0-based)
// contains. For odd–even mergesort this is always s+1.
func (net *Network) StepsOfStage(s int) int {
	count := 0
	for _, st := range net.stage {
		if st == s {
			count++
		}
	}
	return count
}

// StepComparators returns the comparator count of each parallel step.
func (net *Network) StepComparators() []int {
	out := make([]int, len(net.steps))
	for i, s := range net.steps {
		out[i] = len(s)
	}
	return out
}

// Sort runs the network over keys in place, sorting them into
// non-decreasing order. len(keys) must equal Width. If swap is non-nil it
// is invoked for every exchange so callers can permute attached payload in
// lockstep.
func (net *Network) Sort(keys []uint64, swap func(i, j int)) {
	if len(keys) != net.n {
		panic(fmt.Sprintf("sortnet: Sort on %d keys, network width %d", len(keys), net.n))
	}
	for _, step := range net.steps {
		for _, c := range step {
			exchange := keys[c.I] > keys[c.J]
			if c.Down {
				exchange = keys[c.I] < keys[c.J]
			}
			if exchange {
				keys[c.I], keys[c.J] = keys[c.J], keys[c.I]
				if swap != nil {
					swap(c.I, c.J)
				}
			}
		}
	}
}

// SortPrefix sorts m valid keys held in keys[:m] by padding keys[m:n] with
// pad (which must compare ≥ every valid key, e.g. the Valid-bit padding key
// of paper §3.4) and running the full network. It reports how many merge
// stages the stage-select logic would actually enable for m requests.
func (net *Network) SortPrefix(keys []uint64, m int, pad uint64, swap func(i, j int)) int {
	if m < 0 || m > net.n {
		panic(fmt.Sprintf("sortnet: SortPrefix m=%d out of range [0,%d]", m, net.n))
	}
	for i := m; i < net.n; i++ {
		keys[i] = pad
	}
	net.Sort(keys[:net.n], swap)
	return StagesNeeded(m)
}

// StagesNeeded returns how many merge stages suffice to sort m requests:
// ceil(log2 m), with 0 for m ≤ 1. This is the stage-select optimization of
// §3.3: with m ≤ n/2 the final stage is disabled, with m ≤ n/4 the last
// two, and so on.
func StagesNeeded(m int) int {
	if m <= 1 {
		return 0
	}
	return bits.Len(uint(m - 1))
}
