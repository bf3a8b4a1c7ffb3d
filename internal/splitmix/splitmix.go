// Package splitmix holds the counter-based draw every deterministic fault
// source in the simulator uses: a decision is a pure function of the
// operation's identity hashed through the SplitMix64 finalizer, compared
// against a threshold baked from its probability once.
package splitmix

import "math"

// Hash is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func Hash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Threshold maps a probability to the 64-bit value below which a uniform
// draw counts as a hit.
func Threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	v := math.Ldexp(p, 64)
	if v >= math.Ldexp(1, 64) {
		return math.MaxUint64
	}
	return uint64(v)
}
