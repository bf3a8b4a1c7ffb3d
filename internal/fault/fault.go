// Package fault implements a deterministic, seeded fault injector for the
// simulated HMC serial links.
//
// Decisions are counter-based rather than stream-based: every draw is a
// pure function of (seed, link, packet serial, leg, attempt) hashed through
// SplitMix64 (internal/splitmix), so a given packet corrupts or survives
// identically no matter how many other packets ran before it, which worker
// of an internal/sweep pool executed the run, or how many times the run is
// repeated. That property is what makes fault sweeps byte-reproducible.
//
// Probabilities are pre-baked into 64-bit compare thresholds at injector
// construction, so the per-packet decision on the hot path is one hash and
// one compare — and with injection disabled the injector is a single
// boolean test.
package fault

import (
	"fmt"
	"math"

	"hmccoal/internal/splitmix"
)

// Default retry-protocol parameters, applied when the corresponding Config
// field is zero.
const (
	// DefaultMaxRetries is the link-level retransmission budget per packet
	// leg before the device abandons it and poisons the response.
	DefaultMaxRetries = 3
	// DefaultRetrainAfter is the number of consecutive errored
	// transmissions on one link that trigger link retraining.
	DefaultRetrainAfter = 4
)

// Config parameterizes link-fault injection. The zero value disables
// injection entirely and is the default everywhere: the perfect
// interconnect the paper evaluates on.
type Config struct {
	// Seed keys every fault decision. Two runs with the same seed and the
	// same packet serial order observe byte-identical faults.
	Seed uint64
	// BER is the raw bit error rate of the serial links. Each transmission
	// of an n-FLIT packet corrupts with probability 1-(1-BER)^(128n),
	// modelling the per-packet CRC check failing.
	BER float64
	// DropRate is the per-transaction probability that the response packet
	// vanishes entirely (modelling retry-buffer overrun or a failed link
	// the retry protocol cannot recover): the host never sees a response
	// and the watchdog must notice.
	DropRate float64
	// MaxRetries bounds link retransmission rounds per packet leg before
	// the device gives up and returns a poisoned response. 0 means
	// DefaultMaxRetries.
	MaxRetries int
	// RetrainAfter is the consecutive-error count on one link that forces
	// link retraining. 0 means DefaultRetrainAfter.
	RetrainAfter int
}

// Enabled reports whether any fault can ever be injected.
func (c Config) Enabled() bool { return c.BER > 0 || c.DropRate > 0 }

// Validate rejects configurations that cannot describe probabilities.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.BER) || c.BER < 0 || c.BER > 1:
		return fmt.Errorf("fault: bit error rate %v outside [0,1]", c.BER)
	case math.IsNaN(c.DropRate) || c.DropRate < 0 || c.DropRate > 1:
		return fmt.Errorf("fault: drop rate %v outside [0,1]", c.DropRate)
	case c.MaxRetries < 0:
		return fmt.Errorf("fault: negative retry budget %d", c.MaxRetries)
	case c.RetrainAfter < 0:
		return fmt.Errorf("fault: negative retrain threshold %d", c.RetrainAfter)
	}
	return nil
}

// MaxRetriesOrDefault resolves the retry budget.
func (c Config) MaxRetriesOrDefault() int {
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

// RetrainAfterOrDefault resolves the retraining threshold.
func (c Config) RetrainAfterOrDefault() int {
	if c.RetrainAfter == 0 {
		return DefaultRetrainAfter
	}
	return c.RetrainAfter
}

// Packet legs a fault decision can apply to. Request and response draws are
// independent: the same serial can survive downstream and corrupt upstream.
const (
	LegRequest  uint8 = 1
	LegResponse uint8 = 2
	legDrop     uint8 = 3
)

// maxFlits is the largest packet a draw distinguishes: 16 data FLITs
// (256 B) plus one control FLIT.
const maxFlits = 17

// Injector makes per-packet fault decisions. It is a value type with no
// internal state: copy it freely, share it across goroutines.
type Injector struct {
	seed    uint64
	enabled bool
	drop    uint64
	// corrupt[f] is the compare threshold for one transmission of an
	// f-FLIT packet: a draw below it fails the CRC check.
	corrupt [maxFlits + 1]uint64
}

// NewInjector bakes cfg's probabilities into compare thresholds.
func NewInjector(cfg Config) Injector {
	in := Injector{seed: cfg.Seed, enabled: cfg.Enabled()}
	if !in.enabled {
		return in
	}
	in.drop = splitmix.Threshold(cfg.DropRate)
	for f := 1; f <= maxFlits; f++ {
		in.corrupt[f] = splitmix.Threshold(1 - math.Pow(1-cfg.BER, float64(f)*128))
	}
	return in
}

// Enabled reports whether the injector can ever fire. Callers branch on
// this to keep the no-fault hot path allocation- and draw-free.
func (in *Injector) Enabled() bool { return in.enabled }

// Corrupt decides whether one transmission attempt of a packet fails its
// CRC check. The decision depends only on the packet's identity, never on
// prior draws.
func (in *Injector) Corrupt(link int, serial uint64, leg uint8, attempt, flits int) bool {
	if !in.enabled {
		return false
	}
	if flits > maxFlits {
		flits = maxFlits
	}
	if flits < 1 {
		flits = 1
	}
	return in.draw(link, serial, leg, attempt) < in.corrupt[flits]
}

// Drop decides whether a transaction's response vanishes entirely.
func (in *Injector) Drop(link int, serial uint64) bool {
	if !in.enabled || in.drop == 0 {
		return false
	}
	return in.draw(link, serial, legDrop, 0) < in.drop
}

// draw hashes the packet identity into a uniform 64-bit value.
func (in *Injector) draw(link int, serial uint64, leg uint8, attempt int) uint64 {
	h := splitmix.Hash(in.seed ^ serial)
	h = splitmix.Hash(h ^ (uint64(link)<<16 | uint64(leg)<<8 | uint64(attempt)))
	return h
}
