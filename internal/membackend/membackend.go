// Package membackend puts the simulated memory device behind a pluggable
// interface, so the evaluation can swap the memory technology under the
// coalescer without touching the simulator's tick loop. Three backends are
// provided:
//
//	hmc    the full HMC 2.1 device model (internal/hmc): vaults, banks,
//	       serial links, token flow control, link fault injection
//	ddr    a conventional-DIMM baseline: the same banked DRAM timing but a
//	       single channel with one shared data bus — the "conventional
//	       memory" side of the paper's comparison
//	ideal  a zero-contention device: fixed latency, unlimited parallelism —
//	       the upper bound any coalescing scheme could reach
//
// All backends speak the HMC packet interface (hmc.Request/Completion) and
// maintain the same statistics shape (hmc.Stats), so every metric and table
// in the evaluation renders identically whichever backend is plugged in.
// Fault injection is an HMC link property: the ddr and ideal backends
// reject configurations that enable it. Each backend can also make itself
// an exact copy of another of its kind (CopyFrom): that is all a system
// snapshot needs from the memory device.
package membackend

import (
	"fmt"

	"hmccoal/internal/enum"
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
)

// Kind selects a backend implementation. The zero value is the HMC device,
// so configurations that predate backend selection are unchanged.
type Kind int

// Backend kinds.
const (
	// KindHMC is the full HMC 2.1 device model.
	KindHMC Kind = iota
	// KindDDR is the DDR-like single-channel banked baseline.
	KindDDR
	// KindIdeal is the zero-contention fixed-latency device.
	KindIdeal
)

// kinds spells every Kind, in iota order, as the CLI -backend flag does.
var kinds = enum.Table[Kind]{Type: "Kind", Unknown: "membackend: unknown backend", Names: []string{"hmc", "ddr", "ideal"}}

// String names the kind as the CLI -backend flag spells it.
func (k Kind) String() string { return kinds.String(k) }

// Validate rejects kinds no factory case exists for.
func (k Kind) Validate() error { return kinds.Validate(k) }

// ParseKind maps a -backend flag value to a Kind. The empty string means
// the default HMC device.
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// Kinds lists the recognized backend names for usage messages.
func Kinds() []string { return kinds.List() }

// Backend is the memory device under the coalescer. Implementations are
// single-goroutine, tick-driven and deterministic: the same submission
// sequence produces the same completions and statistics.
type Backend interface {
	// Kind identifies the implementation.
	Kind() Kind
	// Submit presents one packet and returns its perfect-link completion
	// tick; see hmc.Device.Submit for the fault-mode caveats.
	Submit(tick uint64, req hmc.Request) (uint64, error)
	// SubmitPacket presents one packet and reports when — and whether —
	// the response reaches the host.
	SubmitPacket(tick uint64, req hmc.Request) (hmc.Completion, error)
	// Stats returns a copy of the accumulated device statistics.
	Stats() hmc.Stats
	// Reset clears all device state and statistics.
	Reset()
	// CopyFrom makes the backend an exact copy of src's mutable state,
	// writing into its own arrays. src must be of the same kind, which is
	// checked, and built from the same configuration, which is not.
	CopyFrom(src Backend) error
	// DebugLinks renders the transport state for watchdog diagnostics.
	DebugLinks() string
	// SetChecker attaches a runtime invariant checker (nil disables).
	SetChecker(*invariant.Checker)
	// CheckConservation audits the end-of-run byte-conservation law.
	CheckConservation(tick uint64) error
}

// New builds a backend of the given kind from the shared device
// configuration. Every kind honors the geometry and timing fields it
// models; only the HMC backend accepts fault injection.
func New(kind Kind, cfg hmc.Config) (Backend, error) {
	switch kind {
	case KindHMC:
		dev, err := hmc.NewDevice(cfg)
		if err != nil {
			return nil, err
		}
		return &hmcBackend{dev: dev}, nil
	case KindDDR:
		return newDDR(cfg)
	case KindIdeal:
		return newIdeal(cfg)
	}
	return nil, kind.Validate()
}

// hmcBackend adapts *hmc.Device to the Backend interface. It is a pure
// forwarder, kept only because Kind returns this package's Kind: hmc
// cannot import this package, which imports hmc.
type hmcBackend struct {
	dev *hmc.Device
}

func (b *hmcBackend) Kind() Kind { return KindHMC }

func (b *hmcBackend) Submit(tick uint64, req hmc.Request) (uint64, error) {
	return b.dev.Submit(tick, req)
}

func (b *hmcBackend) SubmitPacket(tick uint64, req hmc.Request) (hmc.Completion, error) {
	return b.dev.SubmitPacket(tick, req)
}

func (b *hmcBackend) Stats() hmc.Stats { return b.dev.Stats() }

func (b *hmcBackend) Reset() { b.dev.Reset() }

func (b *hmcBackend) CopyFrom(src Backend) error {
	s, ok := src.(*hmcBackend)
	if !ok {
		return kindMismatch(src, KindHMC)
	}
	b.dev.CopyFrom(s.dev)
	return nil
}

func (b *hmcBackend) DebugLinks() string { return b.dev.DebugLinks() }

func (b *hmcBackend) SetChecker(c *invariant.Checker) { b.dev.SetChecker(c) }

func (b *hmcBackend) CheckConservation(tick uint64) error { return b.dev.CheckConservation(tick) }

// kindMismatch is CopyFrom's error for a source of another kind.
func kindMismatch(src Backend, into Kind) error {
	return fmt.Errorf("membackend: cannot copy a %v backend into a %v backend", src.Kind(), into)
}

// validateRequest applies the packet-interface rules every backend shares:
// FLIT-aligned payload in [16, BlockBytes] that does not cross a block
// boundary, with the useful bytes bounded by the payload. It mirrors the
// HMC device's own validation so illegal packets fail identically on every
// backend.
func validateRequest(cfg *hmc.Config, req hmc.Request) error {
	switch {
	case req.PacketBytes < hmc.MinRequestBytes || req.PacketBytes > cfg.BlockBytes:
		return fmt.Errorf("membackend: packet size %d outside [%d,%d]", req.PacketBytes, hmc.MinRequestBytes, cfg.BlockBytes)
	case req.PacketBytes%hmc.FlitBytes != 0:
		return fmt.Errorf("membackend: packet size %d not FLIT aligned", req.PacketBytes)
	case req.Addr/uint64(cfg.BlockBytes) != (req.Addr+uint64(req.PacketBytes)-1)/uint64(cfg.BlockBytes):
		return fmt.Errorf("membackend: request %#x+%d crosses a %d B block boundary", req.Addr, req.PacketBytes, cfg.BlockBytes)
	case req.RequestedBytes > req.PacketBytes:
		return fmt.Errorf("membackend: requested bytes %d exceed packet %d", req.RequestedBytes, req.PacketBytes)
	}
	return nil
}
