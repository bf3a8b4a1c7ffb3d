package membackend

import (
	"fmt"

	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
)

// idealBackend is the zero-contention upper bound: every request is served
// by its own private bank and bus, so latency is a pure function of packet
// size — controller traversal each way, one activate, one column access,
// and the burst. No queueing, no row buffer, no fault injection. Any
// coalescing scheme's speedup is bounded by what it achieves here.
type idealBackend struct {
	cfg  hmc.Config
	core statsCore
}

func newIdeal(cfg hmc.Config) (Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fault.Enabled() {
		return nil, fmt.Errorf("membackend: fault injection is HMC-only (ideal backend has no serial links)")
	}
	b := &idealBackend{cfg: cfg}
	b.core.init(cfg)
	return b, nil
}

func (b *idealBackend) Kind() Kind { return KindIdeal }

func (b *idealBackend) Submit(tick uint64, req hmc.Request) (uint64, error) {
	comp, err := b.SubmitPacket(tick, req)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

func (b *idealBackend) SubmitPacket(tick uint64, req hmc.Request) (hmc.Completion, error) {
	if err := validateRequest(&b.cfg, req); err != nil {
		return hmc.Completion{}, err
	}
	req.Addr %= b.cfg.CapacityBytes
	b.core.noteRequest(tick, req)
	b.core.stats.RowActivations++
	b.core.stats.VaultRequests[0]++

	burst := uint64(hmc.DataFlits(req.PacketBytes)) * b.cfg.TBurstPerFlit
	done := tick + 2*b.cfg.TSerDes + b.cfg.TActivate + b.cfg.TColumn + burst
	respFlits := hmc.ResponseFlits(req.Write, req.PacketBytes)
	b.core.noteDone(done, req, respFlits)
	return hmc.Completion{Done: done}, nil
}

func (b *idealBackend) Stats() hmc.Stats { return b.core.statsCopy() }

func (b *idealBackend) Reset() { b.core.reset() }

// CopyFrom copies the statistics, the backend's only mutable state: the
// ideal device keeps no timing horizons.
func (b *idealBackend) CopyFrom(src Backend) error {
	s, ok := src.(*idealBackend)
	if !ok {
		return kindMismatch(src, KindIdeal)
	}
	b.core.copyFrom(&s.core)
	return nil
}

func (b *idealBackend) DebugLinks() string { return "ideal{}" }

func (b *idealBackend) SetChecker(c *invariant.Checker) { b.core.check = c }

func (b *idealBackend) CheckConservation(tick uint64) error { return b.core.checkConservation(tick) }
