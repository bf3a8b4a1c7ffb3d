package membackend

import (
	"fmt"

	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
)

// ddrBusFactor scales the per-FLIT burst time for the single shared data
// bus of a conventional DIMM channel relative to the HMC's many parallel
// serial links and TSV columns: the same payload occupies the DDR bus four
// times as long as one HMC vault's burst engine.
const ddrBusFactor = 4

// ddrBackend models the "conventional memory" side of the paper's
// comparison: one channel, one shared data bus, a row of DRAM banks with
// open-page policy. Timing reuses the HMC config's DRAM core parameters
// (TActivate/TColumn/TPrecharge/TBurstPerFlit) so the only variables in a
// cross-backend comparison are the channel structure and parallelism, not
// the silicon. TSerDes stands in for the memory-controller and PHY
// traversal on each direction.
type ddrBackend struct {
	cfg   hmc.Config
	banks []ddrBank
	bus   uint64 // shared data bus busy-until horizon
	core  statsCore
}

// ddrBank is one bank's service horizon and open-row tracker.
type ddrBank struct {
	busyUntil uint64
	openRow   uint64
	rowValid  bool
}

func newDDR(cfg hmc.Config) (Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fault.Enabled() {
		return nil, fmt.Errorf("membackend: fault injection is HMC-only (ddr backend has no serial links)")
	}
	b := &ddrBackend{
		cfg:   cfg,
		banks: make([]ddrBank, cfg.BanksPerVault),
	}
	b.core.init(cfg)
	return b, nil
}

func (b *ddrBackend) Kind() Kind { return KindDDR }

func (b *ddrBackend) Submit(tick uint64, req hmc.Request) (uint64, error) {
	comp, err := b.SubmitPacket(tick, req)
	if err != nil {
		return 0, err
	}
	return comp.Done, nil
}

func (b *ddrBackend) SubmitPacket(tick uint64, req hmc.Request) (hmc.Completion, error) {
	if err := validateRequest(&b.cfg, req); err != nil {
		return hmc.Completion{}, err
	}
	req.Addr %= b.cfg.CapacityBytes
	b.core.noteRequest(tick, req)

	// Controller and PHY traversal before the command reaches the bank.
	atBank := tick + b.cfg.TSerDes

	block := req.Addr / uint64(b.cfg.BlockBytes)
	bank := &b.banks[block%uint64(len(b.banks))]
	row := block / uint64(len(b.banks)) / (uint64(b.cfg.RowBytes) / uint64(b.cfg.BlockBytes))

	start := atBank
	if bank.busyUntil > start {
		b.core.stats.BankConflicts++
		b.core.stats.ConflictWait += bank.busyUntil - start
		start = bank.busyUntil
	}
	burst := uint64(hmc.DataFlits(req.PacketBytes)) * b.cfg.TBurstPerFlit * ddrBusFactor
	var dataReady uint64
	switch {
	case bank.rowValid && bank.openRow == row:
		b.core.stats.RowHits++
		dataReady = start + b.cfg.TColumn + burst
	case bank.rowValid:
		b.core.stats.RowActivations++
		dataReady = start + b.cfg.TPrecharge + b.cfg.TActivate + b.cfg.TColumn + burst
	default:
		b.core.stats.RowActivations++
		dataReady = start + b.cfg.TActivate + b.cfg.TColumn + burst
	}
	bank.openRow = row
	bank.rowValid = true
	bank.busyUntil = dataReady
	b.core.stats.VaultRequests[0]++

	// Every transfer serializes over the single shared data bus.
	busStart := dataReady
	if b.bus > busStart {
		b.core.stats.ConflictWait += b.bus - busStart
		busStart = b.bus
	}
	respFlits := hmc.ResponseFlits(req.Write, req.PacketBytes)
	busEnd := busStart + uint64(respFlits)*b.cfg.TFlit
	b.bus = busEnd

	done := busEnd + b.cfg.TSerDes
	b.core.noteDone(done, req, respFlits)
	return hmc.Completion{Done: done}, nil
}

func (b *ddrBackend) Stats() hmc.Stats { return b.core.statsCopy() }

func (b *ddrBackend) Reset() {
	for i := range b.banks {
		b.banks[i] = ddrBank{}
	}
	b.bus = 0
	b.core.reset()
}

func (b *ddrBackend) CopyFrom(src Backend) error {
	s, ok := src.(*ddrBackend)
	if !ok {
		return kindMismatch(src, KindDDR)
	}
	copy(b.banks, s.banks)
	b.bus = s.bus
	b.core.copyFrom(&s.core)
	return nil
}

func (b *ddrBackend) DebugLinks() string {
	return fmt.Sprintf("ddr{bus=%d banks=%d}", b.bus, len(b.banks))
}

func (b *ddrBackend) SetChecker(c *invariant.Checker) { b.core.check = c }

func (b *ddrBackend) CheckConservation(tick uint64) error { return b.core.checkConservation(tick) }
