package hmc

// The flat timing models: devices that keep the HMC packet interface and
// its FLIT-based link accounting (request + response FLITs × FlitBytes),
// so Equation-1 bandwidth efficiency compares apples to apples, but serve
// each packet on one channel with no serial links. Their only variables
// against the HMC are the channel structure and parallelism, not the
// silicon: timing reuses the HMC config's DRAM core parameters, and
// TSerDes stands in for the memory-controller and PHY traversal on each
// direction. VaultRequests has a single bucket — one channel.

// ddrBusFactor scales the per-FLIT burst time for the single shared data
// bus of a conventional DIMM channel relative to the HMC's many parallel
// serial links and TSV columns: the same payload occupies the DDR bus four
// times as long as one HMC vault's burst engine.
const ddrBusFactor = 4

// serveFlat serves one validated packet, its address already wrapped to
// the capacity, on a flat model. Flat models have no fault paths: every
// packet is delivered.
func (d *Device) serveFlat(tick uint64, req Request) Completion {
	d.noteRequest(req)
	var done uint64
	if d.kind == KindDDR {
		done = d.serveDDR(tick, req)
	} else {
		done = d.serveIdeal(tick, req)
	}
	d.noteResponse(done, uint64(ResponseFlits(req.Write, req.PacketBytes)))
	d.noteDelivered(req)
	return Completion{Done: done}
}

// serveDDR models the "conventional memory" side of the paper's
// comparison: one channel, one shared data bus, a row of DRAM banks with
// open-page policy. It returns the tick the response reaches the host.
func (d *Device) serveDDR(tick uint64, req Request) uint64 {
	c := &d.cfg
	// Controller and PHY traversal before the command reaches the bank.
	atBank := tick + c.TSerDes

	block := req.Addr / uint64(c.BlockBytes)
	bank := &d.banks[block%uint64(len(d.banks))]
	row := block / uint64(len(d.banks)) / (uint64(c.RowBytes) / uint64(c.BlockBytes))

	start := atBank
	if bank.busyUntil > start {
		d.stats.BankConflicts++
		d.stats.ConflictWait += bank.busyUntil - start
		start = bank.busyUntil
	}
	burst := uint64(DataFlits(req.PacketBytes)) * c.TBurstPerFlit * ddrBusFactor
	var dataReady uint64
	switch {
	case bank.rowValid && bank.openRow == row:
		d.stats.RowHits++
		dataReady = start + c.TColumn + burst
	case bank.rowValid:
		d.stats.RowActivations++
		dataReady = start + c.TPrecharge + c.TActivate + c.TColumn + burst
	default:
		d.stats.RowActivations++
		dataReady = start + c.TActivate + c.TColumn + burst
	}
	bank.openRow = row
	bank.rowValid = true
	bank.busyUntil = dataReady
	d.stats.VaultRequests[0]++

	// Every transfer serializes over the single shared data bus.
	busStart := dataReady
	if d.bus > busStart {
		d.stats.ConflictWait += d.bus - busStart
		busStart = d.bus
	}
	respFlits := ResponseFlits(req.Write, req.PacketBytes)
	busEnd := busStart + uint64(respFlits)*c.TFlit
	d.bus = busEnd

	return busEnd + c.TSerDes
}

// serveIdeal is the zero-contention upper bound: every request is served
// by its own private bank and bus, so latency is a pure function of packet
// size — controller traversal each way, one activate, one column access,
// and the burst. No queueing, no row buffer, no fault injection. Any
// coalescing scheme's speedup is bounded by what it achieves here.
func (d *Device) serveIdeal(tick uint64, req Request) uint64 {
	c := &d.cfg
	d.stats.RowActivations++
	d.stats.VaultRequests[0]++
	burst := uint64(DataFlits(req.PacketBytes)) * c.TBurstPerFlit
	return tick + 2*c.TSerDes + c.TActivate + c.TColumn + burst
}
