package hmc

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hmccoal/internal/enum"
	"hmccoal/internal/fault"
	"hmccoal/internal/invariant"
)

// Kind selects the device's timing model. Every kind speaks the same
// packet interface and keeps the same statistics, so every metric renders
// identically whichever model serves the packets; only the service time of
// a packet differs. The zero value is the HMC.
type Kind int

// Timing models.
const (
	// KindHMC is the full HMC 2.1 model: vaults, banks, serial links,
	// token flow control and link fault injection.
	KindHMC Kind = iota
	// KindDDR is a conventional-DIMM baseline: open-page banks behind one
	// shared data bus, the "conventional memory" side of the paper's
	// comparison.
	KindDDR
	// KindIdeal is a zero-contention device: fixed latency, unlimited
	// parallelism, the upper bound any coalescing scheme could reach.
	KindIdeal
)

// kinds spells every Kind, in iota order, as the CLI -backend flag does.
var kinds = enum.Table[Kind]{Type: "Kind", Unknown: "hmc: unknown backend", Names: []string{"hmc", "ddr", "ideal"}}

// String names the kind as the CLI -backend flag spells it.
func (k Kind) String() string { return kinds.String(k) }

// Validate rejects kinds with no timing model.
func (k Kind) Validate() error { return kinds.Validate(k) }

// MarshalText and UnmarshalText spell the kind as the -backend flag does,
// for JSON and flag.TextVar; "" parses as the HMC default.
func (k Kind) MarshalText() ([]byte, error)     { return kinds.MarshalText(k) }
func (k *Kind) UnmarshalText(text []byte) error { return kinds.UnmarshalText(k, text) }

// ParseKind maps a -backend flag value to a Kind. The empty string means
// the HMC.
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// Kinds lists the recognized timing-model names for usage messages.
func Kinds() []string { return kinds.List() }

// NeverTick marks a completion that will never happen: the response was
// dropped on the link and no amount of waiting delivers it. It sorts after
// every real tick, so event loops keyed on "earliest completion" naturally
// ignore it.
const NeverTick = ^uint64(0)

// Config describes the simulated device geometry and timing. All timing
// parameters are in core clock cycles (3.3 GHz in the paper's setup).
type Config struct {
	// CapacityBytes is the total device capacity (paper: 8 GB).
	CapacityBytes uint64
	// Vaults is the number of independent vaults (HMC 2.1: 32).
	Vaults int
	// BanksPerVault is the number of DRAM banks per vault (HMC 2.1: 16).
	BanksPerVault int
	// BlockBytes is the vault interleave granularity and the maximum
	// request size (paper: 256 B-block addressing).
	BlockBytes uint32
	// RowBytes is the DRAM row (page) size within a bank.
	RowBytes uint32
	// Links is the number of full-duplex serial links (HMC 2.1: 4).
	Links int

	// TActivate, TColumn, TPrecharge are the DRAM row activate, column
	// access and precharge times.
	TActivate, TColumn, TPrecharge uint64
	// TBurstPerFlit is the vault-internal (TSV) transfer time per data FLIT.
	TBurstPerFlit uint64
	// TFlit is the link serialization time per FLIT.
	TFlit uint64
	// TSerDes is the fixed one-way link latency (serialization/deserialization).
	TSerDes uint64

	// TRetry is the retry-pointer round-trip penalty per link
	// retransmission: the receiver signals StartRetry, the transmitter
	// rolls back to its retry pointer, and only then do the FLITs
	// reserialize (which is charged separately).
	TRetry uint64
	// TRetrain is the link retraining penalty paid after
	// Fault.RetrainAfter consecutive errored transmissions on one link.
	TRetrain uint64

	// OpenPage keeps DRAM rows open between accesses instead of the HMC's
	// closed-page policy (§2.2.1). With it, back-to-back requests to the
	// same row skip the activate; a row conflict pays precharge + activate.
	// Provided as an ablation of the paper's closed-page assumption.
	OpenPage bool

	// LinkTokens models the HMC's token-based link-level flow control: at
	// most this many transactions may be outstanding per link; a request
	// arriving with no token waits for one to return. 0 disables the limit
	// (the paper's evaluation never saturates it).
	LinkTokens int

	// Fault configures deterministic link-fault injection (CRC errors and
	// their retransmissions, retry exhaustion poisoning, dropped
	// responses). The zero value is the perfect interconnect the paper
	// evaluates on, and costs nothing on the hot path.
	Fault fault.Config
}

// DefaultConfig returns the 8 GB HMC 2.1-like configuration used by the
// paper's evaluation, with timing at a 3.3 GHz core clock.
func DefaultConfig() Config {
	return Config{
		CapacityBytes: 8 << 30,
		Vaults:        32,
		BanksPerVault: 16,
		BlockBytes:    256,
		RowBytes:      2048,
		Links:         4,
		TActivate:     45,  // ≈13.6 ns
		TColumn:       45,  // ≈13.6 ns
		TPrecharge:    45,  // ≈13.6 ns
		TBurstPerFlit: 5,   // ≈1.5 ns per 16 B over the TSVs
		TFlit:         1,   // ≈0.3 ns per 16 B per link (≈53 GB/s/link)
		TSerDes:       12,  // ≈3.6 ns each way
		TRetry:        24,  // ≈7.3 ns retry-pointer round trip
		TRetrain:      660, // ≈200 ns link retraining
	}
}

// Validate checks the configuration. NewDevice calls it; embedding configs
// can call it early to surface errors before any construction.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes == 0:
		return fmt.Errorf("hmc: zero capacity")
	case c.Vaults <= 0 || c.BanksPerVault <= 0 || c.Links <= 0:
		return fmt.Errorf("hmc: non-positive geometry %+v", c)
	case c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("hmc: block size %d not a power of two", c.BlockBytes)
	case c.RowBytes < c.BlockBytes:
		return fmt.Errorf("hmc: row size %d below block size %d", c.RowBytes, c.BlockBytes)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("hmc: %w", err)
	}
	return nil
}

// Request is one packetized HMC transaction.
type Request struct {
	// Addr is the physical byte address of the first byte.
	Addr uint64
	// PacketBytes is the FLIT-aligned packet payload size (16–256 B).
	PacketBytes uint32
	// RequestedBytes is the useful data inside the packet — the sum of the
	// original payload sizes that were coalesced into it. It never exceeds
	// PacketBytes and drives the Equation-1 bandwidth-efficiency stats.
	RequestedBytes uint32
	// Write distinguishes WR from RD packets.
	Write bool
}

// Completion describes the outcome of one submitted packet.
type Completion struct {
	// Done is the tick at which the response has been fully received by
	// the host, or NeverTick if the response was dropped.
	Done uint64
	// Poisoned reports that a leg of the transaction exhausted its link
	// retry budget: a response arrives at Done, but it carries an error
	// status instead of data. The requester must re-issue.
	Poisoned bool
	// Dropped reports that no response will ever arrive (Done is
	// NeverTick). A watchdog, not a wait, is the only way out.
	Dropped bool
	// Retries is the number of link retransmission rounds the transaction
	// needed across both legs.
	Retries int
}

// Device is the simulated memory device, timed by one of the models Kind
// names. It is not safe for concurrent use; the simulator owns it from a
// single goroutine.
type Device struct {
	kind  Kind
	cfg   Config
	banks []bankState // HMC: flat [vault*BanksPerVault+bank]; ddr: one channel's banks
	links []duplex    // per-link ingress/egress busy-until; nil for the flat models
	next  int         // round-robin link cursor
	bus   uint64      // ddr: shared data bus busy-until horizon
	// sizeHist counts requests per packet size, indexed by size/FlitBytes;
	// Stats materializes it into the exported map form on demand.
	sizeHist []uint64
	stats    Stats

	// Fault state. serial numbers every submitted packet; together with
	// the link index it keys the injector, making every fault decision a
	// pure function of the packet's identity. consecErr and linkFaults are
	// nil unless injection is enabled, keeping the no-fault construction
	// path allocation-identical to a fault-free build.
	inj        fault.Injector
	serial     uint64
	consecErr  []int
	linkFaults []LinkFaultStats

	// Invariant-checking state, maintained only when check is non-nil so
	// the unchecked hot path pays one pointer compare per packet. The
	// counters classify every issued packet's payload bytes by outcome;
	// CheckConservation audits issued = delivered + poisoned + dropped.
	check          *invariant.Checker
	chkIssuedB     uint64
	chkDeliveredB  uint64
	chkPoisonedB   uint64
	chkDroppedB    uint64
	chkStarvedPkts uint64
}

type bankState struct {
	busyUntil uint64
	openRow   uint64
	rowValid  bool
}

type duplex struct {
	in, out uint64
	// tokens holds, when flow control is enabled, the release time of each
	// link token (the completion tick of the transaction holding it). A
	// token stamped NeverTick is leaked by a dropped response and never
	// returns.
	tokens []uint64
}

// NewDevice builds a Device of the given timing model from a fully
// specified cfg. Start from DefaultConfig and adjust fields as needed.
// Every kind honors the geometry and timing fields it models; only the HMC
// has serial links, so only it accepts fault injection.
func NewDevice(kind Kind, cfg Config) (*Device, error) {
	d := &Device{}
	if err := d.Reset(kind, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset returns d to exactly the device NewDevice(kind, cfg) builds,
// reusing its bank, link-token and statistics arrays where their shape
// fits. The attached checker is detached.
func (d *Device) Reset(kind Kind, cfg Config) error {
	if err := errors.Join(kind.Validate(), cfg.Validate()); err != nil {
		return err
	}
	if kind != KindHMC && cfg.Fault.Enabled() {
		return fmt.Errorf("hmc: fault injection is HMC-only (%v backend has no serial links)", kind)
	}
	nBanks, nLinks := 0, 0
	switch kind {
	case KindHMC:
		nBanks, nLinks = cfg.Vaults*cfg.BanksPerVault, cfg.Links
	case KindDDR:
		nBanks = cfg.BanksPerVault
	}
	// The links keep their token arrays: each is resized in place below.
	links := d.links
	if cap(links) < nLinks {
		links = make([]duplex, nLinks)
	}
	*d = Device{
		kind:     kind,
		cfg:      cfg,
		banks:    append(d.banks[:0], make([]bankState, nBanks)...),
		links:    links[:nLinks],
		sizeHist: append(d.sizeHist[:0], make([]uint64, cfg.BlockBytes/FlitBytes+1)...),
		stats:    Stats{VaultRequests: d.stats.VaultRequests},
		inj:      fault.NewInjector(cfg.Fault),
	}
	for i := range d.links {
		l := &d.links[i]
		l.in, l.out = 0, 0
		l.tokens = append(l.tokens[:0], make([]uint64, cfg.LinkTokens)...)
	}
	d.stats.VaultRequests = append(d.stats.VaultRequests[:0], make([]uint64, d.vaultBuckets())...)
	if d.inj.Enabled() {
		d.consecErr = make([]int, cfg.Links)
		d.linkFaults = make([]LinkFaultStats, cfg.Links)
	}
	return nil
}

// vaultBuckets is the length of Stats.VaultRequests: one per vault for the
// HMC, a single bucket for the one-channel flat models.
func (d *Device) vaultBuckets() int {
	if d.kind == KindHMC {
		return d.cfg.Vaults
	}
	return 1
}

// Kind returns the device's timing model.
func (d *Device) Kind() Kind { return d.kind }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetChecker attaches a runtime invariant checker. With a checker set the
// device classifies every issued packet's payload bytes by outcome so
// CheckConservation can audit the byte-conservation law; a nil checker
// (the default) disables the bookkeeping entirely.
func (d *Device) SetChecker(c *invariant.Checker) { d.check = c }

// CheckConservation audits the device's conservation laws at the end of a
// run: every issued packet byte was delivered, poisoned or dropped — none
// lost, none invented — and every leaked link flow-control token is
// matched by a dropped response on that link. It returns the first
// violation found, or nil. It requires SetChecker to have been called
// before traffic; without a checker it reports nothing.
func (d *Device) CheckConservation(tick uint64) error {
	if d.check == nil {
		return nil
	}
	if d.chkIssuedB != d.chkDeliveredB+d.chkPoisonedB+d.chkDroppedB {
		return d.check.Record(invariant.Violatef(invariant.RuleByteConservation, tick,
			d.conservationSnapshot(),
			"issued %d B != delivered %d B + poisoned %d B + dropped %d B",
			d.chkIssuedB, d.chkDeliveredB, d.chkPoisonedB, d.chkDroppedB))
	}
	for li := range d.links {
		l := &d.links[li]
		leaked := uint64(0)
		for _, rel := range l.tokens {
			if rel == NeverTick {
				leaked++
			}
		}
		dropped := uint64(0)
		if d.linkFaults != nil {
			dropped = d.linkFaults[li].Dropped
		}
		if len(l.tokens) > 0 && leaked != dropped {
			return d.check.Record(invariant.Violatef(invariant.RuleLinkTokenLeak, tick,
				d.conservationSnapshot(),
				"link %d leaked %d token(s) but recorded %d dropped response(s)",
				li, leaked, dropped))
		}
	}
	return nil
}

// conservationSnapshot renders the byte ledger plus the link state.
func (d *Device) conservationSnapshot() string {
	return fmt.Sprintf("device{issued=%dB delivered=%dB poisoned=%dB dropped=%dB starved=%d} %s",
		d.chkIssuedB, d.chkDeliveredB, d.chkPoisonedB, d.chkDroppedB, d.chkStarvedPkts, d.DebugLinks())
}

// vaultOf maps an address to its vault by low-order block interleaving.
func (d *Device) vaultOf(addr uint64) int {
	return int(addr / uint64(d.cfg.BlockBytes) % uint64(d.cfg.Vaults))
}

// bankOf maps an address to a bank within its vault.
func (d *Device) bankOf(addr uint64) int {
	return int(addr / uint64(d.cfg.BlockBytes) / uint64(d.cfg.Vaults) % uint64(d.cfg.BanksPerVault))
}

// rowOf maps an address to its DRAM row within the bank.
func (d *Device) rowOf(addr uint64) uint64 {
	bankOffset := addr / uint64(d.cfg.BlockBytes) / uint64(d.cfg.Vaults) / uint64(d.cfg.BanksPerVault)
	return bankOffset / uint64(d.cfg.RowBytes/d.cfg.BlockBytes)
}

// Submit presents a request to the device at the given arrival tick and
// returns the tick at which the response has been fully received by the
// host. It is SubmitPacket restricted to the perfect-link result; with
// fault injection enabled the returned tick may belong to a poisoned
// response, or be NeverTick for a dropped one — callers that care must use
// SubmitPacket.
func (d *Device) Submit(tick uint64, req Request) (uint64, error) {
	comp, err := d.SubmitPacket(tick, req)
	return comp.Done, err
}

// SubmitPacket presents a request to the device at the given arrival tick
// and returns a Completion describing when — and whether — the response
// reaches the host. Requests must respect the packet interface:
// FLIT-aligned payload in [16, BlockBytes] that does not cross a block
// boundary. The flat models serve the packet in serveFlat; the rest of
// this comment describes the HMC.
//
// The HMC model is busy-until based: each bank and each link direction is a
// resource with a scalar horizon. Closed-page policy: every request pays
// activate + column + burst and leaves the bank busy through precharge, so
// k small requests to one block cost k row activations where one coalesced
// request costs one — the effect motivating the paper.
//
// With fault injection enabled, each leg of the transaction runs the HMC
// link-retry protocol: an injected CRC error costs a retry-pointer round
// trip plus reserialization of the packet's FLITs, consecutive errors
// trigger link retraining, and a leg that exhausts its retry budget
// poisons the response. A dropped response completes at NeverTick and, if
// flow control is on, leaks its link token — exactly the failure a
// watchdog above the device must catch.
func (d *Device) SubmitPacket(tick uint64, req Request) (Completion, error) {
	c := &d.cfg
	if req.PacketBytes < MinRequestBytes || req.PacketBytes > c.BlockBytes {
		return Completion{}, fmt.Errorf("hmc: packet size %d outside [%d,%d]", req.PacketBytes, MinRequestBytes, c.BlockBytes)
	}
	if req.PacketBytes%FlitBytes != 0 {
		return Completion{}, fmt.Errorf("hmc: packet size %d not FLIT aligned", req.PacketBytes)
	}
	if req.Addr/uint64(c.BlockBytes) != (req.Addr+uint64(req.PacketBytes)-1)/uint64(c.BlockBytes) {
		return Completion{}, fmt.Errorf("hmc: request %#x+%d crosses a %d B block boundary", req.Addr, req.PacketBytes, c.BlockBytes)
	}
	if req.RequestedBytes > req.PacketBytes {
		return Completion{}, fmt.Errorf("hmc: requested bytes %d exceed packet %d", req.RequestedBytes, req.PacketBytes)
	}
	req.Addr %= c.CapacityBytes
	if d.kind != KindHMC {
		return d.serveFlat(tick, req), nil
	}
	addr := req.Addr
	serial := d.serial
	d.serial++

	// Link ingress: serialize the request packet on the next link. With
	// flow control enabled, first wait for a link token.
	li := d.next
	link := &d.links[li]
	d.next = (d.next + 1) % len(d.links)
	tokenSlot := -1
	arrive := tick
	if len(link.tokens) > 0 {
		tokenSlot = 0
		for i, rel := range link.tokens {
			if rel < link.tokens[tokenSlot] {
				tokenSlot = i
			}
		}
		if link.tokens[tokenSlot] == NeverTick {
			// Every token on this link is held by a transaction whose
			// response was dropped. The request can never start; fail it
			// loudly instead of modelling an infinite wait.
			d.stats.TokenStarved++
			if d.check != nil {
				d.chkIssuedB += uint64(req.PacketBytes)
				d.chkDroppedB += uint64(req.PacketBytes)
				d.chkStarvedPkts++
			}
			return Completion{Done: NeverTick, Dropped: true}, nil
		}
		if link.tokens[tokenSlot] > arrive {
			d.stats.TokenWait += link.tokens[tokenSlot] - arrive
			arrive = link.tokens[tokenSlot]
		}
	}
	var comp Completion
	reqFlits := uint64(RequestFlits(req.Write, req.PacketBytes))
	inStart := max64(arrive, link.in)
	txEnd := inStart + reqFlits*c.TFlit
	reqPoisoned := false
	if d.inj.Enabled() {
		var r int
		txEnd, r, reqPoisoned = d.retryLeg(li, serial, fault.LegRequest, reqFlits, txEnd)
		comp.Retries += r
	}
	link.in = txEnd

	// Accounting shared by every outcome: the request was presented and
	// its packet serialized at least once.
	d.noteRequest(req)

	if reqPoisoned {
		// The request never entered the device intact: no vault sees it.
		// The link controller sends back a one-FLIT poisoned response
		// after the failed leg settles.
		comp.Poisoned = true
		d.poison(li)
		if d.check != nil {
			d.chkPoisonedB += uint64(req.PacketBytes)
		}
		outStart := max64(link.in+2*c.TSerDes, link.out)
		link.out = outStart + c.TFlit
		comp.Done = link.out + c.TSerDes
		d.noteResponse(comp.Done, 1)
		if tokenSlot >= 0 {
			link.tokens[tokenSlot] = comp.Done
		}
		return comp, nil
	}

	atVault := link.in + c.TSerDes

	// Bank service. Closed page (the HMC default): every request pays
	// activate + column + burst and busies the bank through precharge.
	// Open page (ablation): a row hit pays column + burst only; a row miss
	// pays precharge + activate + column + burst.
	v, b := d.vaultOf(addr), d.bankOf(addr)
	bank := &d.banks[v*d.cfg.BanksPerVault+b]
	start := max64(atVault, bank.busyUntil)
	if bank.busyUntil > atVault {
		d.stats.BankConflicts++
		d.stats.ConflictWait += bank.busyUntil - atVault
	}
	burst := uint64(DataFlits(req.PacketBytes)) * c.TBurstPerFlit
	var dataReady uint64
	if c.OpenPage {
		row := d.rowOf(addr)
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
		bank.openRow, bank.rowValid = row, true
		bank.busyUntil = dataReady
	} else {
		d.stats.RowActivations++
		dataReady = start + c.TActivate + c.TColumn + burst
		bank.busyUntil = dataReady + c.TPrecharge
	}
	d.stats.VaultRequests[v]++

	// A dropped response vanishes before the egress link ever sees it.
	// The transaction's token is leaked: with flow control on, the link
	// will eventually starve — deliberately observable, not papered over.
	if d.inj.Enabled() && d.inj.Drop(li, serial) {
		comp.Done = NeverTick
		comp.Dropped = true
		d.stats.DroppedResponses++
		d.linkFaults[li].Dropped++
		if d.check != nil {
			d.chkDroppedB += uint64(req.PacketBytes)
		}
		if tokenSlot >= 0 {
			link.tokens[tokenSlot] = NeverTick
		}
		return comp, nil
	}

	// Link egress: serialize the response packet back to the host.
	respFlits := uint64(ResponseFlits(req.Write, req.PacketBytes))
	outStart := max64(dataReady, link.out)
	txOut := outStart + respFlits*c.TFlit
	respPoisoned := false
	if d.inj.Enabled() {
		var r int
		txOut, r, respPoisoned = d.retryLeg(li, serial, fault.LegResponse, respFlits, txOut)
		comp.Retries += r
	}
	link.out = txOut
	comp.Done = link.out + c.TSerDes
	if tokenSlot >= 0 {
		link.tokens[tokenSlot] = comp.Done // token returns with the response
	}

	d.noteResponse(comp.Done, respFlits)
	if respPoisoned {
		// The response arrives, but as a poison marker: its data FLITs
		// were exhausted on the link, so no useful bytes were delivered.
		comp.Poisoned = true
		d.poison(li)
		if d.check != nil {
			d.chkPoisonedB += uint64(req.PacketBytes)
		}
	} else {
		d.noteDelivered(req)
	}
	return comp, nil
}

// noteRequest records the accounting every presented packet pays up front:
// the request counters and the request packet's serialization on the link.
func (d *Device) noteRequest(req Request) {
	d.stats.Requests++
	if req.Write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.sizeHist[req.PacketBytes/FlitBytes]++
	d.stats.TransferredBytes += uint64(RequestFlits(req.Write, req.PacketBytes)) * FlitBytes
	if d.check != nil {
		d.chkIssuedB += uint64(req.PacketBytes)
	}
}

// noteResponse records a response packet of respFlits FLITs that reaches
// the host at done, whether it carries data or poison.
func (d *Device) noteResponse(done, respFlits uint64) {
	d.stats.TransferredBytes += respFlits * FlitBytes
	if done > d.stats.LastDone {
		d.stats.LastDone = done
	}
}

// noteDelivered records a response that carried its data: the payload and
// requested byte totals that feed the efficiency metrics.
func (d *Device) noteDelivered(req Request) {
	d.stats.PacketBytes += uint64(req.PacketBytes)
	d.stats.RequestedBytes += uint64(req.RequestedBytes)
	if d.check != nil {
		d.chkDeliveredB += uint64(req.PacketBytes)
	}
}

// retryLeg runs the HMC link-retry protocol for one packet transmission
// whose first serialization ends at txEnd. Each corrupted attempt pays the
// retry-pointer penalty plus reserialization of the packet's FLITs;
// RetrainAfter consecutive errors on the link (across packets) force a
// retraining pause. Returns the tick the leg finally settles, the number
// of retransmission rounds, and whether the retry budget was exhausted
// (the leg is then poisoned, settling at the last failed attempt).
func (d *Device) retryLeg(li int, serial uint64, leg uint8, flits, txEnd uint64) (uint64, int, bool) {
	c := &d.cfg
	maxRetries := c.Fault.MaxRetriesOrDefault()
	retrainAfter := c.Fault.RetrainAfterOrDefault()
	retries := 0
	for attempt := 0; ; attempt++ {
		if !d.inj.Corrupt(li, serial, leg, attempt, int(flits)) {
			d.consecErr[li] = 0
			return txEnd, retries, false
		}
		d.consecErr[li]++
		if d.consecErr[li] >= retrainAfter {
			d.linkFaults[li].Retrains++
			d.stats.RetrainEvents++
			txEnd += c.TRetrain
			d.consecErr[li] = 0
		}
		if attempt >= maxRetries {
			return txEnd, retries, true
		}
		retries++
		d.linkFaults[li].Retries++
		d.stats.Retries++
		d.stats.RetransmittedBytes += flits * FlitBytes
		d.stats.TransferredBytes += flits * FlitBytes
		txEnd += c.TRetry + flits*c.TFlit
	}
}

// poison records a poisoned response on link li.
func (d *Device) poison(li int) {
	d.stats.PoisonedResponses++
	d.linkFaults[li].Poisoned++
}

// DebugLinks renders the per-link horizon and fault state for watchdog and
// deadlock diagnostics, or the flat models' own transport state. The
// format is stable and deterministic.
func (d *Device) DebugLinks() string {
	switch d.kind {
	case KindDDR:
		return fmt.Sprintf("ddr{bus=%d banks=%d}", d.bus, len(d.banks))
	case KindIdeal:
		return "ideal{}"
	}
	var b strings.Builder
	for i := range d.links {
		if i > 0 {
			b.WriteByte(' ')
		}
		l := &d.links[i]
		leaked := 0
		for _, rel := range l.tokens {
			if rel == NeverTick {
				leaked++
			}
		}
		fmt.Fprintf(&b, "link%d{in=%d out=%d", i, l.in, l.out)
		if len(l.tokens) > 0 {
			fmt.Fprintf(&b, " tokens=%d leaked=%d", len(l.tokens), leaked)
		}
		if d.linkFaults != nil {
			f := d.linkFaults[i]
			fmt.Fprintf(&b, " retries=%d retrains=%d poisoned=%d dropped=%d consec=%d",
				f.Retries, f.Retrains, f.Poisoned, f.Dropped, d.consecErr[i])
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Stats returns a copy of the accumulated device statistics. The returned
// SizeHist map is materialized fresh from the device's internal histogram,
// so callers may mutate it freely.
func (d *Device) Stats() Stats {
	s := d.stats
	s.SizeHist = make(map[uint32]uint64)
	for i, n := range d.sizeHist {
		if n != 0 {
			s.SizeHist[uint32(i)*FlitBytes] = n
		}
	}
	s.VaultRequests = append([]uint64(nil), d.stats.VaultRequests...)
	if d.linkFaults != nil {
		s.LinkFaults = append([]LinkFaultStats(nil), d.linkFaults...)
	}
	return s
}

// LinkFaultStats breaks the fault counters down per link.
type LinkFaultStats struct {
	// Retries is the number of link retransmission rounds on this link.
	Retries uint64
	// Retrains counts link retraining events (consecutive-error bursts).
	Retrains uint64
	// Poisoned counts responses returned with poison instead of data.
	Poisoned uint64
	// Dropped counts responses that vanished entirely.
	Dropped uint64
}

// Stats aggregates device activity.
type Stats struct {
	Requests, Reads, Writes uint64
	// SizeHist counts requests per packet payload size. Device.Stats
	// materializes it fresh on every call; use SizeHistSorted for
	// deterministic iteration order in rendered output.
	SizeHist map[uint32]uint64
	// PacketBytes is the total FLIT-aligned payload moved.
	PacketBytes uint64
	// RequestedBytes is the total useful data inside those payloads.
	RequestedBytes uint64
	// TransferredBytes is everything on the links: payload + control
	// FLITs, including retransmissions forced by injected CRC errors.
	TransferredBytes uint64
	RowActivations   uint64
	RowHits          uint64 // open-page mode only
	// VaultRequests counts requests routed to each vault; skew here means
	// the address stream is not spreading over the device's parallelism.
	VaultRequests []uint64
	BankConflicts uint64
	ConflictWait  uint64 // cycles lost to busy banks
	TokenWait     uint64 // cycles spent waiting for link flow-control tokens
	LastDone      uint64 // completion tick of the latest response

	// Fault-injection counters. All stay zero with faults disabled.
	Retries            uint64 // link retransmission rounds across all links
	RetrainEvents      uint64 // link retraining events
	PoisonedResponses  uint64 // responses poisoned by retry exhaustion
	DroppedResponses   uint64 // responses that never arrived
	TokenStarved       uint64 // requests rejected because every link token leaked
	RetransmittedBytes uint64 // link bytes moved again by retransmissions
	// LinkFaults is the per-link fault breakdown; nil with faults off.
	LinkFaults []LinkFaultStats
}

// SizeCount is one row of the packet-size histogram.
type SizeCount struct {
	Size  uint32 // packet payload size in bytes
	Count uint64 // requests of that size
}

// SizeHistSorted returns the packet-size histogram as (size, count) pairs
// in ascending size order. Iterating SizeHist directly yields a random
// order per run; every rendered view of the histogram goes through this.
func (s Stats) SizeHistSorted() []SizeCount {
	out := make([]SizeCount, 0, len(s.SizeHist))
	for size, n := range s.SizeHist {
		out = append(out, SizeCount{Size: size, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// BandwidthEfficiency is Equation 1 over the whole run: useful requested
// data divided by everything transferred (payload + control).
func (s Stats) BandwidthEfficiency() float64 {
	if s.TransferredBytes == 0 {
		return 0
	}
	return float64(s.RequestedBytes) / float64(s.TransferredBytes)
}

// ControlBytes returns the total control overhead moved on the links.
func (s Stats) ControlBytes() uint64 {
	return s.TransferredBytes - s.PacketBytes
}

// VaultImbalance measures how unevenly traffic spreads over the vaults:
// max per-vault share divided by the uniform share (1.0 = perfectly even,
// Vaults = everything in one vault).
func (s Stats) VaultImbalance() float64 {
	if s.Requests == 0 || len(s.VaultRequests) == 0 {
		return 0
	}
	var max uint64
	for _, v := range s.VaultRequests {
		if v > max {
			max = v
		}
	}
	uniform := float64(s.Requests) / float64(len(s.VaultRequests))
	return float64(max) / uniform
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
