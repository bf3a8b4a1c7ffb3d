package coalescer

import (
	"fmt"

	"hmccoal/internal/mshr"
)

// completionState is one captured in-flight completion. The MSHR entry
// pointer is stored as its stable index and re-pointed on restore.
type completionState struct {
	tick       uint64
	entryIndex int
	issuedAt   uint64
	fault      bool
	attempt    int
	cpu        uint8
	critical   bool
}

// State is an opaque deep copy of the coalescer's mutable state: the
// gather stage's buffers (the two-phase input buffer and its sorter,
// bypass and timeout state, or the warp lane buffers), the CRQ
// (linearized to FIFO order), the in-flight and retry heaps (verbatim
// array order, so tie-breaking after a restore matches the uninterrupted
// run exactly), the MSHR file, the degraded-mode machinery and every
// statistic. It restores only into a coalescer of the same kind.
type State struct {
	kind Kind

	// Two-phase gather.
	pending      []pendingReq
	pendingSince uint64
	sortFree     uint64
	curTimeout   uint64
	bypassOn     bool
	idleSince    uint64

	// Warp gather.
	lanes []warpLane

	crq      []packet // FIFO order, head first; targets deep-copied
	inflight []completionState
	retryQ   []packet

	freedAt     uint64
	lastIssue   uint64
	lastAdvance uint64
	fillStart   uint64
	fillCount   int
	stats       Stats

	retrySeq   uint64
	faultWin   []bool
	faultPos   int
	faultCnt   int
	degraded   bool
	degradedAt uint64

	laneBytes []uint64 // hetero scheduler accounts (nil under FR-FCFS)

	file *mshr.FileState
}

// clonePacket deep-copies a packet's targets; the target-slice pool is
// working storage and not captured.
func clonePacket(p packet) packet {
	p.targets = append([]mshr.Target(nil), p.targets...)
	return p
}

// SaveState deep-copies the coalescer's mutable state. It refuses to
// snapshot a coalescer that has latched a conservation violation — the
// state is untrustworthy by definition.
func (c *Coalescer) SaveState() (*State, error) {
	if c.viol != nil {
		return nil, fmt.Errorf("coalescer: cannot snapshot after violation: %w", c.viol)
	}
	st := &State{
		kind:        c.kind,
		freedAt:     c.freedAt,
		lastIssue:   c.lastIssue,
		lastAdvance: c.lastAdvance,
		fillStart:   c.fillStart,
		fillCount:   c.fillCount,
		stats:       c.stats,
		retrySeq:    c.retrySeq,
		faultPos:    c.faultPos,
		faultCnt:    c.faultCnt,
		degraded:    c.degraded,
		degradedAt:  c.degradedAt,
		file:        c.file.SaveState(),
	}
	c.gather.save(st)
	st.crq = make([]packet, c.crqLen)
	for i := 0; i < c.crqLen; i++ {
		st.crq[i] = clonePacket(c.crqBuf[(c.crqHead+i)&(len(c.crqBuf)-1)])
	}
	st.inflight = make([]completionState, len(c.inflight))
	for i := range c.inflight {
		st.inflight[i] = completionState{
			tick:       c.inflight[i].tick,
			entryIndex: c.inflight[i].entry.Index(),
			issuedAt:   c.inflight[i].issuedAt,
			fault:      c.inflight[i].fault,
			attempt:    c.inflight[i].attempt,
			cpu:        c.inflight[i].cpu,
			critical:   c.inflight[i].critical,
		}
	}
	st.retryQ = make([]packet, len(c.retryQ))
	for i := range c.retryQ {
		st.retryQ[i] = clonePacket(c.retryQ[i])
	}
	if c.faultWin != nil {
		st.faultWin = append([]bool(nil), c.faultWin...)
	}
	if c.laneBytes != nil {
		st.laneBytes = append([]uint64(nil), c.laneBytes...)
	}
	return st, nil
}

// RestoreState replays a snapshot into the coalescer, which must have been
// built from the same configuration and kind (and callbacks bound to the
// restored system). The CRQ is re-laid-out from index 0 — FIFO content,
// not ring phase, is the state — while both heaps are restored in verbatim
// array order so future pops break ties exactly as the snapshotted run
// would.
func (c *Coalescer) RestoreState(st *State) error {
	if c.viol != nil {
		return fmt.Errorf("coalescer: cannot restore after violation: %w", c.viol)
	}
	if st.kind != c.kind {
		return fmt.Errorf("coalescer: %v snapshot restored into %v coalescer", st.kind, c.kind)
	}
	if err := c.gather.restore(st); err != nil {
		return err
	}
	if err := c.file.RestoreState(st.file); err != nil {
		return err
	}
	need := len(c.crqBuf)
	if need == 0 && len(st.crq) > 0 {
		need = 16 // matches crqPush's initial allocation
	}
	for need < len(st.crq) {
		need *= 2
	}
	if need != len(c.crqBuf) {
		c.crqBuf = make([]packet, need)
	}
	for i := range c.crqBuf {
		c.crqBuf[i] = packet{}
	}
	for i := range st.crq {
		c.crqBuf[i] = clonePacket(st.crq[i])
	}
	c.crqHead = 0
	c.crqLen = len(st.crq)
	c.headStalls = 0
	c.inflight = c.inflight[:0]
	for i := range st.inflight {
		c.inflight = append(c.inflight, completion{
			tick:     st.inflight[i].tick,
			entry:    c.file.EntryAt(st.inflight[i].entryIndex),
			issuedAt: st.inflight[i].issuedAt,
			fault:    st.inflight[i].fault,
			attempt:  st.inflight[i].attempt,
			cpu:      st.inflight[i].cpu,
			critical: st.inflight[i].critical,
		})
	}
	c.retryQ = c.retryQ[:0]
	for i := range st.retryQ {
		c.retryQ = append(c.retryQ, clonePacket(st.retryQ[i]))
	}
	c.freedAt = st.freedAt
	c.lastIssue = st.lastIssue
	c.lastAdvance = st.lastAdvance
	c.fillStart = st.fillStart
	c.fillCount = st.fillCount
	c.stats = st.stats
	c.retrySeq = st.retrySeq
	if st.faultWin != nil {
		c.faultWin = append([]bool(nil), st.faultWin...)
	} else {
		c.faultWin = nil
	}
	c.faultPos = st.faultPos
	c.faultCnt = st.faultCnt
	c.degraded = st.degraded
	c.degradedAt = st.degradedAt
	if st.laneBytes != nil {
		c.laneBytes = append(c.laneBytes[:0], st.laneBytes...)
	} else if c.laneBytes != nil {
		for i := range c.laneBytes {
			c.laneBytes[i] = 0
		}
	}
	return nil
}
