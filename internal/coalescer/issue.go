package coalescer

import (
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
	"hmccoal/internal/mshr"
)

// enqueuePacket routes a packet from either gather stage into the CRQ. In
// degraded mode it caps packet size at one cache line: a multi-line
// packet is split into single-line packets before queuing, trading the
// coalescing win for a smaller retransmission unit on the errored link.
func (c *Coalescer) enqueuePacket(now uint64, p packet) {
	if !c.degraded || p.lines <= 1 {
		c.enqueueOne(now, p)
		return
	}
	c.stats.DegradedSplits++
	for ln := p.baseLine; ln < p.baseLine+uint64(p.lines); ln++ {
		var targets []mshr.Target
		for _, t := range p.targets {
			if t.Line == ln {
				if targets == nil {
					targets = c.getTargets()
				}
				targets = append(targets, t)
			}
		}
		if targets == nil {
			continue // no waiter on this line: nothing to fetch
		}
		c.enqueueOne(now, packet{
			baseLine: ln, lines: 1, write: p.write, targets: targets,
			ready: p.ready, attempt: p.attempt, cpu: p.cpu, critical: p.critical,
		})
	}
	c.putTargets(p.targets)
}

// enqueueOne appends a packet to the CRQ and maintains the fill-episode
// accounting behind Figure 13: an episode measures how long the coalescer
// takes to supply one CRQ's worth of packets (capacity = number of MSHRs).
// Better coalescing means fewer packets per batch and therefore a longer
// fill time — the FT effect discussed in §5.3.3.
func (c *Coalescer) enqueueOne(now uint64, p packet) {
	if c.fillCount == 0 {
		c.fillStart = now
	}
	c.crqPush(p)
	c.stats.Packets++
	if c.crqLen > c.stats.CRQPeak {
		c.stats.CRQPeak = c.crqLen
	}
	c.fillCount++
	if c.fillCount >= c.cfg.MSHR.Entries {
		c.stats.CRQFillCycles += now - c.fillStart
		c.stats.CRQFills++
		c.fillCount = 0
	}
}

// drainCRQ advances the CRQ head into the MSHRs: second-phase coalescing,
// entry allocation and memory dispatch. now is the current event tick.
func (c *Coalescer) drainCRQ(now uint64) {
	for c.crqLen > 0 {
		if c.laneBytes != nil && c.crqLen > 1 && !c.crqFront().blocked {
			c.selectReady(now)
		}
		p := c.crqFront()
		if p.ready > now {
			return
		}
		if c.headStalls != 0 {
			// The head's last Insert merged and issued nothing, and no entry
			// has been released since: a retry would defer the same waiters
			// again, so only its stalls are counted.
			c.file.AddFullStalls(c.headStalls)
			return
		}
		// The insert happens as soon as both the packet and the MSHR state
		// allow: not before the packet was ready, not before the entry
		// release it was blocked on, and never out of FIFO order.
		t := p.ready
		if p.blocked && c.freedAt > t {
			t = c.freedAt
		}
		if c.lastIssue > t {
			t = c.lastIssue
		}
		minLine, maxLine := p.targets[0].Line, p.targets[0].Line
		for _, tg := range p.targets[1:] {
			if tg.Line < minLine {
				minLine = tg.Line
			}
			if tg.Line > maxLine {
				maxLine = tg.Line
			}
		}
		stalls := c.file.Stats().FullStalls
		out, err := c.file.Insert(minLine, int(maxLine-minLine)+1, p.write, p.targets)
		if err != nil {
			// A CRQ packet the file rejects is malformed bookkeeping, not a
			// recoverable stall: latch the violation and retire the packet so
			// the event loop can abort instead of spinning on it.
			if v, ok := invariant.As(err); ok {
				c.setViol(v)
			} else {
				c.setViol(invariant.Violatef(invariant.RuleCRQInsert, now, c.DebugState(),
					"CRQ packet [line %d, %d lines, write=%v, %d targets] rejected by MSHR file: %v",
					p.baseLine, p.lines, p.write, len(p.targets), err))
			}
			c.crqPop()
			return
		}
		issuedSubs := 0
		for _, e := range out.Issued {
			issuedSubs += len(e.Subs())
		}
		if out.MergedTargets+issuedSubs+len(out.Unplaced) != len(p.targets) {
			c.setViol(invariant.Violatef(invariant.RuleTargetConservation, now, c.DebugState(),
				"%d targets -> %d merged + %d issued + %d unplaced",
				len(p.targets), out.MergedTargets, issuedSubs, len(out.Unplaced)))
			c.crqPop()
			return
		}
		for _, e := range out.Issued {
			c.stats.HMCRequests++
			res, err := c.issue(t, c.request(e))
			if err != nil {
				// The device rejected a packet the coalescer built. Latch the
				// violation for the event loop's next poll and treat the
				// packet as completed at t so the bookkeeping stays conserved
				// until the run aborts.
				c.setViol(invariant.Violatef(invariant.RuleIllegalPacket, t, c.DebugState(),
					"illegal HMC request from coalescer: %v", err))
				res = hmc.Completion{Done: t}
			}
			c.noteIssue(t, res)
			c.stats.LinkRetryRounds += uint64(res.Retries)
			if res.Dropped {
				c.stats.DroppedPackets++
				res.Done = hmc.NeverTick // normalize whatever the callback set
			} else if res.Poisoned {
				c.stats.PoisonedPackets++
			}
			if c.laneBytes != nil {
				c.laneBytes[p.cpu] += uint64(e.Lines()) * uint64(c.cfg.LineBytes)
			}
			c.inflight = completionPush(c.inflight, completion{
				tick: res.Done, entry: e, issuedAt: t, fault: res.Poisoned, attempt: p.attempt,
				cpu: p.cpu, critical: p.critical,
			})
		}
		c.lastIssue = t
		if len(out.Unplaced) > 0 {
			// Head blocks in FIFO order until an entry frees; the already
			// placed waiters must not be retried. The unplaced set is a
			// subset of the packet's own targets, so it fits in place —
			// copying it frees the file's scratch buffer for the retry.
			p.targets = append(p.targets[:0], out.Unplaced...)
			p.blocked = true
			if out.MergedTargets == 0 && len(out.Issued) == 0 {
				c.headStalls = c.file.Stats().FullStalls - stalls
			}
			return
		}
		c.crqPop()
	}
}

// request builds the HMC packet for an allocated MSHR entry: its lines,
// with the useful bytes its waiters asked for.
func (c *Coalescer) request(e *mshr.Entry) hmc.Request {
	packet := uint32(e.Lines()) * c.cfg.LineBytes
	return hmc.Request{
		Addr:           e.BaseLine() * uint64(c.cfg.LineBytes),
		PacketBytes:    packet,
		RequestedBytes: min(uint32(e.Payload()), packet),
		Write:          e.Write(),
	}
}

// selectReady implements the heterogeneity-aware issue policy: among the
// packets already ready at now it rotates the preferred one to the CRQ
// head, keeping every other packet in FIFO order. With no ready packet, or
// when the FIFO head already wins, the queue is untouched — so FR-FCFS
// behavior is the fixed point the policy degrades to under light load.
func (c *Coalescer) selectReady(now uint64) {
	mask := len(c.crqBuf) - 1
	best := -1
	for i := 0; i < c.crqLen; i++ {
		p := &c.crqBuf[(c.crqHead+i)&mask]
		if p.ready > now {
			continue
		}
		if best < 0 || c.schedBetter(p, &c.crqBuf[(c.crqHead+best)&mask]) {
			best = i
		}
	}
	if best <= 0 {
		return
	}
	sel := c.crqBuf[(c.crqHead+best)&mask]
	for i := best; i > 0; i-- {
		c.crqBuf[(c.crqHead+i)&mask] = c.crqBuf[(c.crqHead+i-1)&mask]
	}
	c.crqBuf[c.crqHead] = sel
}

// schedBetter ranks two ready packets under SchedHetero: criticality hints
// first, then the lane that has issued the fewest bytes — deprioritizing
// bandwidth hogs — with FIFO order (the earlier packet) winning ties.
func (c *Coalescer) schedBetter(a, b *packet) bool {
	if a.critical != b.critical {
		return a.critical
	}
	if ab, bb := c.laneBytes[a.cpu], c.laneBytes[b.cpu]; ab != bb {
		return ab < bb
	}
	return false
}

// completion pairs an outstanding MSHR entry with its response tick.
// tick is NeverTick for a dropped response — such completions sink to the
// bottom of the heap and only the watchdog ever looks at them.
type completion struct {
	tick     uint64
	entry    *mshr.Entry
	issuedAt uint64 // dispatch tick, for watchdog age ordering
	fault    bool   // response arrived poisoned
	attempt  int    // span-level retry attempts already spent
	cpu      uint8  // issuing lane, carried so retries keep their account
	critical bool   // criticality hint, carried across retries
}

// The in-flight min-heap is hand-inlined: container/heap's interface
// indirection boxes every completion on push and pop, and this runs once
// per memory request. The sift routines mirror container/heap exactly
// (left child preferred on ties) so the pop order of same-tick completions
// is unchanged.

// completionPush inserts x and returns the updated heap slice.
func completionPush(h []completion, x completion) []completion {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[i].tick >= h[p].tick {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// The retry queue is a min-heap of failed spans ordered by (ready, seq):
// release time first, failure order as the tie-break, so backed-off
// retries re-enter the CRQ in a deterministic total order.

func retryLess(a, b *packet) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.seq < b.seq
}

// retryPush inserts x and returns the updated heap slice.
func retryPush(h []packet, x packet) []packet {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !retryLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// retryPop removes the minimum packet, returning the shrunk slice and the
// removed item.
func retryPop(h []packet) ([]packet, packet) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	item := h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && retryLess(&h[r], &h[j]) {
			j = r
		}
		if !retryLess(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h, item
}

// completionPop removes the minimum completion, returning the shrunk slice
// and the removed item.
func completionPop(h []completion) ([]completion, completion) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	item := h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].tick < h[j].tick {
			j = r
		}
		if h[j].tick >= h[i].tick {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h, item
}
