package coalescer

import "hmccoal/internal/mshr"

// warpGather is the GPU-style gather stage: instead of one shared input
// buffer feeding a sorting network, each request lane (CPU) keeps an open
// warp buffer that closes when it reaches the coalescing width or its
// timeout expires — the SIMT memory-access coalescing stage, where the
// lanes of a warp present their addresses together and the unit merges
// them at DRAM-block granularity in first-touch order, counting one burst
// per distinct block touched. There is no sorter and no bypass: merging
// is an associative block lookup, so a closed warp pays CompareCycles per
// distinct (block, type) group and MergeCycles per absorbed request, and
// the whole warp becomes ready when its grouping cost has elapsed. The
// timeout is the configured TimeoutCycles; there is no sorter latency to
// adapt it to.
type warpGather struct {
	c     *Coalescer
	lanes []warpLane
	// next is the earliest expiry tick of an open warp, or ^0 when every
	// lane is empty: a push into an empty lane lowers it, and closeWarp
	// rescans the lanes. expire and nextExpiry read it instead of scanning
	// every lane on each call.
	next uint64
	// groups is closeWarp's working set, reused across closes.
	groups []warpGroup
}

// warpLane is one lane's open warp buffer.
type warpLane struct {
	reqs  []pendingReq
	since uint64 // tick the oldest buffered request arrived
}

// warpGroup is one distinct (block, type) burst of a closing warp.
type warpGroup struct {
	block    uint64
	write    bool
	minLine  uint64
	maxLine  uint64
	cpu      uint8
	critical bool
	targets  []mshr.Target
}

// reset empties every lane for a run with the given lane count, keeping
// the lane buffers while the count is unchanged.
func (g *warpGather) reset(lanes int) {
	lanes = max(lanes, 1)
	if len(g.lanes) != lanes {
		g.lanes = make([]warpLane, lanes)
	}
	for i := range g.lanes {
		g.lanes[i] = warpLane{reqs: g.lanes[i].reqs[:0]}
	}
	g.next = ^uint64(0)
}

// push lands the request in its lane's open warp, which closes when it
// reaches the coalescing width.
func (g *warpGather) push(now uint64, r Request) {
	lane := int(r.CPU) % len(g.lanes)
	l := &g.lanes[lane]
	if len(l.reqs) == 0 {
		l.since = now
		g.next = min(g.next, now+g.c.cfg.TimeoutCycles)
	}
	l.reqs = append(l.reqs, pendingReq{Request: r, pushTick: now})
	if len(l.reqs) >= g.c.cfg.Width {
		g.closeWarp(now, lane, flushFull)
		g.c.drainCRQ(now)
	}
}

// fence closes every open warp immediately, in ascending lane order.
func (g *warpGather) fence(now uint64) {
	g.closeAll(now, flushFence)
	g.c.drainCRQ(now)
}

func (g *warpGather) drain(now uint64) { g.closeAll(now, flushDrain) }

func (g *warpGather) closeAll(now uint64, cause flushCause) {
	for i := range g.lanes {
		g.closeWarp(now, i, cause)
	}
}

// expire closes every warp whose timeout fell due, in (expiry tick, lane
// index) order so multi-lane expiries are deterministic.
func (g *warpGather) expire(now uint64) {
	for now >= g.next {
		best, bestT := -1, uint64(0)
		for i := range g.lanes {
			l := &g.lanes[i]
			if len(l.reqs) == 0 {
				continue
			}
			if t := l.since + g.c.cfg.TimeoutCycles; t <= now && (best < 0 || t < bestT) {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return
		}
		g.closeWarp(bestT, best, flushTimeout)
	}
}

func (g *warpGather) nextExpiry() uint64 { return g.next }

// scanExpiry recomputes next from the lanes.
func (g *warpGather) scanExpiry() {
	g.next = ^uint64(0)
	for i := range g.lanes {
		l := &g.lanes[i]
		if len(l.reqs) > 0 {
			g.next = min(g.next, l.since+g.c.cfg.TimeoutCycles)
		}
	}
}

func (g *warpGather) buffered() int {
	n := 0
	for i := range g.lanes {
		n += len(g.lanes[i].reqs)
	}
	return n
}

// closeWarp runs one lane's buffered requests through block-granularity
// merging and queues the resulting packets. closeTick is when the warp
// closed; the packets become ready once the grouping cost has elapsed.
func (g *warpGather) closeWarp(closeTick uint64, lane int, cause flushCause) {
	c := g.c
	l := &g.lanes[lane]
	batch := l.reqs
	l.reqs = l.reqs[:0]
	m := len(batch)
	if m == 0 {
		return
	}
	g.scanExpiry()
	c.stats.countFlush(m, cause)

	// Burst counting: one group per distinct (block, type) pair, built in
	// first-touch order — the warp's lanes are compared associatively, so
	// unlike the two-phase DMC no sorting happens and discontiguous lines
	// of one block still share a burst.
	groups := g.groups[:0]
	var cost uint64
	for i := range batch {
		r := &batch[i]
		block := r.Line / c.linesBlock
		gi := -1
		for j := range groups {
			if groups[j].block == block && groups[j].write == r.Write {
				gi = j
				break
			}
		}
		if gi < 0 {
			cost += CompareCycles
			groups = append(groups, warpGroup{
				block: block, write: r.Write,
				minLine: r.Line, maxLine: r.Line,
				cpu: r.CPU, critical: r.Critical,
				targets: append(c.getTargets(), mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload}),
			})
			continue
		}
		gr := &groups[gi]
		cost += MergeCycles
		c.stats.FirstPhaseMerges++
		gr.minLine = min(gr.minLine, r.Line)
		gr.maxLine = max(gr.maxLine, r.Line)
		gr.critical = gr.critical || r.Critical
		gr.targets = append(gr.targets, mshr.Target{Line: r.Line, Token: r.Token, Payload: r.Payload})
	}
	g.groups = groups
	c.stats.DMCCycles += cost
	done := closeTick + cost

	// Per-request latency: buffer wait + grouping, ending when the warp's
	// packets reach the CRQ.
	for i := range batch {
		c.stats.RequestLatency += done - batch[i].pushTick
	}
	c.stats.LatencySamples += uint64(m)

	// Each group's span stays inside one block; split it into legal HMC
	// packet sizes, largest first. A chunk nobody waits on — a hole in the
	// span — fetches nothing and is skipped.
	for gi := range groups {
		gr := &groups[gi]
		base := gr.minLine
		length := int(gr.maxLine-gr.minLine) + 1
		if chunkLen(length) == length {
			// Common case: the whole group is one legal packet — hand the
			// target slice over without copying.
			c.enqueuePacket(done, packet{
				baseLine: base, lines: length, write: gr.write,
				targets: gr.targets, ready: done, cpu: gr.cpu, critical: gr.critical,
			})
			gr.targets = nil
			continue
		}
		for length > 0 {
			size := chunkLen(length)
			var targets []mshr.Target
			for _, t := range gr.targets {
				if t.Line >= base && t.Line < base+uint64(size) {
					if targets == nil {
						targets = c.getTargets()
					}
					targets = append(targets, t)
				}
			}
			if targets != nil {
				c.enqueuePacket(done, packet{
					baseLine: base, lines: size, write: gr.write,
					targets: targets, ready: done, cpu: gr.cpu, critical: gr.critical,
				})
			}
			base += uint64(size)
			length -= size
		}
		c.putTargets(gr.targets)
		gr.targets = nil
	}
}
