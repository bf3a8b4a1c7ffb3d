package coalescer

import (
	"hmccoal/internal/mshr"
	"hmccoal/internal/sortnet"
	"hmccoal/internal/trace"
)

// flushCause records what closed an input sequence, so the flush-rate
// statistics can distinguish timeout expiries from fence-forced drains.
type flushCause int

const (
	flushFull    flushCause = iota // sequence reached full width
	flushTimeout                   // input-buffer timeout expired
	flushFence                     // a memory fence forced the drain
	flushDrain                     // end-of-run Drain forced the drain
)

// countFlush opens one batch of m requests in the flush statistics.
func (s *Stats) countFlush(m int, cause flushCause) {
	s.Batches++
	s.BatchRequests += uint64(m)
	switch cause {
	case flushFull:
		s.FullFlushes++
	case flushTimeout:
		s.TimeoutFlushes++
	case flushFence:
		s.FenceFlushes++
	case flushDrain:
		s.DrainFlushes++
	}
}

// sortGather is the two-phase gather stage (§3.3–§3.5, §4.2): one shared
// input buffer that flushes on width or timeout into the pipelined
// sorting network and the DMC unit, plus the idle bypass that sends raw
// requests straight to the MSHRs.
type sortGather struct {
	c    *Coalescer
	net  *sortnet.Network
	pipe *sortnet.Pipeline

	pending      []pendingReq // input buffer feeding the sorter
	pendingSince uint64       // tick the oldest pending request arrived
	sortFree     uint64       // next tick the sorter's first stage is free
	curTimeout   uint64       // effective timeout (EWMA when adaptive)
	bypassOn     bool         // §4.2 stage-select state: idle bypass armed
	idleSince    uint64       // first tick of the current full-idle span (^0 = busy)

	// flushKeys/flushPad are the sorter's Width-sized working arrays,
	// allocated once; padSwap is the sorter's swap callback over flushPad,
	// built once so flush does not allocate a closure per sequence.
	flushKeys []uint64
	flushPad  []pendingReq
	padSwap   func(i, j int)
}

// reset returns the sorter to its boot state for c's configuration. The
// sorting network and the Width-sized working arrays are kept while Width
// is unchanged, and the input buffer always is.
func (g *sortGather) reset(c *Coalescer) error {
	net := g.net
	if net == nil || net.Width() != c.cfg.Width {
		var err error
		if net, err = sortnet.New(c.cfg.Width); err != nil {
			return err
		}
	}
	pipe, err := sortnet.NewPipeline(net, c.cfg.Fold, StepCycles)
	if err != nil {
		return err
	}
	keys, pad, padSwap := g.flushKeys, g.flushPad, g.padSwap
	if len(keys) != c.cfg.Width {
		keys, pad = make([]uint64, c.cfg.Width), make([]pendingReq, c.cfg.Width)
		padSwap = func(i, j int) { pad[i], pad[j] = pad[j], pad[i] }
	}
	*g = sortGather{
		c:          c,
		net:        net,
		pipe:       pipe,
		pending:    g.pending[:0],
		curTimeout: c.cfg.TimeoutCycles,
		bypassOn:   true,       // §4.2: the bypass is armed at boot
		idleSince:  ^uint64(0), // not in an idle span until proven so
		flushKeys:  keys,
		flushPad:   pad,
		padSwap:    padSwap,
	}
	return nil
}

func (g *sortGather) push(now uint64, r Request) {
	c := g.c
	// §4.2 stage-select hysteresis: the bypass engages when the memory
	// system has been idle for a while (program start, post-blocking-call)
	// and disengages the moment the MSHR file packs; it re-arms only once
	// the system drains and stays drained.
	if c.file.Full() {
		g.bypassOn = false
		g.idleSince = ^uint64(0)
	} else if c.crqLen == 0 && len(g.pending) == 0 && len(c.inflight) == 0 && len(c.retryQ) == 0 {
		if g.idleSince == ^uint64(0) {
			g.idleSince = now
		}
		if now-g.idleSince >= BypassRearmCycles {
			g.bypassOn = true
		}
	} else {
		g.idleSince = ^uint64(0)
	}
	if c.cfg.Bypass && g.bypassOn && len(g.pending) == 0 && c.crqLen == 0 && len(c.retryQ) == 0 && !c.file.Full() {
		// Idle coalescer, free MSHRs — skip the sorter entirely.
		c.stats.Bypassed++
		c.enqueueSingle(now, r)
		c.drainCRQ(now)
		return
	}

	if len(g.pending) == 0 {
		g.pendingSince = now
	}
	g.pending = append(g.pending, pendingReq{Request: r, pushTick: now})
	if len(g.pending) >= c.cfg.Width {
		g.flush(now, flushFull)
	}
}

// fence flushes the pending sequence; the fence then monopolizes one
// pipeline stage (§3.4).
func (g *sortGather) fence(now uint64) {
	g.flush(now, flushFence)
	if g.c.mode != Baseline {
		if g.sortFree < now {
			g.sortFree = now
		}
		g.sortFree += g.pipe.IntervalCycles()
	}
}

func (g *sortGather) expire(now uint64) {
	if len(g.pending) > 0 && now >= g.pendingSince+g.curTimeout {
		g.flush(g.pendingSince+g.curTimeout, flushTimeout)
	}
}

func (g *sortGather) drain(now uint64) { g.flush(now, flushDrain) }

func (g *sortGather) nextExpiry() uint64 {
	if len(g.pending) == 0 {
		return ^uint64(0)
	}
	return g.pendingSince + g.curTimeout
}

func (g *sortGather) buffered() int { return len(g.pending) }

// adaptTimeout folds one sequence's coalescing cost (sorting + DMC cycles)
// into the adaptive timeout.
func (g *sortGather) adaptTimeout(cost uint64) {
	cfg := &g.c.cfg
	if !cfg.AdaptiveTimeout {
		return
	}
	// EWMA with 1/8 weight, clamped to a sane band around the seed.
	next := (g.curTimeout*7 + cost) / 8
	if lo := cfg.TimeoutCycles / 2; next < lo {
		next = lo
	}
	if hi := cfg.TimeoutCycles * 4; next > hi {
		next = hi
	}
	g.curTimeout = next
}

// flush closes the pending input sequence and runs it through the sorting
// pipeline and the DMC unit. now is the flush trigger tick; cause is what
// closed the sequence.
func (g *sortGather) flush(now uint64, cause flushCause) {
	c := g.c
	batch := g.pending
	// The buffer is reused for the next sequence; batch stays valid for the
	// rest of this flush because nothing can Push before it returns.
	g.pending = g.pending[:0]
	m := len(batch)
	if m == 0 {
		return
	}
	c.stats.countFlush(m, cause)

	// The sequence enters the sorter when its first stage is free; the
	// pipelined network accepts a new sequence every initiation interval.
	enter := now
	if g.sortFree > enter {
		enter = g.sortFree
	}
	g.sortFree = enter + g.pipe.IntervalCycles()

	// Sort by the extended 54-bit key (§3.4): Type bit above the address
	// separates loads from stores; invalid padding sinks to the tail. The
	// Width-sized working arrays are reused across flushes; stale entries
	// past m carry pad keys and sink below every real request.
	keys := g.flushKeys
	for i, r := range batch {
		kind := trace.Load
		if r.Write {
			kind = trace.Store
		}
		keys[i] = uint64(trace.MakeKey(r.Line, kind))
	}
	padded := g.flushPad
	copy(padded, batch)
	g.net.SortPrefix(keys, m, uint64(trace.InvalidKey()), g.padSwap)
	sorted := padded[:m]
	sortedAt := enter + g.pipe.LatencyCycles(m)
	c.stats.SortCycles += g.pipe.LatencyCycles(m)

	// First-phase coalescing (§3.5): the DMC takes the smallest request as
	// the base, compares it with the following requests in parallel
	// (CompareCycles per group) and merges every identical/contiguous
	// same-type request (MergeCycles each) until the packet would exceed
	// the maximum HMC request or cross a block boundary.
	var cost uint64
	var chunks [maxChunks]chunk
	i := 0
	for i < m {
		base := sorted[i]
		blockStart := base.Line / c.linesBlock * c.linesBlock
		end := base.Line + 1
		targets := append(c.getTargets(), mshr.Target{Line: base.Line, Token: base.Token, Payload: base.Payload})
		cost += CompareCycles
		critical := base.Critical
		j := i + 1
		for j < m && sorted[j].Write == base.Write {
			ln := sorted[j].Line
			if ln >= end {
				extendable := ln == end &&
					ln < blockStart+c.linesBlock &&
					end-base.Line < uint64(mshr.MaxLines)
				if !extendable {
					break
				}
				end = ln + 1
			}
			cost += MergeCycles
			c.stats.FirstPhaseMerges++
			critical = critical || sorted[j].Critical
			targets = append(targets, mshr.Target{Line: ln, Token: sorted[j].Token, Payload: sorted[j].Payload})
			j++
		}
		ready := sortedAt + cost
		nChunks := splitPacket(base.Line, int(end-base.Line), &chunks)
		if nChunks == 1 {
			// Common case: the whole group is one legal packet — hand the
			// target slice over without copying.
			c.enqueuePacket(ready, packet{
				baseLine: chunks[0].base, lines: chunks[0].len, write: base.Write,
				targets: targets, ready: ready, cpu: base.CPU, critical: critical,
			})
		} else {
			for ci := 0; ci < nChunks; ci++ {
				ch := chunks[ci]
				pkt := packet{baseLine: ch.base, lines: ch.len, write: base.Write, ready: ready,
					targets: c.getTargets(), cpu: base.CPU, critical: critical}
				for _, t := range targets {
					if t.Line >= ch.base && t.Line < ch.base+uint64(ch.len) {
						pkt.targets = append(pkt.targets, t)
					}
				}
				c.enqueuePacket(ready, pkt)
			}
			c.putTargets(targets)
		}
		i = j
	}
	c.stats.DMCCycles += cost
	g.adaptTimeout(g.pipe.LatencyCycles(m) + cost)

	// Per-request coalescer latency (Figure 14): input-buffer wait plus
	// sorting plus DMC processing, ending when the packet reaches the CRQ.
	done := sortedAt + cost
	for _, r := range batch {
		c.stats.RequestLatency += done - r.pushTick
	}
	c.stats.LatencySamples += uint64(m)

	c.drainCRQ(now)
}

type chunk struct {
	base uint64
	len  int
}

// maxChunks bounds splitPacket's output: a DMC group spans at most
// mshr.MaxLines (4) lines, which splits into at most 2+1 chunks.
const maxChunks = 3

// splitPacket breaks a contiguous line run into legal HMC packet sizes
// (4, 2 or 1 cache lines → 256/128/64 B), filling out and returning the
// chunk count.
func splitPacket(base uint64, length int, out *[maxChunks]chunk) int {
	n := 0
	for length > 0 {
		size := chunkLen(length)
		out[n] = chunk{base: base, len: size}
		n++
		base += uint64(size)
		length -= size
	}
	return n
}

// chunkLen is the largest legal HMC packet (4, 2 or 1 lines) that fits in
// a run of length lines.
func chunkLen(length int) int {
	switch {
	case length >= 4:
		return 4
	case length >= 2:
		return 2
	}
	return 1
}
