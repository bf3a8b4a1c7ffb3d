// Package mshr implements the dynamic Miss Status Holding Registers of
// paper §3.2.3 and the second-phase coalescing of §3.5.
//
// A conventional MSHR entry tracks outstanding misses to exactly one cache
// line. The paper extends each entry with a 2-bit size field so one entry
// can track a coalesced request of 1, 2 or 4 cache lines (64/128/256 B HMC
// packets), and extends each subentry with a 2-bit line ID selecting which
// of those lines the subentry's target is waiting on:
//
//	Subentry.addr = Entry.addr + LineID × LineSize   (Equation 2)
//
// Second-phase coalescing merges an incoming coalesced request against the
// outstanding entries (all compared simultaneously by the inherent
// hardware comparators):
//
//	Case A (Figure 6): the request's lines are a subset of one entry —
//	the whole request merges as subentries; no memory access is issued.
//	Case B (Figure 6): the request partially overlaps an entry — the
//	overlapped lines merge as subentries, the rest is re-packetized into
//	new entries.
//	Otherwise a fresh entry is allocated, which issues a memory access.
package mshr

import (
	"fmt"
	"math/bits"
	"strings"

	"hmccoal/internal/invariant"
)

// Size-class limits from §3.2.3: with 64 B lines and HMC 2.1 the coalesced
// request spans 1, 2 or 4 lines (encoded 00/01/10 in the size segment).
const MaxLines = 4

// Target identifies one waiter on one cache line. Line is the absolute
// line number (Addr / LineSize); Token is an opaque caller value returned
// when the line's data arrives. Payload is the number of useful bytes the
// original core accesses wanted from this line, used for the Equation-1
// bandwidth-efficiency accounting.
type Target struct {
	Line    uint64
	Token   uint64
	Payload uint32
}

// Sub is a subentry: a waiter expressed relative to its entry. Payload
// carries the waiter's useful-byte count so a failed entry's span can be
// reconstructed into fresh Targets and re-issued.
type Sub struct {
	LineID  uint8 // which line of the entry, per Equation 2
	Token   uint64
	Payload uint32
}

// Entry is one dynamic MSHR entry: an outstanding coalesced memory request.
type Entry struct {
	valid    bool
	write    bool // the T bit of §3.2.3
	baseLine uint64
	lines    uint8 // 1, 2 or 4
	subs     []Sub
	payload  uint64 // total useful bytes wanted by this entry's targets
	index    int
}

// Valid reports whether the entry is in use.
func (e *Entry) Valid() bool { return e.valid }

// Write reports the entry's T bit (true = store).
func (e *Entry) Write() bool { return e.write }

// BaseLine returns the absolute number of the first cache line covered.
func (e *Entry) BaseLine() uint64 { return e.baseLine }

// Lines returns how many consecutive cache lines the entry covers.
func (e *Entry) Lines() int { return int(e.lines) }

// SizeClass returns the 2-bit size encoding of §3.2.3: 0b00 for one line,
// 0b01 for two, 0b10 for four.
func (e *Entry) SizeClass() uint8 {
	return uint8(bits.TrailingZeros8(e.lines))
}

// Subs returns the entry's subentries. The slice must not be modified.
func (e *Entry) Subs() []Sub { return e.subs }

// Payload returns the total useful bytes wanted by this entry's waiters.
func (e *Entry) Payload() uint64 { return e.payload }

// Index returns the entry's slot in the file.
func (e *Entry) Index() int { return e.index }

// covers reports whether the entry covers the absolute line.
func (e *Entry) covers(line uint64) bool {
	return e.valid && line >= e.baseLine && line < e.baseLine+uint64(e.lines)
}

// Config sizes the MSHR file.
type Config struct {
	// Entries is the number of MSHR entries (paper: 16 in the LLC).
	Entries int
	// MaxSubentries bounds waiters per entry; 0 means the paper-typical 8.
	MaxSubentries int
}

// DefaultConfig returns the evaluation setup: 16 entries, 8 subentries.
func DefaultConfig() Config {
	return Config{Entries: 16, MaxSubentries: 8}
}

// File is the dynamic MSHR file.
//
// keys is a dense match-key array parallel to entries: a valid entry's key
// is matchKey of its (HMC block, T bit), a free entry's is 0. An entry
// never crosses a block, so only entries whose key equals the request's
// can cover one of its lines; lookup compares all keys — the software
// form of §3.5's simultaneous comparators — and touches an Entry only on a
// key match.
type File struct {
	cfg        Config
	entries    []Entry
	keys       []uint64
	merge      bool  // second-phase coalescing on
	blockShift uint8 // log2 of the lines per HMC block
	free       int
	stats      Stats
	check      *invariant.Checker

	// Scratch buffers reused across Insert calls so the steady state
	// allocates nothing. keptBuf backs the unmerged-target working set;
	// issuedBuf and unplacedBuf back Outcome.Issued/Unplaced, which are
	// therefore only valid until the next Insert.
	keptBuf     []Target
	issuedBuf   []*Entry
	unplacedBuf []Target
}

// Stats counts second-phase coalescing activity.
type Stats struct {
	// Allocations is the number of entries allocated — each one issues a
	// memory request, so this equals requests reaching the HMC.
	Allocations uint64
	// MergedTargets counts waiters absorbed into existing entries: misses
	// that did NOT become memory requests thanks to the second phase.
	MergedTargets uint64
	// SplitRequests counts Case-B partial overlaps that forced a request
	// to be broken apart.
	SplitRequests uint64
	// FullStalls counts deferred placements: one per waiter that finds its
	// entry's subentries full, plus one per Insert that finds the file
	// packed. A blocked CRQ head counts both again on every retry pass, so
	// this counts retry passes, not distinct waiters.
	FullStalls uint64
	// Completions counts freed entries.
	Completions uint64
}

// Validate checks the configuration. A zero MaxSubentries is legal — it
// means the paper-typical 8.
func (cfg Config) Validate() error {
	switch {
	case cfg.Entries <= 0:
		return fmt.Errorf("mshr: need at least one entry")
	case cfg.MaxSubentries < 0:
		return fmt.Errorf("mshr: negative subentry bound %d", cfg.MaxSubentries)
	}
	return nil
}

// NewFile builds an MSHR file whose requests may not cross a block of
// linesPerBlock cache lines, a power of two. merge enables second-phase
// coalescing; without it every insert allocates fresh entries, which
// evaluates the DMC unit in isolation (Figure 8's "DMC unit" series). The
// coalescer that owns the file supplies both.
func NewFile(cfg Config, linesPerBlock uint64, merge bool) (*File, error) {
	f := &File{}
	if err := f.Reset(cfg, linesPerBlock, merge); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns f to exactly the file NewFile builds from the same
// arguments. The entries, match keys and subentry backing are kept when cfg
// has the same Entries and MaxSubentries; the Insert scratch buffers always
// are. The attached checker is detached.
func (f *File) Reset(cfg Config, linesPerBlock uint64, merge bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if linesPerBlock == 0 || linesPerBlock&(linesPerBlock-1) != 0 {
		return fmt.Errorf("mshr: %d lines per block is not a power of two", linesPerBlock)
	}
	if cfg.MaxSubentries == 0 {
		cfg.MaxSubentries = 8
	}
	entries, keys := f.entries, f.keys
	if len(entries) != cfg.Entries || f.cfg.MaxSubentries != cfg.MaxSubentries {
		entries, keys = make([]Entry, cfg.Entries), make([]uint64, cfg.Entries)
		// Fixed subentry backing, reused across the entry's lifetimes: one
		// array for the whole file, capped per entry so an append never
		// spills into a neighbour.
		m := cfg.MaxSubentries
		subs := make([]Sub, cfg.Entries*m)
		for i := range entries {
			entries[i].subs = subs[i*m : i*m : (i+1)*m]
		}
	}
	for i := range entries {
		entries[i] = Entry{subs: entries[i].subs[:0], index: i}
	}
	clear(keys)
	*f = File{
		cfg:         cfg,
		entries:     entries,
		keys:        keys,
		merge:       merge,
		blockShift:  uint8(bits.TrailingZeros64(linesPerBlock)),
		free:        cfg.Entries,
		keptBuf:     f.keptBuf,
		issuedBuf:   f.issuedBuf,
		unplacedBuf: f.unplacedBuf,
	}
	return nil
}

// Config returns the file configuration.
func (f *File) Config() Config { return f.cfg }

// SetChecker attaches a runtime invariant checker. A nil checker (the
// default) disables continuous checking at zero cost.
func (f *File) SetChecker(c *invariant.Checker) { f.check = c }

// Free returns the number of unallocated entries.
func (f *File) Free() int { return f.free }

// Full reports whether every entry is in use.
func (f *File) Full() bool { return f.free == 0 }

// Stats returns the accumulated counters.
func (f *File) Stats() Stats { return f.stats }

// AddFullStalls adds n to Stats.FullStalls, for a caller that skips an
// Insert it knows would defer the same waiters again.
func (f *File) AddFullStalls(n uint64) { f.stats.FullStalls += n }

// Outcome reports what happened to one Insert.
type Outcome struct {
	// Issued lists the entries newly allocated by this insert; the caller
	// must dispatch one memory request per entry. The slice is backed by a
	// buffer the file reuses: it is valid only until the next Insert.
	Issued []*Entry
	// MergedTargets is how many of the request's waiters were absorbed
	// into pre-existing entries.
	MergedTargets int
	// Unplaced holds the waiters that could not be merged or allocated
	// because the file (or a subentry list) was full. The caller retries
	// them later, preserving FIFO order from the CRQ. Like Issued, the
	// slice is reused by the next Insert; callers that need it longer must
	// copy it.
	Unplaced []Target
	// Split reports whether a Case-B partial overlap occurred.
	Split bool
}

// Insert performs second-phase coalescing for one coalesced request. The
// request's waiters live in the line range [baseLine, baseLine+lines);
// lines bounds the range (1–4) and need not itself be a legal packet size —
// entries allocated for the remainder are always split into 1/2/4-line
// packets. write is the T bit. Several waiters may share a line; targets
// outside the range are rejected.
func (f *File) Insert(baseLine uint64, lines int, write bool, targets []Target) (Outcome, error) {
	if lines <= 0 || lines > MaxLines {
		return Outcome{}, fmt.Errorf("mshr: invalid line count %d", lines)
	}
	if baseLine>>f.blockShift != (baseLine+uint64(lines)-1)>>f.blockShift {
		return Outcome{}, fmt.Errorf("mshr: request [%d,%d) crosses HMC block boundary", baseLine, baseLine+uint64(lines))
	}
	for _, t := range targets {
		if t.Line < baseLine || t.Line >= baseLine+uint64(lines) {
			return Outcome{}, fmt.Errorf("mshr: target line %d outside [%d,%d)", t.Line, baseLine, baseLine+uint64(lines))
		}
	}

	var out Outcome
	out.Issued = f.issuedBuf[:0]
	out.Unplaced = f.unplacedBuf[:0]
	remaining := targets

	// Phase 1: merge waiters into existing same-type entries that cover
	// their lines (Cases A and B). All entries are compared at once in
	// hardware; sequentially scanning is equivalent.
	anyMerged := false
	kept := f.keptBuf[:0]
	key := f.matchKey(baseLine, write)
	for _, t := range remaining {
		var e *Entry
		if f.merge {
			e = f.lookup(key, t.Line)
		}
		if e == nil {
			kept = append(kept, t)
			continue
		}
		if len(e.subs) >= f.cfg.MaxSubentries {
			// No subentry slot: the waiter must wait in the CRQ.
			out.Unplaced = append(out.Unplaced, t)
			f.stats.FullStalls++
			continue
		}
		e.subs = append(e.subs, Sub{LineID: uint8(t.Line - e.baseLine), Token: t.Token, Payload: t.Payload})
		e.payload += uint64(t.Payload)
		anyMerged = true
		out.MergedTargets++
		f.stats.MergedTargets++
	}
	f.keptBuf = kept
	remaining = kept

	// Detect a Case-B split: some lines merged, some did not.
	if anyMerged && len(remaining) > 0 {
		out.Split = true
		f.stats.SplitRequests++
	}

	// Phase 2: re-packetize the leftover lines into contiguous runs and
	// allocate fresh entries. Runs are split greedily into legal sizes
	// (4, 2, 1 lines).
	var runs, chunks [MaxLines]run
	nRuns := lineRuns(remaining, baseLine, lines, &runs)
	for ri := 0; ri < nRuns; ri++ {
		nChunks := splitRun(runs[ri].base, runs[ri].len, &chunks)
		for ci := 0; ci < nChunks; ci++ {
			chunk := chunks[ci]
			if f.free == 0 {
				// File packed: everything not yet placed is returned.
				for _, t := range remaining {
					if t.Line >= chunk.base && !placed(out, t) {
						out.Unplaced = append(out.Unplaced, t)
					}
				}
				f.stats.FullStalls++
				f.issuedBuf = out.Issued
				f.unplacedBuf = out.Unplaced
				return out, nil
			}
			e := f.alloc(key, chunk.base, chunk.len, write)
			if e == nil {
				// free > 0 yet no invalid entry exists: the free counter
				// disagrees with the valid bits. Report the corruption as a
				// structured violation instead of tearing the process down.
				f.issuedBuf = out.Issued
				f.unplacedBuf = out.Unplaced
				return out, f.check.Record(invariant.Violatef(
					invariant.RuleMSHRAlloc, 0, f.Snapshot(),
					"alloc on full file (free counter claims %d free)", f.free))
			}
			for _, t := range remaining {
				if t.Line >= chunk.base && t.Line < chunk.base+uint64(chunk.len) {
					e.subs = append(e.subs, Sub{LineID: uint8(t.Line - chunk.base), Token: t.Token, Payload: t.Payload})
					e.payload += uint64(t.Payload)
				}
			}
			out.Issued = append(out.Issued, e)
		}
	}
	f.issuedBuf = out.Issued
	f.unplacedBuf = out.Unplaced
	return out, nil
}

// placed reports whether target t was assigned to an issued entry already.
func placed(out Outcome, t Target) bool {
	for _, e := range out.Issued {
		if e.covers(t.Line) {
			return true
		}
	}
	return false
}

// matchKey is the nonzero match key of the (HMC block, T bit) holding line.
func (f *File) matchKey(line uint64, write bool) uint64 {
	k := line >> f.blockShift << 1
	if write {
		k |= 1
	}
	return k + 1
}

// lookup returns the first entry, in index order, whose match key is key
// (the line's block and T bit) and that covers the line. Matching includes
// the T bit: with the §3.4 address extension a load never merges into a
// store entry.
func (f *File) lookup(key, line uint64) *Entry {
	for i, k := range f.keys {
		if k == key && f.entries[i].covers(line) {
			return &f.entries[i]
		}
	}
	return nil
}

// alloc claims an invalid entry for a chunk whose match key is key, or
// returns nil if — despite the free counter — none exists (accounting
// corruption the caller reports).
func (f *File) alloc(key, baseLine uint64, lines int, write bool) *Entry {
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			f.keys[i] = key
			// Field-wise reset keeps the entry's fixed subentry backing.
			e.valid = true
			e.write = write
			e.baseLine = baseLine
			e.lines = uint8(lines)
			e.subs = e.subs[:0]
			e.payload = 0
			f.free--
			f.stats.Allocations++
			return e
		}
	}
	return nil
}

// Complete frees the entry and returns its subentries' tokens so the
// caller can notify the waiters (Equation 2 reconstructs each address).
// The returned slice aliases the entry's reusable backing: it is valid
// only until the entry is allocated again. Completing an entry that is
// not live is a double completion and returns a structured violation.
func (f *File) Complete(e *Entry) ([]Sub, error) {
	if !e.valid {
		return nil, f.check.Record(invariant.Violatef(
			invariant.RuleMSHRComplete, 0, f.Snapshot(),
			"Complete on invalid entry %d", e.index))
	}
	subs := e.subs
	f.keys[e.index] = 0
	e.valid = false
	e.write = false
	e.baseLine = 0
	e.lines = 0
	e.payload = 0
	f.free++
	f.stats.Completions++
	return subs, nil
}

// CheckLeaks audits the end-of-run law: after a Drain every entry must be
// free and the free counter must agree with the entries' valid bits. It
// returns nil when the file is clean.
func (f *File) CheckLeaks(tick uint64) error {
	live := 0
	for i := range f.entries {
		if f.entries[i].valid {
			live++
		}
	}
	if live != 0 {
		return f.check.Record(invariant.Violatef(
			invariant.RuleMSHRLeak, tick, f.Snapshot(),
			"%d MSHR entr%s still allocated after drain", live, plural(live, "y", "ies")))
	}
	if f.free != len(f.entries) {
		return f.check.Record(invariant.Violatef(
			invariant.RuleMSHRAccounting, tick, f.Snapshot(),
			"free counter %d disagrees with %d entries all invalid", f.free, len(f.entries)))
	}
	return nil
}

// Snapshot renders the live entries for violation diagnostics.
func (f *File) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mshr{entries=%d free=%d allocs=%d completions=%d",
		len(f.entries), f.free, f.stats.Allocations, f.stats.Completions)
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid {
			fmt.Fprintf(&b, " [%d: line=%d lines=%d write=%v subs=%d]",
				e.index, e.baseLine, e.lines, e.write, len(e.subs))
		}
	}
	b.WriteString("}")
	return b.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Entries returns the live view of the file for inspection.
func (f *File) Entries() []Entry {
	out := make([]Entry, len(f.entries))
	copy(out, f.entries)
	return out
}

type run struct {
	base uint64
	len  int
}

// lineRuns groups the targets' distinct lines into maximal contiguous runs
// within [baseLine, baseLine+lines), filling out and returning the count.
// A request spans at most MaxLines lines, so the run count is bounded and
// the result lives on the caller's stack.
func lineRuns(targets []Target, baseLine uint64, lines int, out *[MaxLines]run) int {
	var present [MaxLines]bool
	for _, t := range targets {
		present[t.Line-baseLine] = true
	}
	n := 0
	for i := 0; i < lines; i++ {
		if !present[i] {
			continue
		}
		j := i
		for j < lines && present[j] {
			j++
		}
		out[n] = run{base: baseLine + uint64(i), len: j - i}
		n++
		i = j
	}
	return n
}

// splitRun breaks a contiguous run into legal entry sizes (4, 2, 1 lines),
// filling out and returning the count. A 4-line chunk is only possible for
// a full run of 4, which — because coalesced requests never cross HMC
// blocks — is necessarily block-aligned.
func splitRun(base uint64, length int, out *[MaxLines]run) int {
	n := 0
	for length > 0 {
		size := 1
		switch {
		case length >= 4:
			size = 4
		case length >= 2:
			size = 2
		}
		out[n] = run{base: base, len: size}
		n++
		base += uint64(size)
		length -= size
	}
	return n
}
