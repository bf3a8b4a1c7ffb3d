package mshr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hmccoal/internal/invariant"
)

// testLinesPerBlock is the paper's geometry: 64 B lines in 256 B HMC
// blocks.
const testLinesPerBlock = 4

func newFile(t *testing.T) *File {
	t.Helper()
	return newFileOf(t, DefaultConfig())
}

// newFileOf builds a merging file of cfg in the paper's geometry.
func newFileOf(t *testing.T, cfg Config) *File {
	t.Helper()
	f, err := NewFile(cfg, testLinesPerBlock, true)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func tgt(line uint64) Target { return Target{Line: line, Token: line, Payload: 8} }

func tgts(lines ...uint64) []Target {
	out := make([]Target, len(lines))
	for i, l := range lines {
		out[i] = tgt(l)
	}
	return out
}

func TestNewFileValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0},
		{Entries: 16, MaxSubentries: -1},
	}
	for i, cfg := range bad {
		if _, err := NewFile(cfg, testLinesPerBlock, true); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewFile(DefaultConfig(), 0, true); err == nil {
		t.Error("block of zero lines accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	f := newFile(t)
	if _, err := f.Insert(0, 5, false, tgts(0)); err == nil {
		t.Error("5-line request accepted")
	}
	if _, err := f.Insert(0, 0, false, nil); err == nil {
		t.Error("0-line request accepted")
	}
	if _, err := f.Insert(0, 2, false, tgts(5)); err == nil {
		t.Error("target outside range accepted")
	}
	// Lines 3,4 straddle the 256 B block boundary (4 lines per block).
	if _, err := f.Insert(3, 2, false, tgts(3, 4)); err == nil {
		t.Error("block-crossing request accepted")
	}
}

func TestFreshAllocationIssuesOneRequest(t *testing.T) {
	f := newFile(t)
	out, err := f.Insert(0xA8, 4, false, tgts(0xA8, 0xA9, 0xAA, 0xAB))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Issued) != 1 {
		t.Fatalf("Issued = %d entries, want 1", len(out.Issued))
	}
	e := out.Issued[0]
	if e.BaseLine() != 0xA8 || e.Lines() != 4 || e.Write() {
		t.Errorf("entry = base %#x lines %d write %v", e.BaseLine(), e.Lines(), e.Write())
	}
	if e.SizeClass() != 0b10 {
		t.Errorf("SizeClass = %b, want 10", e.SizeClass())
	}
	if len(e.Subs()) != 4 {
		t.Errorf("subentries = %d, want 4", len(e.Subs()))
	}
	if e.Payload() != 32 { // 4 targets × 8 B
		t.Errorf("Payload = %d, want 32", e.Payload())
	}
	if f.Free() != 15 {
		t.Errorf("Free = %d, want 15", f.Free())
	}
}

func TestSizeClassEncoding(t *testing.T) {
	f := newFile(t)
	for _, c := range []struct {
		lines int
		want  uint8
	}{{1, 0b00}, {2, 0b01}, {4, 0b10}} {
		base := uint64(c.lines) * 16
		lines := make([]uint64, c.lines)
		for i := range lines {
			lines[i] = base + uint64(i)
		}
		out, err := f.Insert(base, c.lines, false, tgts(lines...))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Issued[0].SizeClass(); got != c.want {
			t.Errorf("lines=%d SizeClass=%02b want %02b", c.lines, got, c.want)
		}
	}
}

func TestCaseASubsetMerge(t *testing.T) {
	// Figure 6 Case A: request 1 (128 B at 0xA8) is a subset of MSHR 1
	// (256 B at 0xA8): merged as two subentries with line IDs 00 and 01,
	// no new memory request.
	f := newFile(t)
	if _, err := f.Insert(0xA8, 4, false, tgts(0xA8, 0xA9, 0xAA, 0xAB)); err != nil {
		t.Fatal(err)
	}
	out, err := f.Insert(0xA8, 2, false, tgts(0xA8, 0xA9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Issued) != 0 {
		t.Fatalf("subset merge issued %d requests, want 0", len(out.Issued))
	}
	if out.MergedTargets != 2 {
		t.Errorf("MergedTargets = %d, want 2", out.MergedTargets)
	}
	if out.Split {
		t.Error("subset merge flagged as split")
	}
	entries := f.Entries()
	var host *Entry
	for i := range entries {
		if entries[i].Valid() {
			host = &entries[i]
		}
	}
	if host == nil || len(host.Subs()) != 6 {
		t.Fatalf("host entry subentries = %v", host)
	}
	// The merged subentries carry line IDs 0 and 1 per Equation 2.
	ids := map[uint8]int{}
	for _, s := range host.Subs() {
		ids[s.LineID]++
	}
	if ids[0] != 2 || ids[1] != 2 || ids[2] != 1 || ids[3] != 1 {
		t.Errorf("line ID distribution = %v", ids)
	}
	if f.Stats().MergedTargets != 2 {
		t.Errorf("stats.MergedTargets = %d", f.Stats().MergedTargets)
	}
}

func TestCaseBPartialOverlapSplits(t *testing.T) {
	// Figure 6 Case B: MSHR 1 holds line 0xA8 only; request 2 wants
	// 0xA8–0xA9. The overlapped line merges, the remainder allocates a
	// fresh entry.
	f := newFile(t)
	if _, err := f.Insert(0xA8, 1, false, tgts(0xA8)); err != nil {
		t.Fatal(err)
	}
	out, err := f.Insert(0xA8, 2, false, tgts(0xA8, 0xA9))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Split {
		t.Error("partial overlap not flagged as split")
	}
	if out.MergedTargets != 1 {
		t.Errorf("MergedTargets = %d, want 1", out.MergedTargets)
	}
	if len(out.Issued) != 1 {
		t.Fatalf("Issued = %d, want 1", len(out.Issued))
	}
	if e := out.Issued[0]; e.BaseLine() != 0xA9 || e.Lines() != 1 {
		t.Errorf("remainder entry = base %#x lines %d, want 0xA9/1", e.BaseLine(), e.Lines())
	}
	if f.Stats().SplitRequests != 1 {
		t.Errorf("SplitRequests = %d, want 1", f.Stats().SplitRequests)
	}
}

func TestTwoSidedRemainder(t *testing.T) {
	// Entry covers lines 1-2 of a block; a full-block request (0-3) must
	// merge the middle and allocate separate entries for lines 0 and 3.
	f := newFile(t)
	if _, err := f.Insert(1, 2, false, tgts(1, 2)); err != nil {
		t.Fatal(err)
	}
	out, err := f.Insert(0, 4, false, tgts(0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.MergedTargets != 2 {
		t.Errorf("MergedTargets = %d, want 2", out.MergedTargets)
	}
	if len(out.Issued) != 2 {
		t.Fatalf("Issued = %d entries, want 2 (lines 0 and 3)", len(out.Issued))
	}
	bases := map[uint64]int{}
	for _, e := range out.Issued {
		bases[e.BaseLine()] = e.Lines()
	}
	if bases[0] != 1 || bases[3] != 1 {
		t.Errorf("issued bases = %v", bases)
	}
}

func TestThreeLineRangeSplitsLegally(t *testing.T) {
	// A 3-line retry range must be packetized as 2+1 lines, never 3.
	f := newFile(t)
	out, err := f.Insert(0, 3, false, tgts(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Issued) != 2 {
		t.Fatalf("Issued = %d entries, want 2", len(out.Issued))
	}
	if out.Issued[0].Lines() != 2 || out.Issued[1].Lines() != 1 {
		t.Errorf("split = %d+%d lines, want 2+1", out.Issued[0].Lines(), out.Issued[1].Lines())
	}
}

func TestDisableMergeAllocatesAlways(t *testing.T) {
	f, err := NewFile(DefaultConfig(), testLinesPerBlock, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(0, 1, false, tgts(0)); err != nil {
		t.Fatal(err)
	}
	out, err := f.Insert(0, 1, false, tgts(0))
	if err != nil {
		t.Fatal(err)
	}
	if out.MergedTargets != 0 || len(out.Issued) != 1 {
		t.Errorf("file without merging still merged: %+v", out)
	}
}

func TestTypeBitPreventsCrossTypeMerge(t *testing.T) {
	// §3.4: the T bit participates in comparisons, so a store never merges
	// into an outstanding load entry.
	f := newFile(t)
	if _, err := f.Insert(0, 1, false, tgts(0)); err != nil {
		t.Fatal(err)
	}
	out, err := f.Insert(0, 1, true, []Target{{Line: 0, Token: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if out.MergedTargets != 0 || len(out.Issued) != 1 {
		t.Errorf("cross-type merge happened: %+v", out)
	}
	if !out.Issued[0].Write() {
		t.Error("store entry lost its T bit")
	}
}

func TestSubentryCapacityStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSubentries = 2
	f := newFileOf(t, cfg)
	if _, err := f.Insert(0, 1, false, tgts(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(0, 1, false, tgts(0)); err != nil { // second sub
		t.Fatal(err)
	}
	out, err := f.Insert(0, 1, false, tgts(0)) // no slot left
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unplaced) != 1 || out.MergedTargets != 0 {
		t.Errorf("expected unplaced waiter, got %+v", out)
	}
	if f.Stats().FullStalls == 0 {
		t.Error("FullStalls not counted")
	}
}

func TestFileFullReturnsUnplaced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 2
	f := newFileOf(t, cfg)
	if _, err := f.Insert(0, 1, false, tgts(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(8, 1, false, tgts(8)); err != nil {
		t.Fatal(err)
	}
	if !f.Full() {
		t.Fatal("file should be full")
	}
	out, err := f.Insert(16, 2, false, tgts(16, 17))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Issued) != 0 || len(out.Unplaced) != 2 {
		t.Errorf("full file outcome = %+v", out)
	}
	// Merging into existing entries must still work while full (§4.2).
	out, err = f.Insert(0, 1, false, tgts(0))
	if err != nil {
		t.Fatal(err)
	}
	if out.MergedTargets != 1 || len(out.Unplaced) != 0 {
		t.Errorf("merge-while-full outcome = %+v", out)
	}
}

func TestCompleteFreesAndReturnsSubs(t *testing.T) {
	f := newFile(t)
	out, err := f.Insert(4, 2, false, []Target{
		{Line: 4, Token: 100, Payload: 8},
		{Line: 5, Token: 200, Payload: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := out.Issued[0]
	subs, err := f.Complete(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("Complete returned %d subs, want 2", len(subs))
	}
	tokens := map[uint64]uint8{}
	for _, s := range subs {
		tokens[s.Token] = s.LineID
	}
	if tokens[100] != 0 || tokens[200] != 1 {
		t.Errorf("sub tokens/lineIDs = %v", tokens)
	}
	if f.Free() != 16 {
		t.Errorf("Free = %d after Complete, want 16", f.Free())
	}
	if f.Stats().Completions != 1 {
		t.Errorf("Completions = %d", f.Stats().Completions)
	}
}

func TestCompleteInvalidViolation(t *testing.T) {
	f := newFile(t)
	out, _ := f.Insert(0, 1, false, tgts(0))
	e := out.Issued[0]
	if _, err := f.Complete(e); err != nil {
		t.Fatal(err)
	}
	_, err := f.Complete(e)
	v, ok := invariant.As(err)
	if !ok {
		t.Fatalf("double Complete = %v, want invariant violation", err)
	}
	if v.Rule != invariant.RuleMSHRComplete {
		t.Fatalf("violation rule = %q, want %q", v.Rule, invariant.RuleMSHRComplete)
	}
	if !strings.Contains(v.Snapshot, "mshr{") {
		t.Fatalf("violation missing file snapshot: %q", v.Snapshot)
	}
}

func TestCheckLeaks(t *testing.T) {
	f := newFile(t)
	out, err := f.Insert(0, 2, false, []Target{{Line: 0, Token: 1}, {Line: 1, Token: 2}})
	if err != nil {
		t.Fatal(err)
	}
	err = f.CheckLeaks(99)
	v, ok := invariant.As(err)
	if !ok || v.Rule != invariant.RuleMSHRLeak {
		t.Fatalf("CheckLeaks with live entry = %v, want %s violation", err, invariant.RuleMSHRLeak)
	}
	if v.Tick != 99 {
		t.Fatalf("violation tick = %d, want 99", v.Tick)
	}
	for _, e := range out.Issued {
		if _, err := f.Complete(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckLeaks(100); err != nil {
		t.Fatalf("CheckLeaks on drained file = %v", err)
	}
}

// TestCheckerRecordsViolations verifies an attached checker accumulates the
// violations that File methods return.
func TestCheckerRecordsViolations(t *testing.T) {
	f := newFile(t)
	c := invariant.New()
	f.SetChecker(c)
	out, _ := f.Insert(0, 1, false, tgts(0))
	e := out.Issued[0]
	f.Complete(e)
	f.Complete(e) // double completion
	if err := c.Err(); err == nil {
		t.Fatal("checker did not record the double completion")
	}
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("checker has %d violations, want 1", n)
	}
}

func TestLookupLine(t *testing.T) {
	f := newFile(t)
	if _, err := f.Insert(8, 2, true, []Target{{Line: 8}, {Line: 9}}); err != nil {
		t.Fatal(err)
	}
	lookup := func(line uint64, write bool) *Entry { return f.lookup(f.matchKey(line, write), line) }
	if lookup(9, true) == nil {
		t.Error("lookup missed covered store line")
	}
	if lookup(9, false) != nil {
		t.Error("lookup matched across T bit")
	}
	if lookup(10, true) != nil {
		t.Error("lookup matched uncovered line")
	}
}

func TestEquationTwoAddressReconstruction(t *testing.T) {
	// Equation 2: Subentry.addr = Entry.addr + LineID × LineSize.
	f := newFile(t)
	const lineBytes = 64
	out, err := f.Insert(0xA8, 4, false, tgts(0xAA))
	if err != nil {
		t.Fatal(err)
	}
	e := out.Issued[0]
	s := e.Subs()[0]
	addr := e.BaseLine()*lineBytes + uint64(s.LineID)*lineBytes
	if addr != 0xAA*lineBytes {
		t.Errorf("reconstructed addr = %#x, want %#x", addr, 0xAA*lineBytes)
	}
}

// TestRandomizedConservation drives the file with random traffic and checks
// the waiter-conservation invariant: every inserted target is eventually
// merged, issued or reported unplaced — never lost or duplicated.
func TestRandomizedConservation(t *testing.T) {
	f := newFile(t)
	rng := rand.New(rand.NewSource(17))
	var inserted, delivered, unplaced int
	live := map[int]*Entry{}
	nextToken := uint64(0)
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) == 0 && len(live) > 0 {
			// Complete a random live entry.
			for idx, e := range live {
				subs, err := f.Complete(e)
				if err != nil {
					t.Fatal(err)
				}
				delivered += len(subs)
				delete(live, idx)
				break
			}
			continue
		}
		lines := []int{1, 2, 4}[rng.Intn(3)]
		block := uint64(rng.Intn(64)) * 4
		off := 0
		if lines < 4 {
			off = rng.Intn(4 - lines + 1)
		}
		base := block + uint64(off)
		targets := make([]Target, lines)
		for j := range targets {
			targets[j] = Target{Line: base + uint64(j), Token: nextToken, Payload: uint32(rng.Intn(64))}
			nextToken++
		}
		out, err := f.Insert(base, lines, rng.Intn(4) == 0, targets)
		if err != nil {
			t.Fatal(err)
		}
		inserted += len(targets)
		unplaced += len(out.Unplaced)
		for _, e := range out.Issued {
			live[e.Index()] = e
		}
	}
	for idx, e := range live {
		subs, err := f.Complete(e)
		if err != nil {
			t.Fatal(err)
		}
		delivered += len(subs)
		delete(live, idx)
	}
	merged := int(f.Stats().MergedTargets)
	// Merged targets are delivered through their host entry's Complete, so
	// delivered already includes them.
	if delivered+unplaced != inserted {
		t.Fatalf("conservation broken: delivered %d + unplaced %d != inserted %d (merged %d)",
			delivered, unplaced, inserted, merged)
	}
	if f.Free() != f.Config().Entries {
		t.Fatalf("Free = %d after drain, want %d", f.Free(), f.Config().Entries)
	}
	s := f.Stats()
	if s.Allocations != s.Completions {
		t.Fatalf("allocations %d != completions %d after drain", s.Allocations, s.Completions)
	}
}

// TestFruitlessInsertRepeats pins the fact the coalescer's blocked-head
// skip relies on: after an Insert that merged and issued nothing, inserting
// its Unplaced again on the unchanged file makes no progress either,
// returns the same waiters in the same order, counts the same FullStalls
// and leaves every entry as it was.
func TestFruitlessInsertRepeats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 4
	cfg.MaxSubentries = 2
	f := newFileOf(t, cfg)
	rng := rand.New(rand.NewSource(23))
	image := func() string { return fmt.Sprintf("free=%d %+v", f.Free(), f.Entries()) }
	live := map[int]*Entry{}
	nextToken := uint64(0)
	var packed, subFull int
	for i := 0; i < 5000; i++ {
		if rng.Intn(4) == 0 && len(live) > 0 {
			for idx, e := range live {
				if _, err := f.Complete(e); err != nil {
					t.Fatal(err)
				}
				delete(live, idx)
				break
			}
			continue
		}
		// A small address space with repeated lines keeps merges, full
		// subentry lists and a packed file all common.
		lines := []int{1, 2, 4}[rng.Intn(3)]
		block := uint64(rng.Intn(6)) * 4
		off := 0
		if lines < 4 {
			off = rng.Intn(4 - lines + 1)
		}
		base := block + uint64(off)
		targets := make([]Target, 1+rng.Intn(6))
		for j := range targets {
			targets[j] = Target{Line: base + uint64(rng.Intn(lines)), Token: nextToken, Payload: uint32(rng.Intn(64))}
			nextToken++
		}
		write := rng.Intn(4) == 0
		stalls := f.Stats().FullStalls
		out, err := f.Insert(base, lines, write, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out.Issued {
			live[e.Index()] = e
		}
		if len(out.Unplaced) == 0 || out.MergedTargets != 0 || len(out.Issued) != 0 {
			continue
		}
		delta := f.Stats().FullStalls - stalls
		if f.Full() {
			packed++
		} else {
			subFull++
		}
		unplaced := append([]Target(nil), out.Unplaced...)
		lo, hi := unplaced[0].Line, unplaced[0].Line
		for _, u := range unplaced {
			lo, hi = min(lo, u.Line), max(hi, u.Line)
		}
		before := image()
		for retry := 0; retry < 2; retry++ {
			stalls = f.Stats().FullStalls
			again, err := f.Insert(lo, int(hi-lo)+1, write, unplaced)
			if err != nil {
				t.Fatal(err)
			}
			if again.MergedTargets != 0 || len(again.Issued) != 0 || again.Split {
				t.Fatalf("op %d retry %d: fruitless insert made progress on an unchanged file: %+v", i, retry, again)
			}
			if fmt.Sprint(again.Unplaced) != fmt.Sprint(unplaced) {
				t.Fatalf("op %d retry %d: Unplaced = %v, want %v", i, retry, again.Unplaced, unplaced)
			}
			if d := f.Stats().FullStalls - stalls; d != delta {
				t.Fatalf("op %d retry %d: FullStalls delta = %d, want %d", i, retry, d, delta)
			}
			if after := image(); after != before {
				t.Fatalf("op %d retry %d: entries changed:\n%s\nwant\n%s", i, retry, after, before)
			}
		}
	}
	if packed == 0 || subFull == 0 {
		t.Fatalf("property exercised %d times on a packed file and %d on full subentries; want both", packed, subFull)
	}
	t.Logf("fruitless inserts checked: %d packed file, %d full subentries", packed, subFull)
}

// bruteLookup is the reference for lookup: the first entry, in index
// order, that covers the line with the given T bit.
func bruteLookup(f *File, line uint64, write bool) *Entry {
	for i := range f.entries {
		if e := &f.entries[i]; e.covers(line) && e.write == write {
			return e
		}
	}
	return nil
}

// checkKeys asserts the match-key invariant and compares lookup against
// bruteLookup for every line of block, under both T bits.
func checkKeys(t *testing.T, op int, f *File, block uint64) {
	t.Helper()
	for i := range f.entries {
		e, want := &f.entries[i], uint64(0)
		if e.valid {
			want = f.matchKey(e.baseLine, e.write)
		}
		if f.keys[i] != want {
			t.Fatalf("op %d: entry %d (valid=%v) has key %d, want %d", op, i, e.valid, f.keys[i], want)
		}
	}
	for line := block * f.linesPerBlock; line < (block+1)*f.linesPerBlock; line++ {
		for _, write := range []bool{false, true} {
			if got, want := f.lookup(f.matchKey(line, write), line), bruteLookup(f, line, write); got != want {
				t.Fatalf("op %d: lookup(line %d, write %v) = %v, covers scan %v", op, line, write, got, want)
			}
		}
	}
}

// describe renders an Insert outcome by entry index, so outcomes of two
// files can be compared.
func describe(out Outcome) string {
	var b strings.Builder
	for _, e := range out.Issued {
		fmt.Fprintf(&b, "issued[%d: line=%d lines=%d write=%v subs=%v] ", e.index, e.baseLine, e.lines, e.write, e.subs)
	}
	fmt.Fprintf(&b, "merged=%d unplaced=%v split=%v", out.MergedTargets, out.Unplaced, out.Split)
	return b.String()
}

// TestLookupMatchesCoversScan runs a seeded random mix of Insert and
// Complete on a small file. After every call the match keys must mirror
// the entries and lookup must return what a brute-force covers scan
// returns for every line of the touched block.
func TestLookupMatchesCoversScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 6
	cfg.MaxSubentries = 3
	f := newFileOf(t, cfg)
	rng := rand.New(rand.NewSource(29))
	token := uint64(0)
	var merged int
	for op := 0; op < 20000; op++ {
		if rng.Intn(100) < 55 {
			// One random request in a small address space, so merges,
			// Case-B splits, full subentry lists and a packed file are
			// all common.
			lines := []int{1, 2, 3, 4}[rng.Intn(4)]
			base := uint64(rng.Intn(5))*4 + uint64(rng.Intn(4-lines+1))
			targets := make([]Target, 1+rng.Intn(5))
			for j := range targets {
				targets[j] = Target{Line: base + uint64(rng.Intn(lines)), Token: token, Payload: 8}
				token++
			}
			out, err := f.Insert(base, lines, rng.Intn(3) == 0, targets)
			if err != nil {
				t.Fatal(err)
			}
			merged += out.MergedTargets
			checkKeys(t, op, f, base/4)
			continue
		}
		var live []int
		for i := range f.entries {
			if f.entries[i].valid {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			continue
		}
		i := live[rng.Intn(len(live))]
		block := f.entries[i].baseLine / 4
		if _, err := f.Complete(&f.entries[i]); err != nil {
			t.Fatal(err)
		}
		checkKeys(t, op, f, block)
	}
	if merged == 0 {
		t.Fatal("stream exercised no merges")
	}
}
