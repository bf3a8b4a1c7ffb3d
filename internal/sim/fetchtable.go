package sim

import "fmt"

// fetchTable is the open-addressed hash table tracking cache lines whose
// fill is still in flight. It replaces a map[uint64]fetchInfo on the
// simulator's hottest lookup path (every line of every access probes it).
//
// Deletion is implicit — "tombstone-free via token validation": a slot is
// live only while the token ring still records its token as fetching its
// line (System.tokenLine[token] == line). Completions retire a fetch
// by stamping the ring slot with fetchDone, which instantly invalidates the
// table slot without touching the table. Stale slots are recycled by
// inserts and dropped wholesale when the table rehashes.
//
// The table relies on an invariant the insert path maintains: at most one
// slot per line ever exists, because an insert for a line overwrites the
// line's existing slot (live or stale) if one is in the probe chain.
type fetchTable struct {
	slots []fetchSlot
	mask  uint64
	used  int // occupied slots, live or stale
	// spare is the array the last rehash moved off, reused by the next
	// rehash that keeps the size.
	spare []fetchSlot
}

// fetchSlot holds one outstanding-line record.
type fetchSlot struct {
	line  uint64
	token uint64
	tick  uint64
	cpu   uint8
	inUse bool
}

// fetchDone is the tokenLine stamp marking a completed fill. It can never
// collide with a real line number (lines carry 52-bit addresses).
const fetchDone = ^uint64(0)

// fetchHash spreads line numbers over the table (Fibonacci hashing).
func fetchHash(line uint64) uint64 { return line * 0x9E3779B97F4A7C15 }

func newFetchTable(capacity int) fetchTable {
	size := newFetchTableSize(capacity)
	return fetchTable{slots: make([]fetchSlot, size), mask: uint64(size - 1)}
}

// newFetchTableSize is the slot count newFetchTable allocates for
// capacity: a ≤50% load factor at the expected live bound so probe chains
// stay short even before stale slots are recycled. System.init consults it
// to decide whether a recycled table is big enough to reuse.
func newFetchTableSize(capacity int) int {
	size := 16
	for size < capacity*2 {
		size *= 2
	}
	return size
}

// live reports whether the slot still describes an outstanding fill. Its
// token is a ring slot, as newToken hands them out.
func (s *System) fetchLive(sl *fetchSlot) bool {
	return s.tokenLine[sl.token] == sl.line
}

// fetchLookup returns the outstanding-fill record for line, if any.
func (s *System) fetchLookup(line uint64) (fetchInfo, bool) {
	t := &s.fetching
	for i := fetchHash(line) & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if !sl.inUse {
			return fetchInfo{}, false
		}
		if sl.line == line {
			if s.fetchLive(sl) {
				return fetchInfo{token: sl.token, cpu: sl.cpu, tick: sl.tick}, true
			}
			return fetchInfo{}, false
		}
	}
}

// fetchInsert registers (or refreshes) the outstanding fill for line.
func (s *System) fetchInsert(line, token uint64, cpu uint8, tick uint64) {
	t := &s.fetching
	if t.used*4 >= len(t.slots)*3 {
		s.fetchRehash()
	}
	reuse := -1
	for i := fetchHash(line) & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if !sl.inUse {
			if reuse >= 0 {
				sl = &t.slots[reuse]
			} else {
				t.used++
			}
			*sl = fetchSlot{line: line, token: token, tick: tick, cpu: cpu, inUse: true}
			return
		}
		if sl.line == line {
			// The line's unique slot: overwrite whether live or stale.
			*sl = fetchSlot{line: line, token: token, tick: tick, cpu: cpu, inUse: true}
			return
		}
		if reuse < 0 && !s.fetchLive(sl) {
			reuse = int(i)
		}
	}
}

// fetchRehash rebuilds the table carrying only live slots over. The new
// size keeps the *live* load under 50%: when most occupied slots are stale
// (completed fills the inserts never recycled) the table stays the same
// size and simply sheds them, so churn cannot grow it without bound. A
// same-size rehash fills the spare array, cleared, instead of allocating.
// A probe that finds no free slot in a whole lap of the new table can only
// mean a bug (the new table starts empty and is at most half full), so it
// panics with the table's shape instead of spinning.
func (s *System) fetchRehash() {
	old := s.fetching.slots
	live := 0
	for i := range old {
		if old[i].inUse && s.fetchLive(&old[i]) {
			live++
		}
	}
	size := len(old)
	for live*2 >= size {
		size *= 2
	}
	slots := s.fetching.spare
	if len(slots) == size {
		clear(slots)
	} else {
		slots = make([]fetchSlot, size)
	}
	next := fetchTable{slots: slots, mask: uint64(size - 1), spare: old}
	for i := range old {
		sl := &old[i]
		if !sl.inUse || !s.fetchLive(sl) {
			continue
		}
		j := fetchHash(sl.line) & next.mask
		for probes := 0; next.slots[j].inUse; probes++ {
			if probes == size {
				panic(fmt.Sprintf("sim: fetch table rehash from %d to %d slots found no free slot: %d live, %d placed",
					len(old), size, live, next.used))
			}
			j = (j + 1) & next.mask
		}
		next.slots[j] = *sl
		next.used++
	}
	s.fetching = next
}
