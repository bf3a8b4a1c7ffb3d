package mshr

import "fmt"

// entryState is one entry's captured fields. Subentries are copied by
// value; the fixed backing array of the live entry is reused on restore.
type entryState struct {
	valid    bool
	write    bool
	baseLine uint64
	lines    uint8
	subs     []Sub
	payload  uint64
}

// FileState is an opaque deep copy of the MSHR file's mutable state.
type FileState struct {
	entries []entryState
	free    int
	stats   Stats
}

// SaveState deep-copies the file's mutable state. The scratch buffers
// backing Outcome views are working storage, not state, and are excluded.
func (f *File) SaveState() *FileState {
	st := &FileState{
		entries: make([]entryState, len(f.entries)),
		free:    f.free,
		stats:   f.stats,
	}
	for i := range f.entries {
		e := &f.entries[i]
		st.entries[i] = entryState{
			valid:    e.valid,
			write:    e.write,
			baseLine: e.baseLine,
			lines:    e.lines,
			subs:     append([]Sub(nil), e.subs...),
			payload:  e.payload,
		}
	}
	return st
}

// RestoreState replays a snapshot into the file. The file must have the
// same entry count as the one that produced the snapshot. Each entry's
// subentry backing array and index are preserved; an entry whose snapshot
// holds more subentries than its backing fits (a fresh allocation takes
// every waiter of its chunk, past MaxSubentries) grows it, as the
// original's append did.
func (f *File) RestoreState(st *FileState) error {
	if len(st.entries) != len(f.entries) {
		return fmt.Errorf("mshr: snapshot has %d entries, file %d", len(st.entries), len(f.entries))
	}
	for i := range f.entries {
		e, se := &f.entries[i], &st.entries[i]
		e.valid = se.valid
		e.write = se.write
		e.baseLine = se.baseLine
		e.lines = se.lines
		e.subs = append(e.subs[:0], se.subs...)
		e.payload = se.payload
		f.keys[i] = 0
		if e.valid {
			f.keys[i] = f.matchKey(e.baseLine, e.write)
		}
	}
	f.free = st.free
	f.stats = st.stats
	return nil
}

// EntryAt returns the entry at index i (the value Entry.Index reports), so
// state snapshots can store entry references as stable indices and
// re-point them after a restore.
func (f *File) EntryAt(i int) *Entry { return &f.entries[i] }
