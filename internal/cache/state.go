package cache

import "fmt"

// State is an opaque deep copy of one cache level's mutable state: the tag
// arrays, the packed recency stacks or recency clocks, the access clock and
// the statistics.
// Geometry (set mask, ways, tag split) is configuration-derived and not
// captured; a snapshot only restores into a cache of identical geometry.
type State struct {
	lines    []line
	order    []uint64
	orderGen []uint32
	lru      []uint64
	gen      uint32
	clock    uint64
	stats    Stats
}

// SaveState deep-copies the cache's mutable state. The generation stamp is
// part of the state: line validity is relative to it, so restoring copies
// the donor's generation along with its tag array.
func (c *Cache) SaveState() *State {
	return &State{
		lines:    append([]line(nil), c.lines...),
		order:    append([]uint64(nil), c.order...),
		orderGen: append([]uint32(nil), c.orderGen...),
		lru:      append([]uint64(nil), c.lru...),
		gen:      c.gen,
		clock:    c.clock,
		stats:    c.stats,
	}
}

// RestoreState replays a snapshot into the cache. The cache must have been
// built from the same configuration as the one that produced the snapshot.
func (c *Cache) RestoreState(st *State) error {
	if len(st.lines) != len(c.lines) || len(st.order) != len(c.order) {
		return fmt.Errorf("cache: snapshot geometry %d lines/%d sets, cache %d/%d",
			len(st.lines), len(st.order), len(c.lines), len(c.order))
	}
	copy(c.lines, st.lines)
	copy(c.order, st.order)
	copy(c.orderGen, st.orderGen)
	copy(c.lru, st.lru)
	c.gen = st.gen
	c.clock = st.clock
	c.stats = st.stats
	return nil
}

// HierarchyState is the snapshot of a full cache hierarchy: every per-CPU
// L1 and L2 plus the shared LLC.
type HierarchyState struct {
	l1  []*State
	l2  []*State
	llc *State
}

// SaveState deep-copies every level of the hierarchy.
func (h *Hierarchy) SaveState() *HierarchyState {
	st := &HierarchyState{
		l1:  make([]*State, len(h.l1)),
		l2:  make([]*State, len(h.l2)),
		llc: h.llc.SaveState(),
	}
	for i := range h.l1 {
		st.l1[i] = h.l1[i].SaveState()
	}
	for i := range h.l2 {
		st.l2[i] = h.l2[i].SaveState()
	}
	return st
}

// RestoreState replays a hierarchy snapshot. The hierarchy must have been
// built from the same configuration as the one that produced the snapshot.
func (h *Hierarchy) RestoreState(st *HierarchyState) error {
	if len(st.l1) != len(h.l1) || len(st.l2) != len(h.l2) {
		return fmt.Errorf("cache: snapshot has %d L1/%d L2 caches, hierarchy %d/%d",
			len(st.l1), len(st.l2), len(h.l1), len(h.l2))
	}
	for i := range h.l1 {
		if err := h.l1[i].RestoreState(st.l1[i]); err != nil {
			return fmt.Errorf("cache: L1[%d]: %w", i, err)
		}
	}
	for i := range h.l2 {
		if err := h.l2[i].RestoreState(st.l2[i]); err != nil {
			return fmt.Errorf("cache: L2[%d]: %w", i, err)
		}
	}
	if err := h.llc.RestoreState(st.llc); err != nil {
		return fmt.Errorf("cache: LLC: %w", err)
	}
	return nil
}
