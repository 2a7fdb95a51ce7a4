package core

// cellSlab holds every live cluster-cell (active and inactive) by
// slot: a small int32 the cell keeps for its lifetime, taken from a
// free list when the cell is created and returned to it when the cell
// is deleted. Resolving the cell behind an index candidate is a bounds
// check and a slice load, and storage is bounded by the peak number of
// live cells, not by the number of cells ever created.
//
// Slots are never observable: cell IDs still grow monotonically, break
// distance ties and name cells in snapshots and checkpoints, so reusing
// a slot cannot change clustering output.
type cellSlab struct {
	bySlot []*Cell
	free   []int32
	n      int
}

// at returns the cell in slot s.
func (s *cellSlab) at(slot int32) *Cell { return s.bySlot[slot] }

// live reports whether c is registered (it has not been deleted).
func (s *cellSlab) live(c *Cell) bool {
	return int(c.slot) < len(s.bySlot) && s.bySlot[c.slot] == c
}

// put registers a cell, assigning it a slot.
func (s *cellSlab) put(c *Cell) {
	if n := len(s.free); n > 0 {
		c.slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.bySlot[c.slot] = c
	} else {
		c.slot = int32(len(s.bySlot))
		s.bySlot = append(s.bySlot, c)
	}
	s.n++
}

// remove unregisters c and frees its slot.
func (s *cellSlab) remove(c *Cell) {
	if !s.live(c) {
		return
	}
	s.bySlot[c.slot] = nil
	s.free = append(s.free, c.slot)
	s.n--
}

// len returns the number of live cells.
func (s *cellSlab) len() int { return s.n }
