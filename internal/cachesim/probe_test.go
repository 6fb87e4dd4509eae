package cachesim

// The single-level probes below drive a Cache one step at a time, so the
// tests can check it against the frozen refCache; the simulator itself
// only reaches a level through Hierarchy.Load's combined access.

// Lookup probes for addr without modifying contents, updating LRU and stats
// on a hit.
func (c *Cache) Lookup(addr uint64) bool {
	if c.touch(c.line(addr)) {
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Insert fills addr's line, evicting LRU if needed. It returns the evicted
// line number and whether an eviction occurred (for inclusive back-
// invalidation). A line already present only becomes most recent.
func (c *Cache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	tag, set := c.line(addr)
	if c.touch(tag, set) {
		return 0, false
	}
	return c.fill(tag, set)
}

// Contains probes without any side effects (no LRU or stats update).
func (c *Cache) Contains(addr uint64) bool {
	tag, set := c.line(addr)
	for _, t := range c.live(set) {
		if t == tag {
			return true
		}
	}
	return false
}

// Occupancy returns the fraction of valid lines.
func (c *Cache) Occupancy() float64 {
	live := 0
	for _, n := range c.n {
		live += int(n)
	}
	return float64(live) / float64(len(c.tags))
}
