package config

import "repro/internal/grid"

// This file implements PatternSet, the pattern dedup set of cycle
// detection and the relaxed-connectivity enumeration. Config.Key
// builds a string per call, which made dedup allocation-bound; the set
// keys every pattern inside the exact Key128 envelope (key128.go) by
// two integer words instead, and falls back to string keys for the
// rare pattern outside it, so compact keying never changes semantics.

// PatternSet is a set of patterns (configurations up to translation)
// keyed by Key128 for patterns inside the 128-bit envelope and by the
// string Key for the rest. A pattern's tier is a property of the
// pattern itself, so a pattern always lands in the same map and
// membership is always exact — there are no hash collisions to check.
// The zero value is ready to use. It is not safe for concurrent use.
type PatternSet struct {
	exact map[Key128]struct{}
	slow  map[string]struct{}
}

// Add inserts the configuration's pattern and reports whether it was
// absent.
func (s *PatternSet) Add(c Config) bool { return s.AddNodes(c.nodes) }

// AddNodes inserts the pattern of a raw node list (sorted by Q then R,
// no duplicates) and reports whether it was absent. The slice is not
// retained.
func (s *PatternSet) AddNodes(nodes []grid.Coord) bool {
	if k, ok := Key128Nodes(nodes); ok {
		if _, dup := s.exact[k]; dup {
			return false
		}
		if s.exact == nil {
			s.exact = make(map[Key128]struct{})
		}
		s.exact[k] = struct{}{}
		return true
	}
	k := New(nodes...).Key()
	if _, dup := s.slow[k]; dup {
		return false
	}
	if s.slow == nil {
		s.slow = make(map[string]struct{})
	}
	s.slow[k] = struct{}{}
	return true
}

// Len returns the number of distinct patterns added.
func (s *PatternSet) Len() int { return len(s.exact) + len(s.slow) }

// Reset empties the set but keeps its maps (and their bucket storage)
// allocated, so one set can be pooled across many runs: the simulator's
// cycle detection grows a set per run, and exhaustive.Verify hands each
// worker one reusable set instead (sim.Options.CycleSet).
func (s *PatternSet) Reset() {
	clear(s.exact)
	clear(s.slow)
}

// AppendNodes appends the robot nodes in sorted order to dst and returns
// the extended slice. It is the allocation-free counterpart of Nodes for
// callers that reuse a scratch buffer.
func (c Config) AppendNodes(dst []grid.Coord) []grid.Coord {
	return append(dst, c.nodes...)
}

// Compare orders configurations by node count, then lexicographically by
// the sorted node lists (Q before R). It is the deterministic order the
// enumeration emits.
func (c Config) Compare(o Config) int {
	if len(c.nodes) != len(o.nodes) {
		if len(c.nodes) < len(o.nodes) {
			return -1
		}
		return 1
	}
	for i, v := range c.nodes {
		w := o.nodes[i]
		switch {
		case v.Q != w.Q:
			if v.Q < w.Q {
				return -1
			}
			return 1
		case v.R != w.R:
			if v.R < w.R {
				return -1
			}
			return 1
		}
	}
	return 0
}
