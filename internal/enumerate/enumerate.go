// Package enumerate generates every connected configuration of n robots on
// the triangular grid, up to translation. These are exactly the *fixed*
// polyhexes (triangular-grid node adjacency equals hexagonal cell
// adjacency); their counts for n = 1..7 are
//
//	1, 3, 11, 44, 186, 814, 3652
//
// and the paper's "3652 patterns in total" for seven robots is the n = 7
// entry. Rotations and reflections are NOT identified: the paper's robots
// share a global compass, so differently oriented patterns are genuinely
// different inputs.
//
// Enumeration is key-native (keys.go): frontier generations are
// key-only sets — a candidate extension is keyed straight from the
// growth scratch (config.Key128Nodes) and deduplicated in a
// lock-striped shard set, so a duplicate candidate costs one probe of
// a flat key table and no allocation, and a configuration is only
// rebuilt from its key (config.FromKey128) when a caller visits it.
// The canonical output order is ascending key order ("key/v1"), which
// coincides with config.Compare order. The engine covers every size
// through MaxKeyN = 14, the exact Key128 envelope; larger sizes panic.
// The relaxed-connectivity spaces (relaxed.go) grow by materializing
// node lists instead, so ConnectedWithin(n, 1) doubles as an
// independent reference for the key engine.
package enumerate

import (
	"repro/internal/config"
	"repro/internal/grid"
)

// KnownCounts lists the number of connected n-node patterns up to
// translation for n = 0..12 (fixed polyhexes, OEIS A001207 shifted).
// The paper's exhaustive space is the n = 7 entry; the n = 8 entry is
// the E11 extension sweep's. Every entry through n = 12 sits inside
// the exact Key128 envelope (spread ≤ 15), so the key-only dedup
// reproduces these counts exactly; the tests cross-check n ≤ 10 under
// -short, n = 11 routinely, and n = 12 behind ENUM_HEAVY=1 (a minute
// of CPU and hundreds of megabytes of key set).
var KnownCounts = [13]int{
	0: 1, 1: 1, 2: 3, 3: 11, 4: 44, 5: 186, 6: 814, 7: 3652,
	8: 16689, 9: 77359, 10: 362671, 11: 1716033, 12: 8182213,
}

// Connected returns all connected n-node configurations up to
// translation, sorted by node list (config.Compare, which equals the
// canonical "key/v1" key order) so the output order is deterministic.
// It runs the key-native engine serially — frontier generations are
// key-only sets, and the result is decoded into one contiguous node
// array at the end; see ConnectedStats for the fanned-out growth.
func Connected(n int) []config.Config {
	list, _ := ConnectedStats(n, 1)
	return list
}

// ConnectedStats is Connected plus the growth loop's Stats (workers
// ≤ 0 = GOMAXPROCS) — the instrumented entry the sweep layer threads
// into its metrics registries.
func ConnectedStats(n, workers int) ([]config.Config, Stats) {
	if n == 0 {
		return nil, Stats{}
	}
	keys, stats := KeysStats(n, workers)
	return materializeKeys(keys, n), stats
}

// Count returns the number of connected n-node patterns without
// retaining, sorting, or materializing them: the growth loop runs on
// key-only sets and only the final generation's size is read back. It
// still enumerates — no closed form is known.
func Count(n int) int {
	keys, _ := growKeyGenerations(n, 0)
	return len(keys)
}

// growScratch holds the per-goroutine buffers of the growth step.
type growScratch struct {
	base   []grid.Coord // parent pattern's nodes
	merged []grid.Coord // parent nodes with the candidate inserted, sorted
}

// containsCoord reports membership in a small node list (linear scan —
// parents have at most a handful of nodes).
func containsCoord(nodes []grid.Coord, v grid.Coord) bool {
	for _, w := range nodes {
		if w == v {
			return true
		}
	}
	return false
}

// mergeInsert appends sorted∪{v} to dst in sorted order; v must not be
// in sorted.
func mergeInsert(dst, sorted []grid.Coord, v grid.Coord) []grid.Coord {
	inserted := false
	for _, w := range sorted {
		if !inserted && (v.Q < w.Q || (v.Q == w.Q && v.R < w.R)) {
			dst = append(dst, v)
			inserted = true
		}
		dst = append(dst, w)
	}
	if !inserted {
		dst = append(dst, v)
	}
	return dst
}
