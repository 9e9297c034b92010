package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/vision"
)

// PackedAlgorithm is the fast path of the packed engine: an Algorithm
// that can also decide from a bitmask view. The simulator's round loop
// uses ComputePacked (and stays allocation-free) whenever the algorithm
// implements it and its range fits vision.MaxPackedRange (the paper's
// range 2); everything else goes through the map-based path.
// Implementations must agree with Compute on every view —
// ComputePacked(pv) must equal Compute(v) whenever pv is the packing of
// v (the equivalence test in the root package enforces this for every
// shipped algorithm).
type PackedAlgorithm interface {
	Algorithm
	ComputePacked(pv vision.PackedView) Move
}

// memoTable is one algorithm's lazily filled, lock-free memo from packed
// views to moves. An oblivious algorithm is a pure function of the view
// (obliviousness is structural — Compute receives nothing else), so its
// decisions can be cached indefinitely: the exhaustive sweeps revisit a
// small set of distinct views millions of times, and with a warm table
// every revisit is one indexed atomic load instead of a map-of-coords
// allocation plus rule evaluation.
//
// The table is dense over every view an algorithm can be asked about:
// a packed view's bit 0 is the observer, always set, so Bits()>>1
// indexes the other nodes of Disk(MaxPackedRange) — 2^18 entries for
// range 2. Entry 0 means not yet computed; otherwise it holds move+1.
// The zero value is an empty table, ready to use.
type memoTable struct {
	moves [memoViews]atomic.Uint32
}

// memoViews is the number of packed views with the observer present:
// Disk(r) has 1+3r(r+1) nodes.
const memoViews = 1 << (3 * vision.MaxPackedRange * (vision.MaxPackedRange + 1))

// len counts the decisions memoized so far.
func (t *memoTable) len() int {
	n := 0
	for i := range t.moves {
		if t.moves[i].Load() != 0 {
			n++
		}
	}
	return n
}

// compute returns alg's decision for the packed view, consulting the
// table first and filling it on a miss. Concurrent misses may both
// evaluate alg, which is harmless: alg is deterministic, so they store
// the same move.
func (t *memoTable) compute(alg Algorithm, pv vision.PackedView) Move {
	e := &t.moves[pv.Bits()>>1]
	if v := e.Load(); v != 0 {
		return Move(v - 1)
	}
	mv := alg.Compute(pv.Unpack())
	e.Store(uint32(mv) + 1)
	return mv
}

// Memo is a shareable view→move cache: a registry of per-algorithm
// memo tables keyed by Algorithm.Name(). Keying by name means one Memo
// can safely back a whole ablation series or a mixed-algorithm sweep —
// two algorithms never read each other's cached moves, even for the
// same view. (Algorithms with equal names are assumed to decide
// equally; every shipped algorithm encodes its variant in its name.)
// Build with NewMemo; the zero value is not ready.
type Memo struct {
	mu     sync.Mutex
	tables map[string]*memoTable
}

// NewMemo returns an empty cache. It allocates no table: each
// algorithm's table is allocated on its first Memoize.
func NewMemo() *Memo {
	return &Memo{tables: make(map[string]*memoTable)}
}

// forAlg returns the named algorithm's own table, creating it on first
// use. Memoize resolves it once per wrap, so the per-view hot path
// never takes this lock.
func (m *Memo) forAlg(name string) *memoTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tables[name]
	if t == nil {
		t = new(memoTable)
		m.tables[name] = t
	}
	return t
}

// Len returns the number of distinct (algorithm, view) decisions
// memoized so far.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tables {
		n += t.len()
	}
	return n
}

// Memoized adapts any Algorithm to a PackedAlgorithm by backing
// ComputePacked with its table from a Memo. Name, VisibilityRange and
// Compute delegate, so reports and the legacy path are unchanged.
// Build with Memoize.
type Memoized struct {
	alg   Algorithm
	table *memoTable
}

// Memoize wraps alg with its per-name table from memo (a fresh cache
// when memo is nil). Passing one Memo to several Memoize calls — or to
// several sweeps via exhaustive.Options.Cache — shares the cache
// across them; decisions stay segregated per algorithm name.
func Memoize(alg Algorithm, memo *Memo) Memoized {
	if memo == nil {
		memo = NewMemo()
	}
	return Memoized{alg: alg, table: memo.forAlg(alg.Name())}
}

// Name implements Algorithm.
func (m Memoized) Name() string { return m.alg.Name() }

// VisibilityRange implements Algorithm.
func (m Memoized) VisibilityRange() int { return m.alg.VisibilityRange() }

// Compute implements Algorithm.
func (m Memoized) Compute(v vision.View) Move { return m.alg.Compute(v) }

// ComputePacked implements PackedAlgorithm.
func (m Memoized) ComputePacked(pv vision.PackedView) Move { return m.table.compute(m.alg, pv) }

var _ PackedAlgorithm = Memoized{}
