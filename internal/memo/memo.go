// Package memo is the shared configuration-keyed state store: one
// sharded, lock-striped, publish-once map from translation-invariant
// pattern keys to final verdicts, consumed by every layer that caches
// facts about configurations — the FSYNC outcome memo (internal/sim,
// internal/sweep), the scheduler rollouts' terminal/cycle detection
// (internal/sched), and the adversarial safety-game solver
// (internal/adversary). The machinery grew up inside the adversary
// solver; this package is its extraction, generalized over the stored
// value so all three clients share one sharding scheme and one
// publication discipline.
//
// The store's own discipline is single-flight in effect, not in
// mechanism: there is no per-key in-flight tracking. Instead, values
// are published only once final — in-flight (partial) state never
// enters the store — and publication is first-write-wins, so a reader
// either misses (and computes the fact itself) or sees a complete,
// immutable value. Clients are sound because the facts they store are
// unique properties of the key (a game verdict, a deterministic run's
// outcome): duplicate concurrent computations produce equal values,
// making the publish race benign and the winner irrelevant. Workloads
// where duplicated computation is too expensive to tolerate — a
// serving hot path hit by a thundering herd of identical queries —
// opt into Flight, which layers a real in-flight wait table over the
// store so each key is computed at most once concurrently.
package memo

import (
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/grid"
)

// Key identifies a configuration pattern: the exact config.Key128 for
// every pattern inside the 128-bit envelope (all connected patterns of
// at most 14 robots), the canonical string for the rest. It is
// comparable, so it keys Go maps directly.
type Key struct {
	K     config.Key128
	S     string
	Exact bool
}

// KeyOf builds the key of a sorted node list (the config.Config
// invariant: ascending by Q, then R).
func KeyOf(nodes []grid.Coord) Key {
	if k, ok := config.Key128Nodes(nodes); ok {
		return Key{K: k, Exact: true}
	}
	return Key{S: config.New(nodes...).Key()}
}

// phaseBits is the width of the phase field WithPhase folds into the
// key, and phaseShift its position: the Key128 encoding uses at most
// 4 + 13·9 = 121 bits (see config.Key128Nodes), so the top 7 bits of
// Hi are structurally zero for every exact key and folding a phase
// into them cannot collide with another pattern's key.
const (
	phaseBits  = 7
	phaseShift = 64 - phaseBits
	// MaxPhase is the largest phase WithPhase can fold into an exact
	// key. Larger phases degrade to the string fallback.
	MaxPhase = 1<<phaseBits - 1
)

// WithPhase scopes the key by an execution phase — the round number
// modulo a deterministic scheduler's period, for clients whose
// execution state is (pattern, phase) rather than the bare pattern.
// Phase 0 returns the key unchanged, so phase-less clients and phase-0
// states share entries. Exact keys fold the phase into the structurally
// zero top bits of Hi; phases past MaxPhase (no real scheduler period
// comes close) fall back to a prefixed string key.
func (k Key) WithPhase(ph int) Key {
	if ph == 0 {
		return k
	}
	if k.Exact && ph <= MaxPhase {
		k.K.Hi |= uint64(ph) << phaseShift
		return k
	}
	if k.Exact {
		// Degrade: re-encode as a string so the phase stays exact.
		k = Key{S: phaseString(ph, keyString(k))}
	} else {
		k.S = phaseString(ph, k.S)
	}
	return k
}

// keyString renders an exact key's words as a unique string (only used
// on the cold MaxPhase-overflow path).
func keyString(k Key) string {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(k.K.Hi >> (8 * i))
		b[8+i] = byte(k.K.Lo >> (8 * i))
	}
	return string(b[:])
}

func phaseString(ph int, s string) string {
	return string(rune('0'+ph/64)) + string(rune('0'+ph%64)) + "|" + s
}

// Shards is the lock-striping width of a Store. 64 shards keep
// contention negligible for any worker count a sweep runs (the
// per-shard critical sections are single map operations).
const Shards = 64

// Store is the sharded concurrent fact store: a map from Key to V,
// lock-striped over the exact keys, with a string-keyed slow map for
// patterns past the 128-bit envelope. Values must be published only
// once final (see the package comment); publication is
// first-write-wins. A Store is safe for concurrent use by any number
// of goroutines. Build with NewStore; the zero value is not usable.
type Store[V any] struct {
	shards [Shards]shard[V]
	slowMu sync.RWMutex
	slow   map[string]V

	created atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[config.Key128]V
}

// NewStore builds an empty store.
func NewStore[V any]() *Store[V] {
	s := &Store[V]{slow: make(map[string]V)}
	for i := range s.shards {
		s.shards[i].m = make(map[config.Key128]V)
	}
	return s
}

// shardOf mixes the 128-bit key down to a shard index.
func shardOf(k config.Key128) int {
	h := k.Lo*0x9e3779b97f4a7c15 ^ k.Hi
	return int(h >> (64 - 6)) // top bits of the multiplied hash spread best
}

// Load returns the published value for a key, if any, and counts the
// lookup in the hit/miss statistics.
func (s *Store[V]) Load(key Key) (V, bool) {
	v, ok := s.lookup(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// lookup is Load without the hit/miss accounting.
func (s *Store[V]) lookup(key Key) (v V, ok bool) {
	if key.Exact {
		sh := &s.shards[shardOf(key.K)]
		sh.mu.RLock()
		v, ok = sh.m[key.K]
		sh.mu.RUnlock()
		return v, ok
	}
	s.slowMu.RLock()
	v, ok = s.slow[key.S]
	s.slowMu.RUnlock()
	return v, ok
}

// Publish stores a final value, keeping any already-published one
// (first-write-wins — concurrent publishers hold equivalent values by
// the package contract) and counting each distinct key once.
func (s *Store[V]) Publish(key Key, v V) {
	if key.Exact {
		sh := &s.shards[shardOf(key.K)]
		sh.mu.Lock()
		if _, dup := sh.m[key.K]; !dup {
			sh.m[key.K] = v
			s.created.Add(1)
		}
		sh.mu.Unlock()
		return
	}
	s.slowMu.Lock()
	if _, dup := s.slow[key.S]; !dup {
		s.slow[key.S] = v
		s.created.Add(1)
	}
	s.slowMu.Unlock()
}

// Created returns the number of distinct keys published so far.
func (s *Store[V]) Created() int64 { return s.created.Load() }

// Hits returns the number of Loads that found a published value.
func (s *Store[V]) Hits() int64 { return s.hits.Load() }

// Misses returns the number of Loads that found nothing.
func (s *Store[V]) Misses() int64 { return s.misses.Load() }

// Stats is a point-in-time snapshot of a store's counters — the one
// memo-statistics currency every consumer shares (sweep reports,
// worker wire summaries, CLI stderr tallies, /metrics gauges).
type Stats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Created int64 `json:"created"`
}

// Stats snapshots the store's cumulative counters. The three loads are
// not atomic as a group; under concurrent traffic the snapshot is a
// consistent-enough diagnostic, not a transaction.
func (s *Store[V]) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Created: s.created.Load()}
}

// Sub returns the counter deltas since base — the per-run view over a
// long-lived shared store.
func (s Stats) Sub(base Stats) Stats {
	return Stats{Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses, Created: s.Created - base.Created}
}

// Add returns the component-wise sum — fleet aggregation across
// workers.
func (s Stats) Add(o Stats) Stats {
	return Stats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Created: s.Created + o.Created}
}

// Lookups returns the total number of store consultations.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }
