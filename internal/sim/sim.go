// Package sim executes Look-Compute-Move robot algorithms on triangular
// grids under the fully synchronous (FSYNC) scheduler of the paper, checks
// the three collision rules of Section II-A, detects stalls, livelocks and
// disconnection, and records traces.
package sim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/step"
	"repro/internal/vision"
)

// Status classifies the outcome of a run.
type Status uint8

// Run outcomes. Gathered is the only success; the failure statuses
// distinguish *why* a run failed, which the exhaustive verifier reports.
const (
	// Gathered: the system reached a gathering-achieved configuration and
	// every robot chose to stay (Definition 1).
	Gathered Status = iota
	// Stalled: every robot chose to stay in a non-gathered configuration —
	// the system is stuck forever (the run is deterministic).
	Stalled
	// Livelock: a configuration repeated, so the deterministic FSYNC run
	// cycles forever without gathering.
	Livelock
	// Collision: a round violated one of the three collision rules.
	Collision
	// Disconnected: the configuration split; an oblivious robot with no
	// neighbors can never rejoin (§II-A), so gathering is unreachable.
	Disconnected
	// RoundLimit: the run exceeded the round budget without any of the
	// above (should not happen with cycle detection enabled).
	RoundLimit
)

var statusNames = [...]string{
	Gathered:     "gathered",
	Stalled:      "stalled",
	Livelock:     "livelock",
	Collision:    "collision",
	Disconnected: "disconnected",
	RoundLimit:   "round-limit",
}

// String returns the lowercase status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// MarshalText renders the status name, which also makes map[Status]int
// serialize as a JSON object keyed by status name (the sweep reports'
// by-status breakdown).
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseStatus inverts String: it resolves a status by its lowercase
// name. The distributed-sweep wire format and checkpoint files carry
// statuses by name, so they must parse back exactly.
func ParseStatus(name string) (Status, error) {
	for i, n := range statusNames {
		if n == name {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown status %q", name)
}

// UnmarshalText parses the status name, the inverse of MarshalText —
// it makes map[Status]int round-trip through JSON (checkpoint files).
func (s *Status) UnmarshalText(text []byte) error {
	v, err := ParseStatus(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// CollisionKind distinguishes the three prohibited behaviors of §II-A.
// It is the kernel's type (internal/step owns the collision rules);
// the alias keeps sim's historical API intact.
type CollisionKind = step.CollisionKind

// The three collision rules.
const (
	// Swap: two robots traverse the same edge in opposite directions
	// (rule (a)).
	Swap = step.Swap
	// OntoStationary: a robot moves onto a node whose occupant stays
	// (rule (b)).
	OntoStationary = step.OntoStationary
	// Merge: several robots move onto the same empty node (rule (c)).
	Merge = step.Merge
)

// CollisionInfo describes the first collision detected in a round
// (aliased from the kernel, which detects them).
type CollisionInfo = step.CollisionInfo

// Result summarizes a run.
type Result struct {
	Status Status
	// Rounds is the number of FSYNC rounds executed before the run ended
	// (the terminal round that observed "everyone stays" is not counted —
	// it changes nothing).
	Rounds int
	// Moves is the total number of robot steps taken.
	Moves int
	// Final is the last configuration reached.
	Final config.Config
	// Collision is set when Status == Collision.
	Collision *CollisionInfo
	// Trace holds every configuration from the initial one to Final when
	// tracing is enabled in Options.
	Trace []config.Config
}

// Options tune a run.
type Options struct {
	// MaxRounds bounds the run; <= 0 selects DefaultMaxRounds.
	MaxRounds int
	// RecordTrace keeps every intermediate configuration in the Result.
	RecordTrace bool
	// DetectCycles tracks visited patterns and reports Livelock on a
	// repeat. It costs one map insertion per round and is on in the
	// verifier; runs with it off rely on MaxRounds.
	DetectCycles bool
	// StopOnDisconnect ends the run as soon as the configuration splits.
	// The paper's algorithm never disconnects a configuration; the
	// baselines do, and the verifier wants that reported, not chased.
	StopOnDisconnect bool
	// Goal decides when an all-stay round counts as success. Nil selects
	// config.GoalFor over the initial robot count: the paper's hexagon
	// predicate for seven robots, the generalized minimum-diameter
	// predicate for every other n (the different-robot-count extensions
	// E10 and E11). Explicit goals override, e.g. an experiment pinning
	// a specific target shape.
	Goal func(config.Config) bool
	// CycleSet, when non-nil, is the pattern set the packed path uses
	// for cycle detection; Run resets it before use, so one set can be
	// pooled across many runs (exhaustive.Verify keeps one per worker —
	// the cycle-set maps were the largest remaining per-run allocation).
	// It is ignored when DetectCycles is false, and by the legacy
	// reference path, which keeps its own string-keyed map.
	CycleSet *config.PatternSet
	// Outcomes, when non-nil, is the shared configuration→outcome
	// store (internal/memo): FSYNC dynamics are deterministic, so a
	// run's outcome is a pure function of its configuration, and the
	// run becomes a walk of the configuration graph cut short at the
	// first state whose outcome is already known — with the walked
	// suffix published backwards along the step.Successor edges for
	// every later run (of the same sweep, or any sweep sharing the
	// store) to reuse (Walk, memoized.go). Engaged only on the packed
	// fast path with DetectCycles and StopOnDisconnect set and
	// RecordTrace off — the standard sweep options — and ignored
	// otherwise.
	//
	// Status, Rounds and Moves are bit-identical to the unmemoized
	// run. Final and Collision may come from a translated
	// representative of the terminal state (pattern keys are
	// translation-invariant, so a memoized suffix may have been walked
	// from a translated copy).
	//
	// The store is scoped to one (algorithm, goal) pair: outcomes are
	// facts about that deterministic dynamics, and sharing a store
	// across different algorithms or goal predicates is a caller error
	// the store cannot detect. Robot count needs no scoping — the key
	// encodes it.
	Outcomes *memo.Outcomes
}

// DefaultMaxRounds bounds runs when Options.MaxRounds is unset. Gathering
// from a connected 7-robot configuration takes tens of rounds; 10000 is
// far beyond any legitimate run.
const DefaultMaxRounds = 10000

// Run executes alg from the initial configuration under FSYNC until the
// system gathers, fails, or exhausts the round budget.
//
// Algorithms that implement core.PackedAlgorithm at a packable range run
// on the allocation-free fast path (see packed.go); results are
// identical either way.
func Run(alg core.Algorithm, initial config.Config, opts Options) Result {
	if _, ok := alg.(core.PackedAlgorithm); ok && alg.VisibilityRange() <= vision.MaxPackedRange {
		if opts.Outcomes != nil && opts.DetectCycles && opts.StopOnDisconnect && !opts.RecordTrace {
			return walkFSYNC(step.New(alg), initial, opts)
		}
		return runPacked(step.New(alg), initial, opts)
	}
	return runLegacy(alg, initial, opts)
}

// runLegacy is the map-based reference loop; the packed path must match
// it result-for-result.
func runLegacy(alg core.Algorithm, initial config.Config, opts Options) Result {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	cur := initial
	res := Result{Final: cur}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, cur)
	}
	var seen map[string]bool
	if opts.DetectCycles {
		seen = map[string]bool{cur.Key(): true}
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	for round := 0; round < maxRounds; round++ {
		next, moved, coll := Step(alg, cur)
		if coll != nil {
			res.Status = Collision
			res.Collision = coll
			res.Final = cur
			return res
		}
		if moved == 0 {
			if goal(cur) {
				res.Status = Gathered
			} else {
				res.Status = Stalled
			}
			res.Final = cur
			return res
		}
		res.Rounds++
		res.Moves += moved
		cur = next
		res.Final = cur
		if opts.RecordTrace {
			res.Trace = append(res.Trace, cur)
		}
		if opts.StopOnDisconnect && !cur.Connected() {
			res.Status = Disconnected
			return res
		}
		if opts.DetectCycles {
			k := cur.Key()
			if seen[k] {
				res.Status = Livelock
				return res
			}
			seen[k] = true
		}
	}
	res.Status = RoundLimit
	return res
}

// Step executes one FSYNC round: every robot Looks, Computes and Moves
// simultaneously. It returns the next configuration, the number of robots
// that moved, and the first collision found (nil if the round is legal).
// On collision the returned configuration is the unchanged input.
func Step(alg core.Algorithm, cur config.Config) (config.Config, int, *CollisionInfo) {
	robots := cur.Nodes()
	targets := make([]grid.Coord, len(robots))
	moving := make([]bool, len(robots))
	moved := 0
	for i, pos := range robots {
		m := alg.Compute(vision.Look(cur, pos, alg.VisibilityRange()))
		targets[i] = m.Apply(pos)
		moving[i] = m.IsMove()
		if moving[i] {
			moved++
		}
	}
	if coll := DetectCollision(robots, targets, moving); coll != nil {
		return cur, 0, coll
	}
	return config.New(targets...), moved, nil
}

// DetectCollision applies the three rules of §II-A to a simultaneous move
// vector: robots[i] moves to targets[i] iff moving[i]. It returns the
// first violation found, or nil. It is the map-based reference detector
// behind Step and the legacy FSYNC loop; the fast paths of sim and
// sched use step.DetectCollision, which must agree with it.
func DetectCollision(robots, targets []grid.Coord, moving []bool) *CollisionInfo {
	pos := make(map[grid.Coord]int, len(robots))
	for i, p := range robots {
		pos[p] = i
	}
	targetCount := make(map[grid.Coord]int, len(robots))
	for i, t := range targets {
		if moving[i] {
			targetCount[t]++
		}
	}
	for i := range robots {
		if !moving[i] {
			continue
		}
		t := targets[i]
		if j, occupied := pos[t]; occupied {
			if !moving[j] {
				// Rule (b): moving onto a robot that stays.
				return &CollisionInfo{Kind: OntoStationary, Node: t}
			}
			if targets[j] == robots[i] {
				// Rule (a): the two robots swap along one edge.
				return &CollisionInfo{Kind: Swap, Node: t}
			}
		}
		if targetCount[t] > 1 {
			// Rule (c): several robots move onto the same node.
			return &CollisionInfo{Kind: Merge, Node: t}
		}
	}
	return nil
}
