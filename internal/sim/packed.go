package sim

import (
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/step"
)

// This file is the packed fast path of the round loop. sim.Run routes
// here when the algorithm implements core.PackedAlgorithm at a packable
// range; results are identical to the legacy path (the root package's
// equivalence test compares full exhaustive reports byte for byte), but
// the loop holds the configuration as a reused sorted slice and drives
// every transition through the shared kernel (internal/step): views as
// bitmasks, moves through the memo table, collision and disconnection
// checks with index scans instead of maps — so a steady-state round
// allocates nothing. The FSYNC round is the kernel's step with the
// full-activation choice; sched.Run and the adversary solver apply the
// same kernel under partial activation.

// runPacked executes the run with per-run scratch buffers. Semantics
// mirror the legacy loop in sim.go exactly; both evolve together.
func runPacked(k step.Kernel, initial config.Config, opts Options) Result {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	res := Result{Final: initial}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, initial)
	}

	n := initial.Len()
	cur := initial.AppendNodes(make([]grid.Coord, 0, n))
	next := make([]grid.Coord, 0, n) // ping-pong buffer for the post-move set
	targets := make([]grid.Coord, n) // robot count never grows, so cap n suffices
	moving := make([]bool, n)
	var seen *config.PatternSet
	if opts.DetectCycles {
		if opts.CycleSet != nil {
			seen = opts.CycleSet
			seen.Reset()
		} else {
			seen = new(config.PatternSet)
		}
		seen.AddNodes(cur)
	}

	for round := 0; round < maxRounds; round++ {
		nxt, moved, coll := k.Round(cur, targets[:len(cur)], moving[:len(cur)], next[:0])
		if coll != nil {
			res.Status = Collision
			res.Collision = coll
			res.Final = config.New(cur...)
			return res
		}
		if moved == 0 {
			fin := config.New(cur...)
			if goal(fin) {
				res.Status = Gathered
			} else {
				res.Status = Stalled
			}
			res.Final = fin
			return res
		}
		res.Rounds++
		res.Moves += moved
		cur, next = nxt, cur
		if opts.RecordTrace {
			res.Trace = append(res.Trace, config.New(cur...))
		}
		if opts.StopOnDisconnect && !step.Connected(cur) {
			res.Status = Disconnected
			res.Final = config.New(cur...)
			return res
		}
		if opts.DetectCycles && !seen.AddNodes(cur) {
			res.Status = Livelock
			res.Final = config.New(cur...)
			return res
		}
	}
	res.Status = RoundLimit
	res.Final = config.New(cur...)
	return res
}
