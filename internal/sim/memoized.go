package sim

import (
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/step"
)

// This file is the memoized configuration-graph walk, the one loop
// behind every run with a shared outcome store (Options.Outcomes):
// sim.Run drives it with the FSYNC kernel round, sched.Run with the
// activation round of any periodic non-adaptive scheduler. Such an
// execution is deterministic, so its outcome (status, rounds, moves)
// is a pure function of its state. The walk stops at the first state
// whose outcome the store knows, splices that outcome in, and
// publishes the walked prefix backwards; across a sweep every shared
// suffix is paid for once.
//
// States. The execution state is (pattern, round mod period) plus the
// idle streak. Only fresh states (no idle iteration since the last
// move: the initial state and every state just after a moving round)
// are restart points, so only they are keyed, recorded and consulted.
// Period 1 means every robot is active every round (FSYNC): the key is
// the bare pattern, shared with every FSYNC client of the store.
// Longer periods fold the phase into the key (memo.Key.WithPhase).
// Each state records raw, the loop iterations consumed (they burn
// MaxRounds), and rounds, the moving rounds (Result.Rounds); the two
// differ only through idle iterations, which need period > 1.
//
// Equivalence with the direct loops (Status, Rounds and Moves exactly;
// Final and Collision up to translation, see Options.Outcomes) rests
// on four rules:
//
//  1. Budget. An outcome describes the unbounded run. The direct loop
//     detects a collision or an all-stay inside iteration raw+Raw (so
//     it needs raw+Raw < MaxRounds) and a livelock or split at the end
//     of the iteration before (raw+Raw ≤ MaxRounds). A splice that
//     does not fit is refused and the walk goes on; the sum is
//     invariant along a trajectory, so the walk ends in the direct
//     RoundLimit and publishes nothing.
//  2. Partial cycles. The direct loop reports a livelock at the first
//     repeat of its own trajectory. When an on-cycle hit's cycle was
//     already entered by the walk's own prefix — possible only while
//     another worker is still publishing that cycle — the repeat comes
//     one lap after the earliest own state on the cycle, which
//     CycleInfo.Members identifies. A tail or terminal hit cannot share
//     a state with the prefix: that state would lie on a cycle.
//  3. Stall facts. An outcome with no further moves and no collision
//     may come from other dynamics: a full activation proves it for
//     every scheduler (sched's tier A publishes it at the bare key with
//     Raw 0). FSYNC resolves it in the current iteration, so period-1
//     walks splice it exactly. At period > 1 the direct loop may idle
//     up to 4·n iterations first, which the fact does not carry, so
//     SpliceStall guards conservatively and nothing is backfilled;
//     such walks also try the bare key when their phased key misses.
//  4. Publication is final-only and first-write-wins (memo's
//     contract): runs that publish one key agree on Status, Rounds,
//     Raw and Moves, so the winner does not matter.

// walkState is one fresh state of the walk, with what the run consumed
// reaching it.
type walkState struct {
	key                memo.Key
	cfg                config.Config
	raw, rounds, moves int
}

// Iteration is one loop iteration of the dynamics Walk drives, from the
// sorted node set nodes (cfg is the same state) at loop iteration raw.
// It returns the successor node set appended to dst and the number of
// movers; or, with next nil, the collision that voids the round, or
// whether no robot moving ends the run (stop) rather than idling it.
type Iteration func(cfg config.Config, nodes []grid.Coord, raw int, dst []grid.Coord) (next []grid.Coord, moved int, coll *CollisionInfo, stop bool)

// Walk runs the memoized walk from initial under a periodic scheduler,
// one iterate call per loop iteration. It requires opts.Outcomes,
// DetectCycles and StopOnDisconnect, and ignores RecordTrace and
// CycleSet: the walk's own path detects the repeats.
func Walk(initial config.Config, period int, opts Options, iterate Iteration) Result {
	st := opts.Outcomes
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}

	n := initial.Len()
	cur := initial.AppendNodes(make([]grid.Coord, 0, n))
	// The successor buffer and the path index are allocated on the
	// first miss: a warm first hit costs one key and one shard probe.
	var next []grid.Coord
	var pathIdx map[memo.Key]int
	path := make([]walkState, 0, 8)
	s := walkState{key: phaseKey(cur, 0, period), cfg: initial}

	for {
		path = append(path, s)
		if pathIdx != nil {
			pathIdx[s.key] = len(path) - 1
		}
		if s.raw == maxRounds {
			return Result{Status: RoundLimit, Rounds: s.rounds, Moves: s.moves, Final: s.cfg}
		}
		if res, spliced := visit(st, path, cur, period, maxRounds); spliced {
			return res
		}

		if next == nil {
			next = make([]grid.Coord, 0, n)
		}
		raw := s.raw
		nxt, moved, coll, stop := iterate(s.cfg, cur, raw, next[:0])
		for nxt == nil && coll == nil && !stop {
			if raw++; raw == maxRounds {
				return Result{Status: RoundLimit, Rounds: s.rounds, Moves: s.moves, Final: s.cfg}
			}
			nxt, moved, coll, stop = iterate(s.cfg, cur, raw, next[:0])
		}
		if nxt == nil {
			status := Collision
			if coll == nil {
				status = Stalled
				if goal(s.cfg) {
					status = Gathered
				}
			}
			backfill(st, path, memo.Outcome{Status: uint8(status), Raw: int32(raw - s.raw), Final: s.cfg, Collision: coll})
			return Result{Status: status, Rounds: s.rounds, Moves: s.moves, Final: s.cfg, Collision: coll}
		}

		cur, next = nxt, cur
		prev := s
		s = walkState{cfg: config.New(cur...), raw: raw + 1, rounds: s.rounds + 1, moves: s.moves + moved}
		if !step.Connected(cur) {
			// The disconnected state itself gets no outcome: a run
			// starting there would step before noticing the split.
			backfill(st, path, memo.Outcome{
				Status: uint8(Disconnected), Rounds: 1, Raw: int32(s.raw - prev.raw), Moves: int32(moved), Final: s.cfg,
			})
			return Result{Status: Disconnected, Rounds: s.rounds, Moves: s.moves, Final: s.cfg}
		}
		s.key = phaseKey(cur, s.raw, period)
		if pathIdx == nil {
			pathIdx = make(map[memo.Key]int, 32)
			for i := range path {
				pathIdx[path[i].key] = i
			}
		}
		if t0, on := pathIdx[s.key]; on {
			// The walk closed its own cycle: path[t0:] are its states.
			entry := path[t0]
			ci := &memo.CycleInfo{
				Len: int32(s.rounds - entry.rounds), RawLen: int32(s.raw - entry.raw),
				Moves: int32(s.moves - entry.moves), Members: make(map[memo.Key]struct{}, len(path)-t0),
			}
			for _, ps := range path[t0:] {
				ci.Members[ps.key] = struct{}{}
			}
			publishCycle(st, path, t0, ci)
			return Result{Status: Livelock, Rounds: s.rounds, Moves: s.moves, Final: s.cfg}
		}
	}
}

// phaseKey keys the state entering loop iteration raw.
func phaseKey(nodes []grid.Coord, raw, period int) memo.Key {
	k := memo.KeyOf(nodes)
	if period > 1 {
		return k.WithPhase(raw%period + 1)
	}
	return k
}

// visit consults the store for the walk's newest state (the last path
// entry, whose nodes are given) and returns the direct run's result
// when a known outcome splices.
func visit(st *memo.Outcomes, path []walkState, nodes []grid.Coord, period, maxRounds int) (Result, bool) {
	last := path[len(path)-1]
	out, ok := st.Load(last.key)
	if !ok {
		if period > 1 {
			if out, ok := st.Load(memo.KeyOf(nodes)); ok && out.Rounds == 0 && out.Raw == 0 {
				return SpliceStall(out, last.result(), last.raw, len(nodes), maxRounds)
			}
		}
		return Result{}, false
	}
	status := Status(out.Status)
	switch {
	case status == Livelock && out.Cycle == nil:
		return Result{}, false // malformed entry: treat as a miss
	case status == Livelock && out.Rounds == out.Cycle.Len:
		// On-cycle hit: the direct repeat comes one lap after the
		// earliest own state on the cycle. The hit itself is a member.
		ci := out.Cycle
		t := 0
		for t < len(path)-1 && !ci.OnCycle(path[t].key) {
			t++
		}
		entry := path[t]
		if entry.raw+int(ci.RawLen) > maxRounds {
			return Result{}, false
		}
		publishCycle(st, path, t, ci)
		return Result{Status: Livelock, Rounds: entry.rounds + int(ci.Len), Moves: entry.moves + int(ci.Moves), Final: entry.cfg}, true
	case status == Livelock || status == Disconnected:
		if last.raw+int(out.Raw) > maxRounds {
			return Result{}, false
		}
	case period > 1 && out.Rounds == 0 && out.Collision == nil:
		return SpliceStall(out, last.result(), last.raw, len(nodes), maxRounds)
	case last.raw+int(out.Raw) >= maxRounds: // Gathered, Stalled, Collision
		return Result{}, false
	}
	backfill(st, path, out)
	return Result{
		Status: status, Rounds: last.rounds + int(out.Rounds), Moves: last.moves + int(out.Moves),
		Final: out.Final, Collision: out.Collision,
	}, true
}

// result is the run so far, standing at this state.
func (s walkState) result() Result {
	return Result{Rounds: s.rounds, Moves: s.moves, Final: s.cfg}
}

// SpliceStall ends a run standing at a fresh state, reached at loop
// iteration raw, with a stall fact out for that state: no robot moves
// again (Rounds 0, no collision). The result is res, the run so far,
// with out's status. It refuses unless out is gathered or stalled and
// the budget covers the direct loop's own resolution of the stall, at
// most 4·n idle iterations.
func SpliceStall(out memo.Outcome, res Result, raw, n, maxRounds int) (Result, bool) {
	status := Status(out.Status)
	if status != Gathered && status != Stalled || raw+4*n >= maxRounds {
		return Result{}, false
	}
	res.Status = status
	return res, true
}

// backfill publishes out for every state on the path. out's Rounds,
// Raw and Moves are the last state's remaining run; earlier states add
// what they consumed reaching it. Republishing a known state is a
// first-write-wins no-op.
func backfill(st *memo.Outcomes, path []walkState, out memo.Outcome) {
	last := path[len(path)-1]
	endRaw, endRounds, endMoves := last.raw+int(out.Raw), last.rounds+int(out.Rounds), last.moves+int(out.Moves)
	for _, ps := range path {
		o := out
		o.Rounds = int32(endRounds - ps.rounds)
		o.Raw = int32(endRaw - ps.raw)
		o.Moves = int32(endMoves - ps.moves)
		st.Publish(ps.key, o)
	}
}

// publishCycle publishes livelock outcomes for a path entering the
// cycle ci at index t0: path[t0:] are on the cycle (one lap each),
// path[:t0] are its tail (down to the entry, then one lap). ci is
// complete before the first publication, so no reader sees it
// half-built.
func publishCycle(st *memo.Outcomes, path []walkState, t0 int, ci *memo.CycleInfo) {
	for _, ps := range path[t0:] {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(Livelock), Rounds: ci.Len, Raw: ci.RawLen, Moves: ci.Moves, Final: ps.cfg, Cycle: ci,
		})
	}
	entry := path[t0]
	for _, ps := range path[:t0] {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(Livelock),
			Rounds: int32(entry.rounds-ps.rounds) + ci.Len,
			Raw:    int32(entry.raw-ps.raw) + ci.RawLen,
			Moves:  int32(entry.moves-ps.moves) + ci.Moves,
			Final:  entry.cfg, Cycle: ci,
		})
	}
}

// walkFSYNC drives the walk with the FSYNC kernel round. The round's
// scratch is allocated on the first miss, like the walk's own.
func walkFSYNC(k step.Kernel, initial config.Config, opts Options) Result {
	var targets []grid.Coord
	var moving []bool
	return Walk(initial, 1, opts, func(_ config.Config, nodes []grid.Coord, _ int, dst []grid.Coord) ([]grid.Coord, int, *CollisionInfo, bool) {
		if targets == nil {
			targets, moving = make([]grid.Coord, len(nodes)), make([]bool, len(nodes))
		}
		next, moved, coll := k.Round(nodes, targets, moving, dst)
		return next, moved, coll, true
	})
}
