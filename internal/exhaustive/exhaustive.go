// Package exhaustive reproduces the paper's Theorem 2 evaluation: it runs
// the gathering algorithm from every connected initial configuration of n
// robots ("3652 patterns in total" for n = 7) under the FSYNC scheduler
// and aggregates outcomes.
//
// Since the unified sweep engine landed, Verify is a thin compatibility
// shim over internal/sweep — Spec{N, Alg, KeepCases: true} with FSYNC
// defaults — kept because its blocking, Cases-retaining Report is the
// shape the equivalence tests, the ablation benchmarks, and the examples
// were written against. New sweeps (SSYNC robustness, relaxed
// connectivity, streamed JSONL output) should use sweep.Run or
// sweep.Stream directly.
package exhaustive

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options tune a sweep.
type Options struct {
	// Robots is the configuration size (default 7, the paper's case).
	Robots int
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// MaxRounds bounds each run (default sim.DefaultMaxRounds).
	MaxRounds int
	// Cache, when non-nil, wraps the algorithm so its Compute decisions
	// are memoized in this shared view→move cache (core.Memoize). The
	// 3652 runs of a sweep revisit a small set of distinct views, and a
	// cache handed to several Verify calls (an ablation series, repeated
	// benchmark iterations, the cmd/verify CLI) stays warm across them;
	// the cache keys tables per algorithm name, so mixing algorithms is
	// safe. Algorithms that already carry their own process-wide memo
	// (core.Gatherer and the baselines) are fast without it; the handle
	// exists to share caching explicitly across sweeps and algorithms
	// that lack one. Each algorithm's table is a dense 1 MB array over
	// its 2^18 range-2 views, allocated on first use.
	Cache *core.Memo
	// Goal overrides the success predicate handed to every run. Nil
	// selects config.GoalFor(Robots): the paper's hexagon for seven
	// robots, the minimum-diameter predicate for every other count —
	// which is what makes n ≠ 7 sweeps (E11's n = 8 map of the open
	// problem) meaningful rather than trivially all-failing.
	Goal func(config.Config) bool
}

// CaseResult records one initial configuration's outcome.
type CaseResult struct {
	Initial config.Config
	Status  sim.Status
	Rounds  int
	Moves   int
}

// Report aggregates a sweep.
type Report struct {
	Algorithm string
	Robots    int
	Total     int
	// ByStatus counts outcomes per status.
	ByStatus map[sim.Status]int
	// MaxRounds / MeanRounds / MaxMoves / MeanMoves are over gathered runs.
	MaxRounds  int
	MeanRounds float64
	MaxMoves   int
	MeanMoves  float64
	// Cases lists per-configuration results in enumeration order.
	Cases []CaseResult

	// sweep is the underlying engine report; the per-diameter analysis
	// delegates to it.
	sweep *sweep.Report
}

// Gathered returns the number of runs that gathered.
func (r *Report) Gathered() int { return r.ByStatus[sim.Gathered] }

// AllGathered reports whether every initial configuration gathered — the
// paper's Theorem 2 claim.
func (r *Report) AllGathered() bool { return r.Gathered() == r.Total }

// Verify sweeps every connected initial configuration with the given
// algorithm and returns the aggregated report. It executes on the
// streaming sweep engine (sweep.Run) with case retention on; the report
// is pinned report-for-report to the pre-engine behavior by the root
// package's equivalence tests.
func Verify(alg core.Algorithm, opts Options) *Report {
	if opts.Robots <= 0 {
		opts.Robots = 7
	}
	rep, err := sweep.Run(context.Background(), sweep.Spec{
		N:         opts.Robots,
		Alg:       alg,
		Workers:   opts.Workers,
		MaxRounds: opts.MaxRounds,
		Cache:     opts.Cache,
		Goal:      opts.Goal,
		KeepCases: true,
	})
	if err != nil {
		// Unreachable: a background context is never cancelled and no
		// visitor is installed, the only error sources of a sweep.
		panic(fmt.Sprintf("exhaustive: sweep failed: %v", err))
	}
	report := &Report{
		Algorithm:  rep.Algorithm,
		Robots:     opts.Robots,
		Total:      rep.Total,
		ByStatus:   rep.ByStatus,
		MaxRounds:  rep.MaxRounds,
		MeanRounds: rep.MeanRounds,
		MaxMoves:   rep.MaxMoves,
		MeanMoves:  rep.MeanMoves,
		Cases:      make([]CaseResult, len(rep.Cases)),
		sweep:      rep,
	}
	for i, c := range rep.Cases {
		report.Cases[i] = CaseResult{
			Initial: c.Initial,
			Status:  c.Status,
			Rounds:  c.Rounds,
			Moves:   c.Moves,
		}
	}
	return report
}

// Failures returns the cases that did not gather.
func (r *Report) Failures() []CaseResult {
	var out []CaseResult
	for _, c := range r.Cases {
		if c.Status != sim.Gathered {
			out = append(out, c)
		}
	}
	return out
}

// DiameterStats buckets gathered runs by the diameter of the initial
// configuration and reports per-bucket round statistics (experiment E7).
// It is the sweep engine's type; the bucketing lives there.
type DiameterStats = sweep.DiameterStats

// RoundsByDiameter aggregates gathered runs per initial diameter. It
// delegates to the underlying sweep report, so it returns nil on a
// manually built Report (Verify always sets the link).
func (r *Report) RoundsByDiameter() []DiameterStats {
	if r.sweep == nil {
		return nil
	}
	return r.sweep.RoundsByDiameter()
}

// String renders the report as the Theorem 2 summary table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm %s, n=%d: %d/%d gathered", r.Algorithm, r.Robots, r.Gathered(), r.Total)
	if r.Gathered() > 0 {
		fmt.Fprintf(&b, " (rounds max %d mean %.1f, moves max %d mean %.1f)",
			r.MaxRounds, r.MeanRounds, r.MaxMoves, r.MeanMoves)
	}
	// Failure breakdown in a deterministic order.
	statuses := make([]sim.Status, 0, len(r.ByStatus))
	for s := range r.ByStatus {
		if s != sim.Gathered {
			statuses = append(statuses, s)
		}
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
	for _, s := range statuses {
		fmt.Fprintf(&b, ", %s %d", s, r.ByStatus[s])
	}
	return b.String()
}
