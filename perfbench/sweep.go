package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/step"
	"repro/internal/sweep"
	"repro/internal/vision"
)

// Child modes: every sweep repetition runs in a fresh process, so each
// one pays enumeration, cold stores and its own peak RSS, as a user
// running `verify -n 10` does.
const (
	childSweep = "child-sweep"
	childFleet = "child-fleet"
)

// minReps is the fewest repetitions a sweep run makes, whatever
// --seconds says; maxReps caps a long run.
const (
	minReps = 3
	maxReps = 12
)

// repResult is one child repetition's answer, printed by the child as
// its last stdout line.
type repResult struct {
	SetupS   float64  `json:"setup_s"`     // set-up wall time: enumeration, or index and workers
	SetupCPU float64  `json:"setup_cpu_s"` // CPU time of the same stretch
	SweepS   float64  `json:"sweep_s"`     // first dispatched pattern to verified report
	CPUS     float64  `json:"cpu_s"`       // CPU time of the process tree over SweepS
	Patterns int      `json:"patterns"`    // patterns the report covers
	Problems []string `json:"problems,omitempty"`
	Layers   []metric `json:"layers,omitempty"` // traced repetitions only
}

// pin is the expected report of the FSYNC sweep over connected(n): the
// counts EXPERIMENTS.md pins, and the sha256 of the JSON report exactly
// as `verify -json` prints it (without the trailing newline). Both the
// single-process and the fleet workload must produce these bytes.
type pin struct {
	patterns  int
	byStatus  map[string]int
	maxRounds int
	sha256    string
}

var pins = map[int]pin{
	// E20: the full n = 10 FSYNC map.
	10: {362671, map[string]int{"gathered": 94158, "stalled": 213492, "livelock": 42434, "collision": 8810, "disconnected": 3777}, 26,
		"a8fdd9012f85517f94de51ccf9a20e36971e0872fe12cea6af476f0d04ae6371"},
	// Theorem 2: every connected 7-robot pattern gathers.
	7: {3652, map[string]int{"gathered": 3652}, 15,
		"628a1e71670f1dceb44b2bd4d04667f86581c8b65ae51ce41be0e57f77f99441"},
}

// checkReport compares a sweep report with the pinned result for n.
func checkReport(rep *sweep.Report, n int) []string {
	want, ok := pins[n]
	if !ok {
		return []string{fmt.Sprintf("no pinned report for n = %d", n)}
	}
	var probs []string
	if rep.Patterns != want.patterns || rep.Total != want.patterns {
		probs = append(probs, fmt.Sprintf("report covers %d patterns / %d runs, want %d", rep.Patterns, rep.Total, want.patterns))
	}
	got := map[string]int{}
	for st, c := range rep.ByStatus {
		got[st.String()] = c
	}
	for st, c := range want.byStatus {
		if got[st] != c {
			probs = append(probs, fmt.Sprintf("%s: %d patterns, want %d", st, got[st], c))
		}
	}
	if len(got) != len(want.byStatus) {
		probs = append(probs, fmt.Sprintf("statuses %v, want %v", got, want.byStatus))
	}
	if rep.MaxRounds > want.maxRounds {
		probs = append(probs, fmt.Sprintf("max rounds %d, want at most %d", rep.MaxRounds, want.maxRounds))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return append(probs, err.Error())
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want.sha256 {
		probs = append(probs, fmt.Sprintf("JSON report sha256 %x differs from the pinned verify -json bytes", sum))
	}
	return probs
}

func sweepN(o options) int {
	if o.smoke {
		return 7
	}
	return 10
}

// runSweepWorkload is the parent side of fsync-n10 and fleet-n10: it
// runs fresh child processes for about --seconds (at least minReps)
// and reports medians, with each repetition's CPU figures scaled by the
// calibrations taken just before and after it. With --trace it
// runs one untraced and one traced repetition and reports the traced
// one's layers.
func runSweepWorkload(o options, mode string) (*result, error) {
	n := sweepN(o)
	res := &result{}
	var reps []repResult
	var walls, rss, jobCPU []float64
	var cal *calibrator
	if !o.trace {
		cal = &calibrator{}
	}
	start := time.Now()
	for i := 0; ; i++ {
		if o.trace && i == 2 {
			break
		}
		if !o.trace && i >= minReps {
			elapsed := time.Since(start).Seconds()
			if i >= maxReps || elapsed+median(walls) > float64(o.seconds) {
				break
			}
		}
		traced := o.trace && i == 1
		if cal != nil {
			cal.sample()
		}
		rep, wall, cpu, maxRSS, err := runChild(o, mode, n, traced, i)
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(pins[n].patterns)
		if len(rep.Problems) > 0 {
			res.fail(int64(pins[n].patterns), "repetition %d: %v", i, rep.Problems)
		}
		reps = append(reps, rep)
		walls = append(walls, wall)
		jobCPU = append(jobCPU, cpu*1e3)
		rss = append(rss, maxRSS)
	}
	var setups, setupCPU, rates, cpuPerPattern []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS)
		setupCPU = append(setupCPU, r.SetupCPU)
		rates = append(rates, float64(r.Patterns)/r.SweepS)
		cpuPerPattern = append(cpuPerPattern, r.CPUS/float64(r.Patterns)*1e6)
	}
	errRate := ratio(float64(res.Failed), float64(res.Attempted))
	if o.trace {
		// CPU time, not wall time: the host's steal would swamp the
		// difference on wall clocks.
		res.Metrics = append(reps[1].Layers, metric{"trace.overhead_frac", reps[1].CPUS/reps[0].CPUS - 1, "ratio"})
	} else {
		cal.sample()
		if cal.err != nil {
			return nil, cal.err
		}
		scaled := func(xs []float64) float64 {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = x * cal.between(i, i+1)
			}
			return median(ys)
		}
		res.Metrics = []metric{
			{"setup_s", scaled(setupCPU), "s"},
			{"peak_rss_mb", median(rss), "MB"},
			{"cpu_us_per_op", scaled(cpuPerPattern), "us"},
			{"cpu_ms_per_job", scaled(jobCPU), "ms"},
		}
		res.Report = []metric{
			{"calibration_cpu_s", median(cal.samples), "s"},
			{"setup_cpu_raw_s", median(setupCPU), "s"},
			{"cpu_us_per_op_raw", median(cpuPerPattern), "us"},
			{"cpu_ms_per_job_raw", median(jobCPU), "ms"},
		}
	}
	res.Report = append(res.Report, []metric{
		{"patterns_per_s", median(rates), "1/s"},
		{"setup_wall_s", median(setups), "s"},
		{"peak_rss_mb", median(rss), "MB"},
		{"error_rate", errRate, "ratio"},
		{"report_wall_s", median(walls), "s"},
		{"repetitions", float64(len(reps)), "count"},
	}...)
	return res, nil
}

// runChild runs one repetition in a fresh process and returns its
// answer, its wall time and the CPU seconds of its process tree from
// exec to exit, and the peak RSS in MB of the largest process of the
// tree.
func runChild(o options, mode string, n int, traced bool, i int) (rep repResult, wall, cpu, maxRSS float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, 0, 0, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("rep-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	args := []string{mode, "-n", fmt.Sprint(n), "-work", dir, "-bin", o.bin}
	if traced {
		args = append(args, "-trace", "-spans", o.spans)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0).Seconds()
	if err != nil {
		return rep, 0, 0, 0, fmt.Errorf("%s repetition %d: %v", mode, i, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, 0, 0, 0, fmt.Errorf("%s repetition %d: unreadable answer: %v", mode, i, err)
	}
	// wait4 folds the children the child reaped into its usage: CPU
	// time is summed over the tree, and the peak RSS is the largest of
	// the child's own and theirs, so a fleet reports its largest process.
	ps := cmd.ProcessState
	cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	maxRSS = float64(ps.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return rep, wall, cpu, maxRSS, nil
}

// childFlags parses the flags every child mode takes.
func childFlags(name string, args []string) (n int, traced bool, spans, work, bin string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.IntVar(&n, "n", 10, "robot count")
	fs.BoolVar(&traced, "trace", false, "record spans and report layers")
	fs.StringVar(&spans, "spans", "", "file the traced run writes its spans to")
	fs.StringVar(&work, "work", ".", "scratch directory")
	fs.StringVar(&bin, "bin", "", "directory of the built programs")
	fs.Parse(args)
	return
}

// emit prints a child's answer as its last stdout line.
func emit(rep repResult) int {
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// runSweepChild is one fsync-n10 repetition: the sweep `verify -n N`
// runs — the same Spec, a fresh view→move cache and outcome store,
// workers = GOMAXPROCS — with the source wrapped to time the first
// dispatched pattern.
func runSweepChild(args []string) int {
	n, traced, spans, _, _ := childFlags(childSweep, args)
	var tr *Tracer
	if traced {
		tr = &Tracer{}
	}
	root := tr.Begin("fsync", 0)
	t0, t0CPU := time.Now(), cpuSeconds()
	src := &firstDispatch{Source: sweep.Connected(n), tr: tr, parent: root}
	spec := sweep.Spec{
		N:           n,
		Alg:         core.Gatherer{},
		Cache:       core.NewMemo(),
		OutcomeMemo: memo.NewOutcomes(),
		Source:      src,
	}
	var alg *timedAlg
	var rt *runtimeSampler
	var cases []sweep.CaseResult
	var visit func(sweep.CaseResult) error
	if traced {
		// The timing wrapper must see every decision, so it wraps the
		// memoized algorithm itself and the Spec gets no Cache of its own
		// (which would memoize around the wrapper).
		alg = &timedAlg{inner: core.Memoize(core.Gatherer{}, spec.Cache)}
		spec.Alg, spec.Cache = alg, nil
		visit = func(c sweep.CaseResult) error {
			cases = append(cases, c)
			return nil
		}
		rt = startRuntimeSampler()
	}
	report, err := sweep.Stream(context.Background(), spec, visit)
	end := time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", err)
		return 2
	}
	rep := repResult{
		SetupS:   src.first.Sub(t0).Seconds(),
		SetupCPU: src.firstCPU - t0CPU,
		SweepS:   end.Sub(src.first).Seconds(),
		CPUS:     cpuSeconds() - src.firstCPU,
		Patterns: report.Patterns,
		Problems: checkReport(report, n),
	}
	tr.End(root)
	if traced {
		gcFrac, heapPeak := rt.stop()
		tr.Add("sweep.stream", root, src.first, end)
		es, _ := src.Source.(sweep.EnumStatsSource).EnumStats()
		rep.Layers = []metric{
			{"enumerate.keys_s", float64(es.DurationUS) / 1e6, "s"},
			{"enumerate.dedup_hit_rate", es.DedupHitRate(), "ratio"},
			{"core.decisions", float64(alg.calls.Load()), "count"},
			{"core.decide_ns", ratio(float64(alg.ns.Load()), float64(alg.calls.Load())), "ns"},
			{"memo.hits", float64(report.Memo.Hits), "count"},
			{"memo.misses", float64(report.Memo.Misses), "count"},
			{"memo.states", float64(report.Memo.Created), "count"},
			{"memo.hit_rate", ratio(float64(report.Memo.Hits), float64(report.Memo.Lookups())), "ratio"},
			{"sweep.stream_s", rep.SweepS, "s"},
			{"sweep.pending_high_water", float64(report.PeakPending), "count"},
			{"runtime.gc_cpu_frac", gcFrac, "ratio"},
			{"runtime.heap_peak_mb", heapPeak, "MB"},
		}
		rep.Layers = append(rep.Layers, replayLayers(tr, root, report, cases)...)
		if err := writeTrace(tr, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	return emit(rep)
}

// writeTrace writes the spans of a traced run as JSON lines.
func writeTrace(tr *Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayLayers times direct calls over the sweep's own delivered
// cases, single-threaded: the in-order collector's per-case work (the
// aggregator's Absorb), key decoding, connectivity, and one memoized
// FSYNC walk per pattern with a fresh store, whose self time is the
// walk minus the decisions made inside it.
func replayLayers(tr *Tracer, root int, report *sweep.Report, cases []sweep.CaseResult) []metric {
	agg := sweep.NewAggregator(sweep.Meta{
		Algorithm: report.Algorithm, Scheduler: report.Scheduler, Robots: report.Robots,
		Source: report.Source, Patterns: report.Patterns, Schedules: report.Schedules,
	}, false)
	id := tr.Begin("sweep.absorb", root)
	for _, c := range cases {
		agg.Absorb(c)
	}
	tr.End(id)
	absorb := spanOf(tr, id)

	initials := make([]config.Config, len(cases))
	keys := make([]config.Key128, len(cases))
	nodes := make([][]grid.Coord, len(cases))
	for i, c := range cases {
		initials[i] = c.Initial
		keys[i], _ = c.Initial.Key128()
		nodes[i] = c.Initial.Nodes()
	}
	id = tr.Begin("config.decode", root)
	for _, k := range keys {
		if _, err := config.FromKey128(k); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: decode: %v\n", err)
		}
	}
	tr.End(id)
	decode := spanOf(tr, id)
	id = tr.Begin("step.connected", root)
	for _, ns := range nodes {
		step.Connected(ns)
	}
	tr.End(id)
	connected := spanOf(tr, id)

	alg := &timedAlg{inner: core.Memoize(core.Gatherer{}, core.NewMemo())}
	store := memo.NewOutcomes()
	var cycles config.PatternSet
	id = tr.Begin("sim.walk", root)
	for _, c := range initials {
		sim.Run(alg, c, sim.Options{DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles, Outcomes: store})
	}
	tr.End(id)
	walk := spanOf(tr, id)
	per := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	return []metric{
		{"sweep.visit_ns", per(absorb, len(cases)), "ns"},
		{"config.decode_ns", per(decode, len(keys)), "ns"},
		{"step.connected_ns", per(connected, len(nodes)), "ns"},
		{"sim.walk_self_s", (walk - time.Duration(alg.ns.Load())).Seconds(), "s"},
	}
}

func spanOf(tr *Tracer, id int) time.Duration {
	spans := tr.Spans()
	return spans[id-1].Duration()
}

// firstDispatch wraps a sweep source to record when the first pattern
// is dispatched (the end of set-up) and, traced, to span the
// enumeration that Count forces.
type firstDispatch struct {
	sweep.Source
	first    time.Time
	firstCPU float64
	tr       *Tracer
	parent   int
	once     sync.Once
}

func (s *firstDispatch) Count() int {
	s.once.Do(func() {
		id := s.tr.Begin("enumerate", s.parent)
		s.Source.Count()
		s.tr.End(id)
	})
	return s.Source.Count()
}

func (s *firstDispatch) Each(visit func(int, config.Config) bool) {
	s.Source.Each(func(i int, c config.Config) bool {
		if i == 0 {
			s.first, s.firstCPU = time.Now(), cpuSeconds()
		}
		return visit(i, c)
	})
}

// cpuSeconds is the user and system CPU time of this process and of
// every child it has reaped.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
	}
	return total
}

// timedAlg counts and times every view→move decision of the memoized
// algorithm it wraps. Its name and range are the wrapped algorithm's,
// so reports are unchanged.
type timedAlg struct {
	inner core.Memoized
	calls atomic.Int64
	ns    atomic.Int64
}

func (a *timedAlg) Name() string                    { return a.inner.Name() }
func (a *timedAlg) VisibilityRange() int            { return a.inner.VisibilityRange() }
func (a *timedAlg) Compute(v vision.View) core.Move { return a.inner.Compute(v) }

func (a *timedAlg) ComputePacked(pv vision.PackedView) core.Move {
	t := time.Now()
	mv := a.inner.ComputePacked(pv)
	a.ns.Add(int64(time.Since(t)))
	a.calls.Add(1)
	return mv
}

// runtimeSampler measures the share of CPU time the garbage collector
// took and the peak live heap while it runs.
type runtimeSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	peak    float64
	gc0, t0 float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (gc, total, heap float64) {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	r.gc0, r.t0, _ = readRuntime()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			_, _, heap := readRuntime()
			if heap > r.peak {
				r.peak = heap
			}
			select {
			case <-tick.C:
			case <-r.stopc:
				return
			}
		}
	}()
	return r
}

// stop ends sampling and returns the GC CPU share and the peak heap in
// MB. The CPU classes are only refreshed at GC time, so a run with no
// GC cycle reads 0.
func (r *runtimeSampler) stop() (gcFrac, heapPeakMB float64) {
	close(r.stopc)
	<-r.done
	runtime.GC()
	gc, total, _ := readRuntime()
	return ratio(gc-r.gc0, total-r.t0), r.peak / (1 << 20)
}
