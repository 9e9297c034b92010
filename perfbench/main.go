// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload against the real programs (the sweep engine in a fresh
// process, a sweepd fleet, a live verdictd), checks every output, and
// prints every metric by name with its unit. The last line of standard
// output is the machine-readable result.
//
//	perfbench --workload fsync-n10|fleet-n10|verdict-mix --seed N
//	          --seconds S --trace 0|1 --bin DIR [--work DIR]
//	perfbench compare A.out... -- B.out...
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is a separate run that records spans around calls into
// each layer and reports the per-layer metrics instead. run.sh builds
// the programs and this binary from source and passes --bin.
//
// compare reads saved outputs of two sets of runs and prints each
// metric's median per set; it refuses to compare runs whose recorded
// host shapes (GOMAXPROCS, NumCPU, CPU model, Go version) differ.
//
// Exit status: 0 when every output check passed, 1 when one failed
// (the result line still says which counts failed), 2 on usage or
// environment errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produces. Metrics are the figures the
// final line carries; Report adds every other end-to-end figure of the
// workload, wall-clock ones included. Both are printed as "metric"
// lines and kept in the record.
type result struct {
	Attempted int64
	Failed    int64
	Problems  []string
	Metrics   []metric
	Report    []metric
}

func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd are the metrics every workload reports with --trace 0, in
// BENCHMARK.json order. Their meaning per workload is in README.md.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "cpu_us_per_op", Unit: "us"},
	{Name: "cpu_ms_per_job", Unit: "ms"},
}

// perLayer are the metrics every workload reports with --trace 1, in
// BENCHMARK.json order. A layer the workload does not reach reads 0.
var perLayer = []metric{
	{Name: "enumerate.keys_s", Unit: "s"},
	{Name: "enumerate.dedup_hit_rate", Unit: "ratio"},
	{Name: "enumerate.index_load_s", Unit: "s"},
	{Name: "config.decode_ns", Unit: "ns"},
	{Name: "core.decisions", Unit: "count"},
	{Name: "core.decide_ns", Unit: "ns"},
	{Name: "step.connected_ns", Unit: "ns"},
	{Name: "sim.walk_self_s", Unit: "s"},
	{Name: "memo.hits", Unit: "count"},
	{Name: "memo.misses", Unit: "count"},
	{Name: "memo.states", Unit: "count"},
	{Name: "memo.hit_rate", Unit: "ratio"},
	{Name: "sweep.stream_s", Unit: "s"},
	{Name: "sweep.visit_ns", Unit: "ns"},
	{Name: "sweep.pending_high_water", Unit: "count"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio"},
	{Name: "runtime.heap_peak_mb", Unit: "MB"},
	{Name: "dist.shard_s_p50", Unit: "s"},
	{Name: "dist.shard_s_max", Unit: "s"},
	{Name: "dist.worker_imbalance", Unit: "ratio"},
	{Name: "dist.coordinator_idle_frac", Unit: "ratio"},
	{Name: "dist.checkpoint_write_ms", Unit: "ms"},
	{Name: "dist.wire_bytes_per_case", Unit: "B"},
	{Name: "dist.case_encode_ns", Unit: "ns"},
	{Name: "dist.case_decode_ns", Unit: "ns"},
	{Name: "dist.retries", Unit: "count"},
	{Name: "serve.table_lookup_ns", Unit: "ns"},
	{Name: "serve.verdict_hit_ns", Unit: "ns"},
	{Name: "serve.http_hit_overhead_us", Unit: "us"},
	{Name: "serve.solve_ms_p50", Unit: "ms"},
	{Name: "serve.solve_ms_p95", Unit: "ms"},
	{Name: "adversary.decide_ms", Unit: "ms"},
	{Name: "adversary.states", Unit: "count"},
	{Name: "sched.ssync_run_us", Unit: "us"},
	{Name: "sim.fsync_run_us", Unit: "us"},
	{Name: "serve.solves_per_novel_key", Unit: "ratio"},
	{Name: "serve.cached", Unit: "count"},
	{Name: "serve.heap_growth_kb_per_miss", Unit: "KB"},
	{Name: "trace.overhead_frac", Unit: "ratio"},
	{Name: "gen.lateness_p99_us", Unit: "us"},
}

// options are the flags shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the built sweepd and verdictd
	work     string // scratch directory for this run's files
	smoke    bool   // n = 7 sweeps and a short verdict window (tests)
	spans    string // where a traced run writes its spans
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case childSweep:
			os.Exit(runSweepChild(os.Args[2:]))
		case childFleet:
			os.Exit(runFleetChild(os.Args[2:]))
		case childCal:
			os.Exit(runCalChild())
		}
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "fsync-n10, fleet-n10 or verdict-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.bin, "bin", "", "directory holding the built sweepd and verdictd binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for this run (default: a fresh directory under .bench_build)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs: n = 7 sweeps, a short verdict window")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/traces/WORKLOAD-seedN.jsonl)")
	flag.Parse()
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	if flag.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) || o.bin == "" {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o))
}

// run executes one workload and prints its metric lines, the host
// record and the final result line.
func run(o options) int {
	if o.work == "" {
		dir, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		defer os.RemoveAll(dir)
		o.work = dir
	}
	if o.trace {
		if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	var (
		res *result
		err error
	)
	start := time.Now()
	switch o.workload {
	case "fsync-n10":
		res, err = runSweepWorkload(o, childSweep)
	case "fleet-n10":
		res, err = runSweepWorkload(o, childFleet)
	case "verdict-mix":
		res, err = runVerdictMix(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	rec := record{
		Host:     hostShape(),
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		WallS:    time.Since(start).Seconds(),
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), res.Report...), res.Metrics...) {
		if !seen[m.Name] {
			seen[m.Name] = true
			rec.Metrics = append(rec.Metrics, m)
			fmt.Printf("metric %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Printf("record %s\n", line)
	if err := printResult(res, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult writes the final line: exactly the declared metrics of
// the run's kind, in declaration order.
func printResult(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	got := map[string]metric{}
	for _, m := range res.Metrics {
		got[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok && !traced {
			return fmt.Errorf("workload produced no %s", w.Name)
		}
		out.Metrics[w.Name] = value{Value: m.Value, Unit: w.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload attempted nothing")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// record is the self-describing copy of a run's figures, host shape
// included, that compare reads back.
type record struct {
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	WallS    float64  `json:"wall_s"`
	Metrics  []metric `json:"metrics"`
}

// compare prints per-metric medians of two sets of saved outputs and
// their ratio, refusing sets taken on different host shapes.
func compare(args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.out... -- B.out...")
		return 2
	}
	a, err := readRecords(args[:sep])
	if err == nil {
		var b []record
		b, err = readRecords(args[sep+1:])
		if err == nil {
			err = compareRecords(os.Stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	return 0
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "record "); ok {
				var r record
				if err := json.Unmarshal([]byte(rest), &r); err != nil {
					return nil, fmt.Errorf("%s: %v", filepath.Base(p), err)
				}
				out = append(out, r)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%s holds no record line", p)
		}
	}
	return out, nil
}

// compareRecords requires one host shape and one workload across both
// sets, then prints each metric's median per set.
func compareRecords(w *os.File, a, b []record) error {
	all := append(append([]record(nil), a...), b...)
	for _, r := range all[1:] {
		if r.Host != all[0].Host {
			return fmt.Errorf("host shapes differ (%s vs %s): results from different hosts are not comparable; re-measure both sides on one host", all[0].Host, r.Host)
		}
		if r.Workload != all[0].Workload || r.Trace != all[0].Trace || r.Seconds != all[0].Seconds {
			return fmt.Errorf("runs differ in workload, trace mode or run length")
		}
	}
	collect := func(rs []record) map[string][]float64 {
		m := map[string][]float64{}
		for _, r := range rs {
			for _, x := range r.Metrics {
				m[x.Name+" "+x.Unit] = append(m[x.Name+" "+x.Unit], x.Value)
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	names := make([]string, 0, len(ma))
	for k := range ma {
		if _, ok := mb[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "host %s, workload %s, %d vs %d runs\n", all[0].Host, all[0].Workload, len(a), len(b))
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "metric unit", "median A", "median B", "B/A")
	for _, k := range names {
		x, y := median(ma[k]), median(mb[k])
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %9.4f\n", k, x, y, ratio(y, x))
	}
	return nil
}
