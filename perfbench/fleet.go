package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/enumerate"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// fleetWorkers is the fleet size: two `sweepd serve` processes, one
// per CPU of the 2-vCPU hosts this benchmark was sized on.
const fleetWorkers = 2

// runFleetChild is one fleet-n10 repetition: build the pattern index
// (what `enumgen -n N` does) and write it, load it for planning, and
// run a dist coordinator over fleetWorkers `sweepd serve -index`
// processes with a checkpoint written after every shard.
func runFleetChild(args []string) int {
	n, traced, spans, work, bin := childFlags(childFleet, args)
	var tr *Tracer
	if traced {
		tr = &Tracer{}
	}
	root := tr.Begin("fleet", 0)
	t0, t0CPU := time.Now(), cpuSeconds()

	id := tr.Begin("enumerate.index_build", root)
	ix, es := enumerate.BuildIndex(n, 0)
	tr.End(id)
	path := filepath.Join(work, fmt.Sprintf("connected-%d.idx", n))
	id = tr.Begin("index.write", root)
	err := writeIndex(path, ix)
	tr.End(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	set := &sweep.IndexSet{}
	loadStart := time.Now()
	if err := set.Load(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	loadEnd := time.Now()
	tr.Add("enumerate.index_load", root, loadStart, loadEnd)

	backend := &timedBackend{
		inner: &dist.ProcBackend{Argv: []string{filepath.Join(bin, "sweepd"), "serve", "-index", path}, Stderr: os.Stderr},
		keep:  traced,
	}
	reg := metrics.NewRegistry()
	var progMu sync.Mutex
	var progress []time.Time
	opts := dist.Options{
		Spec:           sweep.SpecDesc{N: n},
		Workers:        fleetWorkers,
		Backend:        backend,
		CheckpointPath: filepath.Join(work, "fleet.ckpt"),
		Sources:        set,
		Metrics:        reg,
		Progress: func(dist.Progress) {
			progMu.Lock()
			progress = append(progress, time.Now())
			progMu.Unlock()
		},
	}
	runStart := time.Now()
	report, err := dist.Run(context.Background(), opts)
	end := time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: fleet: %v\n", err)
		return 2
	}
	tr.End(root)
	// The workers have been reaped when Run returns, so their CPU time
	// is in this process's children total. Set-up ends when the last
	// worker process has been started; each worker's own index load
	// follows and is counted in the sweep's CPU.
	ready, readyCPU := backend.lastStarted()
	rep := repResult{
		SetupS:   ready.Sub(t0).Seconds(),
		SetupCPU: readyCPU - t0CPU,
		SweepS:   end.Sub(ready).Seconds(),
		CPUS:     cpuSeconds() - readyCPU,
		Patterns: report.Patterns,
		Problems: checkReport(report, n),
	}
	if traced {
		runSpan := tr.Add("dist.run", root, runStart, end)
		rep.Layers = fleetLayers(tr, runSpan, backend, reg, progress, runStart, end)
		rep.Layers = append(rep.Layers,
			metric{"enumerate.keys_s", float64(es.DurationUS) / 1e6, "s"},
			metric{"enumerate.dedup_hit_rate", es.DedupHitRate(), "ratio"},
			metric{"enumerate.index_load_s", loadEnd.Sub(loadStart).Seconds(), "s"},
		)
		if err := writeTrace(tr, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	return emit(rep)
}

// writeIndex writes the index through a temporary file and a rename,
// as cmd/enumgen does, so a worker never loads a half-written file.
func writeIndex(path string, ix *enumerate.Index) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".index-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := ix.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// fleetLayers derives the dist metrics of a traced fleet repetition:
// shard latencies and per-worker busy time as the coordinator saw
// them, its own idle share, the checkpoint and retry series of its
// registry, the fleet-wide memo counters, and the wire codec timed by
// direct calls over the cases the workers actually sent.
func fleetLayers(tr *Tracer, runSpan int, b *timedBackend, reg *metrics.Registry, progress []time.Time, runStart, end time.Time) []metric {
	var shardS []float64
	busy := map[int]float64{}
	var returned []time.Time
	var cases []dist.Case
	for _, r := range b.runs {
		d := r.end.Sub(r.start).Seconds()
		tr.Add(fmt.Sprintf("dist.shard[w%d]", r.worker), runSpan, r.start, r.end)
		shardS = append(shardS, d)
		busy[r.worker] += d
		returned = append(returned, r.end)
		if r.res != nil {
			cases = append(cases, r.res.Cases...)
		}
	}
	var busiest, total float64
	for _, v := range busy {
		total += v
		if v > busiest {
			busiest = v
		}
	}
	// The coordinator absorbs shards one at a time in arrival order;
	// absorbing shard k (and writing its checkpoint) runs from the later
	// of its arrival and the previous absorption's end to its progress
	// callback. Everything else is waiting for workers.
	sort.Slice(returned, func(i, j int) bool { return returned[i].Before(returned[j]) })
	var absorb time.Duration
	prev := runStart
	for k, p := range progress {
		from := prev
		if k < len(returned) && returned[k].After(from) {
			from = returned[k]
		}
		if p.After(from) {
			absorb += p.Sub(from)
		}
		prev = p
	}
	wall := end.Sub(runStart)

	ck := reg.Histogram("dist_checkpoint_write_us")
	hits := float64(reg.Counter("dist_fleet_memo_hits_total").Value())
	misses := float64(reg.Counter("dist_fleet_memo_misses_total").Value())
	enc, dec, bytesPerCase := wireCodec(cases)
	return []metric{
		{"dist.shard_s_p50", median(shardS), "s"},
		{"dist.shard_s_max", quantile(shardS, 1), "s"},
		{"dist.worker_imbalance", ratio(busiest, total/float64(len(busy))), "ratio"},
		{"dist.coordinator_idle_frac", 1 - ratio(float64(absorb), float64(wall)), "ratio"},
		{"dist.checkpoint_write_ms", ratio(float64(ck.Sum()), float64(ck.N())) / 1e3, "ms"},
		{"dist.wire_bytes_per_case", bytesPerCase, "B"},
		{"dist.case_encode_ns", enc, "ns"},
		{"dist.case_decode_ns", dec, "ns"},
		{"dist.retries", float64(reg.Counter("dist_retries_total").Value()), "count"},
		{"memo.hits", hits, "count"},
		{"memo.misses", misses, "count"},
		{"memo.states", float64(reg.Counter("dist_fleet_memo_states_total").Value()), "count"},
		{"memo.hit_rate", ratio(hits, hits+misses), "ratio"},
	}
}

// wireCodec times the dist wire codec on the given cases: encoding a
// case as the JSON line a worker writes, and decoding it the way the
// coordinator does (record probe, case, engine result). It returns
// ns per encode, ns per decode and bytes per encoded line.
func wireCodec(cases []dist.Case) (encNS, decNS, bytesPer float64) {
	if len(cases) == 0 {
		return 0, 0, 0
	}
	lines := make([][]byte, len(cases))
	var total int
	t := time.Now()
	for i, c := range cases {
		b, err := json.Marshal(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: encode: %v\n", err)
		}
		lines[i] = b
		total += len(b) + 1 // the encoder's newline
	}
	encNS = float64(time.Since(t).Nanoseconds()) / float64(len(cases))
	t = time.Now()
	for _, l := range lines {
		var p struct {
			Schema int  `json:"schema"`
			EOF    bool `json:"eof"`
		}
		var c dist.Case
		if json.Unmarshal(l, &p) != nil || json.Unmarshal(l, &c) != nil {
			fmt.Fprintln(os.Stderr, "perfbench: decode failed")
			continue
		}
		if _, err := c.Result(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: decode: %v\n", err)
		}
	}
	decNS = float64(time.Since(t).Nanoseconds()) / float64(len(cases))
	return encNS, decNS, float64(total) / float64(len(cases))
}

// timedBackend wraps a dist backend to time worker starts and every
// shard a worker runs, as the coordinator sees them. With keep set it
// also retains the shard results for the wire-codec replay.
type timedBackend struct {
	inner dist.Backend
	keep  bool

	mu         sync.Mutex
	workers    int
	started    time.Time
	startedCPU float64
	runs       []shardRun
}

type shardRun struct {
	worker     int
	start, end time.Time
	res        *dist.ShardResult
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Start(ctx context.Context) (dist.Worker, error) {
	w, err := b.inner.Start(ctx)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.workers++
	if b.workers <= fleetWorkers {
		// A replacement after a crash is not set-up.
		b.started, b.startedCPU = time.Now(), cpuSeconds()
	}
	return &timedWorker{inner: w, id: b.workers, b: b}, nil
}

// lastStarted is when the last worker process had been started, and
// the CPU time used by then.
func (b *timedBackend) lastStarted() (time.Time, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started, b.startedCPU
}

type timedWorker struct {
	inner dist.Worker
	id    int
	b     *timedBackend
}

func (w *timedWorker) Run(ctx context.Context, u dist.WorkUnit) (*dist.ShardResult, error) {
	start := time.Now()
	res, err := w.inner.Run(ctx, u)
	r := shardRun{worker: w.id, start: start, end: time.Now()}
	if w.b.keep && err == nil {
		r.res = res
	}
	w.b.mu.Lock()
	w.b.runs = append(w.b.runs, r)
	w.b.mu.Unlock()
	return res, err
}

func (w *timedWorker) Close() error { return w.inner.Close() }
