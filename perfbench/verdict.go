package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
)

// mixParams sizes verdict-mix. The miss stream carries novel n = 9
// keys, each a live FSYNC + SSYNC + adversary solve, plus repeats of
// keys already solved; novel is sized so that the p95 of novel-miss
// latency has at least ten samples beyond it.
type mixParams struct {
	setupReps int           // daemon starts timed for setup_s
	window    time.Duration // the mixed phase
	hitRate   float64       // table hits per second, one connection
	novel     int           // novel misses in the window
	repeatGap int           // every repeatGap-th miss repeats a solved key
	ladder    []float64     // hit rates of the capacity ladder
	rung      time.Duration // how long each ladder rate runs
	hitP99    time.Duration // the latency limit of the ladder
}

var (
	fullMix = mixParams{
		setupReps: 15, hitRate: 1000, novel: 320, repeatGap: 5,
		ladder: []float64{2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000},
		hitP99: 5 * time.Millisecond,
	}
	smokeMix = mixParams{
		setupReps: 2, window: 1 * time.Second, hitRate: 200, novel: 12, repeatGap: 4,
		ladder: []float64{200, 400}, rung: 300 * time.Millisecond, hitP99: 50 * time.Millisecond,
	}
)

// missKind tells a novel miss (the daemon must solve it) from a repeat
// (the daemon must answer from its store).
type missKind uint8

const (
	novelMiss missKind = iota
	repeatMiss
)

// mixInputs are the generated keys: table-covered hits and the miss
// stream, both drawn from the seed.
type mixInputs struct {
	hits   []config.Config
	misses []config.Config
	kinds  []missKind
	novel  []config.Config // the distinct novel keys, in send order
	// more are two further samples of the n = 9 space, interleaved with
	// novel, that only the in-process solve passes use.
	more [2][]config.Config
}

func makeMixInputs(p mixParams, seed int64) mixInputs {
	rng := rand.New(rand.NewSource(seed))
	var in mixInputs
	nHits := int(p.hitRate * p.window.Seconds())
	for i := 0; i < nHits; i++ {
		k, _ := serve.TableEntry(rng.Intn(serve.TableLen()))
		c, _ := config.FromKey128(k)
		in.hits = append(in.hits, c)
	}
	// Novel keys are a systematic sample of the n = 9 space — every
	// stride-th key in canonical order from a seeded offset — sent in a
	// seeded order. Solve cost is heavy-tailed across patterns; an
	// evenly spread sample keeps its median from swinging with the
	// seed as much as a simple random sample does.
	keys9 := enumerate.Keys(9)
	offset, stride := rng.Intn(len(keys9)), len(keys9)/p.novel
	order := rng.Perm(p.novel)
	for len(in.novel) < p.novel {
		if len(in.misses)%p.repeatGap == p.repeatGap-1 && len(in.novel) > 0 {
			in.misses = append(in.misses, in.novel[rng.Intn(len(in.novel))])
			in.kinds = append(in.kinds, repeatMiss)
			continue
		}
		c, _ := config.FromKey128(keys9[(offset+order[len(in.novel)]*stride)%len(keys9)])
		in.novel = append(in.novel, c)
		in.misses = append(in.misses, c)
		in.kinds = append(in.kinds, novelMiss)
	}
	for i := range in.more {
		shift := offset + (i+1)*stride/3
		for _, j := range order {
			c, _ := config.FromKey128(keys9[(shift+j*stride)%len(keys9)])
			in.more[i] = append(in.more[i], c)
		}
	}
	return in
}

func verdictURL(addr string, c config.Config) string {
	return "http://" + addr + "/verdict?key=" + strings.ReplaceAll(c.Key(), ";", ":")
}

// expected is the response verdictd must give for a record, built the
// way its handler documents the schema.
func expected(c config.Config, rec serve.Record, src serve.Source, schedules int) serve.VerdictResponse {
	r := serve.VerdictResponse{Key: c.Key(), N: c.Len(), Algorithm: "full", Source: src.String()}
	r.FSYNC.Status = rec.FSYNCStatus().String()
	r.FSYNC.Rounds = rec.FSYNCRounds()
	r.FSYNC.Moves = rec.FSYNCMoves()
	r.SSYNC.Robust = rec.Robust()
	r.SSYNC.Schedules = schedules
	r.Adversary.Verdict = rec.Adversary().String()
	if rec.Adversary() == serve.AdvDefeatable {
		r.Adversary.Witness = rec.WitnessKind().String()
		r.Adversary.Depth = rec.WitnessDepth()
	}
	return r
}

// checkResponse counts one request into res and reports whether the
// daemon answered exactly want.
func checkResponse(res *result, what string, out response, want serve.VerdictResponse) bool {
	res.Attempted++
	if out.err != nil || out.status != http.StatusOK {
		res.fail(1, "%s %s: status %d, %v", what, want.Key, out.status, out.err)
		return false
	}
	var got serve.VerdictResponse
	if err := json.Unmarshal(out.body, &got); err != nil {
		res.fail(1, "%s %s: %v", what, want.Key, err)
		return false
	}
	if got != want {
		res.fail(1, "%s %s: got %+v, want %+v", what, want.Key, got, want)
		return false
	}
	return true
}

// daemon is one running verdictd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// startDaemon execs verdictd on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{addr: addr}
	d.cmd = exec.Command(filepath.Join(bin, "verdictd"), "-addr", addr)
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &http.Client{Timeout: time.Second}
	for {
		if resp, err := c.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("verdictd not healthy after 20s: %s", d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// usage is what a stopped daemon cost over its life.
type usage struct {
	rssMB float64 // peak resident set
	cpuS  float64 // user + system CPU time
}

// stop sends SIGTERM, waits for the drain, and returns the daemon's
// peak RSS and CPU time. The peak is read from /proc before the signal:
// wait4's figure also counts this process's own peak RSS at the fork,
// because a child started with vfork reports it as its own.
func (d *daemon) stop() (usage, error) {
	rss := vmHWM(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	timer.Stop()
	ps := d.cmd.ProcessState
	u := usage{rssMB: rss, cpuS: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if u.rssMB == 0 {
		u.rssMB = float64(ps.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	}
	// verdictd answers /healthz before it installs its SIGTERM handler,
	// so a daemon stopped right after start-up dies of the signal
	// instead of draining. With no request in flight that is a clean
	// stop too.
	ws, _ := ps.Sys().(syscall.WaitStatus)
	if err != nil && !(ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return u, fmt.Errorf("verdictd: %v: %s", err, d.stderr.String())
	}
	return u, nil
}

// vmHWM is a live process's own peak RSS in MB, or 0 when
// /proc/PID/status cannot be read.
func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// onFreshDaemon starts a verdictd, runs f against it and stops it.
func onFreshDaemon(bin string, f func(*daemon) error) (usage, error) {
	d, _, err := startDaemon(bin)
	if err != nil {
		return usage{}, err
	}
	ferr := f(d)
	u, err := d.stop()
	if ferr != nil {
		return u, ferr
	}
	return u, err
}

// counter reads one series of the daemon's /metrics page.
func (d *daemon) counter(name string) (float64, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok && k == name {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// phase is the outcome of the mixed window on one daemon.
type phase struct {
	hitUS, novelMS, repeatMS []float64
	lateness                 []float64
	missOut                  []response
}

// mixedPhase drives the hit and miss streams together for the window:
// hits at a fixed rate on connection 0, the miss stream spread evenly
// over the window on connection 1. Hit responses are checked against
// the table here; miss responses are returned for the reference check.
func mixedPhase(d *daemon, p mixParams, in mixInputs, res *result, tr *Tracer, parent int) phase {
	clients := []*http.Client{newClient(), newClient()}
	warm := []request{{conn: 0, url: verdictURL(d.addr, in.hits[0]), due: time.Now()}, {conn: 1, url: verdictURL(d.addr, in.hits[1]), due: time.Now()}}
	for i, out := range openLoop(clients, warm) {
		rec, _ := serve.TableLookup(key128(in.hits[i]))
		checkResponse(res, "warm-up hit", out, expected(in.hits[i], rec, serve.SourceTable, serve.TableSchedules))
	}

	start := time.Now().Add(50 * time.Millisecond)
	hitDue := schedule(start, p.hitRate, len(in.hits))
	missDue := schedule(start, float64(len(in.misses))/p.window.Seconds(), len(in.misses))
	reqs := make([]request, 0, len(in.hits)+len(in.misses))
	hitIdx, missIdx := make([]int, 0, len(in.hits)), make([]int, 0, len(in.misses))
	for i, j := 0, 0; i < len(hitDue) || j < len(missDue); {
		if j == len(missDue) || (i < len(hitDue) && hitDue[i].Before(missDue[j])) {
			hitIdx = append(hitIdx, len(reqs))
			reqs = append(reqs, request{conn: 0, url: verdictURL(d.addr, in.hits[i]), due: hitDue[i]})
			i++
		} else {
			missIdx = append(missIdx, len(reqs))
			reqs = append(reqs, request{conn: 1, url: verdictURL(d.addr, in.misses[j]), due: missDue[j]})
			j++
		}
	}
	out := openLoop(clients, reqs)
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	var ph phase
	ph.lateness = latenessUS(reqs, out)
	lat := latencyUS(reqs, out)
	for i, k := range hitIdx {
		rec, _ := serve.TableLookup(key128(in.hits[i]))
		checkResponse(res, "hit", out[k], expected(in.hits[i], rec, serve.SourceTable, serve.TableSchedules))
		ph.hitUS = append(ph.hitUS, lat[k])
		tr.Add("http.hit", parent, reqs[k].due, out[k].done)
	}
	for j, k := range missIdx {
		ms := lat[k] / 1e3
		if in.kinds[j] == novelMiss {
			ph.novelMS = append(ph.novelMS, ms)
		} else {
			ph.repeatMS = append(ph.repeatMS, ms)
		}
		ph.missOut = append(ph.missOut, out[k])
		tr.Add("http.miss", parent, reqs[k].due, out[k].done)
	}
	return ph
}

func key128(c config.Config) config.Key128 {
	k, _ := c.Key128()
	return k
}

// rungResult is one rate of the capacity ladder.
type rungResult struct {
	rate, achieved, p99US float64
	latenessGrowthUS      float64
	requests              int
	pass                  bool
}

// ladder offers table hits alone at each rate in turn and records
// whether hit p99 (from the due time) stays within the limit and the
// generator keeps its schedule.
func ladder(d *daemon, p mixParams, in mixInputs, res *result) []rungResult {
	var out []rungResult
	client := []*http.Client{newClient()}
	for _, rate := range p.ladder {
		n := int(rate * p.rung.Seconds())
		due := schedule(time.Now().Add(20*time.Millisecond), rate, n)
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = request{url: verdictURL(d.addr, in.hits[i%len(in.hits)]), due: due[i]}
		}
		resp := openLoop(client, reqs)
		for i := range reqs {
			c := in.hits[i%len(in.hits)]
			rec, _ := serve.TableLookup(key128(c))
			checkResponse(res, "ladder hit", resp[i], expected(c, rec, serve.SourceTable, serve.TableSchedules))
		}
		lat, late := latencyUS(reqs, resp), latenessUS(reqs, resp)
		q := n / 4
		r := rungResult{
			rate:             rate,
			achieved:         float64(n) / resp[n-1].done.Sub(due[0]).Seconds(),
			p99US:            windowedP99(lat),
			latenessGrowthUS: median(late[n-q:]) - median(late[:q]),
			requests:         n,
		}
		r.pass = r.p99US <= float64(p.hitP99.Microseconds()) && r.latenessGrowthUS <= float64(spinWindow.Microseconds())
		out = append(out, r)
	}
	client[0].CloseIdleConnections()
	return out
}

// windowedP99 is the p99 figure of a stream of latencies in send order:
// the median of the p99s of consecutive windows of at least 1000
// requests (so each window's p99 has ten samples beyond it), at most
// eight windows. One scheduling hiccup of the host then decides one
// window, not the figure.
func windowedP99(lat []float64) float64 {
	k := min(len(lat)/1000, 8)
	if k < 2 {
		return quantile(lat, 0.99)
	}
	w := len(lat) / k
	p99s := make([]float64, k)
	for i := range p99s {
		p99s[i] = quantile(lat[i*w:(i+1)*w], 0.99)
	}
	return median(p99s)
}

// sloRate is the highest hit rate meeting the limit: from the highest
// passing rung it interpolates log p99 linearly in the rate up to the
// next rung; when every rung passes it is the top rung's achieved rate,
// and when none does it scales the first rung down.
func sloRate(rungs []rungResult, limitUS float64) float64 {
	best := -1
	for k, r := range rungs {
		if r.pass {
			best = k
		}
	}
	switch {
	case best < 0:
		return rungs[0].achieved * math.Min(1, limitUS/rungs[0].p99US)
	case best == len(rungs)-1:
		return rungs[best].achieved
	}
	lo, hi := rungs[best], rungs[best+1]
	if hi.p99US <= limitUS {
		return lo.achieved // the next rung failed on lateness, not latency
	}
	f := (math.Log(limitUS) - math.Log(lo.p99US)) / (math.Log(hi.p99US) - math.Log(lo.p99US))
	return lo.achieved + f*(hi.achieved-lo.achieved)
}

// runVerdictMix drives live verdictd processes, each started fresh:
// setupReps unloaded starts for setup_s (their CPU at exit is the
// start-up cost), the mixed phase on one daemon, and — untraced — the
// hit ladder on another, whose CPU less start-up is what the hits
// cost. Every miss answer is then checked against an in-process
// reference solve of the same keys in the same order, which also
// measures each solve's CPU time. Traced, the mixed phase records its
// requests as spans, the ladder is skipped, and direct calls into
// serve, adversary, sched and sim with the same keys follow.
func runVerdictMix(o options) (*result, error) {
	p := fullMix
	if o.smoke {
		p = smokeMix
	} else {
		// The measured phases fill --seconds: about a third for the
		// mixed window, half for the ladder.
		s := time.Duration(o.seconds) * time.Second
		p.window = s * 35 / 100
		p.rung = s * 45 / 100 / time.Duration(len(p.ladder))
	}
	in := makeMixInputs(p, o.seed)
	res := &result{}
	// Untraced, the CPU figures are scaled by calibrations taken
	// between the phases, while no daemon runs.
	var cal *calibrator
	calSample := func() {}
	if !o.trace {
		cal = &calibrator{}
		calSample = cal.sample
	}
	calSample()

	var setups, startCPU []float64
	for i := 0; i < p.setupReps; i++ {
		d, took, err := startDaemon(o.bin)
		if err != nil {
			return nil, err
		}
		u, err := d.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		startCPU = append(startCPU, u.cpuS)
	}
	var tr *Tracer
	if o.trace {
		tr = &Tracer{}
	}
	root := tr.Begin("verdict-mix", 0)
	calSample()
	var ph phase
	var solves, cached float64
	mixed, err := onFreshDaemon(o.bin, func(d *daemon) error {
		id := tr.Begin("mixed", root)
		ph = mixedPhase(d, p, in, res, tr, id)
		tr.End(id)
		if !o.trace {
			return nil
		}
		var err error
		if solves, err = d.counter("verdictd_solves_total"); err != nil {
			return err
		}
		cached, err = d.counter("verdictd_cached_total")
		return err
	})
	if err != nil {
		return nil, err
	}
	calSample()

	var rungs []rungResult
	var cpuPerHit float64
	if !o.trace {
		var ladderU usage
		ladderU, err = onFreshDaemon(o.bin, func(d *daemon) error {
			rungs = ladder(d, p, in, res)
			return nil
		})
		var hits int
		for _, r := range rungs {
			hits += r.requests
		}
		cpuPerHit = (ladderU.cpuS - median(startCPU)) / float64(hits) * 1e6
	}
	if err != nil {
		return nil, err
	}
	calSample()

	// Reference: an in-process Service solves the same keys in the same
	// order; every miss answer must match it. The solves run on one
	// locked OS thread so each one's CPU time can be read off it.
	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		return nil, err
	}
	ref := tr.Begin("serve.reference", root)
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	var solveMS, solveCPUMS []float64
	want := map[string]serve.VerdictResponse{}
	runtime.LockOSThread()
	for _, c := range in.novel {
		t, c0 := time.Now(), threadCPU()
		rec, src, err := svc.Verdict(context.Background(), "", c)
		solveCPUMS = append(solveCPUMS, (threadCPU()-c0)*1e3)
		solveMS = append(solveMS, float64(time.Since(t))/1e6)
		tr.Add("serve.solve", ref, t, time.Now())
		if err != nil {
			runtime.UnlockOSThread()
			return nil, fmt.Errorf("reference solve %s: %v", c.Key(), err)
		}
		want[c.Key()] = expected(c, rec, src, svc.Schedules(src))
	}
	runtime.UnlockOSThread()
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	tr.End(ref)
	checkMisses := func(ph phase) {
		for j, out := range ph.missOut {
			w := want[in.misses[j].Key()]
			if in.kinds[j] == repeatMiss {
				w.Source = serve.SourceCached.String()
			}
			checkResponse(res, "miss", out, w)
		}
	}
	checkMisses(ph)

	// Untraced, two more passes follow, each over another sample of the
	// n = 9 space on a fresh Service: the median of 320 keys still
	// moves with the seed. The solve figure is the median over all
	// three passes' solves, each scaled by the calibrations on either
	// side of its pass. Calibrations 0–3 were taken before the set-up
	// starts, the mixed phase, the ladder and the first pass.
	var scaledSolves []float64
	if !o.trace {
		calSample()
		for _, ms := range solveCPUMS {
			scaledSolves = append(scaledSolves, ms*cal.between(3, 4))
		}
		for i, keys := range in.more {
			cpu, err := solveCPU(keys)
			if err != nil {
				return nil, err
			}
			calSample()
			for _, ms := range cpu {
				scaledSolves = append(scaledSolves, ms*cal.between(4+i, 5+i))
			}
		}
	}

	res.Report = []metric{
		{"setup_wall_s", median(setups), "s"},
		{"peak_rss_mb", mixed.rssMB, "MB"},
		{"hit_p50_us", median(ph.hitUS), "us"},
		{"hit_p99_us", quantile(ph.hitUS, 0.99), "us"},
		{"miss_p50_ms", median(ph.novelMS), "ms"},
		{"miss_p95_ms", quantile(ph.novelMS, 0.95), "ms"},
		{"repeat_p50_ms", median(ph.repeatMS), "ms"},
		{"gen_lateness_p99_us", quantile(ph.lateness, 0.99), "us"},
		{"hit_samples", float64(len(ph.hitUS)), "count"},
		{"novel_miss_samples", float64(len(ph.novelMS)), "count"},
	}
	if !o.trace {
		slo := sloRate(rungs, float64(p.hitP99.Microseconds()))
		for _, r := range rungs {
			fmt.Printf("rung %6.0f/s offered %9.1f/s achieved p99 %8.1fus lateness growth %7.1fus pass %v\n",
				r.rate, r.achieved, r.p99US, r.latenessGrowthUS, r.pass)
		}
		if cal.err != nil {
			return nil, cal.err
		}
		res.Report = append(res.Report,
			metric{"slo_rps", slo, "1/s"},
			metric{"error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
			metric{"calibration_cpu_s", median(cal.samples), "s"},
			metric{"setup_cpu_raw_s", median(startCPU), "s"},
			metric{"cpu_us_per_op_raw", cpuPerHit, "us"},
			metric{"cpu_ms_per_job_raw", median(solveCPUMS), "ms"})
		res.Metrics = []metric{
			{"setup_s", median(startCPU) * cal.between(0, 1), "s"},
			{"peak_rss_mb", mixed.rssMB, "MB"},
			{"cpu_us_per_op", cpuPerHit * cal.between(2, 3), "us"},
			{"cpu_ms_per_job", median(scaledSolves), "ms"},
		}
		return res, nil
	}

	res.Report = append(res.Report, metric{"error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio"})
	res.Metrics = append(serveLayers(tr, root, svc, in), []metric{
		{"serve.solve_ms_p50", median(solveMS), "ms"},
		{"serve.solve_ms_p95", quantile(solveMS, 0.95), "ms"},
		{"serve.solves_per_novel_key", ratio(solves, float64(len(in.novel))), "ratio"},
		{"serve.cached", cached, "count"},
		{"serve.heap_growth_kb_per_miss", ratio(float64(int64(heap1.HeapAlloc)-int64(heap0.HeapAlloc))/1024, float64(len(in.novel))), "KB"},
		{"gen.lateness_p99_us", quantile(ph.lateness, 0.99), "us"},
	}...)
	for _, m := range res.Metrics {
		if m.Name == "serve.verdict_hit_ns" {
			res.Metrics = append(res.Metrics, metric{"serve.http_hit_overhead_us", median(ph.hitUS) - m.Value/1e3, "us"})
		}
	}
	tr.End(root)
	if err := writeTrace(tr, o.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// solveCPU solves the keys in order on a fresh Service, on one locked
// OS thread, and returns each solve's CPU time in ms.
func solveCPU(keys []config.Config) ([]float64, error) {
	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ms := make([]float64, len(keys))
	for i, c := range keys {
		c0 := threadCPU()
		if _, _, err := svc.Verdict(context.Background(), "", c); err != nil {
			return nil, fmt.Errorf("solve %s: %v", c.Key(), err)
		}
		ms[i] = (threadCPU() - c0) * 1e3
	}
	return ms, nil
}

// tracingOverhead is what tracing adds where it touches the program's
// code path on this workload: the decision-timing wrapper. It runs the
// FSYNC solves of the novel keys with and without the wrapper, each
// time with fresh stores, on one locked OS thread, and returns the
// median over three alternating pairs of wrapped CPU ÷ plain CPU − 1.
// The HTTP phases are not compared: their spans are recorded after the
// requests complete, so they run the same code traced or not.
func tracingOverhead(keys []config.Config, opts sim.Options) float64 {
	run := func(wrap bool) float64 {
		m := core.Memoize(core.Gatherer{}, core.NewMemo())
		var alg core.Algorithm = m
		if wrap {
			alg = &timedAlg{inner: m}
		}
		o := opts
		o.Outcomes = memo.NewOutcomes()
		c0 := threadCPU()
		for _, c := range keys {
			sim.Run(alg, c, o)
		}
		return threadCPU() - c0
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var fracs []float64
	for i := 0; i < 3; i++ {
		plain := run(false)
		fracs = append(fracs, ratio(run(true), plain)-1)
	}
	return median(fracs)
}

// serveLayers times direct calls with the workload's keys: the table
// lookup and the in-process hit path on the hit keys, and on the novel
// keys each engine a live solve runs — the FSYNC run (through the
// decision-timing wrapper), the SSYNC robustness runs and the exact
// adversary decision — each with fresh stores, as a new daemon has.
func serveLayers(tr *Tracer, root int, svc *serve.Service, in mixInputs) []metric {
	const hitCalls = 200000
	keys := make([]config.Key128, len(in.hits))
	for i, c := range in.hits {
		keys[i] = key128(c)
	}
	id := tr.Begin("serve.table_lookup", root)
	for i := 0; i < hitCalls; i++ {
		serve.TableLookup(keys[i%len(keys)])
	}
	tr.End(id)
	lookup := spanOf(tr, id)
	id = tr.Begin("serve.verdict_hit", root)
	ctx := context.Background()
	for i := 0; i < hitCalls; i++ {
		svc.Verdict(ctx, "", in.hits[i%len(in.hits)])
	}
	tr.End(id)
	hit := spanOf(tr, id)

	alg := &timedAlg{inner: core.Memoize(core.Gatherer{}, core.NewMemo())}
	store := memo.NewOutcomes()
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, Outcomes: store}
	id = tr.Begin("sim.fsync_run", root)
	for _, c := range in.novel {
		sim.Run(alg, c, opts)
	}
	tr.End(id)
	fsync := spanOf(tr, id)
	id = tr.Begin("sched.ssync_run", root)
	for _, c := range in.novel {
		for seed := int64(1); seed <= serve.TableSchedules; seed++ {
			sched.Run(alg, c, sched.NewRandomSubset(seed), opts)
		}
	}
	tr.End(id)
	ssync := spanOf(tr, id)
	adv := adversary.New(adversary.Options{Alg: core.Memoize(core.Gatherer{}, core.NewMemo())})
	id = tr.Begin("adversary.decide", root)
	for _, c := range in.novel {
		if _, err := adv.Decide(c); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: decide %s: %v\n", c.Key(), err)
		}
	}
	tr.End(id)
	decide := spanOf(tr, id)

	n := float64(len(in.novel))
	st := store.Stats()
	return []metric{
		{"trace.overhead_frac", tracingOverhead(in.novel, opts), "ratio"},
		{"serve.table_lookup_ns", float64(lookup.Nanoseconds()) / hitCalls, "ns"},
		{"serve.verdict_hit_ns", float64(hit.Nanoseconds()) / hitCalls, "ns"},
		{"sim.fsync_run_us", float64(fsync) / 1e3 / n, "us"},
		{"sched.ssync_run_us", float64(ssync) / 1e3 / (n * serve.TableSchedules), "us"},
		{"adversary.decide_ms", float64(decide) / 1e6 / n, "ms"},
		{"adversary.states", float64(adv.StatesExplored()), "count"},
		{"core.decisions", float64(alg.calls.Load()), "count"},
		{"core.decide_ns", ratio(float64(alg.ns.Load()), float64(alg.calls.Load())), "ns"},
		{"memo.hits", float64(st.Hits), "count"},
		{"memo.misses", float64(st.Misses), "count"},
		{"memo.states", float64(st.Created), "count"},
		{"memo.hit_rate", ratio(float64(st.Hits), float64(st.Lookups())), "ratio"},
	}
}
