// Command qaload is the repository's end-to-end benchmark: it boots the
// prebuilt qaserve binary as a subprocess with default flags, drives it
// over loopback HTTP with a seeded closed-loop question stream, checks
// every reply against an in-process oracle, and prints every metric by
// name with its unit. bench/README.md documents the workloads, the
// metrics and why each was chosen; bench/run.sh is the entry point that
// builds both binaries first.
//
// Usage:
//
//	qaload -qaserve bin -out dir [-workload name|all] [-seed n]
//	       [-seconds s] [-trace 0|1] [-aa n] [-spec BENCHMARK.json]
//
// With one workload the last line of standard output is the contract's
// JSON object: the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). With -workload all (the default) every workload
// runs untraced, then traced, and the summary is written to
// <out>/result.json. With -aa n the untraced set runs n times on the
// same binary and the run-to-run spread of every end-to-end metric is
// held against its bound in the spec.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/kb"
)

// metricDef names one metric and its unit; the two catalogues below are
// the single place metric names are spelled, and must agree with
// BENCHMARK.json (TestCatalogueMatchesSpec).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_question", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"qaserve.overhead_ms", "ms"},
	{"qaserve.reject_ratio", "ratio"},
	{"qaload.client_cpu_ms_per_op", "ms"},
	{"qaload.speed_factor", "ratio"},
	{"qaload.raw_throughput_qps", "1/s"},
	{"qaload.raw_latency_p50_ms", "ms"},
	{"qaload.latency_p99_ms", "ms"},
	{"qaload.raw_latency_p99_ms", "ms"},
	{"qaload.raw_cpu_ms_per_q", "ms"},
	{"qaload.throughput_mean_qps", "1/s"},
	{"qaload.error_ratio", "ratio"},
	{"qaload.trace_overhead_ratio", "ratio"},
	{"qacache.hit_ratio", "ratio"},
	{"qacache.lookup_us", "us"},
	{"triplex.ms", "ms"},
	{"triplex.patterns_per_q", "count"},
	{"propmap.ms", "ms"},
	{"propmap.candidates_per_q", "count"},
	{"answer.ms", "ms"},
	{"answer.candidates_per_q", "count"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.result_hit_ratio", "ratio"},
	{"sparql.parse_us", "us"},
	{"sparql.exec_us", "us"},
	{"sparql.rank_sorts_per_q", "count"},
	{"store.scan_us", "us"},
	{"store.apply_batch_us", "us"},
	{"store.term_ranks_us", "us"},
	{"store.gen_per_s", "1/s"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_triple", "B"},
	{"wal.compact_ms", "ms"},
	{"wal.compactions", "count"},
	{"wal.recover_ms", "ms"},
	{"update.throughput_ups", "1/s"},
	{"update.latency_p50_ms", "ms"},
	{"update.latency_p99_ms", "ms"},
	{"shard.gather_ms", "ms"},
	{"shard.calls_per_q", "count"},
	{"shard.hedge_ratio", "ratio"},
	{"shard.retry_ratio", "ratio"},
	{"shard.partition_ms", "ms"},
	{"kb.build_ms", "ms"},
	{"patterns.mine_ms", "ms"},
	{"core.boot_ms", "ms"},
	{"host.nproc", "count"},
	{"host.steal_ratio", "ratio"},
	{"host.calib_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result object for one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func project(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// config is what the flags fix for every run of one invocation.
type config struct {
	qaserve string // prebuilt server binary
	outDir  string // span files, result.json, and the update_mix data dir
	seconds int    // measured phase length
	clients int    // closed-loop readers: min(nproc, 4)
}

// coldBoots is how many times a run boots the server from nothing;
// setup_s takes the median, and the last boot serves the run.
const coldBoots = 5

// minWindowSamples is the fewest replies a one-second window needs for
// its tail percentiles to have samples beyond them.
const minWindowSamples = 200

// referenceClientCPUms is the CPU time this load generator spends per
// operation (question or update) on the reference machine. The load
// generator is the same program on every commit, it executes in
// lock-step with the server on the same cores, and its per-operation
// cost rises and falls with the server's when the host slows down
// (noisy neighbours, steal) — in scratch runs the ratio of the two held
// within 2–3% while each moved 15–25%. So a run's measured client cost
// over this reference is the run's speed factor, and dividing the
// timings by it takes the host's mood out of them. The constants only
// fix the scale (a run at reference speed reads the same normalised as
// raw); the cold streams share one so their figures stay comparable.
var referenceClientCPUms = map[string]float64{
	"qald_hot":    0.10,
	"entity_cold": 0.20,
	"update_mix":  0.19,
	"shard4_cold": 0.20,
}

// outcome is everything one run of one workload measured.
type outcome struct {
	workload  string
	attempted int
	failed    int
	errs      []error            // why the run is not correct, if it is not
	values    map[string]float64 // every metric the run produced, by name
	samples   int                // latency sample count
}

func (o *outcome) fail(err error) { o.errs = append(o.errs, err) }

func (o *outcome) report(trace bool) report {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	return report{Correct: len(o.errs) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: project(defs, o.values)}
}

// counters is one sample of everything the benchmark reads from outside
// the server at a phase boundary.
type counters struct {
	metrics              map[string]float64 // /metrics samples by full name
	generation           uint64             // /healthz
	serverCPU, clientCPU float64            // seconds of user+system time so far
	hostTotal, hostSteal float64            // /proc/stat jiffies
	hits                 int64              // replies the answer cache served
}

func sample(srv *server, a *asker) (c counters, err error) {
	if c.metrics, err = srv.scrape(); err != nil {
		return c, err
	}
	h, err := srv.health()
	if err != nil {
		return c, err
	}
	c.generation = h.Generation
	if c.serverCPU, err = srv.cpuSeconds(); err != nil {
		return c, err
	}
	if c.clientCPU, err = procCPUSeconds(os.Getpid()); err != nil {
		return c, err
	}
	if c.hostTotal, c.hostSteal, err = hostCPU(); err != nil {
		return c, err
	}
	c.hits = a.hits.Load()
	return c, nil
}

// phase is what one measured interval observed from outside the server.
type phase struct {
	reads         tally
	writes        tally // zero unless the workload has a writer
	before, after counters
	segments      int // snapshot segments that appeared in the data dir
	traced        []tracedRequest
}

// delta is the growth over the phase of every /metrics sample whose name
// starts with prefix (all label values of one counter family).
func (p *phase) delta(prefix string) float64 {
	return sumPrefix(p.after.metrics, prefix) - sumPrefix(p.before.metrics, prefix)
}

// measure runs the workload's closed loops for dur and samples the
// counters around it. Compilation, boot and warm-up are all behind it.
func measure(ctx context.Context, srv *server, a *asker, u *updater, readers int, dataDir string, dur time.Duration, trace bool) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = sample(srv, a); err != nil {
		return nil, err
	}
	a.trace, a.traced = trace, nil

	var wg sync.WaitGroup
	stopWatch := make(chan struct{})
	if u != nil {
		wg.Add(2)
		go func() { defer wg.Done(); p.writes = u.run(ctx, dur) }()
		go func() { defer wg.Done(); p.segments = watchSegments(dataDir, stopWatch) }()
	}
	p.reads = a.run(ctx, readers, dur)
	close(stopWatch)
	wg.Wait()

	a.trace = false
	p.traced, a.traced = a.traced, nil
	if p.after, err = sample(srv, a); err != nil {
		return nil, err
	}
	return p, ctx.Err()
}

// watchSegments counts the snapshot segments that appear in the data dir
// until stop closes: each is one completed WAL compaction. It looks at
// file names only, as an operator would.
func watchSegments(dataDir string, stop <-chan struct{}) int {
	list := func() []string {
		names, _ := filepath.Glob(filepath.Join(dataDir, "segment-*.seg"))
		return names
	}
	seen := map[string]bool{}
	for _, n := range list() {
		seen[n] = true
	}
	fresh := 0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return fresh
		case <-tick.C:
			for _, n := range list() {
				if !seen[n] {
					seen[n] = true
					fresh++
				}
			}
		}
	}
}

// seedDataDir boots a server on the fresh dir (which bootstraps the
// built-in KB into it), inserts the pool's "a" state, and kills it: the
// commit was fsynced before it was acknowledged, so the dir now holds
// the state every timed boot recovers.
func seedDataDir(ctx context.Context, cfg config, dataDir string) error {
	srv, _, err := startServer(ctx, cfg.qaserve, "-data-dir", dataDir)
	if err != nil {
		return err
	}
	defer srv.kill()
	u := newUpdater(srv.base, 0)
	defer u.close()
	if _, err := u.postUpdate(poolSeedBody(), new(bytes.Buffer), poolBatches*poolTriples, 0); err != nil {
		return fmt.Errorf("seeding %s: %w", dataDir, err)
	}
	return nil
}

// runWorkload is one run: oracle, cold boots, warm-up, measured phase,
// checks. With trace the measured phase is split into an untraced and a
// traced part (the difference is the tracing overhead), the spans are
// written out, and the in-process probes run afterwards.
func runWorkload(ctx context.Context, cfg config, name string, seed int64, trace bool) (*outcome, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{workload: name, values: map[string]float64{}}
	// lap prints how long each phase of the run took: the time budget
	// of bench/README.md, as measured.
	lapStart := time.Now()
	lap := func(phase string) {
		fmt.Printf("# %s: %-8s %6.2f s\n", name, phase, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}
	sys := oracleSystem()
	expect := oracle(ctx, sys, w.questions)
	calibBefore := calibrate()
	lap("oracle")

	args := w.serverArgs
	dataDir := ""
	if w.durable {
		if dataDir, err = os.MkdirTemp(cfg.outDir, "data-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		if err := seedDataDir(ctx, cfg, dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}

	// Set-up: cold boots of the prebuilt binary, then one pass over the
	// distinct questions (and, with a writer, one cycle of the pool).
	var srv *server
	var boots []float64
	for i := 0; i < coldBoots; i++ {
		if srv != nil {
			srv.kill()
		}
		var boot time.Duration
		if srv, boot, err = startServer(ctx, cfg.qaserve, args...); err != nil {
			return nil, err
		}
		boots = append(boots, boot.Seconds())
	}
	defer func() { srv.kill() }()

	readers := cfg.clients
	var u *updater
	if w.durable {
		readers = 1 // one reader beside one writer
		u = newUpdater(srv.base, seed)
		defer u.close()
	}
	a := newAsker(srv.base, readers, w.questions, expect)
	defer a.close()

	lap("boots")
	warmStart := time.Now()
	a.served = map[int][]string{}
	warm := a.pass(ctx, readers)
	served := a.served
	a.served = nil
	o.count(warm)
	if u != nil {
		o.count(u.pass(ctx))
	}
	warmSeconds := time.Since(warmStart).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if name == "qald_hot" {
		byText := map[string][]string{}
		for i, answers := range served {
			byText[w.questions[i]] = answers
		}
		p, r, f1, err := qaldScore(ctx, sys.KB, byText)
		if err == nil {
			err = checkQALD(p, r, f1)
		}
		if err != nil {
			o.fail(err)
		}
		fmt.Printf("# qald_hot: P/R/F1 from served answers = %.2f/%.2f/%.2f\n", p, r, f1)
	}

	lap("warm-up")

	// Measured phase.
	dur := time.Duration(cfg.seconds) * time.Second
	var untraced *phase
	if trace {
		dur = dur * 2 / 5 / 2 // 40% of the run over HTTP, half of it traced; the probes get the rest
		if dur < time.Second {
			dur = time.Second
		}
		if untraced, err = measure(ctx, srv, a, u, readers, dataDir, dur, false); err != nil {
			return nil, err
		}
		o.count(untraced.reads, untraced.writes)
	}
	p, err := measure(ctx, srv, a, u, readers, dataDir, dur, trace)
	if err != nil {
		return nil, err
	}
	o.count(p.reads, p.writes)
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}

	lap("measured")

	// Durability: crash the server, recover the data dir, and require
	// every acknowledged commit and the exact triple count.
	if w.durable {
		srv.kill()
		recovered, _, err := startServer(ctx, cfg.qaserve, args...)
		if err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		srv = recovered
		h, err := srv.health()
		if err != nil {
			return nil, err
		}
		o.attempted++
		wantTriples := kb.Default().Store.Len() + poolBatches*poolTriples
		if h.Generation < u.lastGen || h.Triples != wantTriples {
			o.failed++
			o.fail(fmt.Errorf("after kill -9: recovered generation %d with %d triples, want generation >= %d (last acknowledged) and %d triples",
				h.Generation, h.Triples, u.lastGen, wantTriples))
		}
		fmt.Printf("# update_mix: kill -9 → recovered generation %d (last acknowledged %d), %d triples\n",
			h.Generation, u.lastGen, h.Triples)
	}
	calibAfter := calibrate()
	lap("checks")

	fmt.Printf("# %s: correct answers per one-second window: %v\n", name, p.reads.windows)
	if p.reads.correct() == 0 {
		return nil, fmt.Errorf("%s: no question was answered correctly: %v", name, p.reads.firstErr)
	}
	v := o.values
	o.samples = len(p.reads.latencies)
	recordEndToEnd(v, name, p, median(boots), warmSeconds, rss)
	recordOutside(v, p)
	v["qaload.error_ratio"] = float64(o.failed) / float64(o.attempted)
	v["host.calib_ms"] = ms(min(calibBefore, calibAfter))
	if w.durable {
		fmt.Printf("# update_mix: %d WAL compactions in the measured phase\n", p.segments)
	}
	want := 0.0
	if w.hot {
		want = 1.0
	}
	if v["qacache.hit_ratio"] != want {
		o.fail(fmt.Errorf("%s: answer-cache hit ratio %.4f over the measured phase, want exactly %.0f: the workload no longer means what its name says",
			name, v["qacache.hit_ratio"], want))
	}

	if trace {
		recordTraced(v, p, untraced)
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+name+".jsonl"), p.traced); err != nil {
			return nil, err
		}
		probeDir, err := os.MkdirTemp(cfg.outDir, "probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(probeDir)
		if err := runProbes(ctx, w, seed, probeDir, v); err != nil {
			return nil, err
		}
	}

	for _, t := range []tally{warm, p.reads, p.writes} {
		if t.firstErr != nil {
			o.fail(t.firstErr)
		}
	}
	return o, nil
}

// recordEndToEnd computes the gated figures of one measured phase.
// Every timing is divided by the run's speed factor (see
// referenceClientCPUms), so it reads as if the machine had run at its
// reference speed throughout; the raw figures are kept beside them.
func recordEndToEnd(v map[string]float64, name string, p *phase, bootSeconds, warmSeconds, rssMB float64) {
	lat := p.reads.sortedLatencies()
	questions := float64(p.reads.correct())
	operations := questions + float64(p.writes.correct())
	v["qaload.client_cpu_ms_per_op"] = (p.after.clientCPU - p.before.clientCPU) * 1e3 / operations
	speed := v["qaload.client_cpu_ms_per_op"] / referenceClientCPUms[name]
	v["qaload.speed_factor"] = speed
	fmt.Printf("# %s: speed factor %.4f (client CPU %.4f ms per operation, reference %.2f)\n",
		name, speed, v["qaload.client_cpu_ms_per_op"], referenceClientCPUms[name])
	v["qaload.raw_throughput_qps"] = upperQuartileRate(p.reads.windows, 1)
	v["qaload.raw_latency_p50_ms"] = percentile(lat, 0.50)
	v["qaload.raw_latency_p99_ms"] = percentile(lat, 0.99)
	v["qaload.raw_cpu_ms_per_q"] = (p.after.serverCPU - p.before.serverCPU) * 1e3 / questions

	// The warm-up pass is traffic like the measured phase that follows
	// it, so it takes the same factor; a boot has no client beside it and
	// stays as measured.
	v["setup_s"] = bootSeconds + warmSeconds/speed
	v["throughput_qps"] = v["qaload.raw_throughput_qps"] * speed
	v["latency_p50_ms"] = v["qaload.raw_latency_p50_ms"] / speed
	v["latency_p90_ms"] = median(p.reads.windowPercentiles(0.90, minWindowSamples)) / speed
	v["qaload.latency_p99_ms"] = median(p.reads.windowPercentiles(0.99, minWindowSamples)) / speed
	v["cpu_ms_per_question"] = v["qaload.raw_cpu_ms_per_q"] / speed
	v["rss_peak_mb"] = rssMB
}

// recordOutside computes the per-layer figures every run can see from
// outside the server: the load generator's own counts, /metrics deltas,
// /healthz, /proc and the data dir.
func recordOutside(v map[string]float64, p *phase) {
	questions := float64(p.reads.correct())
	elapsed := p.reads.elapsed.Seconds()
	v["qaload.throughput_mean_qps"] = questions / elapsed
	v["qacache.hit_ratio"] = float64(p.after.hits-p.before.hits) / float64(p.reads.attempted)
	if reqs := p.delta("qaserve_requests_total"); reqs > 0 {
		v["qaserve.reject_ratio"] = p.delta(`qaserve_requests_total{outcome="rejected"}`) / reqs
	}
	if attempts := p.delta("qaserve_shard_attempts_total"); attempts > 0 {
		v["shard.calls_per_q"] = attempts / questions
		v["shard.hedge_ratio"] = p.delta("qaserve_shard_hedges_total") / attempts
		v["shard.retry_ratio"] = p.delta("qaserve_shard_retries_total") / attempts
	}
	v["store.gen_per_s"] = float64(p.after.generation-p.before.generation) / elapsed
	v["wal.compactions"] = float64(p.segments)
	if p.writes.attempted > 0 {
		ulat := p.writes.sortedLatencies()
		v["update.throughput_ups"] = float64(p.writes.correct()) / p.writes.elapsed.Seconds()
		v["update.latency_p50_ms"] = percentile(ulat, 0.50)
		v["update.latency_p99_ms"] = percentile(ulat, 0.99)
	}
	v["host.nproc"] = float64(runtime.NumCPU())
	if jiffies := p.after.hostTotal - p.before.hostTotal; jiffies > 0 {
		v["host.steal_ratio"] = (p.after.hostSteal - p.before.hostSteal) / jiffies
	}
}

// recordTraced computes the per-layer figures the replies' own trace
// arrays give — the server's stage times and counts — and the tracing
// overhead against the untraced phase that ran just before.
func recordTraced(v map[string]float64, p, untraced *phase) {
	t := totalsOf(p.traced)
	if n := float64(t.requests); n > 0 {
		v["qaserve.overhead_ms"] = t.overheadMS / n
		v["triplex.patterns_per_q"] = float64(t.candidates["triplex"]) / n
		v["propmap.candidates_per_q"] = float64(t.candidates["propmap"]) / n
		v["answer.candidates_per_q"] = float64(t.candidates["answer"]) / n
		v["sparql.rank_sorts_per_q"] = float64(t.rankSorts) / n
		for _, stage := range []string{"triplex", "propmap", "answer"} {
			v[stage+".ms"] = t.stageMS[stage] / n
		}
	}
	if lookups := float64(t.planHits + t.planMisses); lookups > 0 {
		v["plancache.hit_ratio"] = float64(t.planHits) / lookups
		v["plancache.result_hit_ratio"] = float64(t.resultHits) / lookups
	}
	if base := float64(untraced.reads.correct()) / untraced.reads.elapsed.Seconds(); base > 0 {
		v["qaload.trace_overhead_ratio"] = 1 - v["qaload.throughput_mean_qps"]/base
	}
}

// count adds phases' operations to the run's attempted/failed totals.
func (o *outcome) count(ts ...tally) {
	for _, t := range ts {
		o.attempted += t.attempted
		o.failed += t.failed
	}
}

// print lists every metric the run produced, by name, with its unit.
func (o *outcome) print(trace bool) {
	fmt.Printf("## %s: attempted %d, failed %d, latency samples %d\n", o.workload, o.attempted, o.failed, o.samples)
	defs := append([]metricDef(nil), endToEndMetrics...)
	if trace {
		defs = append(defs, perLayerMetrics...)
	}
	for _, d := range defs {
		if x, ok := o.values[d.name]; ok {
			fmt.Printf("%-30s %14.4f %s\n", d.name, x, d.unit)
		}
	}
	for _, err := range o.errs {
		fmt.Printf("FAIL %s: %v\n", o.workload, err)
	}
}

func main() {
	qaserve := flag.String("qaserve", "bench/out/bin/qaserve", "prebuilt qaserve binary to benchmark")
	outDir := flag.String("out", "bench/out", "directory for span files, result.json and the update_mix data dir")
	workloadName := flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := flag.Int64("seed", 1, "workload seed: fixes the order of the question and update streams")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: record spans, run the in-process probes, report the per-layer metrics")
	aa := flag.Int("aa", 0, "run the untraced set this many times and hold each end-to-end metric's spread against its bound")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark spec holding the bounds -aa checks")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, *qaserve, *outDir, *workloadName, *seed, *seconds, *trace != 0, *aa, *spec)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qaload:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a run was not correct")

func run(ctx context.Context, qaserve, outDir, workloadName string, seed int64, seconds int, trace bool, aa int, spec string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", seconds)
	}
	if _, err := os.Stat(qaserve); err != nil {
		return fmt.Errorf("no qaserve binary (bench/run.sh builds it): %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := config{qaserve: qaserve, outDir: outDir, seconds: seconds, clients: min(runtime.NumCPU(), 4)}
	fmt.Printf("# qaload: seed %d, %d s measured, %d closed-loop clients, %s, GOMAXPROCS %d, nproc %d\n",
		seed, seconds, cfg.clients, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	switch {
	case aa > 0:
		return runAA(ctx, cfg, seed, aa, spec)
	case workloadName != "all":
		o, err := runWorkload(ctx, cfg, workloadName, seed, trace)
		if err != nil {
			return err
		}
		o.print(trace)
		line, err := json.Marshal(o.report(trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if len(o.errs) > 0 || o.failed > 0 {
			return errIncorrect
		}
		return nil
	}
	return runAll(ctx, cfg, seed)
}

// runAll is the full benchmark: every workload untraced (the gated
// figures), then every workload traced, and the summary on disk.
func runAll(ctx context.Context, cfg config, seed int64) error {
	type entry struct {
		EndToEnd report `json:"end_to_end"`
		PerLayer report `json:"per_layer"`
	}
	workloads := map[string]*entry{}
	bad := false
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			o, err := runWorkload(ctx, cfg, name, seed, traced)
			if err != nil {
				return err
			}
			o.print(traced)
			if len(o.errs) > 0 || o.failed > 0 {
				bad = true
			}
			if workloads[name] == nil {
				workloads[name] = &entry{}
			}
			if traced {
				workloads[name].PerLayer = o.report(true)
			} else {
				workloads[name].EndToEnd = o.report(false)
			}
		}
	}
	// "claim" stays last and null: this benchmark defines the baseline
	// and claims no gain.
	summary := struct {
		Seed       int64             `json:"seed"`
		Seconds    int               `json:"seconds"`
		Clients    int               `json:"clients"`
		GoVersion  string            `json:"go_version"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NProc      int               `json:"nproc"`
		Workloads  map[string]*entry `json:"workloads"`
		Claim      *string           `json:"claim"`
	}{seed, cfg.seconds, cfg.clients, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workloads, nil}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	fmt.Println(`{"claim": null}`)
	if bad {
		return errIncorrect
	}
	return nil
}

// runAA is the A/A check: n runs of the untraced set on one binary, a
// different seed each (as the benchmark's driver does), and for every
// workload × end-to-end metric the median, the quartiles, the
// interquartile spread as a share of the median, and the largest
// relative deviation. A spread past the metric's bound fails the check.
func runAA(ctx context.Context, cfg config, seed int64, n int, specPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < n; i++ {
		for _, name := range workloadNames {
			o, err := runWorkload(ctx, cfg, name, seed+int64(i), false)
			if err != nil {
				return err
			}
			o.print(false)
			if len(o.errs) > 0 || o.failed > 0 {
				return errIncorrect
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, d := range endToEndMetrics {
				values[name][d.name] = append(values[name][d.name], o.values[d.name])
			}
		}
	}

	fmt.Printf("\n# A/A over %d runs: workload metric median q1 q3 iqr/median max-deviation bound\n", n)
	var over []string
	for _, name := range workloadNames {
		names := make([]string, 0, len(values[name]))
		for m := range values[name] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			med, q1, q3, iqr, dev := spread(values[name][m])
			verdict := "ok"
			// setup_s is held to its bound by median drift between sets
			// of runs, not by its spread inside one set.
			if bound, ok := bounds[m]; ok && m != "setup_s" && iqr > bound {
				verdict = "OVER"
				over = append(over, name+"/"+m)
			}
			fmt.Printf("%-12s %-20s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6.0f%% %s\n",
				name, m, med, q1, q3, iqr*100, dev*100, bounds[m]*100, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A spread past the bound on %v", over)
	}
	return nil
}
