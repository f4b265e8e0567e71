// Command qaserve serves the question answering pipeline over
// HTTP/JSON: POST /v1/answer answers a question,
// POST /v1/update applies SPARQL INSERT DATA / DELETE DATA batches
// (when started with -data-dir), GET /healthz reports liveness,
// GET /readyz reports readiness, and GET /metrics exports
// Prometheus-style counters and per-stage latency histograms built
// from each request's pipeline trace.
//
// Usage:
//
//	qaserve [-addr :8080] [-timeout 5s] [-max-inflight 64] [-cache 1024]
//	        [-shards N] [-kb file.nt] [-data-dir dir] [-drain 15s]
//	        [-extensions] [-debug-addr 127.0.0.1:6060]
//	        [-chaos spec] [-chaos-seed N]
//
// -timeout bounds both an answer-cache miss and a /v1/update commit.
// QASERVE_UPDATE_TOKEN, when set, is the bearer token /v1/update
// requires; unset, updates are open. A negative count or duration, and
// -shards with -data-dir, exit 1 before the listener comes up.
//
// The listener comes up immediately and answers 503 (with /healthz
// alive) while the pipeline warms up; with -data-dir the durable state
// is recovered from the newest valid snapshot segment plus the
// write-ahead log tail before the first request is served. A shutdown
// signal during the warmup aborts the boot at the next step boundary
// and still closes whatever was opened. On shutdown the gate drains:
// new requests answer 503 + Retry-After while in-flight ones finish.
// See cmd/qaserve/README.md for the endpoint contracts and the
// resilience model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qaserve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// serveDebug starts the -debug-addr listener: the net/http/pprof
// handlers on a mux of their own, so nothing registered there is
// reachable through the public listener (whose handler is the gate, not
// http.DefaultServeMux). The bound address goes to stderr — with port 0
// it is the only place to learn it. The caller closes the server.
func serveDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = ds.Serve(ln) }() // returns once ds.Close has run
	fmt.Fprintf(os.Stderr, "qaserve: debug listener on %s (pprof)\n", ln.Addr())
	return ds, nil
}

// flagValues are the flags validate checks.
type flagValues struct {
	maxInflight, cache, shards int
	timeout, drain             time.Duration
	dataDir                    string
}

// validate rejects what the server would otherwise reinterpret
// silently: a negative count or duration (-max-inflight -1 would serve
// unlimited, -cache -1 would switch the cache off, -timeout -1s would
// time nothing out) and -shards with -data-dir.
func (v flagValues) validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"max-inflight", v.maxInflight}, {"cache", v.cache}, {"shards", v.shards}} {
		if f.n < 0 {
			return fmt.Errorf("-%s %d: must be >= 0", f.name, f.n)
		}
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{{"timeout", v.timeout}, {"drain", v.drain}} {
		if f.d < 0 {
			return fmt.Errorf("-%s %v: must be >= 0", f.name, f.d)
		}
	}
	if v.shards > 0 && v.dataDir != "" {
		// The WAL manager owns the single source store; replaying a log
		// into a shard fan-out is future work (see ROADMAP.md).
		return errors.New("-shards is incompatible with -data-dir: sharded serving is in-memory only")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 5*time.Second, "deadline of an answer-cache miss's pipeline run and of a /v1/update commit (0 = none)")
	maxInflight := flag.Int("max-inflight", 64, "in-flight limit L: past it a request answers 503, and cache hits ride a reserve to L+L/4 (0 = unlimited)")
	chaosSpec := flag.String("chaos", "", "arm fault injection: comma-separated point:kind:prob[:latency[:limit]] rules, e.g. stage.answer:error:0.1 (see internal/chaos)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos injector's random source")
	cacheSize := flag.Int("cache", 1024, "answer cache entries, keyed on normalized question text (0 = disabled)")
	shards := flag.Int("shards", 0, "run the in-process sharded scatter-gather tier: N subject-partitioned shards with per-attempt timeouts and retries, per-shard circuit breakers and opt-in partial answers (0 = single store; incompatible with -data-dir)")
	kbPath := flag.String("kb", "", "load the knowledge base from an .nt/.ttl file instead of the built-in one")
	dataDir := flag.String("data-dir", "", "durable data directory; enables /v1/update (WAL + snapshot segments, crash recovery on start)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight requests")
	extensions := flag.Bool("extensions", false, "enable the future-work boolean/aggregation/superlative extensions")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address, on a listener and mux of its own (empty = off); keep it off public interfaces")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "qaserve:", err)
		os.Exit(1)
	}

	if err := (flagValues{
		maxInflight: *maxInflight, cache: *cacheSize, shards: *shards,
		timeout: *timeout, drain: *drain, dataDir: *dataDir,
	}).validate(); err != nil {
		fail(err)
	}

	var injector *chaos.Injector
	if *chaosSpec != "" {
		rules, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fail(err)
		}
		injector = chaos.New(*chaosSeed, rules...)
		fmt.Fprintf(os.Stderr, "qaserve: CHAOS ARMED (%d rules, seed %d) — do not run in production\n",
			len(rules), *chaosSeed)
	}

	// Listen before the (slow) pipeline build: the gate answers
	// /healthz 200 and everything else 503 until the handover, so
	// orchestrators can distinguish "booting" from "dead".
	gate := qaserve.NewGate()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "qaserve: listening on %s (warming up)\n", *addr)
	var debug *http.Server
	if *debugAddr != "" {
		var err error
		if debug, err = serveDebug(*debugAddr); err != nil {
			fail(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Boot runs off the main goroutine so a shutdown signal during the
	// slow phases (KB build, pattern mining, WAL recovery) is honored at
	// the next step boundary instead of only after the server went ready
	// — and whatever the boot already opened (the WAL manager) is still
	// handed back for a clean close. The boot goroutine itself never
	// calls os.Exit; it reports through bootCh.
	type bootResult struct {
		srv     *qaserve.Server
		manager *wal.Manager
		err     error
	}
	bootCh := make(chan bootResult, 1)
	go func() {
		var res bootResult
		defer func() { bootCh <- res }()

		cfg := core.DefaultConfig()
		cfg.CacheSize = *cacheSize
		cfg.Extensions = *extensions

		// Boot phases timed here — the ones before core.New — lead the
		// System's own on the "pipeline ready" line and on /metrics.
		start := time.Now()
		var boot []core.BootPhase
		mark := start
		phase := func(name string) {
			now := time.Now()
			boot = append(boot, core.BootPhase{Name: name, Elapsed: now.Sub(mark)})
			mark = now
		}

		// Source the KB: recovered durable state beats -kb beats built-in.
		var rec *wal.Recovery
		if *dataDir != "" {
			var err error
			rec, err = wal.Recover(*dataDir, wal.Options{})
			if err != nil {
				res.err = fmt.Errorf("recovering %s: %w", *dataDir, err)
				return
			}
		}
		switch {
		case rec != nil && rec.Store != nil:
			if *kbPath != "" {
				fmt.Fprintf(os.Stderr, "qaserve: %s holds durable state; ignoring -kb %s\n", *dataDir, *kbPath)
			}
			loaded, err := kb.FromStore(rec.Store)
			if err != nil {
				res.err = fmt.Errorf("rebuilding KB from %s: %w", *dataDir, err)
				return
			}
			cfg.KB = loaded
			phase("wal_recovery")
			fmt.Fprintf(os.Stderr, "qaserve: recovered %d triples at generation %d (segment %d + %d log records)\n",
				rec.Store.Snapshot().Len(), rec.Gen, rec.SegmentGen, rec.Records)
		case *kbPath != "":
			loaded, err := kb.LoadFile(*kbPath)
			if err != nil {
				res.err = err
				return
			}
			cfg.KB = loaded
			phase("kb_load")
		case rec != nil || *shards > 0:
			// A fresh data dir or a shard tier, no -kb: updates will write
			// to the store, so take a private copy of the built-in KB (the
			// shared default must never be mutated).
			cfg.KB = kb.Build(kb.DefaultConfig())
			phase("kb_build")
		}
		if ctx.Err() != nil {
			return // signal during recovery: nothing opened yet, stop here
		}

		// Sharded serving: partition the source store by subject hash
		// into an in-process scatter-gather tier. The cluster is also the
		// update path — /v1/update batches mirror into every shard.
		var cluster *shard.Cluster
		if *shards > 0 {
			fmt.Fprintf(os.Stderr, "qaserve: partitioning into %d shards...\n", *shards)
			cluster = shard.NewCluster(cfg.KB.Store, *shards, shard.Config{})
			cfg.Cluster = cluster
			phase("shard_partition")
		}

		fmt.Fprintf(os.Stderr, "qaserve: building pipeline (mining patterns)...\n")
		sys := core.New(cfg)
		sys.Boot = append(boot, sys.Boot...)
		fmt.Fprintf(os.Stderr, "qaserve: pipeline ready in %v (%d triples;", time.Since(start).Round(time.Millisecond), sys.KB.Store.Snapshot().Len())
		for _, p := range sys.Boot {
			fmt.Fprintf(os.Stderr, " %s %v", p.Name, p.Elapsed.Round(100*time.Microsecond))
		}
		fmt.Fprintln(os.Stderr, ")")
		if ctx.Err() != nil {
			return // signal during the build: the WAL is still unopened
		}

		// Attach durability: from here the manager is the store's only
		// writer, every /v1/update batch is fsynced to the WAL before it
		// is applied, and the log auto-compacts into snapshot segments.
		if rec != nil {
			manager, err := rec.Open(sys.KB.Store)
			if err != nil {
				res.err = fmt.Errorf("opening WAL in %s: %w", *dataDir, err)
				return
			}
			res.manager = manager
		}

		scfg := qaserve.Config{
			Sys:            sys,
			RequestTimeout: *timeout,
			MaxInFlight:    *maxInflight,
			Chaos:          injector,
			// The token is read from the environment only: a flag's
			// value would show in ps and on /debug/pprof/cmdline.
			UpdateToken: os.Getenv("QASERVE_UPDATE_TOKEN"),
		}
		if res.manager != nil {
			scfg.Updater = res.manager
		}
		if cluster != nil {
			scfg.Updater = cluster // mutually exclusive with -data-dir's manager
		}
		res.srv = qaserve.New(scfg)
	}()

	var manager *wal.Manager
	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
		// Signal before the boot finished: turn the gate straight to
		// draining (nothing real is in flight yet), let the boot reach
		// its next step boundary, and close whatever it opened.
		fmt.Fprintln(os.Stderr, "qaserve: shutdown signal during warmup; aborting startup")
		gate.SetDraining()
		b := <-bootCh
		if b.err != nil {
			fmt.Fprintln(os.Stderr, "qaserve:", b.err)
		}
		manager = b.manager
	case b := <-bootCh:
		if b.err != nil {
			fail(b.err)
		}
		manager = b.manager
		gate.SetReady(b.srv.Handler())
		fmt.Fprintf(os.Stderr, "qaserve: ready\n")
		select {
		case err := <-errCh:
			fail(err)
		case <-ctx.Done():
		}
	}

	// Graceful shutdown: turn new requests away (503 + Retry-After via
	// the draining gate), drain in-flight requests, then close the WAL
	// (final fsync + checkpoint segment) once no update can still be
	// running.
	gate.SetDraining()
	fmt.Fprintf(os.Stderr, "qaserve: shutting down (draining up to %v)...\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "qaserve: drain incomplete:", err)
		code = 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "qaserve:", err)
		code = 1
	}
	if debug != nil {
		_ = debug.Close() // a profile still streaming ends with the process anyway
	}
	if manager != nil {
		if err := manager.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "qaserve: closing WAL:", err)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintln(os.Stderr, "qaserve: drained, bye")
	}
	os.Exit(code)
}
