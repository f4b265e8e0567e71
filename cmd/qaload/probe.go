package main

import (
	"context"
	"fmt"
	"io/fs"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/qacache"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/triplex"
	"repro/internal/wal"
)

// The probes time each layer's public entry points in process, over a
// sample of the workload's own stream, after the traced HTTP phase. They
// run on a private copy of the built-in KB, so the write-path probes can
// mutate it. Each figure is a mean per call unless it says median.

// probeSample is how many consecutive stream questions the pipeline
// probes replay.
const probeSample = 500

// perCall is the mean wall time of n calls of fn.
func perCall(n int, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// medianOf3 is the median wall time of three calls of fn.
func medianOf3(fn func()) time.Duration {
	var ds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// calibrate times a fixed, allocation-free CPU loop. Run before and
// after a workload, it tells a slow machine from a slow program.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x)
	return time.Since(start)
}

var calibSink atomic.Uint64

// timingFS wraps the WAL's file layer and accounts the time spent in
// Sync and the bytes written, so a commit splits into fsync and the
// rest without touching internal/wal.
type timingFS struct {
	wal.FS
	syncNS  atomic.Int64
	written atomic.Int64
}

func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncNS.Add(int64(time.Since(start)))
	return err
}

// runProbes adds the in-process per-layer figures to out: the layers the
// wire does not expose. dir is a scratch directory for the WAL probes.
func runProbes(ctx context.Context, w *workload, seed int64, dir string, out map[string]float64) error {
	// Boot path: what a qaserve start pays before /readyz.
	var k *kb.KB
	out["kb.build_ms"] = ms(medianOf3(func() { k = kb.Build(kb.DefaultConfig()) }))
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	out["patterns.mine_ms"] = ms(medianOf3(func() { patterns.Mine(k, corpus, patterns.DefaultMinerConfig()) }))
	var sys *core.System
	out["core.boot_ms"] = ms(perCall(1, func(int) {
		cfg := core.DefaultConfig()
		cfg.KB = k
		sys = core.New(cfg)
	}))

	// Read path, stage by stage, over the head of the stream.
	sample := make([]string, probeSample)
	for i := range sample {
		sample[i] = w.questions[i%len(w.questions)]
	}
	// The three pipeline stages run here to feed the probes below; their
	// own times and counts are the server's to report (the trace arrays).
	mapper := propmap.New(k, sys.WordNet, sys.Patterns, sys.Linker, propmap.DefaultConfig())
	var mapped []*propmap.Mapping
	for _, q := range sample {
		ext, err := triplex.ExtractOpts(q, triplex.Options{})
		if err != nil {
			continue
		}
		if mp, err := mapper.Map(ext); err == nil {
			mapped = append(mapped, mp)
		}
	}

	// Every candidate query the answer stage executes for the sample.
	extractor := answer.New(k, answer.DefaultConfig())
	plans := sparql.NewPlanCache(4096)
	snap := k.Store.Snapshot()
	var queries []*sparql.Query
	var texts []string
	for _, mp := range mapped {
		res, err := extractor.ExtractSessionCtx(ctx, mp, sparql.NewSnapshotSession(snap).WithPlanCache(plans))
		if err != nil {
			continue
		}
		for _, c := range res.Candidates {
			if c.Executed {
				queries = append(queries, c.Query)
				texts = append(texts, c.SPARQL)
			}
		}
	}

	// The candidate queries themselves, with no memo in the way: parsing
	// their text (a few entity names the lexer cannot round-trip are
	// simply parse errors here), then planning and executing each on a
	// fresh cache-less session.
	out["sparql.parse_us"] = us(perCall(len(texts), func(i int) { sparql.Parse(texts[i]) }))
	var execErr error
	out["sparql.exec_us"] = us(perCall(len(queries), func(i int) {
		if _, err := sparql.NewSnapshotSession(snap).WithPlanCache(nil).ExecuteCtx(ctx, queries[i]); err != nil && execErr == nil {
			execErr = err
		}
	}))
	if execErr != nil {
		return fmt.Errorf("probe: executing a candidate query: %w", execErr)
	}

	// Store scans: every triple of every ontology property, by predicate.
	var preds [][3]store.ID
	for _, p := range k.Properties() {
		if id, ok := snap.Lookup(p.Term); ok {
			preds = append(preds, [3]store.ID{0, id, 0})
		}
	}
	rows := 0
	out["store.scan_us"] = us(perCall(len(preds), func(i int) {
		snap.ForEachMatchIDs(preds[i], func(_, _, _ store.ID) bool { rows++; return true })
	}))

	// The answer cache: lookups of resident keys.
	cache := qacache.New[int](1024)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = qacache.Normalize("probe question " + strconv.Itoa(i) + "?")
		cache.Put(keys[i], 1, i)
	}
	out["qacache.lookup_us"] = us(perCall(200_000, func(i int) { cache.Get(keys[i%len(keys)], 1) }))

	// Write path: the update pool against the bare store, then through
	// the WAL on the real filesystem.
	seedOps, err := sparql.ParseUpdate(string(poolSeedBody()))
	if err != nil {
		return fmt.Errorf("probe: pool seed: %w", err)
	}
	var pool [][]store.BatchOp
	for _, body := range poolBodies(seed) {
		ops, err := sparql.ParseUpdate(string(body))
		if err != nil {
			return fmt.Errorf("probe: pool body: %w", err)
		}
		pool = append(pool, ops)
	}
	k.Store.ApplyBatch(seedOps)
	cycle := func(apply func(ops []store.BatchOp)) time.Duration {
		return perCall(len(pool), func(i int) { apply(pool[i]) })
	}
	cycle(func(ops []store.BatchOp) { k.Store.ApplyBatch(ops) }) // interns both states
	var ranksNS time.Duration
	total := cycle(func(ops []store.BatchOp) {
		k.Store.ApplyBatch(ops)
		t := time.Now()
		k.Store.Snapshot().TermRanks()
		ranksNS += time.Since(t)
	})
	out["store.term_ranks_us"] = us(ranksNS / time.Duration(len(pool)))
	out["store.apply_batch_us"] = us(total) - out["store.term_ranks_us"]

	tfs := &timingFS{FS: wal.OSFS()}
	opts := wal.Options{FS: tfs}
	rec, err := wal.Recover(dir, opts)
	if err != nil {
		return fmt.Errorf("probe: wal recover: %w", err)
	}
	mgr, err := rec.Open(k.Store)
	if err != nil {
		return fmt.Errorf("probe: wal open: %w", err)
	}
	defer mgr.Close()
	tfs.syncNS.Store(0)
	tfs.written.Store(0)
	var applyErr error
	total = cycle(func(ops []store.BatchOp) {
		if _, err := mgr.Apply(ctx, ops); err != nil && applyErr == nil {
			applyErr = err
		}
	})
	if applyErr != nil {
		return fmt.Errorf("probe: wal apply: %w", applyErr)
	}
	fsync := time.Duration(tfs.syncNS.Load()) / time.Duration(len(pool))
	out["wal.fsync_us"] = us(fsync)
	out["wal.append_us"] = us(total - fsync)
	out["wal.bytes_per_triple"] = float64(tfs.written.Load()) / float64(len(pool)*2*poolTriples)
	var recErr error
	out["wal.recover_ms"] = ms(medianOf3(func() {
		if _, err := wal.Recover(dir, opts); err != nil {
			recErr = err
		}
	}))
	if recErr != nil {
		return fmt.Errorf("probe: wal recover: %w", recErr)
	}
	var compactErr error
	out["wal.compact_ms"] = ms(medianOf3(func() {
		if err := mgr.Compact(); err != nil {
			compactErr = err
		}
	}))
	if compactErr != nil {
		return fmt.Errorf("probe: wal compact: %w", compactErr)
	}

	// Shard tier: partitioning, then the answer stage over a 4-shard
	// gather view (which the bound-result memo never serves).
	var cluster *shard.Cluster
	out["shard.partition_ms"] = ms(medianOf3(func() { cluster = shard.NewCluster(k.Store, 4, shard.Config{}) }))
	out["shard.gather_ms"] = ms(perCall(len(mapped), func(i int) {
		sess := sparql.NewViewSession(cluster.NewView(ctx)).WithPlanCache(plans)
		extractor.ExtractSessionCtx(ctx, mapped[i], sess)
	}))
	return nil
}
