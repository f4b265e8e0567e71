package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/kb"
	"repro/internal/patterns"
	"repro/internal/qacache"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// WithCache returns a System that shares s's KB, mined patterns and
// indexes and has an answer cache of its own with room for size
// outcomes (none when size is 0) and a plan cache of its own, as if
// New had built it with Config.CacheSize = size.
func (s *System) WithCache(size int) *System {
	c := *s
	c.cache = nil
	if size > 0 {
		c.cache = qacache.New[*outcome](size)
	}
	c.plans = sparql.NewPlanCache(sparql.DefaultPlanCacheSize)
	return &c
}

// CacheStats returns the answer cache's cumulative hit, miss and
// eviction counts (zeros when the cache is disabled).
func (s *System) CacheStats() (hits, misses, evictions uint64) {
	if s.cache == nil {
		return 0, 0, 0
	}
	return s.cache.Stats()
}

// Tests for the staged pipeline: trace recording, request-scoped
// cancellation, the applyDefaults zero-value semantics and the
// generation-keyed answer cache.

// TestApplyDefaultsZeroValueNotClobbered is the regression test for the
// config clobber: an explicit config whose SentencesPerFact or
// MinSupport is zero must survive New, while fully-zero sections still
// pick up the package defaults.
func TestApplyDefaultsZeroValueNotClobbered(t *testing.T) {
	// Explicit zero MinSupport with another field set: kept verbatim.
	got := applyDefaults(Config{
		Miner:  patterns.MinerConfig{MinSupport: 0, SubsumeThreshold: 0.5},
		Corpus: kb.CorpusConfig{Seed: 3, NoiseRate: 0.5, SentencesPerFact: 0},
	})
	if got.Miner.MinSupport != 0 || got.Miner.SubsumeThreshold != 0.5 {
		t.Errorf("explicit Miner clobbered: %+v", got.Miner)
	}
	if got.Corpus.SentencesPerFact != 0 || got.Corpus.NoiseRate != 0.5 {
		t.Errorf("explicit Corpus clobbered: %+v", got.Corpus)
	}

	// Fully-zero sections select the defaults.
	def := applyDefaults(Config{})
	if def.Miner != patterns.DefaultMinerConfig() {
		t.Errorf("zero Miner did not default: %+v", def.Miner)
	}
	if def.Corpus != kb.DefaultCorpusConfig() {
		t.Errorf("zero Corpus did not default: %+v", def.Corpus)
	}

	// A System built with an explicit zero-MinSupport miner keeps every
	// pattern (no pruning) instead of silently mining with MinSupport 2.
	s := New(Config{Miner: patterns.MinerConfig{MinSupport: 0, SubsumeThreshold: 0.9}})
	loose := len(s.Patterns.Patterns())
	strict := len(New(Config{Miner: patterns.MinerConfig{MinSupport: 5, SubsumeThreshold: 0.9}}).Patterns.Patterns())
	if loose <= strict {
		t.Errorf("MinSupport 0 mined %d patterns, MinSupport 5 mined %d — zero was clobbered", loose, strict)
	}
}

func TestAnswerTraceRecordsStages(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	var names []string
	for _, st := range res.Trace.Stages {
		names = append(names, st.Stage)
	}
	want := []string{StageTriplex, StagePropmap, StageAnswer}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	if res.Trace.Stage(StageTriplex).Candidates != 2 {
		t.Errorf("triplex candidates = %d, want 2", res.Trace.Stage(StageTriplex).Candidates)
	}
	if res.Trace.Stage(StagePropmap).Candidates == 0 {
		t.Error("propmap recorded no property candidates")
	}
	if res.Trace.Stage(StageAnswer).Candidates < 2 {
		t.Errorf("answer candidates = %d, want >= 2", res.Trace.Stage(StageAnswer).Candidates)
	}
	if res.Trace.Total() <= 0 {
		t.Error("trace total duration is zero")
	}
	if res.CacheHit {
		t.Error("cache hit without a cache")
	}

	// A stage failure is recorded on its trace entry.
	res2 := s.AnswerCtx(context.Background(), "Give me all films starring Brad Pitt.")
	if res2.Status != StatusNotExtracted {
		t.Fatalf("status = %v", res2.Status)
	}
	last := res2.Trace.Stages[len(res2.Trace.Stages)-1]
	if last.Stage != StageTriplex || last.Err == "" {
		t.Errorf("failing stage trace = %+v", last)
	}
}

func TestAnswerCtxCancelledBeforeStart(t *testing.T) {
	s := Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.AnswerCtx(ctx, "Which book is written by Orhan Pamuk?")
	if res.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Answered() {
		t.Error("cancelled request answered")
	}
	// The system stays fully usable afterwards.
	res2 := s.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
	if !res2.Answered() {
		t.Fatalf("post-cancellation answer: %v / %v", res2.Status, res2.Err)
	}
}

// TestAnswerCtxBackgroundIdenticalToAnswer: an uncancelled question
// answers the same on every ask — nothing one AnswerCtx leaves behind
// changes the next.
func TestAnswerCtxBackgroundIdenticalToAnswer(t *testing.T) {
	s := Default()
	for _, q := range []string{
		"Which book is written by Orhan Pamuk?",
		"How tall is Michael Jordan?",
		"Is Frank Herbert still alive?",
		"gibberish blob",
	} {
		a := s.AnswerCtx(context.Background(), q)
		b := s.AnswerCtx(context.Background(), q)
		if a.Status != b.Status || len(a.Answers) != len(b.Answers) ||
			a.WinningSPARQL() != b.WinningSPARQL() {
			t.Errorf("%q: two asks diverge: %v vs %v", q, a.Status, b.Status)
		}
		for i := range a.Answers {
			if a.Answers[i] != b.Answers[i] {
				t.Errorf("%q: answer %d differs", q, i)
			}
		}
	}
}

// cachedSystem builds a private System (own KB instance, safe to
// mutate) with the answer cache enabled.
func cachedSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.KB = kb.Build(kb.DefaultConfig())
	cfg.CacheSize = 64
	return New(cfg)
}

func TestAnswerCacheHit(t *testing.T) {
	s := cachedSystem(t)
	const q = "Where did Abraham Lincoln die?"
	first := s.AnswerCtx(context.Background(), q)
	if !first.Answered() || first.CacheHit {
		t.Fatalf("first: status=%v hit=%v", first.Status, first.CacheHit)
	}
	// The miss's trace starts with the lookup, then the stages.
	var names []string
	for _, st := range first.Trace.Stages {
		names = append(names, st.Stage)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{StageCache, StageTriplex, StagePropmap, StageAnswer}) {
		t.Errorf("miss trace = %v", names)
	}
	second := s.AnswerCtx(context.Background(), q)
	if !second.CacheHit {
		t.Fatal("second identical question missed the cache")
	}
	if !second.Answered() || len(second.Answers) != 1 || second.Answers[0] != first.Answers[0] {
		t.Fatalf("cached answers = %v, want %v", second.Answers, first.Answers)
	}
	// The hit's trace is just the lookup.
	if len(second.Trace.Stages) != 1 || second.Trace.Stages[0].Stage != StageCache {
		t.Errorf("hit trace = %+v", second.Trace.Stages)
	}
	// Normalized variants share the entry; the requester's own text is
	// preserved on the result.
	third := s.AnswerCtx(context.Background(), "  Where did  Abraham Lincoln die ?")
	if !third.CacheHit {
		t.Error("normalized variant missed the cache")
	}
	if third.Question != "Where did  Abraham Lincoln die ?" {
		t.Errorf("question rewritten to %q", third.Question)
	}
	hits, misses, evictions := s.CacheStats()
	if hits != 2 || misses != 1 || evictions != 0 {
		t.Errorf("stats = %d hits / %d misses / %d evictions, want 2/1/0", hits, misses, evictions)
	}
	// Failure outcomes are cached too — they are deterministic.
	if s.AnswerCtx(context.Background(), "gibberish blob"); !s.AnswerCtx(context.Background(), "gibberish blob").CacheHit {
		t.Error("failure outcome not cached")
	}
}

// TestWithCacheIsIndependent: a System from WithCache shares the built
// pipeline and answers alike, but its answer cache is its own — an
// entry one holds is a miss in the other — and WithCache(0) has none.
func TestWithCacheIsIndependent(t *testing.T) {
	a := cachedSystem(t)
	b := a.WithCache(16)
	if b.KB != a.KB || b.Patterns != a.Patterns || b.Linker != a.Linker {
		t.Fatal("WithCache rebuilt the pipeline")
	}
	const q = "Where did Abraham Lincoln die?"
	a.AnswerCtx(context.Background(), q)
	got := b.AnswerCtx(context.Background(), q)
	if got.CacheHit || !got.Answered() {
		t.Fatalf("fresh cache: hit=%v status=%v", got.CacheHit, got.Status)
	}
	if !b.AnswerCtx(context.Background(), q).CacheHit {
		t.Error("WithCache system does not cache")
	}
	if hits, misses, _ := b.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c := a.WithCache(0); c.AnswerCtx(context.Background(), q).CacheHit || c.CacheEntries() != 0 {
		t.Error("WithCache(0) caches")
	}
}

// TestAnswerCacheObservesRemoveGenerationBump: a single-triple delete
// bumps the snapshot generation, which must invalidate every previously
// cached answer.
func TestAnswerCacheObservesRemoveGenerationBump(t *testing.T) {
	s := cachedSystem(t)
	const q = "Where did Abraham Lincoln die?"
	first := s.AnswerCtx(context.Background(), q)
	if !first.Answered() {
		t.Fatalf("first: %v / %v", first.Status, first.Err)
	}
	if !s.AnswerCtx(context.Background(), q).CacheHit {
		t.Fatal("warm-up hit failed")
	}

	genBefore := s.KB.Store.Snapshot().Gen()
	victim := rdf.Triple{S: rdf.Res("Abraham_Lincoln"), P: rdf.Ont("deathPlace"), O: first.Answers[0]}
	if _, removed := s.KB.Store.ApplyBatch([]store.BatchOp{{Delete: true, Triples: []rdf.Triple{victim}}}); removed != 1 {
		t.Fatalf("deleting %v found nothing", victim)
	}
	if gen := s.KB.Store.Snapshot().Gen(); gen <= genBefore {
		t.Fatalf("generation did not bump: %d -> %d", genBefore, gen)
	}

	after := s.AnswerCtx(context.Background(), q)
	if after.CacheHit {
		t.Fatal("stale cached answer served after KB mutation")
	}
	if after.Answered() && after.Answers[0] == first.Answers[0] {
		t.Fatalf("recomputed answer still %v after removing %v", after.Answers, victim)
	}

	// The recomputed outcome is itself cached under the new generation.
	if !s.AnswerCtx(context.Background(), q).CacheHit {
		t.Error("recomputed outcome not re-cached")
	}
}

func TestCanceledStatusString(t *testing.T) {
	if StatusCanceled.String() != "canceled" {
		t.Errorf("StatusCanceled = %q", StatusCanceled.String())
	}
}

// TestAnswerCacheObservesInsertGenerationBump: a cached negative
// answer turns positive through the generation alone, with no clock
// involved. The entity and the property already exist, so the
// boot-time linker and mapper need nothing new; the insert bumps the
// generation, which voids the cached "no answer".
func TestAnswerCacheObservesInsertGenerationBump(t *testing.T) {
	s := cachedSystem(t)
	const q = "When did Orhan Pamuk die?"
	first := s.AnswerCtx(context.Background(), q)
	if first.Status != StatusNoAnswer || first.CacheHit {
		t.Fatalf("first: %v / hit=%v, want no answer computed", first.Status, first.CacheHit)
	}
	if again := s.AnswerCtx(context.Background(), q); !again.CacheHit || again.Status != StatusNoAnswer {
		t.Fatalf("second: %v / hit=%v, want the cached negative", again.Status, again.CacheHit)
	}

	death := rdf.Triple{S: rdf.Res("Orhan_Pamuk"), P: rdf.Ont("deathDate"), O: rdf.NewDate("2030-01-01")}
	if added, _ := s.KB.Store.ApplyBatch([]store.BatchOp{{Triples: []rdf.Triple{death}}}); added != 1 {
		t.Fatalf("inserting %v added %d triples", death, added)
	}

	after := s.AnswerCtx(context.Background(), q)
	if after.CacheHit {
		t.Fatal("cached negative served after the insert")
	}
	if !after.Answered() || len(after.Answers) != 1 || after.Answers[0].Value != "2030-01-01" {
		t.Fatalf("after insert: %v %v, want [2030-01-01]", after.Status, after.Answers)
	}
}

// TestAnswerLabelsComeFromExecutedSnapshot: a Result renders its answers'
// labels from the snapshot its answers came from, not from the live
// store. A relabel after the answer leaves the returned Results — the
// miss and the hit — on the executed generation's label; the next ask
// misses and renders the new one.
func TestAnswerLabelsComeFromExecutedSnapshot(t *testing.T) {
	s := cachedSystem(t)
	ctx := context.Background()
	const q = "Where did Abraham Lincoln die?"
	miss := s.AnswerCtx(ctx, q)
	hit := s.AnswerCtx(ctx, q)
	if !miss.Answered() || miss.CacheHit || !hit.CacheHit {
		t.Fatalf("warm-up: %v, hit %v then %v", miss.Status, miss.CacheHit, hit.CacheHit)
	}
	place := miss.Answers[0]
	labels := s.KB.Store.Snapshot().Objects(place, rdf.Label())
	if len(labels) == 0 {
		t.Fatalf("%v has no rdfs:label", place)
	}
	old := labels[0]
	before := miss.AnswerStrings(s.KB)
	if len(before) != 1 || before[0] != old.Value {
		t.Fatalf("rendered %v, want [%s]", before, old.Value)
	}

	relabel := rdf.NewLangLiteral("Relabelled City", "en")
	s.KB.Store.ApplyBatch([]store.BatchOp{
		{Delete: true, Triples: []rdf.Triple{{S: place, P: rdf.Label(), O: old}}},
		{Triples: []rdf.Triple{{S: place, P: rdf.Label(), O: relabel}}},
	})
	if got := s.KB.LabelOf(place); got != relabel.Value {
		t.Fatalf("live label %q after the relabel", got)
	}
	for name, res := range map[string]*Result{"miss": miss, "hit": hit} {
		if got := res.AnswerStrings(s.KB); len(got) != 1 || got[0] != old.Value {
			t.Errorf("%s after the relabel renders %v, want the executed generation's [%s]", name, got, old.Value)
		}
	}

	after := s.AnswerCtx(ctx, q)
	if after.CacheHit {
		t.Fatal("the relabel did not void the cached answer")
	}
	if got := after.AnswerStrings(s.KB); len(got) != 1 || got[0] != relabel.Value {
		t.Errorf("next ask renders %v, want [%s]", got, relabel.Value)
	}
}
