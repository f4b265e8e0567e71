// Package core assembles the paper's full question answering pipeline:
//
//	question
//	  → triplex — §2.1 triple pattern extraction   (internal/triplex)
//	  → propmap — §2.2 entity & property mapping   (internal/propmap)
//	  → answer  — §2.3 answer extraction           (internal/answer)
//	  → ranked answers
//
// Compute runs the three stages in that order, each a method on System
// that writes its outcome into the shared Result. A stage ends the run
// early by setting a terminal Status. Compute checks the request's
// context.Context before every stage; inside §2.3 cancellation and
// deadlines are also honoured between candidate queries and between
// join steps. Each stage is timed into its entry of the Result's Trace
// (per-stage wall time, candidate counts, cache hit/miss), which the
// serving layer (cmd/qaserve) exports as per-stage latency metrics.
//
// System is the public entry point: build one with New (or share the
// process-wide Default) and call AnswerCtx — or its two halves, Lookup
// and Compute, as the serving layer does. The Result records every
// intermediate stage, so callers can inspect the extracted triples, the
// candidate property sets, the generated SPARQL queries and the ranking
// — the trace the paper walks through for "Which book is written by
// Orhan Pamuk?".
//
// The answer cache (internal/qacache, when Config.CacheSize > 0) is not
// a stage: Lookup consults it in front of the pipeline, so a hit is one
// normalisation and one cache read — no pipeline run, no store read.
// Entries are keyed on normalized question text and stamped with the KB
// snapshot generation, so any store write (including a single-triple
// delete) invalidates every previously cached answer. An entry is the
// answer, not its derivation (status, answers and their labels as
// rendered from the executed snapshot, winning query text, error, shard
// stamps): a Result served from the cache has no intermediate stages to
// inspect. Its Trace is the one "cache" entry; a miss's Trace starts
// with that entry and goes on with the stages. With the cache disabled
// — the default, and the paper-faithful configuration — the pipeline is
// fully deterministic.
//
// # Resilience
//
// The stage boundary is the serving layer's isolation boundary. A stage
// that panics does not take the process (or the request's in-flight
// slot) down: the panic is recovered at the boundary into a typed
// *PanicError carrying the stage name and stack, recorded on the
// stage's trace entry, and the request answers StatusInternal. Every
// stage boundary is also a named chaos fault point ("stage.<name>",
// evaluated against the injector carried by the request context via
// internal/chaos), so the soak harness can inject latency, errors and
// panics exactly where real stages fail. Only stages have fault points:
// the answer-cache lookup runs in front of them and has none.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/chaos"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/qacache"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

// Config assembles a System. The zero value plus defaults reproduces
// the paper's configuration; the Disable* switches drive the ablations
// that `qald-eval -ablations` prints and bench_test.go benchmarks.
type Config struct {
	// KB to answer over; nil uses kb.Default().
	KB *kb.KB
	// Corpus controls the pattern-mining corpus. A completely zero
	// CorpusConfig means "use kb.DefaultCorpusConfig()"; a config with
	// any field set is taken verbatim, so explicit zero values of
	// individual fields are honoured (see applyDefaults).
	Corpus kb.CorpusConfig
	// Miner tunes the PATTY-style miner, with the same zero-struct
	// semantics as Corpus.
	Miner patterns.MinerConfig

	// Ablation switches.
	DisablePatterns        bool
	DisableWordNetSynonyms bool
	DisableTypeCheck       bool
	DisableCentrality      bool

	// Extensions turns on the future-work extensions (§6): boolean ASK
	// answering, COUNT aggregation and superlative questions. Off by
	// default to stay paper-faithful.
	Extensions bool

	// CacheSize enables the answer cache when > 0: a bounded, sharded
	// LRU over normalized question text that Lookup consults before the
	// pipeline runs, holding at most CacheSize outcomes. Entries are
	// invalidated by any KB snapshot generation change. 0 disables
	// caching (the paper-faithful default).
	CacheSize int

	// Cluster mounts the fault-tolerant scatter-gather tier
	// (internal/shard): when non-nil, the answer stage executes every
	// request over a gather view of the cluster instead of a direct KB
	// snapshot. The cluster's source store must be KB.Store — the
	// coordinator plans against the same dictionary and statistics the
	// single-store system would. Requests opting into partial answers
	// (shard.WithPartialOK on the request context) degrade instead of
	// failing when shards are down; others fail fast with
	// StatusUnavailable. nil (the default) keeps the single-store path.
	Cluster *shard.Cluster
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Corpus: kb.DefaultCorpusConfig(),
		Miner:  patterns.DefaultMinerConfig(),
	}
}

// applyDefaults fills the config sections the caller left completely
// unset. The sentinel is the zero struct: a Corpus or Miner config
// equal to its type's zero value selects the package default, while a
// config with any field set is used verbatim — so an explicit
// MinerConfig{MinSupport: 0, SubsumeThreshold: 0.9} keeps its zero
// MinSupport instead of being silently clobbered (the old per-field
// check overwrote any config whose SentencesPerFact/MinSupport happened
// to be zero).
func applyDefaults(cfg Config) Config {
	if cfg.Corpus == (kb.CorpusConfig{}) {
		cfg.Corpus = kb.DefaultCorpusConfig()
	}
	if cfg.Miner == (patterns.MinerConfig{}) {
		cfg.Miner = patterns.DefaultMinerConfig()
	}
	return cfg
}

// Trace entry names, in trace order. These key the Trace entries and
// the qaserve per-stage metrics. StageCache names the answer-cache
// lookup, which is not a pipeline stage: Lookup records it, and a miss's
// trace starts with it.
const (
	StageCache   = "cache"
	StageTriplex = "triplex"
	StagePropmap = "propmap"
	StageAnswer  = "answer"
)

// BootPhase is one timed step of bringing a System up.
type BootPhase struct {
	Name    string
	Elapsed time.Duration
}

// System is the assembled pipeline.
type System struct {
	KB       *kb.KB
	WordNet  *wordnet.DB
	Patterns *patterns.Store
	Linker   *ner.Linker

	// Boot is what New spent, in order: "kb_build" (only when New built
	// the default KB itself), "pattern_mining" (unless disabled) and
	// "indexes" (the rest until the System is ready: the mapper's and
	// the answer stage's indexes, and what of WordNet and the linker is
	// not done by then — they build beside kb_build and mining). A
	// caller with timed work of its own before New prepends it — qaserve
	// does, and exports the list as qaserve_boot_seconds{phase=…}.
	Boot []BootPhase

	mapper      *propmap.Mapper
	extractor   *answer.Extractor
	triplexOpts triplex.Options

	// cache is non-nil only when Config.CacheSize > 0.
	cache *qacache.Cache[*outcome]

	// plans holds the compiled SPARQL plan shapes the answer stage
	// attaches to every question's session.
	plans *sparql.PlanCache

	// cluster is the sharded scatter-gather tier (nil = single-store).
	cluster *shard.Cluster
}

var (
	defaultOnce sync.Once
	defaultSys  *System
)

// Default returns a shared System over kb.Default().
func Default() *System {
	defaultOnce.Do(func() { defaultSys = New(DefaultConfig()) })
	return defaultSys
}

// New builds a System: links the KB, mines the relational patterns and
// builds the stages' indexes.
func New(cfg Config) *System {
	cfg = applyDefaults(cfg)
	s := &System{KB: cfg.KB}
	start := time.Now()
	lap := func(phase string) {
		now := time.Now()
		s.Boot = append(s.Boot, BootPhase{phase, now.Sub(start)})
		start = now
	}
	// WordNet needs nothing and the linker only the KB: one goroutine
	// builds both while this one mines, and the mapper waits for both.
	kbReady, linked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(linked)
		s.WordNet = wordnet.Default()
		<-kbReady
		s.Linker = ner.NewLinker(s.KB)
	}()
	if s.KB == nil {
		s.KB = kb.Default()
		lap("kb_build")
	}
	close(kbReady)
	k := s.KB
	if !cfg.DisablePatterns {
		s.Patterns = patterns.Mine(k, k.Corpus(cfg.Corpus), cfg.Miner)
		lap("pattern_mining")
	}
	<-linked
	pmCfg := propmap.DefaultConfig()
	pmCfg.DisablePatterns = cfg.DisablePatterns
	pmCfg.DisableWordNetSynonyms = cfg.DisableWordNetSynonyms
	pmCfg.DisableCentrality = cfg.DisableCentrality
	s.mapper = propmap.New(k, s.WordNet, s.Patterns, s.Linker, pmCfg)
	ansCfg := answer.DefaultConfig()
	ansCfg.DisableTypeCheck = cfg.DisableTypeCheck
	ansCfg.EnableBoolean = cfg.Extensions
	ansCfg.EnableAggregation = cfg.Extensions
	s.extractor = answer.New(k, ansCfg)
	s.triplexOpts = triplex.Options{Superlatives: cfg.Extensions}
	s.cluster = cfg.Cluster
	s.plans = sparql.NewPlanCache(sparql.DefaultPlanCacheSize)

	if cfg.CacheSize > 0 {
		s.cache = qacache.New[*outcome](cfg.CacheSize)
	}
	lap("indexes")
	return s
}

// Status describes how far the pipeline got on a question.
type Status uint8

// Pipeline outcomes.
const (
	// StatusAnswered: an answer set was produced.
	StatusAnswered Status = iota + 1
	// StatusNotExtracted: §2.1 produced no triple patterns.
	StatusNotExtracted
	// StatusNotMapped: §2.2 could not resolve a slot.
	StatusNotMapped
	// StatusUnsupported: the question needs an unsupported answer form
	// (boolean/aggregation).
	StatusUnsupported
	// StatusNoAnswer: queries were built but none returned a
	// type-conforming result.
	StatusNoAnswer
	// StatusCanceled: the request context was cancelled or its deadline
	// expired before the pipeline completed; Err carries ctx.Err().
	StatusCanceled
	// StatusInternal: a stage failed internally — a panic recovered at
	// the stage boundary or an injected chaos fault; Err carries the
	// typed error. Never cached.
	StatusInternal
	// StatusUnavailable: a shard of the scatter-gather tier could not
	// be reached and the request did not opt into partial answers; Err
	// wraps shard.ErrUnavailable. The serving layer maps it to 503 +
	// Retry-After. Transient, so never cached.
	StatusUnavailable
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAnswered:
		return "answered"
	case StatusNotExtracted:
		return "not extracted (§2.1)"
	case StatusNotMapped:
		return "not mapped (§2.2)"
	case StatusUnsupported:
		return "unsupported answer form"
	case StatusNoAnswer:
		return "no type-conforming answer"
	case StatusCanceled:
		return "canceled"
	case StatusInternal:
		return "internal error"
	case StatusUnavailable:
		return "shard unavailable"
	default:
		return "unknown"
	}
}

// Result is the full trace of one question.
type Result struct {
	Question string
	Status   Status
	// CacheHit reports that the answer cache served this result: Lookup
	// sets it, and the Result is then final.
	CacheHit bool
	// Answers is the winning answer set (empty unless StatusAnswered).
	Answers []rdf.Term
	// Err is the stage error for non-answered statuses.
	Err error

	// Stage artifacts: nil when the stage did not run, so on every cache hit.
	Extraction *triplex.Extraction
	Mapping    *propmap.Mapping
	Answer     *answer.Result

	// Trace records what ran on this request: the answer-cache lookup
	// (when the cache is enabled), then each stage — per-entry wall
	// time, candidate counts and cache hit/miss.
	Trace *Trace

	// Degraded marks a partial answer from a sharded system: at least
	// one shard was skipped under the caller's allow_partial opt-in,
	// so Answers may be a subset of the full KB's. ShardsTotal and
	// ShardsAnswered give the exact shape (both zero on single-store
	// systems). Degraded results are never cached.
	Degraded                    bool
	ShardsTotal, ShardsAnswered int

	// snap is the KB snapshot the request executes against: Lookup pins
	// it, and on a sharded system Compute replaces it with the gather
	// view's source snapshot. The answer stage builds its per-question
	// sparql.Session over it (or over view), so everything §2.3
	// executes reads exactly this state; the answers' labels are
	// rendered from it and the cache fill is stamped with its
	// generation, so a concurrent KB write mid-request can neither tear
	// a reply nor stamp a stale answer with a fresh generation. snap is
	// cleared before Lookup or Compute returns so held Results never
	// retain retired snapshots.
	snap *store.Snapshot
	// view is the sharded gather view when the System runs over a
	// shard.Cluster; cleared with snap.
	view *shard.View
	// cacheKey is the normalized question Lookup looked up, kept for the
	// fill.
	cacheKey string
	// winning is the winning query's text and errText Err's, rendered
	// once where Err is set; labels are the rendered answers. A cache
	// entry keeps all three.
	winning, errText string
	labels           []string
	// trace and lookupEntry back Trace: Lookup opens it with the
	// answer-cache lookup's entry, so a hit allocates no trace, and
	// Compute appends one entry per stage.
	trace       Trace
	lookupEntry [1]StageTrace
}

// outcome is an answer-cache entry: a Result's terminal outcome, all
// that a hit restores (never Degraded, which is never cached).
type outcome struct {
	status                      Status
	answers                     []rdf.Term
	labels                      []string
	err                         error
	winning, errText            string
	shardsTotal, shardsAnswered int
}

// fail records a stage's terminal failure on the Result and on the
// stage's trace entry, rendering the error text once for both. The
// terminal Status ends the run.
func (r *Result) fail(status Status, err error, tr *StageTrace) {
	r.Status, r.Err, r.errText = status, err, err.Error()
	tr.Err = r.errText
}

// openTrace points Trace at the Result's own lookup entry, empty.
func (r *Result) openTrace() {
	r.trace.Stages = r.lookupEntry[:0]
	r.Trace = &r.trace
}

// Answered reports whether the pipeline produced an answer.
func (r *Result) Answered() bool { return r.Status == StatusAnswered }

// WinningSPARQL returns the winning query text ("" when unanswered).
func (r *Result) WinningSPARQL() string { return r.winning }

// ErrorText returns Err's text ("" for nil), formatted once, when Err was set.
func (r *Result) ErrorText() string { return r.errText }

// AnswerStrings renders the answers with labels for IRIs and lexical
// forms for literals, sorted. A Result the System returned carries them
// already, rendered from the snapshot its answers came from (a hit, from
// the miss's), and ignores k; the slice is shared with the answer
// cache, so callers must not modify it. A hand-built Result is rendered
// from k's current snapshot (IRIs as their text when k is nil).
func (r *Result) AnswerStrings(k *kb.KB) []string {
	if r.labels != nil {
		return r.labels
	}
	var sn *store.Snapshot
	if k != nil {
		sn = k.Store.Snapshot()
	}
	return renderAnswers(sn, r.Answers)
}

// renderAnswers renders answers against sn: the label of an IRI,
// the lexical form of a literal (and of an IRI when sn is nil), sorted.
func renderAnswers(sn *store.Snapshot, answers []rdf.Term) []string {
	out := make([]string, 0, len(answers))
	for _, t := range answers {
		if t.IsIRI() && sn != nil {
			out = append(out, kb.LabelIn(sn, t))
		} else {
			out = append(out, t.Value)
		}
	}
	sort.Strings(out)
	return out
}

// SynonymPairsOf exposes the §2.2.1 WordNet-derived property pair list
// for a property local name (e.g. "writer" → [author]).
func (s *System) SynonymPairsOf(local string) []kb.Property {
	return s.mapper.SynonymsOf(local)
}

// PlanCacheStats returns the cumulative hit, miss and eviction counts
// of the System's SPARQL plan-shape cache.
func (s *System) PlanCacheStats() (hits, misses, evictions uint64) {
	return s.plans.Stats()
}

// CacheEntries returns the number of entries the answer cache holds
// (0 when the cache is disabled).
func (s *System) CacheEntries() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// StageTrace records one trace entry: a stage's execution, or the
// answer-cache lookup in front of the stages.
type StageTrace struct {
	// Stage is the entry's name: StageCache or a stage's.
	Stage string
	// Duration is the entry's wall time.
	Duration time.Duration
	// Candidates counts the stage's output items (extracted triple
	// patterns, property candidates, candidate queries) — 0 when the
	// stage has no candidate notion.
	Candidates int
	// CacheHit marks the answer-cache lookup entry that served the
	// request (Lookup records it; no stage sets it).
	CacheHit bool
	// PlanCacheHits / PlanCacheMisses count the answer stage's
	// plan-shape cache outcomes for this request's candidate fan-out,
	// and RankSorts the result sorts executed over the snapshot's
	// term-rank permutation. All zero for non-answer stages and for
	// requests executed with plan caching disabled (a disabled cache
	// fabricates no misses).
	PlanCacheHits, PlanCacheMisses uint64
	RankSorts                      uint64
	// ShardsTotal / ShardsAnswered record the answer stage's
	// scatter-gather shape when the system runs sharded (internal/
	// shard): how many shards the cluster has and how many served this
	// request's reads. Degraded marks a partial answer (some shard was
	// skipped under the caller's allow_partial opt-in). All zero/false
	// for single-store systems and non-answer stages.
	ShardsTotal, ShardsAnswered int
	Degraded                    bool
	// Err is the stage's terminal error text ("" for success). Set for
	// both terminal failure statuses and errors that ended the run.
	Err string
}

// Trace is the per-request record of what ran, in order: the
// answer-cache lookup (when the cache is enabled), then each stage.
type Trace struct {
	Stages []StageTrace
}

// Total returns the summed wall time across entries.
func (t *Trace) Total() time.Duration {
	var d time.Duration
	for i := range t.Stages {
		d += t.Stages[i].Duration
	}
	return d
}

// PanicError is a stage panic recovered at the stage boundary: the
// request answers 500 with its trace intact instead of the panic
// unwinding through the serving stack.
type PanicError struct {
	// Stage is the stage that panicked.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error is the text a 500 reply carries; its "pipeline:" prefix is part
// of the wire format.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: stage %s panicked: %v", e.Stage, e.Value)
}

// --- The pipeline stages ---

// stage is one step of the pipeline: its trace entry name, the chaos
// fault point at its boundary, and the method that runs it. A stage
// ends the run by setting a terminal Status on the Result, or by
// returning an error (cancellation, an unavailable shard) that Compute
// maps to one.
type stage struct {
	name, point string
	run         func(*System, context.Context, *Result, *StageTrace) error
}

// stages is the pipeline Compute runs, in order.
var stages = [...]stage{
	{StageTriplex, "stage." + StageTriplex, (*System).runTriplex},
	{StagePropmap, "stage." + StagePropmap, (*System).runPropmap},
	{StageAnswer, "stage." + StageAnswer, (*System).runAnswer},
}

// runTriplex runs §2.1: triple pattern extraction from the dependency
// graph.
func (s *System) runTriplex(_ context.Context, res *Result, tr *StageTrace) error {
	ext, err := triplex.ExtractOpts(res.Question, s.triplexOpts)
	res.Extraction = ext
	if ext != nil {
		tr.Candidates = len(ext.Triples)
	}
	if err != nil {
		res.fail(StatusNotExtracted, err, tr)
	}
	return nil
}

// runPropmap runs §2.2: entity and property mapping.
func (s *System) runPropmap(_ context.Context, res *Result, tr *StageTrace) error {
	mp, err := s.mapper.Map(res.Extraction)
	if err != nil {
		res.fail(StatusNotMapped, err, tr)
		return nil
	}
	res.Mapping = mp
	for _, mt := range mp.Triples {
		tr.Candidates += len(mt.Predicates)
	}
	return nil
}

// runAnswer runs §2.3: candidate query generation, rank-order
// execution and type filtering under the request context.
func (s *System) runAnswer(ctx context.Context, res *Result, tr *StageTrace) error {
	// One question = one execution session = one store view pin: every
	// candidate query, the COUNT retry and the type filter read the
	// view the request pinned — a direct KB snapshot, or the sharded
	// gather view when the System runs over a cluster. The candidates
	// compile from the System's plan shapes.
	var sess *sparql.Session
	if res.view != nil {
		sess = sparql.NewViewSession(res.view).WithPlanCache(s.plans)
	} else {
		sess = sparql.NewViewSession(res.snap).WithPlanCache(s.plans)
	}
	ans, err := s.extractor.ExtractSessionCtx(ctx, res.Mapping, sess)
	ps := sess.PlanStats()
	tr.PlanCacheHits, tr.PlanCacheMisses, tr.RankSorts = ps.Hits, ps.Misses, ps.RankSorts
	if res.view != nil {
		out := res.view.Outcome()
		res.ShardsTotal, res.ShardsAnswered = out.ShardsTotal, out.ShardsAnswered
		res.Degraded = out.Degraded
		tr.ShardsTotal, tr.ShardsAnswered = out.ShardsTotal, out.ShardsAnswered
		tr.Degraded = out.Degraded
		if verr := res.view.Err(); verr != nil {
			// Fail-fast: a shard was unreachable and the caller did not
			// opt into partial answers. Cancellation wins if both raced.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return verr // Compute maps it to StatusUnavailable
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err() // cancellation
		}
		if _, ok := err.(*answer.ErrBoolean); ok {
			res.fail(StatusUnsupported, err, tr)
		} else {
			res.fail(StatusNotMapped, err, tr)
		}
		return nil
	}
	res.Answer = ans
	tr.Candidates = len(ans.Candidates)
	if ans.Answered() {
		res.Status = StatusAnswered
		res.Answers = ans.Answers
		res.winning = ans.Winning.SPARQL
	} else {
		res.Status = StatusNoAnswer
	}
	return nil
}

// runStage runs one stage behind its boundary, timed into a new trace
// entry: the stage's chaos fault point fires first, and a panic —
// injected or organic — is recovered into a *PanicError, so a failing
// stage costs its request a 500, not the process. An error that ends
// the run is recorded on the entry.
func (s *System) runStage(ctx context.Context, st *stage, res *Result) (err error) {
	res.Trace.Stages = append(res.Trace.Stages, StageTrace{Stage: st.name})
	tr := &res.Trace.Stages[len(res.Trace.Stages)-1]
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: st.name, Value: v, Stack: debug.Stack()}
		}
		tr.Duration = time.Since(start)
		if err != nil {
			tr.Err = err.Error()
		}
	}()
	if err = chaos.HitCtx(ctx, st.point); err != nil {
		return err
	}
	return st.run(s, ctx, res, tr)
}

// AnswerCtx answers one question under a request context: Lookup,
// then, unless the answer cache served it, Compute. Cancellation and
// deadlines are honoured at every stage boundary and, inside the answer
// stage, between candidate queries and between join steps of each
// query; a cancelled request returns StatusCanceled with Err set to
// ctx.Err(). A cache hit never looks at ctx. The Result's Trace records
// the lookup and each stage that ran.
func (s *System) AnswerCtx(ctx context.Context, question string) *Result {
	res := s.Lookup(question)
	if !res.CacheHit {
		s.Compute(ctx, res)
	}
	return res
}

// Lookup starts a question: it pins the KB snapshot and, when the answer
// cache is enabled, normalises the question and reads the cache once at
// the snapshot's generation. On a hit the Result is final — CacheHit
// is true, its Trace is the one "cache" entry and it holds no
// snapshot. Otherwise hand it to Compute, which runs the pipeline; its
// Trace is then the lookup's miss entry (nil when the cache is
// disabled). Lookup takes no context: a hit does no work a deadline
// could bound.
func (s *System) Lookup(question string) *Result {
	res := &Result{Question: strings.TrimSpace(question), snap: s.KB.Store.Snapshot()}
	if s.cache == nil {
		return res
	}
	start := time.Now()
	res.cacheKey = qacache.Normalize(res.Question)
	e, hit := s.cache.Get(res.cacheKey, res.snap.Gen())
	res.openTrace()
	res.Trace.Stages = append(res.Trace.Stages, StageTrace{Stage: StageCache, Duration: time.Since(start), CacheHit: hit})
	if hit {
		// The entry's answers and labels are shared, read-only.
		res.CacheHit = true
		res.Status, res.Answers, res.labels, res.Err = e.status, e.answers, e.labels, e.err
		res.winning, res.errText = e.winning, e.errText
		res.ShardsTotal, res.ShardsAnswered = e.shardsTotal, e.shardsAnswered
		res.snap = nil
	}
	return res
}

// Compute runs the pipeline on a Result Lookup did not serve, under ctx:
// triplex → propmap → answer over the snapshot Lookup pinned (a sharded
// system pins its gather view here, under ctx, and executes against the
// view's source snapshot instead). It renders the answers' labels from
// that snapshot before dropping it and fills the answer cache with the
// outcome, stamped with the snapshot's generation. Cancellation,
// unavailable shards, stage panics and injected faults set
// StatusCanceled, StatusUnavailable or StatusInternal and are never
// cached.
func (s *System) Compute(ctx context.Context, res *Result) {
	if s.cluster != nil {
		// Sharded: pin one gather view (source snapshot + every shard
		// snapshot, consistent under the cluster lock). The view reads
		// the request context for the partial-answer opt-in and carries
		// it into every shard call.
		res.view = s.cluster.NewView(ctx)
		res.snap = res.view.Source()
	}
	if res.Trace == nil {
		res.openTrace() // no cache: no lookup entry
	}
	// One allocation holds the lookup's entry and every stage's.
	res.Trace.Stages = slices.Grow(res.Trace.Stages, len(stages))
	var err error
	for i := range stages {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = s.runStage(ctx, &stages[i], res); err != nil || res.Status != 0 {
			break
		}
	}
	res.labels = renderAnswers(res.snap, res.Answers)
	gen := res.snap.Gen()
	// The pinned view is only needed while the stages run; drop it so
	// callers holding Results do not retain retired snapshots against a
	// store that keeps writing.
	res.snap = nil
	res.view = nil
	if err != nil {
		// None of these outcomes is cached: they depend on the request's
		// deadline (cancellation) or on transient faults, not on the
		// question.
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			res.Status = StatusCanceled
		case errors.Is(err, shard.ErrUnavailable):
			res.Status = StatusUnavailable
		default:
			// A recovered stage panic (*PanicError) or an
			// injected chaos fault.
			res.Status = StatusInternal
		}
		res.Err, res.errText = err, err.Error()
		return
	}
	if s.cache != nil && !res.Degraded {
		// Cache the terminal outcome (any status: failure outcomes are
		// deterministic too — but never a degraded partial answer, which
		// reflects transient shard health, not the question), stamped with
		// the generation the request executed against. The entry owns an
		// exact-size copy of res.Answers, a candidate's append-grown slice.
		s.cache.Put(res.cacheKey, gen, &outcome{
			status: res.Status, answers: slices.Clone(res.Answers), labels: res.labels, err: res.Err,
			winning: res.winning, errText: res.errText,
			shardsTotal: res.ShardsTotal, shardsAnswered: res.ShardsAnswered,
		})
	}
}
