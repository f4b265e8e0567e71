// Package core assembles the paper's full question answering pipeline
// as an explicit staged architecture:
//
//	question
//	  → cache   — answer cache lookup (config-gated, generation-keyed)
//	  → triplex — §2.1 triple pattern extraction   (internal/triplex)
//	  → propmap — §2.2 entity & property mapping   (internal/propmap)
//	  → answer  — §2.3 answer extraction           (internal/answer)
//	  → ranked answers
//
// Each stage runs behind the uniform request-scoped interface of
// internal/pipeline: it takes a context.Context (cancellation and
// deadlines are honoured at every stage boundary and, inside §2.3,
// between candidate queries and between join steps), writes its outcome
// into the shared Result, and records itself in the Result's Trace
// (per-stage wall time, candidate counts, cache hit/miss). The Trace is
// what the serving layer (cmd/qaserve) exports as per-stage latency
// metrics.
//
// System is the public entry point: build one with New (or share the
// process-wide Default) and call AnswerCtx. The Result records every
// intermediate stage, so callers can inspect the extracted triples, the
// candidate property sets, the generated SPARQL queries and the ranking
// — the trace the paper walks through for "Which book is written by
// Orhan Pamuk?".
//
// The answer cache (internal/qacache) is mounted as the first stage
// when Config.CacheSize > 0: entries are keyed on normalized question
// text and stamped with the KB snapshot generation, so any store write
// (including a single-triple delete) invalidates every previously
// cached answer. An entry is the answer, not its derivation (status,
// answers, winning query text, error, shard stamps): a Result served
// from the cache has no intermediate stages to inspect. With the cache
// disabled — the default, and the paper-faithful configuration — the
// pipeline is fully deterministic.
package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/pipeline"
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
// the paper's configuration; the Disable* switches drive the ablation
// benchmarks called out in DESIGN.md.
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

	// Future-work extensions (§6): boolean ASK answering, COUNT
	// aggregation and superlative questions, off by default to stay
	// paper-faithful.
	EnableBoolean      bool
	EnableAggregation  bool
	EnableSuperlatives bool

	// CacheSize enables the answer cache when > 0: a bounded, sharded
	// LRU over normalized question text mounted as the pipeline's first
	// stage, holding at most CacheSize results. Entries are invalidated
	// by any KB snapshot generation change. 0 disables caching (the
	// paper-faithful default).
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

// Stage names, in pipeline order. These key the Trace entries and the
// qaserve per-stage metrics.
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
	// "indexes" (WordNet, the linker's and the mapper's, the wiring). A
	// caller with timed work of its own before New prepends it — qaserve
	// does, and exports the list as qaserve_boot_seconds{phase=…}.
	Boot []BootPhase

	mapper      *propmap.Mapper
	extractor   *answer.Extractor
	triplexOpts triplex.Options

	// pipe is the staged pipeline AnswerCtx runs; cache is non-nil only
	// when Config.CacheSize > 0.
	pipe  *pipeline.Pipeline[*Result]
	cache *qacache.Cache[*Result]

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
// wires the pipeline stages.
func New(cfg Config) *System {
	cfg = applyDefaults(cfg)
	s := &System{KB: cfg.KB}
	start := time.Now()
	lap := func(phase string) {
		now := time.Now()
		s.Boot = append(s.Boot, BootPhase{phase, now.Sub(start)})
		start = now
	}
	if s.KB == nil {
		s.KB = kb.Default()
		lap("kb_build")
	}
	k := s.KB
	if !cfg.DisablePatterns {
		s.Patterns = patterns.Mine(k, k.Corpus(cfg.Corpus), cfg.Miner)
		lap("pattern_mining")
	}
	s.WordNet, s.Linker = wordnet.Default(), ner.NewLinker(k)
	pmCfg := propmap.DefaultConfig()
	pmCfg.DisablePatterns = cfg.DisablePatterns
	pmCfg.DisableWordNetSynonyms = cfg.DisableWordNetSynonyms
	pmCfg.DisableCentrality = cfg.DisableCentrality
	s.mapper = propmap.New(k, s.WordNet, s.Patterns, s.Linker, pmCfg)
	ansCfg := answer.DefaultConfig()
	ansCfg.DisableTypeCheck = cfg.DisableTypeCheck
	ansCfg.EnableBoolean = cfg.EnableBoolean
	ansCfg.EnableAggregation = cfg.EnableAggregation
	s.extractor = answer.New(k, ansCfg)
	s.triplexOpts = triplex.Options{Superlatives: cfg.EnableSuperlatives}
	s.cluster = cfg.Cluster

	var stages []pipeline.Stage[*Result]
	if cfg.CacheSize > 0 {
		s.cache = qacache.New[*Result](cfg.CacheSize)
		stages = append(stages, cacheStage{s})
	}
	s.pipe = pipeline.New(append(stages, triplexStage{s}, propmapStage{s}, answerStage{s})...)
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
	// Answers is the winning answer set (empty unless StatusAnswered).
	Answers []rdf.Term
	// Err is the stage error for non-answered statuses.
	Err error

	// Stage artifacts: nil when the stage did not run, so on every cache hit.
	Extraction *triplex.Extraction
	Mapping    *propmap.Mapping
	Answer     *answer.Result

	// Trace records the stages that ran on this request: per-stage wall
	// time, candidate counts and cache hit/miss.
	Trace *pipeline.Trace

	// Degraded marks a partial answer from a sharded system: at least
	// one shard was skipped under the caller's allow_partial opt-in,
	// so Answers may be a subset of the full KB's. ShardsTotal and
	// ShardsAnswered give the exact shape (both zero on single-store
	// systems). Degraded results are never cached.
	Degraded                    bool
	ShardsTotal, ShardsAnswered int

	// snap is the KB snapshot pinned at request start: the answer stage
	// builds its per-question sparql.Session over it, so everything
	// §2.3 executes reads exactly this state. snapGen is its
	// generation; cache lookups and fills both use it, so a concurrent
	// KB write mid-request cannot stamp a stale answer with a fresh
	// generation — the stamped generation is by construction the one
	// that was executed. snap is cleared before AnswerCtx returns so
	// held Results and cache entries never retain retired snapshots.
	snap    *store.Snapshot
	snapGen uint64
	// view is the sharded gather view when the System runs over a
	// shard.Cluster (then snap is nil); cleared with snap.
	view *shard.View
	// cacheKey is the normalized question the cache stage looked up, kept
	// for the fill.
	cacheKey string
	// winning is the winning query's text and errText Err's, rendered
	// once where Err is set; a cache entry keeps both.
	winning, errText string
}

// setOutcome copies src's terminal outcome: all that a cache entry
// holds and a hit restores (never Degraded, which is never cached).
func (r *Result) setOutcome(src *Result) {
	r.Status, r.Answers, r.Err = src.Status, src.Answers, src.Err
	r.winning, r.errText = src.winning, src.errText
	r.ShardsTotal, r.ShardsAnswered = src.ShardsTotal, src.ShardsAnswered
}

// fail records a stage's terminal failure on the Result and on the
// stage's trace entry, rendering the error text once for both.
func (r *Result) fail(status Status, err error, tr *StageTrace) error {
	r.Status, r.Err, r.errText = status, err, err.Error()
	tr.Err = r.errText
	return pipeline.ErrStop
}

// Answered reports whether the pipeline produced an answer.
func (r *Result) Answered() bool { return r.Status == StatusAnswered }

// CacheHit reports whether this result was served from the answer
// cache.
func (r *Result) CacheHit() bool { return r.Trace != nil && r.Trace.CacheHit() }

// WinningSPARQL returns the winning query text ("" when unanswered).
func (r *Result) WinningSPARQL() string { return r.winning }

// ErrorText returns Err's text ("" for nil), formatted once, when Err was set.
func (r *Result) ErrorText() string { return r.errText }

// AnswerStrings renders the answers with labels for IRIs and lexical
// forms for literals, sorted.
func (r *Result) AnswerStrings(k *kb.KB) []string {
	out := make([]string, 0, len(r.Answers))
	for _, t := range r.Answers {
		if t.IsIRI() && k != nil {
			out = append(out, k.LabelOf(t))
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

// CacheStats returns the answer cache's cumulative hit, miss and
// eviction counts (zeros when the cache is disabled).
func (s *System) CacheStats() (hits, misses, evictions uint64) {
	if s.cache == nil {
		return 0, 0, 0
	}
	return s.cache.Stats()
}

// CacheEntries returns the number of entries the answer cache holds
// (0 when the cache is disabled).
func (s *System) CacheEntries() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// CacheEligible reports whether the answer cache currently holds a
// live entry for the question at the store's current generation — i.e.
// whether AnswerCtx would (absent a concurrent write racing the probe)
// be served by the cache stage without entering the fan-out. The
// serving layer's admission control uses it to classify requests:
// cache-served answers cost microseconds, so they are the last work an
// overloaded server sheds. The probe never touches the cache's hit or
// miss statistics or its LRU order. Always false when the cache is
// disabled.
func (s *System) CacheEligible(question string) bool {
	if s.cache == nil {
		return false
	}
	return s.cache.Peek(qacache.Normalize(question), s.KB.Store.Snapshot().Gen())
}

// --- The pipeline stages ---

// cacheStage serves a request from the answer cache. Mounted only when
// Config.CacheSize > 0. A hit copies the cached terminal outcome into
// the request's Result — no intermediate artifacts: the entry has none —
// and stops the pipeline. Hits share the entry's read-only answer slice.
type cacheStage struct{ s *System }

func (st cacheStage) Name() string { return StageCache }
func (st cacheStage) Run(ctx context.Context, res *Result, tr *StageTrace) error {
	res.cacheKey = qacache.Normalize(res.Question)
	if cached, ok := st.s.cache.Get(res.cacheKey, res.snapGen); ok {
		res.setOutcome(cached)
		tr.CacheHit = true
		return pipeline.ErrStop
	}
	return nil
}

// triplexStage runs §2.1: triple pattern extraction from the
// dependency graph.
type triplexStage struct{ s *System }

func (st triplexStage) Name() string { return StageTriplex }
func (st triplexStage) Run(ctx context.Context, res *Result, tr *StageTrace) error {
	ext, err := triplex.ExtractOpts(res.Question, st.s.triplexOpts)
	res.Extraction = ext
	if ext != nil {
		tr.Candidates = len(ext.Triples)
	}
	if err != nil {
		return res.fail(StatusNotExtracted, err, tr)
	}
	return nil
}

// propmapStage runs §2.2: entity and property mapping.
type propmapStage struct{ s *System }

func (st propmapStage) Name() string { return StagePropmap }
func (st propmapStage) Run(ctx context.Context, res *Result, tr *StageTrace) error {
	mp, err := st.s.mapper.Map(res.Extraction)
	if err != nil {
		return res.fail(StatusNotMapped, err, tr)
	}
	res.Mapping = mp
	for _, mt := range mp.Triples {
		tr.Candidates += len(mt.Predicates)
	}
	return nil
}

// answerStage runs §2.3: candidate query generation, rank-order
// execution and type filtering under the request context.
type answerStage struct{ s *System }

func (st answerStage) Name() string { return StageAnswer }
func (st answerStage) Run(ctx context.Context, res *Result, tr *StageTrace) error {
	// One question = one execution session = one store view pin: every
	// candidate query, the COUNT retry and the type filter read the
	// view AnswerCtx pinned at request entry — a direct KB snapshot,
	// or the sharded gather view when the System runs over a cluster.
	var sess *sparql.Session
	if res.view != nil {
		sess = sparql.NewViewSession(res.view)
	} else {
		sess = sparql.NewSnapshotSession(res.snap)
	}
	ans, err := st.s.extractor.ExtractSessionCtx(ctx, res.Mapping, sess)
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
			tr.Err = verr.Error()
			return verr // AnswerCtx maps it to StatusUnavailable
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err() // cancellation: surfaced by pipeline.Run
		}
		if _, ok := err.(*answer.ErrBoolean); ok {
			return res.fail(StatusUnsupported, err, tr)
		}
		return res.fail(StatusNotMapped, err, tr)
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

// StageTrace aliases the pipeline trace entry so stage implementations
// read naturally here.
type StageTrace = pipeline.StageTrace

// AnswerCtx runs the staged pipeline on one question under a request
// context. Cancellation and deadlines are honoured at every stage
// boundary and, inside the answer stage, between candidate queries and
// between join steps of each query; a cancelled request returns
// StatusCanceled with Err set to ctx.Err(). The Result's Trace records
// each stage that ran.
func (s *System) AnswerCtx(ctx context.Context, question string) *Result {
	res := &Result{Question: strings.TrimSpace(question)}
	if s.cluster != nil {
		// Sharded: pin one gather view (source snapshot + every shard
		// snapshot, consistent under the cluster lock). The view reads
		// the request context for the partial-answer opt-in and carries
		// it into every shard call.
		res.view = s.cluster.NewView(ctx)
		res.snapGen = res.view.Gen()
	} else {
		res.snap = s.KB.Store.Snapshot()
		res.snapGen = res.snap.Gen()
	}
	tr, err := s.pipe.Run(ctx, res)
	res.Trace = tr
	// The pinned view is only needed while the stages run; drop it so
	// callers (or cache entries) holding Results do not retain retired
	// snapshots against a store that keeps writing.
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
			// A recovered stage panic (*pipeline.PanicError) or an
			// injected chaos fault.
			res.Status = StatusInternal
		}
		res.Err, res.errText = err, err.Error()
		return res
	}
	if s.cache != nil && !tr.CacheHit() && !res.Degraded {
		// Cache the terminal outcome (any status: failure outcomes are
		// deterministic too — but never a degraded partial answer, which
		// reflects transient shard health, not the question), stamped with
		// the generation the request executed against. The entry owns an
		// exact-size copy of res.Answers, a candidate's append-grown slice.
		cached := new(Result)
		cached.setOutcome(res)
		cached.Answers = slices.Clone(res.Answers)
		s.cache.Put(res.cacheKey, res.snapGen, cached)
	}
	return res
}
