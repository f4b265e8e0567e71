// Benchmark harness regenerating every table and figure of the paper's
// evaluation, the ablations `qald-eval -ablations` prints, and substrate
// micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report the reproduced metrics through
// b.ReportMetric (precision/recall/F1 as fractions), so `go test
// -bench=Table2` regenerates Table 2's row next to the timing.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/nlp/depparse"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/qald"
	"repro/internal/qaserve"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/triplex"
	"repro/internal/wal"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

func sharedSystem(b *testing.B) *core.System {
	b.Helper()
	sysOnce.Do(func() { sys = core.Default() })
	return sys
}

// --- Figure 1: the dependency graph of the running example ---

// BenchmarkFigure1DependencyGraph regenerates Figure 1: the dependency
// parse of "Which book is written by Orhan Pamuk" (root `written`,
// nsubjpass/det/auxpass/prep/pobj edges).
func BenchmarkFigure1DependencyGraph(b *testing.B) {
	const sentence = "Which book is written by Orhan Pamuk?"
	var g *depparse.Graph
	for i := 0; i < b.N; i++ {
		g, _ = depparse.Parse(sentence)
	}
	if g.Nodes[g.Root].Text != "written" {
		b.Fatalf("Figure 1 root = %q", g.Nodes[g.Root].Text)
	}
}

// --- Table 1: expected answer types ---

// BenchmarkTable1ExpectedTypes regenerates Table 1 by extracting the
// expected answer type for one question of each question word.
func BenchmarkTable1ExpectedTypes(b *testing.B) {
	rows := []struct {
		question string
		want     triplex.ExpectedKind
	}{
		{"Who wrote The Time Machine?", triplex.ExpectPerson},
		{"Where did Abraham Lincoln die?", triplex.ExpectPlace},
		{"When did Frank Herbert die?", triplex.ExpectDate},
		{"How many people live in Istanbul?", triplex.ExpectNumeric},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			ext, err := triplex.ExtractOpts(row.question, triplex.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if ext.Expected.Kind != row.want {
				b.Fatalf("%q: expected %v, got %v", row.question, row.want, ext.Expected.Kind)
			}
		}
	}
}

// --- Table 2: the headline evaluation ---

// BenchmarkTable2QALDEvaluation regenerates Table 2: the full pipeline
// over the 55-question QALD-2-style set. Reported metrics are fractions
// (paper: precision 0.83, recall 0.32, F1 0.46).
func BenchmarkTable2QALDEvaluation(b *testing.B) {
	s := sharedSystem(b)
	qs := qald.Questions()
	var rep *qald.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = qald.EvaluateCtx(context.Background(), s, qs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Precision, "precision")
	b.ReportMetric(rep.Recall, "recall")
	b.ReportMetric(rep.F1, "F1")
}

// --- Ablations (the table `qald-eval -ablations` prints) ---

func benchmarkAblation(b *testing.B, cfg core.Config) {
	s := core.New(cfg)
	qs := qald.Questions()
	var rep *qald.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = qald.EvaluateCtx(context.Background(), s, qs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Precision, "precision")
	b.ReportMetric(rep.Recall, "recall")
	b.ReportMetric(rep.F1, "F1")
}

// BenchmarkAblationNoPatterns evaluates without §2.2.3 relational
// patterns (string similarity + WordNet only).
func BenchmarkAblationNoPatterns(b *testing.B) {
	benchmarkAblation(b, core.Config{DisablePatterns: true})
}

// BenchmarkAblationNoWordNet evaluates without the §2.2.1 property
// synonym pairs.
func BenchmarkAblationNoWordNet(b *testing.B) {
	benchmarkAblation(b, core.Config{DisableWordNetSynonyms: true})
}

// BenchmarkAblationNoTypeCheck evaluates without §2.3.2 expected-type
// checking.
func BenchmarkAblationNoTypeCheck(b *testing.B) {
	benchmarkAblation(b, core.Config{DisableTypeCheck: true})
}

// BenchmarkAblationNoCentrality evaluates with string-similarity-only
// entity disambiguation (no page-link centrality).
func BenchmarkAblationNoCentrality(b *testing.B) {
	benchmarkAblation(b, core.Config{DisableCentrality: true})
}

// BenchmarkExtensionFutureWork evaluates the paper's §6 future-work
// extensions (boolean ASK answering + COUNT aggregation + superlative
// extremisation): recall rises well above Table 2's 32 % while
// precision holds.
func BenchmarkExtensionFutureWork(b *testing.B) {
	benchmarkAblation(b, core.Config{Extensions: true})
}

// BenchmarkPatternNoiseSweep sweeps the corpus cross-relation noise
// rate (the PATTY defect the paper discusses) and reports F1 at each
// level; rising noise degrades property ranking.
func BenchmarkPatternNoiseSweep(b *testing.B) {
	for _, noise := range []float64{0.0, 0.04, 0.2, 0.5} {
		b.Run(fmt.Sprintf("noise=%.2f", noise), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Corpus.NoiseRate = noise
			s := core.New(cfg)
			qs := qald.Questions()
			var rep *qald.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = qald.EvaluateCtx(context.Background(), s, qs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Precision, "precision")
			b.ReportMetric(rep.F1, "F1")
		})
	}
}

// --- End-to-end latency per question category ---

func BenchmarkAnswerEndToEnd(b *testing.B) {
	s := sharedSystem(b)
	cases := []struct{ name, q string }{
		{"passive-wh", "Which book is written by Orhan Pamuk?"},
		{"copular-wh", "Who is the mayor of Berlin?"},
		{"how-adj", "How tall is Michael Jordan?"},
		{"where-did", "Where did Abraham Lincoln die?"},
		{"active-wh", "Who wrote The Time Machine?"},
		{"unanswerable", "Is Frank Herbert still alive?"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.AnswerCtx(context.Background(), c.q)
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkStoreInsert(b *testing.B) {
	b.ReportAllocs()
	st := store.New()
	for i := 0; i < b.N; i++ {
		st.AddAll([]rdf.Triple{{
			S: rdf.Res(fmt.Sprintf("S%d", i%10000)),
			P: rdf.Ont(fmt.Sprintf("p%d", i%16)),
			O: rdf.NewInteger(int64(i)),
		}})
	}
}

func BenchmarkStoreMatchBound(b *testing.B) {
	k := kb.Default()
	pat := rdf.Triple{P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := estimate(k.Store.Snapshot(), pat); n != 5 {
			b.Fatalf("count = %d", n)
		}
	}
}

// estimate reads the snapshot's cardinality estimate for a term pattern,
// resolving its bound terms as the planner does; an unknown term
// matches nothing.
func estimate(sn *store.Snapshot, pat rdf.Triple) int {
	var ids [3]store.ID
	for i, t := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if t.IsZero() || t.IsVar() {
			continue
		}
		id, ok := sn.Lookup(t)
		if !ok {
			return 0
		}
		ids[i] = id
	}
	return sn.EstimateCardinalityIDs(ids)
}

// mustParseQuery parses one of the benchmarks' fixed queries.
func mustParseQuery(b *testing.B, src string) *sparql.Query {
	b.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// execUncached runs q on a fresh session with no plan cache, as
// qaload's sparql.exec_us probe does: every iteration builds the
// shape, binds and joins.
func execUncached(st *store.Store, q *sparql.Query) (*sparql.Result, error) {
	return sparql.NewSnapshotSession(st.Snapshot()).ExecuteCtx(context.Background(), q)
}

func BenchmarkSPARQLTwoPatternJoin(b *testing.B) {
	k := kb.Default()
	q := mustParseQuery(b, `SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := execUncached(k.Store, q)
		if err != nil || res.Len() != 5 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func BenchmarkSPARQLFilterScan(b *testing.B) {
	k := kb.Default()
	q := mustParseQuery(b, `SELECT ?x WHERE { ?x dbont:populationTotal ?p . FILTER(?p > 3000000) }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execUncached(k.Store, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPARQLParse(b *testing.B) {
	b.ReportAllocs()
	const src = `SELECT DISTINCT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . FILTER(?x != res:Snow) } ORDER BY ?x LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDependencyParse is §2.1's parse alone — tokenize, tag,
// lemmatise and the dependency rules — over the entity-template stream
// entity_cold sends, then the 100 QALD questions, cycled.
func BenchmarkDependencyParse(b *testing.B) {
	sentences := testutil.EntityQuestions(kb.Default())
	for _, q := range qald.FullSet() {
		sentences = append(sentences, q.Text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depparse.Parse(sentences[i%len(sentences)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternMining(b *testing.B) {
	k := kb.Default()
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns.Mine(k, corpus, patterns.DefaultMinerConfig())
	}
}

func BenchmarkNEDResolve(b *testing.B) {
	k := kb.Default()
	linker := ner.NewLinker(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := linker.Resolve("Michael Jordan", "Chicago Bulls"); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// partialNames returns up to n distinct misspelt or truncated gazetteer
// names: label i%len with 1–3 trailing bytes dropped and, from the
// second round on, one interior letter replaced.
func partialNames(k *kb.KB, n int) []string {
	var labels []string
	for _, l := range testutil.Labels(k) {
		if len(l) >= 6 && len(l) == len([]rune(l)) { // byte edits below need one byte per rune
			labels = append(labels, l)
		}
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; len(out) < n && i < 8*n; i++ {
		l, round := labels[i%len(labels)], i/len(labels)
		p := []byte(l[:len(l)-1-round%3])
		if e := round / 3; e > 0 {
			p[1+(e-1)%(len(p)-1)] = byte('a' + (e-1)/(len(p)-1)%26)
		}
		if s := string(p); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkNEDResolveFuzzy is the §2.2.5 fallback a phrase takes when
// no label matches it exactly: a stream of distinct partial names, each
// scored against the gazetteer. No name repeats within 1<<17 iterations
// (64 times the gazetteer), so no memo keyed by the phrase can serve it.
func BenchmarkNEDResolveFuzzy(b *testing.B) {
	k := kb.Default()
	linker := ner.NewLinker(k)
	names := partialNames(k, min(b.N, 1<<17))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linker.Resolve(names[i%len(names)])
	}
}

// BenchmarkNewLinker is the NED gazetteer and page-link index built
// from the built-in KB, as core.New builds it at boot: ≈ 2.1–2.5 ms,
// 0.62 MB and 3.7k allocs/op on a 2-vCPU host by store ID (≈ 4.8–5.7
// ms, 1.93 MB and 5.3k through rdf.Term maps).
func BenchmarkNewLinker(b *testing.B) {
	k := kb.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ner.NewLinker(k)
	}
}

// BenchmarkPropmapMap is the whole §2.2 stage over the extractions of
// the entity-template questions (qaload's entity_cold stream).
func BenchmarkPropmapMap(b *testing.B) {
	s := sharedSystem(b)
	mapper := propmap.New(s.KB, s.WordNet, s.Patterns, s.Linker, propmap.DefaultConfig())
	var exts []*triplex.Extraction
	for _, q := range testutil.EntityQuestions(s.KB) {
		if ext, err := triplex.ExtractOpts(q, triplex.Options{}); err == nil {
			exts = append(exts, ext)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapper.Map(exts[i%len(exts)])
	}
}

// BenchmarkKBBuild is the built-in KB from nothing: two write batches
// (the asserted triples, the inferred rdf:type closure), both written
// by ID. On a 2-vCPU host it reads ≈ 9–10 ms, 1.90 MB and 14.1k
// allocs/op; 16–19 ms, 4.47 MB and 20.5k while the helpers queued
// rdf.Triples for AddAll and the closure was found in term space, and
// 194 ms, 205 MB and 188,557 while every triple was a batch.
func BenchmarkKBBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb.Build(kb.DefaultConfig())
	}
}

// BenchmarkKBBuildScale is the same build at 1×, 4× and 16× the
// synthetic sizes (6.5k, 22k and 83k triples). A linear build reads the
// same ns/triple and B/triple at every size; one publication per triple
// doubled both from ×1 to ×4.
func BenchmarkKBBuildScale(b *testing.B) {
	for _, x := range []int{1, 4, 16} {
		cfg := kb.DefaultConfig()
		cfg.SyntheticPersons *= x
		cfg.SyntheticCities *= x
		cfg.SyntheticBooks *= x
		b.Run(fmt.Sprintf("x%d", x), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			triples := 0
			for i := 0; i < b.N; i++ {
				triples += kb.Build(cfg).Store.Snapshot().Len()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(triples), "ns/triple")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(triples), "B/triple")
		})
	}
}

// BenchmarkCoreBoot is core.New over a KB that is already built — what
// is left of a boot once the store is not it: the corpus and pattern
// mining on the calling goroutine, WordNet and the linker's index on a
// second one beside them, then the mapper's §2.2 indexes. On a 2-vCPU
// host it reads ≈ 5.5–6 ms, 1.58 MB and 8.3k allocs/op since the linker
// builds by store ID (≈ 8.5–10.5 ms, 2.90 MB and 9.9k before), and
// ≈ 16 ms, 5.58 MB and 31,982 while mining tagged every sentence and
// the linker waited for it.
func BenchmarkCoreBoot(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.KB = kb.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(cfg)
	}
}

// BenchmarkCorpus is the corpus verbaliser over the built-in KB: the
// 1902 annotated sentences the miner reads.
func BenchmarkCorpus(b *testing.B) {
	k := kb.Default()
	cfg := kb.DefaultCorpusConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Corpus(cfg)
	}
}

// BenchmarkMine is patterns.Mine over the default corpus, built outside
// the timer: span normalisation, distant supervision and the taxonomy.
func BenchmarkMine(b *testing.B) {
	k := kb.Default()
	corpus := k.Corpus(kb.DefaultCorpusConfig())
	cfg := patterns.DefaultMinerConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns.Mine(k, corpus, cfg)
	}
}

// --- PR 1 tentpole benchmarks: ID-space execution vs. term space ---
//
// The benchmarks below are the perf contract of the ID-space execution
// engine: single-pattern scan and full end-to-end answering. The query
// benchmarks (3-pattern BGP join, LIMIT, DISTINCT+ORDER BY) and their
// *TermSpace twins over the retained map-based reference evaluator live
// in internal/sparql/bench_test.go, beside that evaluator.

// BenchmarkStoreScanTerms scans every triple with a bound predicate,
// materialising full rdf.Term triples (the term-space path).
func BenchmarkStoreScanTerms(b *testing.B) {
	k := kb.Default()
	pat := rdf.Triple{P: rdf.Ont("birthPlace")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		k.Store.Snapshot().ForEachMatch(pat, func(rdf.Triple) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkStoreScanIDs is the same scan over the ID-space surface: no
// term materialisation at all.
func BenchmarkStoreScanIDs(b *testing.B) {
	k := kb.Default()
	pid, ok := k.Store.Snapshot().Lookup(rdf.Ont("birthPlace"))
	if !ok {
		b.Fatal("birthPlace not in dictionary")
	}
	pat := [3]store.ID{0, pid, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		k.Store.Snapshot().ForEachMatchIDs(pat, func(_, _, _ store.ID) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkStoreLookup resolves terms to IDs through the dictionary,
// as every §2.2/§2.3 constant is: hit cycles through every built-in
// term, miss through each of them with "#" appended to its value.
func BenchmarkStoreLookup(b *testing.B) {
	sn := kb.Default().Store.Snapshot()
	hits := sn.TermsView()
	misses := make([]rdf.Term, len(hits))
	for i, t := range hits {
		t.Value += "#"
		misses[i] = t
	}
	for _, c := range []struct {
		name  string
		terms []rdf.Term
		found bool
	}{{"hit", hits, true}, {"miss", misses, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := sn.Lookup(c.terms[i%len(c.terms)]); ok != c.found {
					b.Fatalf("Lookup(%v) found %v", c.terms[i%len(c.terms)], ok)
				}
			}
		})
	}
}

// benchJoin3 is the 3-pattern join (person -> birthplace -> population)
// the snapshot-read pair and the plan-compile pair run.
const benchJoin3 = `SELECT ?p ?c ?n WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . }`

// BenchmarkAnswerThroughput measures full core.System.Answer throughput
// over a mixed workload, the end-to-end guard for executor rewrites.
func BenchmarkAnswerThroughput(b *testing.B) {
	s := sharedSystem(b)
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"Who is the mayor of Berlin?",
		"Where did Abraham Lincoln die?",
		"How many people live in Istanbul?",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AnswerCtx(context.Background(), questions[i%len(questions)])
	}
}

// BenchmarkAnswerCold is the entity_cold workload in process: the 1.6k
// entity-template questions cycled through AnswerCtx with no answer
// cache, so every iteration runs §2.1–§2.3 on a question the previous
// 1.6k did not repeat. Its B/op and allocs/op are the miss path's
// allocation figures (core's TestColdPathAllocations gates them); it is
// the BENCH= for allocation work in scripts/profile.sh.
func BenchmarkAnswerCold(b *testing.B) {
	s := sharedSystem(b)
	questions := testutil.EntityQuestions(s.KB)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AnswerCtx(ctx, questions[i%len(questions)])
	}
}

// BenchmarkStoreScale measures indexed matching at growing store sizes
// (the substrate's scaling behaviour under the synthetic long tail).
func BenchmarkStoreScale(b *testing.B) {
	for _, persons := range []int{100, 1000, 5000} {
		k := kb.Build(kb.Config{Seed: 3, SyntheticPersons: persons,
			SyntheticCities: persons / 5, SyntheticBooks: persons / 2})
		b.Run(fmt.Sprintf("persons=%d/triples=%d", persons, k.Store.Snapshot().Len()), func(b *testing.B) {
			pat := rdf.Triple{P: rdf.Ont("birthPlace")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				estimate(k.Store.Snapshot(), pat)
			}
		})
	}
}

// BenchmarkSPARQLScale measures the two-pattern join at growing sizes.
func BenchmarkSPARQLScale(b *testing.B) {
	for _, persons := range []int{100, 1000, 5000} {
		k := kb.Build(kb.Config{Seed: 3, SyntheticPersons: persons,
			SyntheticCities: persons / 5, SyntheticBooks: persons / 2})
		q := mustParseQuery(b, `SELECT ?p ?c WHERE { ?p rdf:type dbont:Person . ?p dbont:birthPlace ?c . } LIMIT 50`)
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execUncached(k.Store, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §2.3 candidate execution ---
//
// A multi-pattern question whose candidates are expensive joins and
// whose winner sits at the bottom of the ranking forces the §2.3 loop
// to execute (nearly) every candidate: the worst case of rank-order
// execution. The winner is asserted every iteration.

var (
	fanoutOnce sync.Once
	fanoutKB   *kb.KB
	fanoutMP   *propmap.Mapping
	fanoutWant string
)

func fanoutSetup(b *testing.B) (*kb.KB, *propmap.Mapping) {
	b.Helper()
	fanoutOnce.Do(func() {
		fanoutKB = kb.Build(kb.Config{Seed: 7,
			SyntheticPersons: 3000, SyntheticCities: 600, SyntheticBooks: 1500})
		// ?x rdf:type Person joined against every candidate property:
		// object properties rank high and never yield a date, so the
		// ExpectDate filter rejects them and the loop descends to the
		// low-ranked deathDate candidate.
		locals := []struct {
			name string
			freq int
		}{
			{"birthPlace", 90}, {"deathPlace", 80}, {"residence", 70},
			{"almaMater", 60}, {"employer", 50}, {"team", 40},
			{"author", 30}, {"capital", 20}, {"deathDate", 1},
		}
		var cands []propmap.PropCandidate
		for _, l := range locals {
			p, ok := fanoutKB.PropertyByLocal(l.name)
			if !ok {
				continue
			}
			cands = append(cands, propmap.PropCandidate{
				Property: &p, Sim: 0.8, Freq: l.freq, Source: propmap.SourcePattern,
			})
		}
		fanoutMP = &propmap.Mapping{
			Extraction: &triplex.Extraction{
				Question: "fan-out benchmark question",
				Expected: triplex.Expected{Kind: triplex.ExpectDate},
			},
			Triples: []propmap.MappedTriple{
				{SubjectVar: "p", Class: rdf.Ont("Person")},
				{SubjectVar: "p", ObjectVar: "x", Predicates: cands},
			},
		}
		ex := answer.New(fanoutKB, answer.Config{MaxQueries: 256})
		res, err := ex.ExtractSessionCtx(context.Background(), fanoutMP, sparql.NewViewSession(fanoutKB.Store.Snapshot()))
		if err != nil {
			panic(err)
		}
		if res.Winning == nil {
			panic("fan-out benchmark question unanswered")
		}
		fanoutWant = res.Winning.SPARQL
	})
	return fanoutKB, fanoutMP
}

// BenchmarkExtractSequential executes the candidate set in rank order
// with the shared per-question sparql.Session and a plan cache attached
// — the production path (the name dates from when a speculative pool
// ran beside it). After the first iteration every candidate compiles
// from a cached shape and then runs its join.
func BenchmarkExtractSequential(b *testing.B) {
	k, mp := fanoutSetup(b)
	ex := answer.New(k, answer.Config{MaxQueries: 256})
	// Plan-shape cache hit rate over the measured loop, from the
	// benchmark's own cache (the PR 9 acceptance floor is > 90%: after
	// the first iteration warms the shapes, every sibling candidate of
	// every later iteration must hit).
	plans := sparql.NewPlanCache(sparql.DefaultPlanCacheSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := sparql.NewSnapshotSession(k.Store.Snapshot()).WithPlanCache(plans)
		res, err := ex.ExtractSessionCtx(context.Background(), mp, sess)
		if err != nil {
			b.Fatal(err)
		}
		if res.Winning == nil || res.Winning.SPARQL != fanoutWant {
			b.Fatalf("diverged: %+v", res.Winning)
		}
	}
	b.StopTimer()
	if hits, misses, _ := plans.Stats(); hits+misses > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "planhit%")
	}
}

// --- PR 3 tentpole benchmarks: wait-free reads under write load ---
//
// The pair below is the perf contract of the snapshot read model: the
// same 3-pattern join on an idle store vs. with a bulk AddAll/RemoveAll
// churn loop running concurrently. Under the old RWMutex store a reader
// arriving mid-batch stalled for the remainder of the batch (and queued
// behind further writers); with snapshot pinning the reader's only cost
// is CPU sharing with the writer, so the under-load mean must stay
// within 2× of idle.

func underLoadStore(b *testing.B) *store.Store {
	b.Helper()
	k := kb.Build(kb.Config{Seed: 13,
		SyntheticPersons: 2000, SyntheticCities: 400, SyntheticBooks: 1000})
	return k.Store
}

func churnBatch(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{
			S: rdf.Res(fmt.Sprintf("Churn%d", i)),
			P: rdf.Ont("churn"),
			O: rdf.NewInteger(int64(i)),
		}
	}
	return out
}

func benchmarkJoinMaybeUnderLoad(b *testing.B, load bool) {
	st := underLoadStore(b)
	q := mustParseQuery(b, benchJoin3)
	var (
		stop chan struct{}
		done chan struct{}
	)
	if load {
		stop, done = make(chan struct{}), make(chan struct{})
		batch := churnBatch(1024)
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.AddAll(batch)
				st.ApplyBatch([]store.BatchOp{{Delete: true, Triples: batch}})
				// Pace the loader to a bounded duty cycle so the
				// benchmark measures stall behaviour, not raw CPU
				// contention on single-core hosts.
				time.Sleep(4 * time.Millisecond)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil || res.Len() == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
	b.StopTimer()
	if load {
		close(stop)
		<-done
	}
}

// BenchmarkBGPJoinIdle is the baseline: the 3-pattern join with no
// concurrent writers.
func BenchmarkBGPJoinIdle(b *testing.B) { benchmarkJoinMaybeUnderLoad(b, false) }

// BenchmarkBGPJoinUnderLoad runs the identical join while a bulk
// churn loop adds and deletes 1024-triple batches concurrently.
func BenchmarkBGPJoinUnderLoad(b *testing.B) { benchmarkJoinMaybeUnderLoad(b, true) }

// --- PR 4: staged pipeline + serving layer ---

// BenchmarkAnswerCtx is BenchmarkAnswerThroughput through the staged
// AnswerCtx entry point: the pair bounds the overhead of the pipeline
// framework (stage dispatch, trace recording, ctx checks) against the
// monolithic PR 3 loop.
func BenchmarkAnswerCtx(b *testing.B) {
	s := sharedSystem(b)
	ctx := context.Background()
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"Who is the mayor of Berlin?",
		"Where did Abraham Lincoln die?",
		"How many people live in Istanbul?",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AnswerCtx(ctx, questions[i%len(questions)])
	}
}

var (
	serveOnce sync.Once
	serveSys  *core.System
)

// servingSystem builds one cache-enabled System for the serving
// benchmarks (separate from sharedSystem: the cache changes results'
// provenance, never their content).
func servingSystem(b *testing.B) *core.System {
	b.Helper()
	serveOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.CacheSize = 1024
		serveSys = core.New(cfg)
	})
	return serveSys
}

// benchmarkServeAnswer drives POST /v1/answer through the handler (no
// network, httptest recorders) with the answer cache warm or cold per
// iteration batch.
func benchmarkServeAnswer(b *testing.B, cached bool) {
	srv := qaserve.New(qaserve.Config{Sys: servingSystem(b)})
	h := srv.Handler()
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"Who is the mayor of Berlin?",
		"Where did Abraham Lincoln die?",
		"How many people live in Istanbul?",
	}
	bodyFor := func(i int) *bytes.Reader {
		q := questions[i%len(questions)]
		if !cached {
			// A unique suffix defeats the cache key (the question still
			// answers identically: trailing '?' variants normalise, so
			// vary the text itself).
			q = fmt.Sprintf("%s (%d)", q, i)
		}
		body, _ := json.Marshal(map[string]string{"question": q})
		return bytes.NewReader(body)
	}
	if cached { // warm the cache
		for i := 0; i < len(questions); i++ {
			req := httptest.NewRequest("POST", "/v1/answer", bodyFor(i))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/answer", bodyFor(i))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkServeAnswerCached serves repeat questions from the answer
// cache (the steady state of a production query distribution's head).
func BenchmarkServeAnswerCached(b *testing.B) { benchmarkServeAnswer(b, true) }

// BenchmarkServeAnswerUncached forces a full pipeline run per request
// (every question textually fresh).
func BenchmarkServeAnswerUncached(b *testing.B) { benchmarkServeAnswer(b, false) }

// --- PR 6: WAL append and crash recovery ---

// walTriple makes a ground triple unique to i for durability benches.
func walTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://bench/e%d", i)),
		P: rdf.NewIRI("http://bench/p"),
		O: rdf.NewIRI(fmt.Sprintf("http://bench/v%d", i)),
	}
}

// BenchmarkWALAppend measures the durable commit path: one
// single-triple batch per op, appended to the log and fsynced before
// it is applied to the store (auto-compaction disabled so the
// iteration cost is pure append+fsync+apply).
func BenchmarkWALAppend(b *testing.B) {
	rec, err := wal.Recover(b.TempDir(), wal.Options{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := rec.Open(store.New())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := []store.BatchOp{{Triples: []rdf.Triple{walTriple(i)}}}
		if _, err := m.Apply(context.Background(), ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecovery measures what a crashed qaserve runs on the
// built-in KB's durable state before core.New: wal.Recover over a
// segment plus a 64-record log tail, then kb.FromStore over the store
// it returns.
func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	rec, err := wal.Recover(dir, wal.Options{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := rec.Open(kb.Build(kb.DefaultConfig()).Store)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ops := []store.BatchOp{{Triples: []rdf.Triple{walTriple(i)}}}
		if _, err := m.Apply(context.Background(), ops); err != nil {
			b.Fatal(err)
		}
	}
	// No Close: the log tail stays unfolded, as after a crash.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := wal.Recover(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Store == nil || r.Records != 64 {
			b.Fatalf("recovery = %+v", r)
		}
		if _, err := kb.FromStore(r.Store); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Term-rank integer sorts ---
//
// BenchmarkRankSort runs the ORDER-BY-less deterministic sort the
// term-rank permutation replaced. The plan-shape cache's compile pair,
// BenchmarkPlanCacheHit/Miss, lives in internal/sparql. All the regexes
// live in scripts/bench.sh.

// BenchmarkRankSort executes a DISTINCT query without ORDER BY over a
// high-cardinality projection — the deterministic default sort that
// now runs as an unstable integer sort over the snapshot's term-rank
// permutation instead of a stable term-materializing sort.
func BenchmarkRankSort(b *testing.B) {
	k := kb.Default()
	q := mustParseQuery(b, `SELECT DISTINCT ?p ?c WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c . }`)
	sess := sparql.NewSnapshotSession(k.Store.Snapshot())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.ExecuteCtx(context.Background(), q)
		if err != nil || res.Len() == 0 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// --- PR 8: chaos fault-point overhead ---

// BenchmarkChaosHitDisabled measures an inert fault point: the cost a
// production request (no injector in its context) pays at every stage
// boundary. The differential guarantee wants this indistinguishable
// from free.
func BenchmarkChaosHitDisabled(b *testing.B) {
	ctx := context.Background() // carries no injector: the production state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chaos.HitCtx(ctx, "stage.answer"); err != nil {
			b.Fatal(err)
		}
	}
}
