// Cross-module integration and robustness tests: the pipeline over the
// dump/load cycle, fuzz-shaped inputs, and determinism guarantees that
// no single package's tests can see.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// TestKBDumpLoadRoundTrip: kbgen-style dump → N-Triples parse → fresh
// store must reproduce the graph exactly.
func TestKBDumpLoadRoundTrip(t *testing.T) {
	orig := kb.Build(kb.Config{Seed: 7, SyntheticPersons: 20, SyntheticCities: 5, SyntheticBooks: 10}).Store.Snapshot()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, orig.Triples()); err != nil {
		t.Fatal(err)
	}
	parsed, err := turtle.ParseNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st2 := store.New()
	st2.AddAll(parsed)
	reloaded := st2.Snapshot()
	if reloaded.Len() != orig.Len() {
		t.Fatalf("round trip: %d triples, want %d", reloaded.Len(), orig.Len())
	}
	// Every original triple survives.
	for _, tr := range orig.Triples() {
		if !reloaded.Has(tr) {
			t.Fatalf("triple lost in round trip: %v", tr)
		}
	}
	// Queries over the reloaded store agree.
	q := `SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . }`
	r1, err := sparql.ExecuteStringCtx(context.Background(), orig, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sparql.ExecuteStringCtx(context.Background(), reloaded, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Solutions()) != len(r2.Solutions()) {
		t.Errorf("query disagreement: %d vs %d", len(r1.Solutions()), len(r2.Solutions()))
	}
}

// TestPipelineNeverPanics feeds adversarial inputs through the full
// pipeline; every input must return a Result, not a panic.
func TestPipelineNeverPanics(t *testing.T) {
	s := core.Default()
	inputs := []string{
		"",
		"?",
		"???",
		"Who",
		"is is is is is",
		"Which which which",
		"How many",
		"Where did",
		"by by by by Orhan Pamuk",
		"Which book is written by",
		"Who wrote wrote wrote The Time Machine Machine?",
		strings.Repeat("very ", 200) + "long question?",
		"Ünïcödé quéstion about Örhan Pamuk?",
		"SELECT ?x WHERE { ?x ?p ?o }", // SPARQL as a question
		"1 2 3 4 5",
		"Is?",
		"The The The",
		"....",
		"\t\n  ",
		"Who is the the the mayor of of Berlin?",
	}
	for _, q := range inputs {
		res := s.AnswerCtx(context.Background(), q)
		if res == nil {
			t.Fatalf("nil result for %q", q)
		}
		if res.Status == core.StatusAnswered && len(res.Answers) == 0 {
			t.Errorf("answered with no answers for %q", q)
		}
	}
}

// TestPipelineFuzzRandomWords streams pseudo-random word salad through
// the pipeline (seeded, so reproducible).
func TestPipelineFuzzRandomWords(t *testing.T) {
	s := core.Default()
	rng := rand.New(rand.NewSource(99))
	vocab := []string{"who", "which", "book", "written", "by", "Orhan",
		"Pamuk", "is", "the", "of", "where", "die", "?", "how", "tall",
		"many", "people", "live", "in", "Berlin", "and", "or", "not",
		"capital", "Turkey", "1.98", "D.C.", "'s"}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(12)
		words := make([]string, n)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		q := strings.Join(words, " ")
		res := s.AnswerCtx(context.Background(), q) // must not panic
		_ = res.Status.String()
	}
}

// TestAnswerDeterminism: the same question answered repeatedly yields
// the same answer set and the same winning query.
func TestAnswerDeterminism(t *testing.T) {
	s := core.Default()
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"Where did Abraham Lincoln die?",
		"What is the population of Victoria?",
	}
	for _, q := range questions {
		first := s.AnswerCtx(context.Background(), q)
		for i := 0; i < 3; i++ {
			again := s.AnswerCtx(context.Background(), q)
			if again.Status != first.Status {
				t.Fatalf("%q: status changed: %v vs %v", q, again.Status, first.Status)
			}
			if again.WinningSPARQL() != first.WinningSPARQL() {
				t.Fatalf("%q: winning query changed", q)
			}
			if len(again.Answers) != len(first.Answers) {
				t.Fatalf("%q: answer count changed", q)
			}
		}
	}
}

// TestTwoSystemsIndependent: separately built systems do not share
// mutable state (the KB store must not be corrupted by answering).
func TestTwoSystemsIndependent(t *testing.T) {
	k1 := kb.Build(kb.Config{Seed: 1})
	k2 := kb.Build(kb.Config{Seed: 1})
	s1 := core.New(core.Config{KB: k1})
	s2 := core.New(core.Config{KB: k2})
	before := k1.Store.Snapshot().Len()
	for i := 0; i < 5; i++ {
		s1.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
		s2.AnswerCtx(context.Background(), "Where did Abraham Lincoln die?")
	}
	if k1.Store.Snapshot().Len() != before || k2.Store.Snapshot().Len() != before {
		t.Error("answering mutated the store")
	}
}

// TestFullSetEvaluationRuns: the 100-question full set (including the
// excluded portion) runs cleanly end to end.
func TestFullSetEvaluationRuns(t *testing.T) {
	s := core.Default()
	rep, err := qald.EvaluateCtx(context.Background(), s, qald.FullSet())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 100 {
		t.Fatalf("total = %d", rep.Total)
	}
	// The excluded 45 have no gold; none should count as correct.
	if rep.Correct > rep.Answered {
		t.Fatal("accounting broken")
	}
}

// TestConcurrentAnswering: the shared system is safe for concurrent
// readers (the store takes RLocks; pipeline state is per-call).
func TestConcurrentAnswering(t *testing.T) {
	s := core.Default()
	questions := []string{
		"Which book is written by Orhan Pamuk?",
		"How tall is Michael Jordan?",
		"Where did Abraham Lincoln die?",
		"Who is the mayor of Berlin?",
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 10; i++ {
				q := questions[(w+i)%len(questions)]
				res := s.AnswerCtx(context.Background(), q)
				if !res.Answered() {
					t.Errorf("%q unanswered under concurrency: %v", q, res.Status)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestCrashRecoveryPreservesQALD is the whole-system durability
// acceptance test: a WAL-backed system takes live mutations that net
// out to the original KB (height swapped away and back, a foreign
// fact inserted and deleted), crashes without closing the log, and is
// rebuilt over the recovered store — after which the QALD evaluation
// must reproduce the frozen Table 2 numbers (P/R/F1 0.83/0.33/0.47)
// exactly, question by question.
func TestCrashRecoveryPreservesQALD(t *testing.T) {
	k := kb.Build(kb.DefaultConfig())
	s1 := core.New(core.Config{KB: k})
	before, err := qald.EvaluateCtx(context.Background(), s1, qald.Questions())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rec, err := wal.Recover(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Open(k.Store)
	if err != nil {
		t.Fatal(err)
	}
	jordan := rdf.Triple{S: rdf.Res("Michael_Jordan"), P: rdf.Ont("height"),
		O: rdf.NewTypedLiteral("1.98", rdf.XSDDouble)}
	tall := jordan
	tall.O = rdf.NewTypedLiteral("2.22", rdf.XSDDouble)
	foreign := rdf.Triple{S: rdf.NewIRI("http://x/e"), P: rdf.NewIRI("http://x/p"),
		O: rdf.NewIRI("http://x/o")}
	for _, ops := range [][]store.BatchOp{
		{{Delete: true, Triples: []rdf.Triple{jordan}}, {Triples: []rdf.Triple{tall}}},
		{{Triples: []rdf.Triple{foreign}}},
		{{Delete: true, Triples: []rdf.Triple{tall}}, {Triples: []rdf.Triple{jordan}}},
		{{Delete: true, Triples: []rdf.Triple{foreign}}},
	} {
		if _, err := m.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the manager is abandoned without Close, so the four
	// batches live only in the fsynced log tail, not in a segment.

	rec2, err := wal.Recover(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Store == nil || rec2.Records != 4 {
		t.Fatalf("recovery = %+v, want 4 replayed records", rec2)
	}
	k2, err := kb.FromStore(rec2.Store)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Store.Snapshot().Len() != k.Store.Snapshot().Len() {
		t.Fatalf("recovered %d triples, want %d", k2.Store.Snapshot().Len(), k.Store.Snapshot().Len())
	}
	s2 := core.New(core.Config{KB: k2})
	m2, err := rec2.Open(k2.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	after, err := qald.EvaluateCtx(context.Background(), s2, qald.Questions())
	if err != nil {
		t.Fatal(err)
	}
	if p, r, f := fmt.Sprintf("%.2f", after.Precision), fmt.Sprintf("%.2f", after.Recall),
		fmt.Sprintf("%.2f", after.F1); p != "0.83" || r != "0.33" || f != "0.47" {
		t.Errorf("post-recovery P/R/F1 = %s/%s/%s, want 0.83/0.33/0.47", p, r, f)
	}
	if after.Precision != before.Precision || after.Recall != before.Recall ||
		after.F1 != before.F1 || after.Correct != before.Correct ||
		after.Answered != before.Answered {
		t.Errorf("evaluation drifted across crash/recovery: before %+v after %+v",
			before, after)
	}
}
