package answer

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/patterns"
	"repro/internal/propmap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplex"
	"repro/internal/wordnet"
)

var (
	once sync.Once
	mpr  *propmap.Mapper
	tkb  *kb.KB
)

func setup(t *testing.T) (*kb.KB, *propmap.Mapper) {
	t.Helper()
	once.Do(func() {
		tkb = kb.Default()
		corpus := tkb.Corpus(kb.DefaultCorpusConfig())
		pats := patterns.Mine(tkb, corpus, patterns.DefaultMinerConfig())
		mpr = propmap.New(tkb, wordnet.Default(), pats, ner.NewLinker(tkb), propmap.DefaultConfig())
	})
	return tkb, mpr
}

// extract runs §2.3 on a session over the store's current snapshot,
// with no plan cache.
func extract(ctx context.Context, e *Extractor, mp *propmap.Mapping) (*Result, error) {
	return e.ExtractSessionCtx(ctx, mp, sparql.NewViewSession(e.kb.Store.Snapshot()))
}

func mapped(t *testing.T, q string) *propmap.Mapping {
	t.Helper()
	ext, err := triplex.ExtractOpts(q, triplex.Options{})
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	mp, err := mpr.Map(ext)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return mp
}

// TestQuery1Query2Generation reproduces §2.3's candidate queries for
// the Orhan Pamuk question: Q must include both the writer and the
// author variant, each as a two-pattern BGP.
func TestQuery1Query2Generation(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	res, err := extract(context.Background(), ex, mapped(t, "Which book is written by Orhan Pamuk?"))
	if err != nil {
		t.Fatal(err)
	}
	var variants []string
	for _, cq := range res.Candidates {
		if text := cq.Query.String(); strings.Contains(text, "rdf:type dbont:Book") {
			variants = append(variants, text)
		}
	}
	joined := strings.Join(variants, "\n")
	if !strings.Contains(joined, "dbont:writer") || !strings.Contains(joined, "dbont:author") {
		t.Errorf("Query1/Query2 variants missing:\n%s", joined)
	}
	if !res.Answered() || len(res.Answers) != 5 {
		t.Errorf("answers = %v", res.Answers)
	}
}

// TestRankingPrefersFrequentPredicate verifies §2.3.1: for "die", the
// deathPlace query must rank (and win) over birthPlace/residence.
func TestRankingPrefersFrequentPredicate(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	res, err := extract(context.Background(), ex, mapped(t, "Where did Abraham Lincoln die?"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() {
		t.Fatalf("unanswered")
	}
	if !strings.Contains(res.Winning.SPARQL, "dbont:deathPlace") {
		t.Errorf("winning query = %q, want deathPlace", res.Winning.SPARQL)
	}
	if res.Answers[0] != rdf.Res("Washington,_D.C.") {
		t.Errorf("answers = %v", res.Answers)
	}
	// Candidates are sorted by descending score.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i-1].Score < res.Candidates[i].Score {
			t.Errorf("candidates unsorted at %d", i)
		}
	}
}

// TestTypeCheckSelectsDate verifies §2.3.2: "When did Frank Herbert
// die?" must pass over the higher-ranked deathPlace query (wrong type)
// and answer from deathDate. dbont:deathPlace has no date object, so
// the deathPlace query is skipped unexecuted.
func TestTypeCheckSelectsDate(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	res, err := extract(context.Background(), ex, mapped(t, "When did Frank Herbert die?"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() {
		t.Fatal("unanswered")
	}
	if !strings.Contains(res.Winning.SPARQL, "dbont:deathDate") {
		t.Errorf("winning = %q", res.Winning.SPARQL)
	}
	if res.Answers[0].ValueKind() != rdf.ValueDate {
		t.Errorf("answer not a date: %v", res.Answers[0])
	}
	// The deathPlace candidate must rank above the winner and have been
	// skipped, not executed.
	skippedPlace := false
	for i, cq := range res.Candidates {
		if &res.Candidates[i] == res.Winning {
			break
		}
		if strings.Contains(cq.Query.String(), "deathPlace") && cq.Skipped && !cq.Executed && cq.Raw == 0 {
			skippedPlace = true
			if got, want := res.Outcome(i), "skipped: dbont:deathPlace has no date literal object"; got != want {
				t.Errorf("Outcome = %q, want %q", got, want)
			}
		}
	}
	if !skippedPlace {
		t.Error("deathPlace candidate should have been skipped above the winner")
	}
}

// TestTypeCheckDisabledAblation: with the §2.3.2 filter off, the same
// question answers with the wrong type (a place instead of a date).
func TestTypeCheckDisabledAblation(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, Config{DisableTypeCheck: true, MaxQueries: 256})
	res, err := extract(context.Background(), ex, mapped(t, "When did Frank Herbert die?"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() {
		t.Fatal("unanswered")
	}
	if res.Answers[0].ValueKind() == rdf.ValueDate {
		t.Error("with type check disabled the higher-ranked deathPlace query should win")
	}
}

// TestOrientationPruning verifies that domain/range typing prunes the
// impossible direction: "Who wrote The Time Machine?" only makes sense
// as (book author ?x).
func TestOrientationPruning(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	res, err := extract(context.Background(), ex, mapped(t, "Who wrote The Time Machine?"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() || res.Answers[0] != rdf.Res("H._G._Wells") {
		t.Fatalf("answers = %v", res.Answers)
	}
	for _, cq := range res.Candidates {
		if text := cq.Query.String(); strings.Contains(text, "?x dbont:author res:The_Time_Machine") {
			t.Errorf("untypable orientation generated: %s", text)
		}
	}
}

func TestBooleanUnsupported(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	ext, err := triplex.ExtractOpts("Was Albert Einstein born in Ulm?", triplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mpr.Map(ext)
	if err != nil {
		t.Fatal(err)
	}
	_, err = extract(context.Background(), ex, mp)
	if err == nil {
		t.Fatal("boolean question should be rejected")
	}
	if _, ok := err.(*ErrBoolean); !ok {
		t.Errorf("error type = %T", err)
	}
}

func TestMaxQueriesCap(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, Config{MaxQueries: 2})
	res, err := extract(context.Background(), ex, mapped(t, "Where did Abraham Lincoln die?"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) > 2 {
		t.Errorf("candidates = %d, want <= 2", len(res.Candidates))
	}
}

func TestAnsweredHelper(t *testing.T) {
	r := &Result{}
	if r.Answered() {
		t.Error("empty result should not be answered")
	}
}

func TestNumericAnswersPassPlainLiterals(t *testing.T) {
	// DBpedia-raw style plain numeric literal passes the Numeric check.
	k, _ := setup(t)
	ex := New(k, DefaultConfig())
	res, err := extract(context.Background(), ex, mapped(t, "How tall is Michael Jordan?"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answered() || !res.Answers[0].IsNumeric() {
		t.Errorf("numeric answer expected: %v", res.Answers)
	}
}
