package answer

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplex"
)

// --- §2.3.1 rank order ---

// TestRankOrderTieBreak: of two equal-score candidates that differ only
// in orientation, the one with the variable subject ranks first,
// whatever the entity prints as — a prefixed name sorts after "?x" as
// text, a full IRI before it — and whichever comes first in the input.
// Under plain rdf.Term.Compare, which sorts variables last, the
// orientation would flip.
func TestRankOrderTieBreak(t *testing.T) {
	p := rdf.Ont("spouse")
	x := rdf.NewVar("x")
	for _, entity := range []rdf.Term{rdf.Res("Orhan_Pamuk"), rdf.NewIRI("http://example.org/a")} {
		forward := &sparql.Query{Projection: []string{"x"}, Limit: -1, Patterns: []rdf.Triple{{S: x, P: p, O: entity}}}
		reverse := &sparql.Query{Projection: []string{"x"}, Limit: -1, Patterns: []rdf.Triple{{S: entity, P: p, O: x}}}
		for _, in := range [][]*sparql.Query{{forward, reverse}, {reverse, forward}} {
			cands := []CandidateQuery{
				{Query: in[0], SPARQL: in[0].String(), Score: 0.5},
				{Query: in[1], SPARQL: in[1].String(), Score: 0.5},
				{Query: in[1], SPARQL: in[1].String(), Score: 0.75},
			}
			slices.SortStableFunc(cands, rankOrder)
			if cands[0].Score != 0.75 || cands[1].Query != forward || cands[2].Query != reverse {
				t.Errorf("%v: ranked %q (%v), %q, %q; want the higher score, then %q", entity,
					cands[0].SPARQL, cands[0].Score, cands[1].SPARQL, cands[2].SPARQL, forward.String())
			}
		}
	}
}

// --- firstWinner unit tests ---

// TestFirstWinnerRankOrder: candidates are tried strictly in index
// order, the winner is the first index whose try returns true, and
// nothing past the winner is ever tried.
func TestFirstWinnerRankOrder(t *testing.T) {
	const n, win = 100, 60
	var order []int
	winner, err := firstWinner(context.Background(), n, func(i int) bool {
		order = append(order, i)
		return i == win
	})
	if err != nil || winner != win {
		t.Fatalf("winner = %d, err = %v; want %d, nil", winner, err, win)
	}
	if len(order) != win+1 {
		t.Fatalf("%d candidates tried, want %d", len(order), win+1)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("try order %v", order)
		}
	}
}

// TestFirstWinnerNoWinner tries every index when nothing wins.
func TestFirstWinnerNoWinner(t *testing.T) {
	tried := 0
	winner, err := firstWinner(context.Background(), 50, func(int) bool { tried++; return false })
	if err != nil || winner != -1 || tried != 50 {
		t.Fatalf("winner = %d, err = %v, tried = %d; want -1, nil, 50", winner, err, tried)
	}
	if winner, err := firstWinner(context.Background(), 0, func(int) bool { return true }); err != nil || winner != -1 {
		t.Fatalf("empty candidate set: winner = %d, err = %v", winner, err)
	}
}

// --- rank-order contract of Extract ---

// candSnap is the comparable projection of one candidate's bookkeeping.
type candSnap struct {
	SPARQL   string
	Score    float64
	Executed bool
	Raw      int
	Answers  string
	Err      string
}

type resultSnap struct {
	Answers    string
	WinnerIdx  int
	Truncated  bool
	Candidates []candSnap
}

func snapshot(res *Result) resultSnap {
	s := resultSnap{WinnerIdx: -1, Truncated: res.Truncated, Answers: termsKey(res.Answers)}
	for i := range res.Candidates {
		cq := &res.Candidates[i]
		if res.Winning == cq {
			s.WinnerIdx = i
		}
		errStr := ""
		if cq.Err != nil {
			errStr = cq.Err.Error()
		}
		s.Candidates = append(s.Candidates, candSnap{
			SPARQL:   cq.SPARQL,
			Score:    cq.Score,
			Executed: cq.Executed,
			Raw:      cq.Raw,
			Answers:  termsKey(cq.Answers),
			Err:      errStr,
		})
	}
	return s
}

func termsKey(ts []rdf.Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "|")
}

// synthMapping builds a randomized §2.2 mapping over the KB: one or two
// triples whose predicate candidate sets are random samples of the
// ontology with random similarity/frequency signals, so the Cartesian
// product, ranking and type filter all get exercised.
func synthMapping(r *rand.Rand, k *kb.KB, kind triplex.ExpectedKind, ground bool) *propmap.Mapping {
	props := k.Properties()
	classes := k.Classes
	entities := k.Store.Snapshot().Match(rdf.Triple{P: rdf.Type(), O: rdf.Ont("Person")})
	entities = append(entities, k.Store.Snapshot().Match(rdf.Triple{P: rdf.Type(), O: rdf.Ont("City")})...)
	pickEntity := func() rdf.Term { return entities[r.Intn(len(entities))].S }

	candidates := func() []propmap.PropCandidate {
		n := 1 + r.Intn(5)
		out := make([]propmap.PropCandidate, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, propmap.PropCandidate{
				Property: props[r.Intn(len(props))],
				Sim:      0.5 + r.Float64()/2,
				Freq:     r.Intn(40),
				Source:   propmap.SourceStrSim,
			})
		}
		return out
	}

	mp := &propmap.Mapping{Extraction: &triplex.Extraction{
		Question: "synthetic differential question",
		Expected: triplex.Expected{Kind: kind},
	}}
	if r.Intn(2) == 0 && len(classes) > 0 {
		mp.Triples = append(mp.Triples, propmap.MappedTriple{
			SubjectVar: "x",
			Class:      classes[r.Intn(len(classes))].Term,
		})
	}
	mt := propmap.MappedTriple{Predicates: candidates()}
	if ground {
		// Both slots ground (the ASK shape).
		mt.Subject = pickEntity()
		mt.Object = pickEntity()
	} else if r.Intn(2) == 0 {
		mt.SubjectVar = "x"
		mt.Object = pickEntity()
	} else {
		mt.Subject = pickEntity()
		mt.ObjectVar = "x"
	}
	mp.Triples = append(mp.Triples, mt)
	return mp
}

// checkStopsAtWinner holds a Result to the rank-order contract: every
// candidate up to and including the winner was executed, and none past
// it was touched. An unanswered question ran the whole list, and so did
// a boolean one answered "false" (no ASK was true; the top-ranked one
// that executed answers).
func checkStopsAtWinner(t *testing.T, where string, res *Result) {
	t.Helper()
	snap := snapshot(res)
	last := snap.WinnerIdx
	if last < 0 || res.Expected.Kind == triplex.ExpectBoolean && res.Answers[0].Value == "false" {
		last = len(snap.Candidates) - 1
	}
	for i, c := range snap.Candidates {
		if i <= last && !c.Executed {
			t.Errorf("%s: candidate %d above the winner (%d) was not executed", where, i, snap.WinnerIdx)
		}
		if i > last && (c.Executed || c.Raw != 0 || c.Answers != "" || c.Err != "") {
			t.Errorf("%s: candidate %d past the winner (%d) was touched: %+v", where, i, snap.WinnerIdx, c)
		}
	}
	if w := snap.WinnerIdx; w >= 0 && snap.Candidates[w].Answers != snap.Answers {
		t.Errorf("%s: result answers %q are not the winner's %q", where, snap.Answers, snap.Candidates[w].Answers)
	}
}

// TestExtractStopsAtWinner: over randomized KBs, mappings and expected
// types, Extract commits in rank order — the first candidate with a
// type-conforming answer wins and the loop ends there — and a second
// run of the same mapping gives the identical Result.
func TestExtractStopsAtWinner(t *testing.T) {
	kbs := []*kb.KB{
		kb.Build(kb.Config{Seed: 11, SyntheticPersons: 40, SyntheticCities: 10, SyntheticBooks: 20}),
		kb.Build(kb.Config{Seed: 29, SyntheticPersons: 120, SyntheticCities: 30, SyntheticBooks: 60}),
	}
	kinds := []triplex.ExpectedKind{
		triplex.ExpectAny, triplex.ExpectPerson, triplex.ExpectPlace,
		triplex.ExpectDate, triplex.ExpectNumeric, triplex.ExpectBoolean,
	}
	r := rand.New(rand.NewSource(7))
	answered, stoppedEarly := 0, 0
	for ki, k := range kbs {
		for trial := 0; trial < 240; trial++ {
			kind := kinds[trial%len(kinds)]
			mp := synthMapping(r, k, kind, kind == triplex.ExpectBoolean)
			maxQ := 256
			if trial%3 == 0 {
				maxQ = 4 // exercise the scored-truncation path too
			}
			// Aggregation is left off: its COUNT retry revisits the list
			// after a full SELECT pass, so "past the winner" does not apply.
			e := New(k, Config{MaxQueries: maxQ, EnableBoolean: true})
			res, err := extract(context.Background(), e, mp)
			again, againErr := extract(context.Background(), e, mp)
			if (err == nil) != (againErr == nil) {
				t.Fatalf("kb=%d trial=%d: err mismatch between runs: %v vs %v", ki, trial, err, againErr)
			}
			if err != nil {
				continue
			}
			where := fmt.Sprintf("kb=%d trial=%d kind=%v", ki, trial, kind)
			checkStopsAtWinner(t, where, res)
			if want, got := fmt.Sprintf("%+v", snapshot(res)), fmt.Sprintf("%+v", snapshot(again)); want != got {
				t.Fatalf("%s: two runs diverged:\nfirst:  %s\nsecond: %s", where, want, got)
			}
			if res.Winning != nil {
				answered++
				if last := &res.Candidates[len(res.Candidates)-1]; res.Winning != last && !last.Executed {
					stoppedEarly++
				}
			}
		}
	}
	if answered < 50 || stoppedEarly < 8 {
		t.Fatalf("only %d answered, %d with candidates left below the winner: the contract is not being exercised", answered, stoppedEarly)
	}
}

// TestExtractConcurrentCallers: one Extractor shared by many goroutines
// (the HTTP and batch layers) stays race-free and
// deterministic.
func TestExtractConcurrentCallers(t *testing.T) {
	k, _ := setup(t)
	ex := New(k, Config{MaxQueries: 256})
	mp := mapped(t, "Where did Abraham Lincoln die?")
	ref, err := extract(context.Background(), ex, mp)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", snapshot(ref))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := extract(context.Background(), ex, mp)
			if err != nil {
				errCh <- err
				return
			}
			if got := fmt.Sprintf("%+v", snapshot(res)); got != want {
				errCh <- fmt.Errorf("diverged:\nwant %s\ngot  %s", want, got)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// --- regression: ranking truncation (MaxQueries after scoring) ---

// TestTruncationKeepsTopScored: with candidates generated in ascending
// score order and MaxQueries smaller than the product, the cap must
// keep the *highest*-scoring combinations (the old generation-order cap
// kept the lowest ones).
func TestTruncationKeepsTopScored(t *testing.T) {
	k, _ := setup(t)
	props := k.Properties()
	lincoln := rdf.Res("Abraham_Lincoln")
	// Ascending scores: generation order is worst-first.
	cands := make([]propmap.PropCandidate, 0, 6)
	for i := 0; i < 6; i++ {
		cands = append(cands, propmap.PropCandidate{
			Property: props[i%len(props)],
			Sim:      0.5,
			Freq:     i * 10, // RankScore rises with i
			Source:   propmap.SourceStrSim,
		})
	}
	mp := &propmap.Mapping{
		Extraction: &triplex.Extraction{Question: "truncation regression", Expected: triplex.Expected{Kind: triplex.ExpectAny}},
		Triples:    []propmap.MappedTriple{{Subject: lincoln, ObjectVar: "x", Predicates: cands}},
	}
	res, err := extract(context.Background(), New(k, Config{MaxQueries: 3}), mp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("Truncated flag not set")
	}
	if len(res.Candidates) > 3 {
		t.Fatalf("cap not applied: %d candidates", len(res.Candidates))
	}
	// Every surviving candidate must score at least as high as the best
	// dropped one: the top Freq values are 50, 40, 30 (scores (f+1)*1.0).
	minKept := res.Candidates[len(res.Candidates)-1].Score
	if minKept < 31 {
		t.Fatalf("low-score combination survived truncation: min kept score = %v", minKept)
	}
	if res.Candidates[0].Score < res.Candidates[len(res.Candidates)-1].Score {
		t.Fatal("candidates not in rank order")
	}
}

// TestNoTruncationFlag: when the product fits, Truncated stays false
// and every combination is generated.
func TestNoTruncationFlag(t *testing.T) {
	k, _ := setup(t)
	res, err := extract(context.Background(), New(k, DefaultConfig()), mapped(t, "Where did Abraham Lincoln die?"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("Truncated set on an untruncated product")
	}
}

// --- regression: boolean path must not turn errors into "false" ---

// brokenQuery yields a candidate whose execution always errors
// (sparql.Execute rejects a nil query).
func brokenQuery() CandidateQuery {
	return CandidateQuery{Query: nil, SPARQL: "broken", Score: 99}
}

func askQuery(k *kb.KB, s, p, o rdf.Term, score float64) CandidateQuery {
	q := &sparql.Query{Form: sparql.FormAsk, Limit: -1,
		Patterns: []rdf.Triple{{S: s, P: p, O: o}}}
	return CandidateQuery{Query: q, SPARQL: q.String(), Score: score}
}

func TestBooleanAllErrorsStaysUnanswered(t *testing.T) {
	k, _ := setup(t)
	e := New(k, Config{MaxQueries: 256, EnableBoolean: true})
	res := &Result{Candidates: []CandidateQuery{brokenQuery(), brokenQuery()}}
	if _, err := e.executeBoolean(context.Background(), sparql.NewSnapshotSession(k.Store.Snapshot()), res); err != nil {
		t.Fatal(err)
	}
	if res.Winning != nil || len(res.Answers) != 0 {
		t.Fatalf("all-error boolean question answered %v", res.Answers)
	}
	for i := range res.Candidates {
		if !res.Candidates[i].Executed || res.Candidates[i].Err == nil {
			t.Fatalf("candidate %d bookkeeping: %+v", i, res.Candidates[i])
		}
	}
}

func TestBooleanFallbackSkipsErroredCandidates(t *testing.T) {
	k, _ := setup(t)
	// Candidate 0 errors; candidate 1 executes and is false: the false
	// fallback must come from candidate 1, not the errored one.
	falseAsk := askQuery(k, rdf.Res("Abraham_Lincoln"), rdf.Ont("author"), rdf.Res("Berlin"), 1)
	e := New(k, Config{MaxQueries: 256, EnableBoolean: true})
	res := &Result{Candidates: []CandidateQuery{brokenQuery(), falseAsk}}
	if _, err := e.executeBoolean(context.Background(), sparql.NewSnapshotSession(k.Store.Snapshot()), res); err != nil {
		t.Fatal(err)
	}
	if res.Winning == nil {
		t.Fatal("executed-false question should answer false")
	}
	if res.Winning != &res.Candidates[1] {
		t.Fatal("fallback committed to the errored candidate")
	}
	if res.Answers[0].Value != "false" {
		t.Fatalf("answers = %v", res.Answers)
	}
}

func TestBooleanTrueStillWinsPastErrors(t *testing.T) {
	k, _ := setup(t)
	trueAsk := askQuery(k, rdf.Res("The_Time_Machine"), rdf.Ont("author"), rdf.Res("H._G._Wells"), 1)
	e := New(k, Config{MaxQueries: 256, EnableBoolean: true})
	res := &Result{Candidates: []CandidateQuery{brokenQuery(), trueAsk}}
	if _, err := e.executeBoolean(context.Background(), sparql.NewSnapshotSession(k.Store.Snapshot()), res); err != nil {
		t.Fatal(err)
	}
	if res.Winning != &res.Candidates[1] || res.Answers[0].Value != "true" {
		t.Fatalf("winning=%v answers=%v", res.Winning, res.Answers)
	}
}
