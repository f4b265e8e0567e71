package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/qald"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/triplex"
)

// everyKind is a view that reports a subject and an object of every
// kind for every predicate, so §2.3 over it skips nothing: it executes
// every candidate it reaches and type-filters the rows, as §2.3 did
// before the skip.
type everyKind struct{ sparql.StoreView }

func (everyKind) PredicateKinds(store.ID) store.PredicateKinds {
	var all store.PredicateKinds
	for k := range all.Objects {
		all.Subjects[k], all.Objects[k] = 1, 1
	}
	return all
}

// skipOracle answers the questions under the §2.3 configurations the
// system runs (the paper's, -extensions, and COUNT aggregation alone)
// over one store and over a 4-shard cluster, each twice: on the view
// itself, and on everyKind over it. The two runs must agree.
type skipOracle struct {
	sys     *core.System
	mapper  *propmap.Mapper
	cluster *shard.Cluster
	configs []oracleConfig
}

type oracleConfig struct {
	name   string
	opts   triplex.Options
	ex     *answer.Extractor
	mapped []*propmap.Mapping // per question; nil when §2.1 or §2.2 failed
}

// skipTally counts what the runs did, over the candidates the ranking
// loop reached.
type skipTally struct {
	questions, reached, skipped, skippedRows int
	// rejectedUnskipped counts the executed candidates with rows that
	// Table 1 rejected every one of: the skip could not tell.
	rejectedUnskipped int
}

func newSkipOracle() *skipOracle {
	k := kb.Build(kb.DefaultConfig()) // private: the test writes to it
	sys := core.New(core.Config{KB: k})
	o := &skipOracle{sys: sys, cluster: shard.NewCluster(k.Store, 4, shard.Config{}),
		mapper: propmap.New(k, sys.WordNet, sys.Patterns, sys.Linker, propmap.DefaultConfig())}
	ext := triplex.Options{Superlatives: true}
	o.configs = []oracleConfig{
		{name: "default", ex: answer.New(k, answer.DefaultConfig())},
		{name: "extensions", opts: ext, ex: answer.New(k, answer.Config{Extensions: true})},
		// §2.3's extensions over §2.1 without superlatives: the COUNT
		// retry and the ASK path on the default mappings.
		{name: "extensions without superlatives", ex: answer.New(k, answer.Config{Extensions: true})},
	}
	return o
}

// mapAll runs §2.1 and §2.2 on the questions under each configuration.
func (o *skipOracle) mapAll(questions []string) {
	for c := range o.configs {
		oc := &o.configs[c]
		for _, q := range questions {
			var mp *propmap.Mapping
			if e, err := triplex.ExtractOpts(q, oc.opts); err == nil {
				mp, _ = o.mapper.Map(e)
			}
			oc.mapped = append(oc.mapped, mp)
		}
	}
}

// check runs every question under every configuration on both tiers and
// holds each run to its reference; it returns the tallies by
// configuration and tier.
func (o *skipOracle) check(t *testing.T, questions []string, stage string) map[string]*skipTally {
	t.Helper()
	ctx := context.Background()
	tallies := map[string]*skipTally{}
	tiers := []struct {
		name string
		view func() sparql.StoreView
	}{
		{"store", func() sparql.StoreView { return o.sys.KB.Store.Snapshot() }},
		{"4-shard", func() sparql.StoreView { return o.cluster.NewView(ctx) }},
	}
	sn := o.sys.KB.Store.Snapshot() // the ground probes' snapshot: the shards mirror it
	for _, oc := range o.configs {
		for _, tier := range tiers {
			tally := &skipTally{}
			tallies[oc.name+"/"+tier.name] = tally
			for qi, mp := range oc.mapped {
				if mp == nil {
					continue
				}
				where := fmt.Sprintf("%s: %s on %s: %q", stage, oc.name, tier.name, questions[qi])
				view := tier.view()
				got, err := oc.ex.ExtractSessionCtx(ctx, mp, sparql.NewViewSession(view))
				ref, refErr := oc.ex.ExtractSessionCtx(ctx, mp, sparql.NewViewSession(everyKind{tier.view()}))
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, execute-then-filter %v", where, err, refErr)
				}
				if err != nil {
					continue
				}
				tally.questions++
				compareToReference(t, where, got, ref, tally)
				compareToTermSpace(t, where, got, view, sn)
			}
		}
	}
	return tallies
}

// compareToReference holds a run to the execute-then-filter run of the
// same question: the same winner and answers, the same record for every
// candidate both executed, and every candidate the run skipped executed
// by the reference with no row Table 1 admits.
func compareToReference(t *testing.T, where string, got, ref *answer.Result, tally *skipTally) {
	t.Helper()
	if win, refWin := winnerIndex(got), winnerIndex(ref); win != refWin || !slices.Equal(got.Answers, ref.Answers) {
		t.Fatalf("%s: winner %d answering %v; execute-then-filter: winner %d answering %v", where, win, got.Answers, refWin, ref.Answers)
	}
	for i := range got.Candidates {
		g, r := &got.Candidates[i], &ref.Candidates[i]
		if g.Query.String() != r.Query.String() {
			t.Fatalf("%s: candidate %d is %s, in the reference %s", where, i, g.Query, r.Query)
		}
		if r.Skipped {
			t.Fatalf("%s: the reference skipped candidate %d", where, i)
		}
		if r.Executed || g.Skipped {
			tally.reached++
		}
		if !g.Skipped {
			if g.Executed != r.Executed || g.Raw != r.Raw || !slices.Equal(g.Answers, r.Answers) || fmt.Sprint(g.Err) != fmt.Sprint(r.Err) {
				t.Fatalf("%s: candidate %d ran %+v, in the reference %+v", where, i, *g, *r)
			}
			if g.Executed && g.Raw > 0 && len(g.Answers) == 0 && &got.Candidates[i] != got.Winning {
				tally.rejectedUnskipped++
			}
			continue
		}
		tally.skipped++
		tally.skippedRows += r.Raw
		// A skip is right when the reference ran the candidate and Table
		// 1 admitted none of its rows. (Under COUNT aggregation a skipped
		// candidate may still win the retry, in both runs alike.)
		if !r.Executed || r.Err != nil || len(r.Answers) > 0 && &ref.Candidates[i] != ref.Winning {
			t.Fatalf("%s: candidate %d (%s) was skipped, but the reference ran it to %+v", where, i, g.Query, *r)
		}
	}
}

// compareToTermSpace holds a SELECT run to §2.3 redone in term space
// from the candidates' query text alone: in rank order, a candidate is
// skipped when a pattern binds ?x to a predicate, looked up by its
// term, with no subject or object of Table 1's kind; otherwise it is
// executed on a fresh session over the same view, and each ?x term is
// classified by rdf.Term.ValueKind and typed by the ground probe
// (term, rdf:type, class) on sn; the first with an admitted row wins.
// Every reached candidate's Skipped, SkippedBy, Executed, Raw and
// Answers must match. A candidate the COUNT retry won (its Query is
// the COUNT) is held only to its skip.
func compareToTermSpace(t *testing.T, where string, got *answer.Result, view sparql.StoreView, sn *store.Snapshot) {
	t.Helper()
	expected := got.Expected.Kind
	if expected == triplex.ExpectBoolean {
		return
	}
	want, typed := map[triplex.ExpectedKind]rdf.ValueKind{
		triplex.ExpectPerson: rdf.ValueIRI, triplex.ExpectPlace: rdf.ValueIRI,
		triplex.ExpectDate: rdf.ValueDate, triplex.ExpectNumeric: rdf.ValueNumeric,
	}[expected]
	classes := map[triplex.ExpectedKind][]rdf.Term{
		triplex.ExpectPerson: {rdf.Ont("Person"), rdf.Ont("Organisation"), rdf.Ont("Company")},
		triplex.ExpectPlace:  {rdf.Ont("Place")},
	}[expected]
	admits := func(x rdf.Term) bool {
		switch {
		case !typed:
			return expected == triplex.ExpectClass || expected == triplex.ExpectAny
		case x.ValueKind() != want:
			return false
		case classes == nil:
			return true
		}
		for _, c := range classes {
			if len(sn.Match(rdf.Triple{S: x, P: rdf.Type(), O: c})) > 0 {
				return true
			}
		}
		return false
	}
	x := rdf.NewVar("x")
	won := false
	for i := range got.Candidates {
		g := &got.Candidates[i]
		q := g.Query
		skippedBy := -1
		for pi, p := range q.Patterns {
			if !typed || won || p.P.IsVar() || p.S != x && p.O != x {
				continue
			}
			id, _ := view.Lookup(p.P)
			if k := view.PredicateKinds(id); p.O == x && k.Objects[want] == 0 || p.S == x && k.Subjects[want] == 0 {
				skippedBy = pi
				break
			}
		}
		if g.Skipped != (skippedBy >= 0) || skippedBy >= 0 && g.SkippedBy != skippedBy {
			t.Fatalf("%s: candidate %d (%s) skipped=%v by %d; in term space by %d", where, i, q, g.Skipped, g.SkippedBy, skippedBy)
		}
		if q.Count != nil || skippedBy >= 0 {
			continue
		}
		var raw int
		var answers []rdf.Term
		if !won {
			r, err := sparql.NewViewSession(view).ExecuteCtx(context.Background(), q)
			if (err != nil) != (g.Err != nil) {
				t.Fatalf("%s: candidate %d (%s) erred %v; in term space %v", where, i, q, g.Err, err)
			}
			for _, term := range r.Column("x") {
				raw++
				if admits(term) {
					answers = append(answers, term)
				}
			}
		}
		if g.Executed == won || g.Raw != raw || !slices.Equal(g.Answers, answers) {
			t.Fatalf("%s: candidate %d (%s) executed=%v raw=%d answers %v; in term space executed=%v raw=%d answers %v",
				where, i, q, g.Executed, g.Raw, g.Answers, !won, raw, answers)
		}
		won = won || len(answers) > 0
	}
}

func winnerIndex(res *answer.Result) int {
	for i := range res.Candidates {
		if &res.Candidates[i] == res.Winning {
			return i
		}
	}
	return -1
}

func logTallies(t *testing.T, stage string, tallies map[string]*skipTally) {
	t.Helper()
	names := make([]string, 0, len(tallies))
	for n := range tallies {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, name := range names {
		c := tallies[name]
		t.Logf("%s %-22s %4d questions: %5d candidates reached, %4d skipped (%4d rows the reference rejected), %4d executed with every row rejected",
			stage, name, c.questions, c.reached, c.skipped, c.skippedRows, c.rejectedUnskipped)
	}
}

// TestSkipEqualsExecuteThenFilter: on the 1661 questions (QALD and the
// entity stream), under the paper's configuration, -extensions and
// COUNT aggregation, on one store and on a 4-shard cluster, skipping
// the candidates Table 1 must reject changes no winner, no answer and
// no executed candidate's record, and every skipped candidate's rows
// are all type-rejected when it is run. Then seeded writes through the
// update path move the counts: a predicate's first date object
// un-skips it, deleting it re-skips it, and its first date subject
// un-skips a candidate with ?x in subject position. The test also logs
// how often a skip by the schema (rdfs:range, rdfs:domain) would
// disagree with the counts.
func TestSkipEqualsExecuteThenFilter(t *testing.T) {
	var questions []string
	for _, q := range qald.Questions() {
		questions = append(questions, q.Text)
	}
	o := newSkipOracle()
	questions = append(questions, testutil.EntityQuestions(o.sys.KB)...)
	if len(questions) != 1661 {
		t.Fatalf("%d questions, want 1661", len(questions))
	}
	o.mapAll(questions)

	tallies := o.check(t, questions, "boot")
	logTallies(t, "boot", tallies)
	if c := tallies["default/store"]; c.skipped < 1000 {
		t.Fatalf("only %d candidates skipped over the default stream: the skip is not being exercised", c.skipped)
	}
	o.logSchemaDisagreement(t)

	// The seeded writes, through the update path (the cluster's
	// ApplyUpdate writes its source store, which the single-store runs
	// read, and mirrors it to the shards).
	herbert := "When did Frank Herbert die?"
	qi := slices.Index(questions, herbert)
	write := func(op store.BatchOp) {
		t.Helper()
		if _, added, removed, err := o.cluster.ApplyUpdate(context.Background(), []store.BatchOp{op}); err != nil || added+removed != 1 {
			t.Fatalf("%+v: added %d, removed %d, err %v", op, added, removed, err)
		}
	}
	// skipped reports whether the candidate of the question whose first
	// pattern has predicate p was skipped, and holds it to being
	// executed otherwise.
	skipped := func(stage string, p rdf.Term) bool {
		t.Helper()
		res, err := o.configs[0].ex.ExtractSessionCtx(context.Background(), o.configs[0].mapped[qi], sparql.NewViewSession(o.sys.KB.Store.Snapshot()))
		if err != nil {
			t.Fatal(err)
		}
		for _, cq := range res.Candidates {
			if cq.Query.Patterns[0].P == p {
				if cq.Skipped == cq.Executed {
					t.Fatalf("%s: %s skipped=%v executed=%v", stage, cq.Query, cq.Skipped, cq.Executed)
				}
				return cq.Skipped
			}
		}
		t.Fatalf("%s: %q has no %v candidate", stage, herbert, p)
		return false
	}
	deathPlace, director := rdf.Ont("deathPlace"), rdf.Ont("director")
	if !skipped("boot", deathPlace) || !skipped("boot", director) {
		t.Fatalf("at boot, %q skips neither deathPlace nor director (?x dbont:director res:Frank_Herbert)", herbert)
	}
	date := rdf.NewDate("1999-01-01")
	object := []rdf.Triple{{S: rdf.Res("Orhan_Pamuk"), P: deathPlace, O: date}}
	// SPARQL UPDATE refuses a literal subject, but the store does not:
	// this one is written by the call /v1/update makes after parsing.
	subject := []rdf.Triple{{S: date, P: director, O: rdf.Res("Frank_Herbert")}}
	steps := []struct {
		name                         string
		op                           store.BatchOp
		deathPlaceSkip, directorSkip bool
	}{
		{"first date object", store.BatchOp{Triples: object}, false, true},
		{"last date object deleted", store.BatchOp{Delete: true, Triples: object}, true, true},
		{"first date subject", store.BatchOp{Triples: subject}, true, false},
	}
	for _, st := range steps {
		write(st.op)
		if got := skipped(st.name, deathPlace); got != st.deathPlaceSkip {
			t.Fatalf("%s: deathPlace skipped=%v, want %v", st.name, got, st.deathPlaceSkip)
		}
		if got := skipped(st.name, director); got != st.directorSkip {
			t.Fatalf("%s: director skipped=%v, want %v", st.name, got, st.directorSkip)
		}
		logTallies(t, st.name, o.check(t, questions, st.name))
	}
	// The literal subject answers the question: ?x dbont:director
	// res:Frank_Herbert ranks above deathDate, and its row is a date.
	if r := o.sys.AnswerCtx(context.Background(), herbert); len(r.Answers) != 1 || r.Answers[0] != date {
		t.Fatalf("after the literal subject %q answers %v", herbert, r.Answers)
	}
}

// logSchemaDisagreement compares, for every candidate of every question
// under the paper's configuration, the skip by counts with a skip by
// schema: a pattern binding ?x as the object of an ontology property
// whose rdfs:range is of another kind than Table 1 admits (a class is
// an IRI, an XSD datatype the kind of its literals), or as the subject
// of one when Table 1 admits no IRI (every rdfs:domain is a class).
func (o *skipOracle) logSchemaDisagreement(t *testing.T) {
	t.Helper()
	k := o.sys.KB
	schemaKind := map[rdf.Term]rdf.ValueKind{}
	for _, p := range k.Properties() {
		if p.Object {
			schemaKind[p.Term] = rdf.ValueIRI
		} else {
			schemaKind[p.Term] = rdf.NewTypedLiteral("0", p.Range.Value).ValueKind()
		}
	}
	sn := k.Store.Snapshot()
	oc := o.configs[0]
	var candidates, both, countsOnly, schemaOnly int
	onlyCounts := map[rdf.Term]int{}
	for _, mp := range oc.mapped {
		if mp == nil {
			continue
		}
		want, ok := map[triplex.ExpectedKind]rdf.ValueKind{
			triplex.ExpectPerson: rdf.ValueIRI, triplex.ExpectPlace: rdf.ValueIRI,
			triplex.ExpectDate: rdf.ValueDate, triplex.ExpectNumeric: rdf.ValueNumeric,
		}[mp.Extraction.Expected.Kind]
		res, err := oc.ex.ExtractSessionCtx(context.Background(), mp, sparql.NewViewSession(sn))
		if err != nil || !ok {
			continue
		}
		for _, cq := range res.Candidates {
			candidates++
			byCounts, byRange := false, false
			for _, p := range cq.Query.Patterns {
				subj, obj := p.S == rdf.NewVar("x"), p.O == rdf.NewVar("x")
				if p.P.IsVar() || !subj && !obj {
					continue
				}
				id, _ := sn.Lookup(p.P)
				kinds := sn.PredicateKinds(id)
				rk, declared := schemaKind[p.P]
				schema := declared && (obj && rk != want || subj && want != rdf.ValueIRI)
				if obj && kinds.Objects[want] == 0 || subj && kinds.Subjects[want] == 0 {
					byCounts = true
					if !schema {
						onlyCounts[p.P]++
					}
				}
				byRange = byRange || schema
			}
			switch {
			case byCounts && byRange:
				both++
			case byCounts:
				countsOnly++
			case byRange:
				schemaOnly++
			}
		}
	}
	t.Logf("schema vs counts over %d typed candidates: both skip %d, only the counts %d, only the schema %d", candidates, both, countsOnly, schemaOnly)
	t.Logf("patterns only the counts skip, by predicate: %v", onlyCounts)
}
