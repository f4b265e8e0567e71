// Package answer implements §2.3 of the paper: building the candidate
// query set Q as the Cartesian product of per-triple property
// candidates, executing every query against the knowledge base, ranking
// by the product of the predicates' pattern frequencies (§2.3.1),
// filtering answers by the expected answer type of Table 1 (§2.3.2) and
// returning the top-ranked answer set.
//
// # Execution order
//
// The candidates run one at a time, in rank order, on the caller's
// goroutine, and the first one whose outcome wins ends the run: every
// candidate ranked above the winner has been executed (Executed, Raw,
// Answers, Err record how it fared) or skipped, and none below it has
// been touched. A SELECT candidate is skipped, unexecuted, when one of
// its patterns binds ?x as the object (or the subject) of a predicate
// none of whose objects (subjects) in the pinned view is of the value
// kind Table 1 admits — a Date answer from dbont:birthPlace: every row
// it could return would be type-rejected, so the skip changes no
// outcome. The counts are the store's (store.Snapshot.PredicateKinds),
// exact for the snapshot, and the filter and the counts classify terms
// by the one rdf.Term.ValueKind.
// Candidate 0 usually wins, so speculating on lower ranks only spent
// work a busy server needs for other questions; parallelism lives one
// level up, across questions (one per HTTP connection). The
// SELECT candidates, the ASK path and the COUNT retry share one loop,
// firstWinner. Only a candidate that runs is printed: the loop sets
// CandidateQuery.SPARQL when it executes one, and a skipped or
// unreached candidate's text is its Query.String().
//
// # Store IDs
//
// §2.3 asks the store about a question's constants in ID space. The
// ground entity of each triple, the Domain and Range classes the
// orientation typing probes, Table 1's classes and the predicates the
// skip asks about are each resolved through the session once a
// question (typing); the skip reads a predicate's kind counts by ID,
// and the type filter probes each answer row by the ID the executor
// returned (sparql.Result.IDAt), so no repeated probe hashes a term.
//
// The run is request-scoped: ExtractSessionCtx checks the caller's context
// between candidates and sparql.ExecuteCtx checks it between join
// steps, so a deadline expiring mid-§2.3 returns ctx.Err() within one
// join step.
package answer

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/triplex"
)

// Config controls answer extraction.
type Config struct {
	// DisableTypeCheck turns off §2.3.2 (ablation).
	DisableTypeCheck bool
	// MaxQueries caps |Q| to keep the Cartesian product bounded.
	MaxQueries int

	// Extensions turns on the paper's future-work extensions of §2.3:
	// yes/no questions, whose boolean-typed mappings produce ASK
	// queries and answer with an xsd:boolean literal, and COUNT
	// aggregation, where a numeric-typed question whose queries return
	// entities answers with the (distinct) result count.
	Extensions bool
}

// DefaultConfig mirrors the paper.
func DefaultConfig() Config { return Config{MaxQueries: 256} }

// CandidateQuery is one member of Q with its execution outcome.
type CandidateQuery struct {
	Query *sparql.Query
	// SPARQL is Query's text, printed when the ranking loop executes
	// the candidate; "" for one it skipped or did not reach, whose text
	// is Query.String().
	SPARQL string
	// Score is the §2.3.1 ranking score: the product of the predicate
	// candidates' rank scores.
	Score float64
	// Answers holds the type-filtered results after execution.
	Answers []rdf.Term
	// Raw is the unfiltered result count.
	Raw int
	// Executed marks whether the ranking loop ran this query.
	Executed bool
	// Skipped marks a query the ranking loop reached and did not run:
	// Query.Patterns[SkippedBy] binds ?x as the object (subject) of a
	// predicate with no object (subject) of the value kind Table 1
	// admits, so no row of it could pass the type filter.
	Skipped   bool
	SkippedBy int
	// Err records the execution error for an executed candidate (nil
	// for candidates that ran to completion).
	Err error
}

// Result is the outcome of §2.3 for one question.
type Result struct {
	// Answers is the winning query's answer set (empty when no query
	// produced type-conforming answers).
	Answers []rdf.Term
	// Winning points into Candidates (nil when unanswered).
	Winning *CandidateQuery
	// Candidates is Q in rank order.
	Candidates []CandidateQuery
	// Truncated reports that the Cartesian product exceeded MaxQueries
	// and Candidates holds only the top-scoring combinations.
	Truncated bool
	Expected  triplex.Expected
}

// Answered reports whether the system produced an answer.
func (r *Result) Answered() bool { return r.Winning != nil && len(r.Answers) > 0 }

// Outcome says how the ranking loop left candidate i, as qa -explain
// prints it beside the query: won, executed (its rows and how many the
// type filter rejected, or its error), skipped (the Table 1 reason), or
// not reached.
func (r *Result) Outcome(i int) string {
	cq := &r.Candidates[i]
	switch {
	case cq == r.Winning:
		return fmt.Sprintf("won: %d answer(s)", len(cq.Answers))
	case cq.Skipped:
		kind, _ := tableKind(r.Expected.Kind)
		p := cq.Query.Patterns[cq.SkippedBy]
		side := "object"
		switch {
		case !isAnswerVar(p.O):
			side = "subject"
		case isAnswerVar(p.S):
			side = "subject or object"
		}
		return fmt.Sprintf("skipped: %s has no %s %s", p.P, kind, side)
	case !cq.Executed:
		return "not reached"
	case cq.Err != nil:
		return fmt.Sprintf("executed: error: %v", cq.Err)
	case cq.Query.Form == sparql.FormAsk:
		return "executed: false"
	case cq.Raw == 0:
		return "executed: no rows"
	}
	return fmt.Sprintf("executed: %d row(s), %d type-rejected", cq.Raw, cq.Raw-len(cq.Answers))
}

// Extractor executes §2.3 against one KB.
type Extractor struct {
	kb  *kb.KB
	cfg Config
}

// New builds an Extractor.
func New(k *kb.KB, cfg Config) *Extractor {
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = DefaultConfig().MaxQueries
	}
	return &Extractor{kb: k, cfg: cfg}
}

// ErrBoolean marks boolean questions (unsupported answer form, outside
// Table 1 — the paper's pipeline does not produce ASK queries).
type ErrBoolean struct{ Question string }

func (e *ErrBoolean) Error() string {
	return fmt.Sprintf("answer: boolean questions are not supported (Table 1 has no boolean type): %q", e.Question)
}

// ExtractSessionCtx builds, ranks and executes the candidate queries
// under a request context, over a caller-pinned execution session: one
// question = one session = one snapshot pin. Candidate execution
// honours cancellation between candidates and, inside each query,
// between join steps; when the context is cancelled before a candidate
// has won, it returns ctx.Err() promptly — bounded by one join step.
// Everything §2.3 reads — candidate orientation typing, every candidate
// query of the SELECT fan-out, the ASK path, the COUNT aggregation
// retry and the §2.3.2 expected-type filter — goes through the
// session's snapshot, and sibling candidates share its plan cache
// handle and entity type sets. The staged pipeline (internal/core) passes the
// session it pinned at request entry so the answer cache generation
// stamp and the executed snapshot can never diverge.
func (e *Extractor) ExtractSessionCtx(ctx context.Context, mp *propmap.Mapping, sess *sparql.Session) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	expected := mp.Extraction.Expected
	if expected.Kind == triplex.ExpectBoolean && !e.cfg.Extensions {
		return nil, &ErrBoolean{Question: mp.Extraction.Question}
	}
	res := &Result{Expected: expected}

	// Per-triple alternatives, each one triple pattern plus a score
	// factor. A predicate has at most two orientations, so one array
	// sized up front holds every triple's list.
	size := 0
	for _, mt := range mp.Triples {
		size += max(1, 2*len(mt.Predicates))
	}
	all := make([]alternative, 0, size)
	perTriple := make([][]alternative, 0, len(mp.Triples))
	ty := typing{sess: sess}
	for _, mt := range mp.Triples {
		first := len(all)
		if !mt.Class.IsZero() {
			all = append(all, alternative{pred: -1, score: 1})
			perTriple = append(perTriple, all[first:len(all):len(all)])
			continue
		}
		subj := ty.slot(slotTerm(mt.SubjectVar, mt.Subject))
		obj := ty.slot(slotTerm(mt.ObjectVar, mt.Object))
		for pred := range mt.Predicates {
			cand := &mt.Predicates[pred]
			var buf [2]orientation
			for _, o := range ty.orientations(buf[:0], cand.Property, subj, obj) {
				all = append(all, alternative{pred: int32(pred), orient: o, score: cand.RankScore()})
			}
		}
		if len(all) == first {
			return nil, fmt.Errorf("answer: no executable orientation for triple %v", mt.Original)
		}
		perTriple = append(perTriple, all[first:len(all):len(all)])
	}

	// Cartesian product → Q, capped to the top-MaxQueries combinations
	// by score (not by generation order, which used to drop high-score
	// combinations while keeping low-score ones).
	combos, n, truncated := topCombos(perTriple, e.cfg.MaxQueries)
	res.Truncated = truncated

	// Q in one piece: the queries and their patterns are one array
	// each, shared by every candidate of the question.
	dims := len(perTriple)
	boolean := expected.Kind == triplex.ExpectBoolean
	queries := make([]sparql.Query, n)
	patterns := make([]rdf.Triple, n*dims)
	projection := []string{"x"}
	var orderBy []sparql.OrderKey
	if sup := mp.Extraction.Superlative; sup != nil {
		// §6 extension: superlative questions extremise the value
		// variable with ORDER BY + LIMIT 1.
		orderBy = []sparql.OrderKey{{Expr: &sparql.VarExpr{Name: "v"}, Desc: sup.Desc}}
	}
	res.Candidates = make([]CandidateQuery, n)
	for c := range res.Candidates {
		q := &queries[c]
		*q = sparql.Query{Form: sparql.FormSelect, Distinct: true, Projection: projection, Limit: -1}
		if boolean {
			q.Form = sparql.FormAsk
			q.Projection = nil
		}
		if orderBy != nil {
			q.OrderBy, q.Limit = orderBy, 1
		}
		q.Patterns = patterns[c*dims : (c+1)*dims : (c+1)*dims]
		score := 1.0
		for d, alt := range combos[c*dims : (c+1)*dims] {
			q.Patterns[d] = alt.pattern(&mp.Triples[d])
			score *= alt.score
		}
		res.Candidates[c] = CandidateQuery{Query: q, Score: score}
	}

	slices.SortStableFunc(res.Candidates, rankOrder)

	if boolean {
		return e.executeBoolean(ctx, sess, res)
	}

	if err := e.executeSelect(ctx, &ty, res, expected); err != nil {
		return nil, err
	}

	// Future-work COUNT extension: a numeric question whose queries
	// only return entities answers with the distinct result count.
	if res.Winning == nil && e.cfg.Extensions &&
		expected.Kind == triplex.ExpectNumeric {
		if err := e.executeAggregation(ctx, sess, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rankOrder is §2.3.1's rank order: the higher score first, and equal
// scores by their pattern terms in print order, where a variable comes
// before any other term and the rest compare under rdf.Term.Compare.
// Only candidates with the same patterns tie.
func rankOrder(a, b CandidateQuery) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return slices.CompareFunc(a.Query.Patterns, b.Query.Patterns, func(p, q rdf.Triple) int {
		return cmp.Or(comparePatternTerm(p.S, q.S), comparePatternTerm(p.P, q.P), comparePatternTerm(p.O, q.O))
	})
}

// comparePatternTerm orders two terms of a pattern as rdf.Term.Compare
// does, except that a variable comes first: Compare puts KindVar last.
func comparePatternTerm(a, b rdf.Term) int {
	if a.IsVar() != b.IsVar() {
		return -a.Compare(b)
	}
	return a.Compare(b)
}

// firstWinner is §2.3's execution order: it runs try(i) for i = 0 … n-1
// — the candidates in rank order — until one reports a win, and returns
// that index, or -1 when none won. ctx is checked before every
// candidate (a query aborts between join steps by itself): once it is
// done, nothing further runs and its error is returned.
func firstWinner(ctx context.Context, n int, try func(i int) bool) (int, error) {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		if try(i) {
			return i, nil
		}
	}
	return -1, ctx.Err()
}

// executeSelect runs the SELECT candidates in rank order; the first
// query whose (type-filtered) answer set is non-empty wins. Under the
// type filter a candidate no row of which could pass it is skipped
// instead of run. It returns the context error when cancellation ended
// the run before a win.
func (e *Extractor) executeSelect(ctx context.Context, ty *typing, res *Result, expected triplex.Expected) error {
	sess := ty.sess
	filter := ty.table1(expected.Kind)
	typed := filter.typed && !e.cfg.DisableTypeCheck
	_, err := firstWinner(ctx, len(res.Candidates), func(i int) bool {
		cq := &res.Candidates[i]
		if typed {
			if by := cannotPass(ty, cq.Query, filter.kind); by >= 0 {
				cq.Skipped, cq.SkippedBy = true, by
				return false
			}
		}
		cq.Executed = true
		cq.SPARQL = cq.Query.String()
		r, err := sess.ExecuteCtx(ctx, cq.Query)
		if err != nil {
			cq.Err = err
			return false
		}
		// One pass over the columnar rows: no Binding maps, no
		// intermediate column slice — a term materialises (slice read,
		// no allocation) only when its row binds the answer variable,
		// and the type filter probes the row's ID as the executor
		// returned it.
		xcol := r.VarIndex("x")
		for row, n := 0, r.Len(); row < n; row++ {
			term, ok := r.TermAt(row, xcol)
			if !ok {
				continue
			}
			cq.Raw++
			if e.cfg.DisableTypeCheck || filter.admits(sess, term, r.IDAt(row, xcol)) {
				if cq.Answers == nil {
					cq.Answers = make([]rdf.Term, 0, n-row) // every remaining row may conform
				}
				cq.Answers = append(cq.Answers, term)
			}
		}
		if len(cq.Answers) == 0 {
			return false
		}
		res.Answers = cq.Answers
		res.Winning = cq
		return true
	})
	return err
}

// executeBoolean answers a yes/no question: the first ASK returning
// true wins; if every candidate that actually executed is false, the
// top-ranked successfully-executed candidate answers "false". A
// candidate that errors contributes nothing — in particular, a question
// whose every candidate errors stays unanswered instead of answering
// "false" with full confidence.
func (e *Extractor) executeBoolean(ctx context.Context, sess *sparql.Session, res *Result) (*Result, error) {
	boolLit := func(v bool) rdf.Term {
		if v {
			return rdf.NewTypedLiteral("true", rdf.XSDBoolean)
		}
		return rdf.NewTypedLiteral("false", rdf.XSDBoolean)
	}
	firstOK := -1 // top-ranked candidate that executed without error
	winner, err := firstWinner(ctx, len(res.Candidates), func(i int) bool {
		cq := &res.Candidates[i]
		cq.Executed = true
		if cq.Query != nil {
			cq.SPARQL = cq.Query.String()
		}
		r, err := sess.ExecuteCtx(ctx, cq.Query)
		if err != nil {
			cq.Err = err
			return false
		}
		if firstOK < 0 {
			firstOK = i
		}
		if !r.Boolean {
			return false
		}
		cq.Answers = []rdf.Term{boolLit(true)}
		cq.Raw = 1
		res.Answers = cq.Answers
		res.Winning = cq
		return true
	})
	if err != nil {
		return nil, err
	}
	if winner < 0 && firstOK >= 0 {
		cq := &res.Candidates[firstOK]
		cq.Answers = []rdf.Term{boolLit(false)}
		res.Answers = cq.Answers
		res.Winning = cq
	}
	return res, nil
}

// executeAggregation retries the candidates as COUNT(DISTINCT ?x)
// queries, answering with the count of the first (rank-order) candidate
// whose raw result set is non-empty. A candidate the SELECT pass
// skipped is not known empty: its rows were only known to fail the
// type filter, which a count does not apply.
func (e *Extractor) executeAggregation(ctx context.Context, sess *sparql.Session, res *Result) error {
	_, err := firstWinner(ctx, len(res.Candidates), func(i int) bool {
		cq := &res.Candidates[i]
		if cq.Executed && cq.Raw == 0 {
			return false // already known empty
		}
		countQ := &sparql.Query{
			Form:     sparql.FormSelect,
			Count:    &sparql.CountSpec{Var: "x", Distinct: true, As: "x"},
			Patterns: cq.Query.Patterns,
			Limit:    -1,
		}
		r, err := sess.ExecuteCtx(ctx, countQ)
		if err != nil || r.Len() == 0 || len(r.Vars) == 0 {
			return false
		}
		// Read the first projected variable of the result layout rather
		// than assuming a hardcoded name, and treat an unbound slot as
		// "no count" instead of misreading a zero term.
		count, bound := r.TermAt(0, 0)
		if !bound {
			return false
		}
		if f, ok := count.Float(); !ok || f <= 0 {
			return false
		}
		cq.Executed = true
		cq.Answers = []rdf.Term{count}
		cq.SPARQL = countQ.String()
		cq.Query = countQ
		res.Answers = cq.Answers
		res.Winning = cq
		return true
	})
	return err
}

func slotTerm(varName string, entity rdf.Term) rdf.Term {
	if varName != "" {
		return rdf.NewVar(varName)
	}
	return entity
}

// typing answers §2.3's rdf:type and kind questions for one question
// in store-ID space. The constants it probes — the Domain and Range
// classes of the candidate properties, Table 1's classes and the
// predicates the skip asks about — are resolved through the session
// once a question: a question names a dozen or so distinct ones, held
// in place; past that many a constant is looked up each time it is
// asked.
type typing struct {
	sess *sparql.Session
	n    int
	iris [16]string
	ids  [16]store.ID
}

// id returns c's ID in the session's view, 0 when the view does not
// hold it. IRIs are held by their text; other terms are looked up each
// time.
func (ty *typing) id(c rdf.Term) store.ID {
	if !c.IsIRI() {
		return ty.sess.Lookup(c)
	}
	for i := range ty.n {
		if ty.iris[i] == c.Value {
			return ty.ids[i]
		}
	}
	id := ty.sess.Lookup(c)
	if ty.n < len(ty.iris) {
		ty.iris[ty.n], ty.ids[ty.n] = c.Value, id
		ty.n++
	}
	return id
}

// slot is one side of an extracted triple: a variable, or a ground
// term with its ID when it is an IRI (the only terms the typing
// probes).
type slot struct {
	term rdf.Term
	id   store.ID
}

// slot resolves a triple's side once, before its orientations are
// typed.
func (ty *typing) slot(t rdf.Term) slot {
	if !t.IsIRI() {
		return slot{term: t}
	}
	return slot{term: t, id: ty.sess.Lookup(t)}
}

// orientations appends the executable orientations of a property
// between the two slots to out — at most two. Object properties are
// tried in both directions when the domain/range typing does not rule
// one out; data properties only ever have the literal on the object
// side. Typing reads the
// session's pinned snapshot, like everything else in the §2.3 run.
func (ty *typing) orientations(out []orientation, p *kb.Property, subj, obj slot) []orientation {
	if !p.Object {
		// Data property: the variable must sit in object position.
		switch {
		case obj.term.IsVar() && !subj.term.IsVar():
			if ty.instanceOfLoose(subj, p.Domain) {
				out = append(out, forward)
			}
		case subj.term.IsVar() && !obj.term.IsVar():
			// Reversed slots: literal value on the subject side cannot
			// be expressed; try the flipped orientation.
			if ty.instanceOfLoose(obj, p.Domain) {
				out = append(out, reverse)
			}
		case subj.term.IsVar() && obj.term.IsVar():
			out = append(out, forward)
		}
		return out
	}
	fwdOK := ty.orientationTypable(subj, obj, p)
	revOK := ty.orientationTypable(obj, subj, p)
	if fwdOK {
		out = append(out, forward)
	}
	if revOK {
		out = append(out, reverse)
	}
	if !fwdOK && !revOK {
		out = append(out, forward, reverse)
	}
	return out
}

// orientationTypable reports whether placing s in subject and o in
// object position is consistent with the property's domain/range for
// the slots that are ground.
func (ty *typing) orientationTypable(s, o slot, p *kb.Property) bool {
	if !s.term.IsVar() && !ty.instanceOfLoose(s, p.Domain) {
		return false
	}
	if !o.term.IsVar() && !ty.instanceOfLoose(o, p.Range) {
		return false
	}
	return true
}

// instanceOfLoose checks rdf:type membership; unknown/Thing constraints
// pass.
func (ty *typing) instanceOfLoose(entity slot, class rdf.Term) bool {
	if class.IsZero() || class.Value == rdf.IRIThing || !entity.term.IsIRI() {
		return true
	}
	if !strings.HasPrefix(class.Value, rdf.NSOnt) {
		return true
	}
	// Types are materialised, so the entity's own type set suffices.
	return ty.sess.InstanceOf(entity.id, ty.id(class))
}

// The classes Table 1 admits per expected type.
var (
	personClasses = []rdf.Term{rdf.Ont("Person"), rdf.Ont("Organisation"), rdf.Ont("Company")}
	placeClasses  = []rdf.Term{rdf.Ont("Place")}
)

// tableKind is the value kind Table 1 admits for an expected answer
// type: a Person or a Place is an IRI, a Date a date literal and a
// Numeric a numeric literal. ok is false for the types that constrain
// no kind.
func tableKind(k triplex.ExpectedKind) (kind rdf.ValueKind, ok bool) {
	switch k {
	case triplex.ExpectPerson, triplex.ExpectPlace:
		return rdf.ValueIRI, true
	case triplex.ExpectDate:
		return rdf.ValueDate, true
	case triplex.ExpectNumeric:
		return rdf.ValueNumeric, true
	}
	return 0, false
}

// table1 is Table 1 (§2.3.2) for one question's expected type: the
// value kind it admits and, for a Person or a Place, the IDs of the
// classes an answer must be an instance of (0: unused, or a class the
// view does not hold).
type table1 struct {
	expected triplex.ExpectedKind
	kind     rdf.ValueKind
	typed    bool
	classes  [3]store.ID
}

// table1 resolves Table 1's classes for the expected type, once a
// question.
func (ty *typing) table1(k triplex.ExpectedKind) table1 {
	f := table1{expected: k}
	f.kind, f.typed = tableKind(k)
	var classes []rdf.Term
	switch k {
	case triplex.ExpectPerson:
		classes = personClasses
	case triplex.ExpectPlace:
		classes = placeClasses
	}
	for i, c := range classes {
		f.classes[i] = ty.id(c)
	}
	return f
}

// admits reports whether the answer t, whose ID in the session's view
// is id, passes Table 1.
func (f *table1) admits(sess *sparql.Session, t rdf.Term, id store.ID) bool {
	switch {
	case !f.typed:
		return f.expected == triplex.ExpectClass || f.expected == triplex.ExpectAny
	case t.ValueKind() != f.kind:
		return false
	case f.expected == triplex.ExpectPerson || f.expected == triplex.ExpectPlace:
		for _, c := range f.classes {
			if sess.InstanceOf(id, c) {
				return true
			}
		}
		return false
	}
	return true
}

// cannotPass returns the index of a pattern of q under which no row can
// pass Table 1, or -1: a pattern with a constant predicate that binds
// ?x as its object (subject), when the view holds no object (subject)
// of that predicate of the kind want. Each predicate is resolved once
// a question, when the first candidate that reaches this asks.
func cannotPass(ty *typing, q *sparql.Query, want rdf.ValueKind) int {
	for i, p := range q.Patterns {
		subj, obj := isAnswerVar(p.S), isAnswerVar(p.O)
		if p.P.IsVar() || !subj && !obj {
			continue
		}
		if k := ty.sess.PredicateKinds(ty.id(p.P)); obj && k.Objects[want] == 0 || subj && k.Subjects[want] == 0 {
			return i
		}
	}
	return -1
}

// isAnswerVar reports whether t is ?x, the variable a SELECT candidate
// projects.
func isAnswerVar(t rdf.Term) bool { return t.IsVar() && t.Value == "x" }
