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
// Answers, Err record how it fared) and none below it has been touched.
// Candidate 0 usually wins, so speculating on lower ranks only spent
// work a busy server needs for other questions; parallelism lives one
// level up, across questions (HTTP connections, batch workers). The
// SELECT candidates, the ASK path and the COUNT retry share one loop,
// firstWinner.
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
	"repro/internal/triplex"
)

// Config controls answer extraction.
type Config struct {
	// DisableTypeCheck turns off §2.3.2 (ablation).
	DisableTypeCheck bool
	// MaxQueries caps |Q| to keep the Cartesian product bounded.
	MaxQueries int

	// EnableBoolean implements the paper's future-work extension for
	// yes/no questions: boolean-typed mappings produce ASK queries and
	// answer with an xsd:boolean literal.
	EnableBoolean bool
	// EnableAggregation implements the future-work COUNT extension:
	// numeric-typed questions whose queries return entities answer with
	// the (distinct) result count.
	EnableAggregation bool
}

// DefaultConfig mirrors the paper.
func DefaultConfig() Config { return Config{MaxQueries: 256} }

// CandidateQuery is one member of Q with its execution outcome.
type CandidateQuery struct {
	Query  *sparql.Query
	SPARQL string
	// Score is the §2.3.1 ranking score: the product of the predicate
	// candidates' rank scores.
	Score float64
	// Answers holds the type-filtered results after execution.
	Answers []rdf.Term
	// Raw is the unfiltered result count.
	Raw int
	// Executed marks whether the ranking loop reached this query.
	Executed bool
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
	if expected.Kind == triplex.ExpectBoolean && !e.cfg.EnableBoolean {
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
	for _, mt := range mp.Triples {
		first := len(all)
		if !mt.Class.IsZero() {
			all = append(all, alternative{pred: -1, score: 1})
			perTriple = append(perTriple, all[first:len(all):len(all)])
			continue
		}
		subj := slotTerm(mt.SubjectVar, mt.Subject)
		obj := slotTerm(mt.ObjectVar, mt.Object)
		for pred, cand := range mt.Predicates {
			var buf [2]orientation
			for _, o := range e.orientations(buf[:0], sess, cand.Property, subj, obj) {
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
		res.Candidates[c] = CandidateQuery{Query: q, SPARQL: q.String(), Score: score}
	}

	slices.SortStableFunc(res.Candidates, rankOrder)

	if boolean {
		return e.executeBoolean(ctx, sess, res)
	}

	if err := e.executeSelect(ctx, sess, res, expected); err != nil {
		return nil, err
	}

	// Future-work COUNT extension: a numeric question whose queries
	// only return entities answers with the distinct result count.
	if res.Winning == nil && e.cfg.EnableAggregation &&
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
// query whose (type-filtered) answer set is non-empty wins. It returns
// the context error when cancellation ended the run before a win.
func (e *Extractor) executeSelect(ctx context.Context, sess *sparql.Session, res *Result, expected triplex.Expected) error {
	_, err := firstWinner(ctx, len(res.Candidates), func(i int) bool {
		cq := &res.Candidates[i]
		cq.Executed = true
		r, err := sess.ExecuteCtx(ctx, cq.Query)
		if err != nil {
			cq.Err = err
			return false
		}
		// One pass over the columnar rows: no Binding maps, no
		// intermediate column slice — a term materialises (slice read,
		// no allocation) only when its row binds the answer variable.
		xcol := r.VarIndex("x")
		for row, n := 0, r.Len(); row < n; row++ {
			term, ok := r.TermAt(row, xcol)
			if !ok {
				continue
			}
			cq.Raw++
			if e.cfg.DisableTypeCheck || e.typeMatches(sess, term, expected) {
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
// whose raw result set is non-empty.
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

// orientations appends the executable orientations of a property
// between the two slots to out — at most two. Object properties are
// tried in both directions when the domain/range typing does not rule
// one out; data properties only ever have the literal on the object
// side. Typing reads the
// session's pinned snapshot, like everything else in the §2.3 run.
func (e *Extractor) orientations(out []orientation, sess *sparql.Session, p kb.Property, subj, obj rdf.Term) []orientation {
	if !p.Object {
		// Data property: the variable must sit in object position.
		switch {
		case obj.IsVar() && !subj.IsVar():
			if e.instanceOfLoose(sess, subj, p.Domain) {
				out = append(out, forward)
			}
		case subj.IsVar() && !obj.IsVar():
			// Reversed slots: literal value on the subject side cannot
			// be expressed; try the flipped orientation.
			if e.instanceOfLoose(sess, obj, p.Domain) {
				out = append(out, reverse)
			}
		case subj.IsVar() && obj.IsVar():
			out = append(out, forward)
		}
		return out
	}
	fwdOK := e.orientationTypable(sess, subj, obj, p)
	revOK := e.orientationTypable(sess, obj, subj, p)
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
func (e *Extractor) orientationTypable(sess *sparql.Session, s, o rdf.Term, p kb.Property) bool {
	if !s.IsVar() && !e.instanceOfLoose(sess, s, p.Domain) {
		return false
	}
	if !o.IsVar() && !e.instanceOfLoose(sess, o, p.Range) {
		return false
	}
	return true
}

// instanceOfLoose checks rdf:type membership; unknown/Thing constraints
// pass.
func (e *Extractor) instanceOfLoose(sess *sparql.Session, entity, class rdf.Term) bool {
	if class.IsZero() || class.Value == rdf.IRIThing || !entity.IsIRI() {
		return true
	}
	if !strings.HasPrefix(class.Value, rdf.NSOnt) {
		return true
	}
	// Types are materialised, so the entity's own type set suffices.
	return sess.InstanceOf(entity, class)
}

// The classes Table 1 admits per expected type, built once: the filter
// asks about them for every produced answer.
var (
	personClasses = []rdf.Term{rdf.Ont("Person"), rdf.Ont("Organisation"), rdf.Ont("Company")}
	placeClasses  = []rdf.Term{rdf.Ont("Place")}
)

// typeMatches implements Table 1 (§2.3.2).
func (e *Extractor) typeMatches(sess *sparql.Session, t rdf.Term, expected triplex.Expected) bool {
	switch expected.Kind {
	case triplex.ExpectPerson:
		return e.isAny(sess, t, personClasses)
	case triplex.ExpectPlace:
		return e.isAny(sess, t, placeClasses)
	case triplex.ExpectDate:
		return t.IsDate()
	case triplex.ExpectNumeric:
		return t.IsNumeric()
	case triplex.ExpectClass, triplex.ExpectAny:
		return true
	default:
		return false
	}
}

func (e *Extractor) isAny(sess *sparql.Session, t rdf.Term, classes []rdf.Term) bool {
	if !t.IsIRI() {
		return false
	}
	for _, c := range classes {
		if sess.InstanceOf(t, c) {
			return true
		}
	}
	return false
}
