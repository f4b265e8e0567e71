// Package baseline implements a naive keyword-matching question
// answerer used as the comparison point for the paper's pipeline: spot
// one entity by label, pick the single property whose name best matches
// any remaining content word (greatest-common-subsequence score, no
// relational patterns, no WordNet, no dependency structure, no
// expected-type checking), and return the objects of that property.
//
// Measuring this baseline on the same QALD-style set quantifies what
// the paper's three-stage structure adds: the baseline trades the
// pipeline's precision for noise because nothing filters implausible
// property choices or answer types.
package baseline

import (
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/nlp/lemma"
	"repro/internal/nlp/postag"
	"repro/internal/nlp/token"
	"repro/internal/rdf"
	"repro/internal/strsim"
)

// System is the keyword baseline.
type System struct {
	kb     *kb.KB
	linker *ner.Linker
	// MinScore is the property-match threshold.
	MinScore float64
}

// New builds the baseline over a KB.
func New(k *kb.KB) *System {
	return &System{kb: k, linker: ner.NewLinker(k), MinScore: 0.5}
}

// Result is the baseline's answer.
type Result struct {
	Entity   rdf.Term
	Property rdf.Term
	Answers  []rdf.Term
	Score    float64
}

// Answered reports whether the baseline produced answers.
func (r *Result) Answered() bool { return r != nil && len(r.Answers) > 0 }

// stopwords the keyword matcher ignores.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "in": true, "by": true,
	"is": true, "are": true, "was": true, "were": true, "did": true,
	"do": true, "does": true, "be": true, "to": true, "at": true,
	"who": true, "what": true, "which": true, "where": true, "when": true,
	"how": true, "many": true, "much": true, "me": true, "all": true,
	"give": true, "list": true, "show": true, "and": true, "or": true,
	"than": true, "still": true, "there": true, "have": true, "has": true,
	"had": true, "from": true, "for": true, "with": true, "s": true,
}

// Answer runs the baseline on a question.
func (s *System) Answer(question string) *Result {
	words := token.Words(question)
	tagged := postag.Tag(words)

	// Entity: first (longest) spotted mention.
	mentions := s.linker.Link(question)
	if len(mentions) == 0 {
		return &Result{}
	}
	best := mentions[0]
	for _, m := range mentions[1:] {
		if m.End-m.Start > best.End-best.Start {
			best = m
		}
	}
	if best.Entity.IsZero() {
		return &Result{}
	}

	// Keywords: content lemmas outside the mention span.
	var keywords []string
	for i, t := range tagged {
		if i >= best.Start && i < best.End {
			continue
		}
		lem := strings.ToLower(lemma.Lemma(t.Word, t.Tag))
		if stopwords[lem] || len(lem) < 2 {
			continue
		}
		keywords = append(keywords, lem)
	}
	if len(keywords) == 0 {
		return &Result{Entity: best.Entity}
	}

	// Property: max GCS score of any keyword against any property name.
	type scored struct {
		prop  kb.Property
		score float64
	}
	var ranked []scored
	for _, p := range s.kb.Properties() {
		name := p.Term.LocalName()
		bestScore := 0.0
		for _, kw := range keywords {
			if sc := strsim.PropertyScore(kw, name); sc > bestScore {
				bestScore = sc
			}
		}
		if bestScore >= s.MinScore {
			ranked = append(ranked, scored{p, bestScore})
		}
	}
	if len(ranked) == 0 {
		return &Result{Entity: best.Entity}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].prop.Term.Value < ranked[j].prop.Term.Value
	})

	// Try properties in score order, both directions, first non-empty
	// result wins. No type checking.
	sn := s.kb.Store.Snapshot()
	for _, sc := range ranked {
		if objs := sn.Objects(best.Entity, sc.prop.Term); len(objs) > 0 {
			return &Result{Entity: best.Entity, Property: sc.prop.Term,
				Answers: objs, Score: sc.score}
		}
		if subs := sn.Subjects(sc.prop.Term, best.Entity); len(subs) > 0 {
			return &Result{Entity: best.Entity, Property: sc.prop.Term,
				Answers: subs, Score: sc.score}
		}
	}
	return &Result{Entity: best.Entity}
}
