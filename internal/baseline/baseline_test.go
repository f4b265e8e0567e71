package baseline

import (
	"context"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/rdf"
)

var (
	once sync.Once
	sys  *System
)

func baselineSystem(t *testing.T) *System {
	t.Helper()
	once.Do(func() { sys = New(kb.Default()) })
	return sys
}

func TestBaselineAnswersEasyFactoid(t *testing.T) {
	s := baselineSystem(t)
	res := s.Answer("What is the height of Michael Jordan?")
	if !res.Answered() {
		t.Fatal("baseline should answer the direct keyword match")
	}
	if res.Answers[0].Value != "1.98" {
		t.Errorf("answers = %v", res.Answers)
	}
	if res.Property != rdf.Ont("height") {
		t.Errorf("property = %v", res.Property)
	}
}

func TestBaselineNoEntity(t *testing.T) {
	s := baselineSystem(t)
	if res := s.Answer("what is the meaning of life"); res.Answered() {
		t.Errorf("no entity: %v", res.Answers)
	}
}

func TestBaselineNoKeywords(t *testing.T) {
	s := baselineSystem(t)
	if res := s.Answer("Michael Jordan?"); res.Answered() {
		t.Errorf("no keywords: %v", res.Answers)
	}
}

func TestBaselineLacksTypeDiscipline(t *testing.T) {
	// "When did Frank Herbert die?" — the baseline has no expected-type
	// filter, so whatever property matches "die" best wins, date or not.
	s := baselineSystem(t)
	res := s.Answer("When did Frank Herbert die?")
	if res.Answered() && res.Answers[0].IsDate() {
		// If it happens to pick deathDate that's luck, not discipline;
		// both outcomes are acceptable for the baseline. Just assert
		// determinism.
		res2 := s.Answer("When did Frank Herbert die?")
		if len(res2.Answers) != len(res.Answers) {
			t.Error("baseline nondeterministic")
		}
	}
}

// TestBaselineVsPipeline quantifies the gap: on the evaluation set the
// full pipeline must beat the keyword baseline on precision (the
// paper's structure is what buys correctness).
func TestBaselineVsPipeline(t *testing.T) {
	s := baselineSystem(t)
	k := s.kb

	answered, correct := 0, 0
	for _, q := range qald.Questions() {
		gold, err := qald.GoldCtx(context.Background(), k, q)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Answer(q.Text)
		if !res.Answered() {
			continue
		}
		answered++
		if sameSet(res.Answers, gold) {
			correct++
		}
	}
	if answered == 0 {
		t.Fatal("baseline answered nothing")
	}
	precision := float64(correct) / float64(answered)
	recall := float64(answered) / float64(len(qald.Questions()))
	t.Logf("baseline: answered %d/55, correct %d, P=%.2f R=%.2f",
		answered, correct, precision, recall)
	// The paper's pipeline reaches 0.83 precision; the baseline must be
	// clearly below it (that gap is the paper's contribution).
	if precision >= 0.75 {
		t.Errorf("baseline precision %.2f suspiciously high — the comparison is broken", precision)
	}
}

func sameSet(a, b []rdf.Term) bool {
	if len(b) == 0 {
		return false
	}
	as := map[rdf.Term]bool{}
	for _, t := range a {
		as[t] = true
	}
	bs := map[rdf.Term]bool{}
	for _, t := range b {
		bs[t] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for t := range as {
		if !bs[t] {
			return false
		}
	}
	return true
}
