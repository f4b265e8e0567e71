package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
)

var (
	extOnce sync.Once
	extSys  *System
)

// extensionSystem builds the future-work configuration (§6): boolean
// ASK answering, COUNT aggregation and superlatives.
func extensionSystem() *System {
	extOnce.Do(func() {
		extSys = New(Config{Extensions: true})
	})
	return extSys
}

func TestExtensionBooleanYes(t *testing.T) {
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "Was Albert Einstein born in Ulm?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Value != "true" {
		t.Errorf("answers = %v, want true", res.Answers)
	}
	if !strings.HasPrefix(res.WinningSPARQL(), "ASK") {
		t.Errorf("winning query = %q, want ASK form", res.WinningSPARQL())
	}
}

func TestExtensionBooleanNo(t *testing.T) {
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "Was Albert Einstein born in Paris?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if res.Answers[0].Value != "false" {
		t.Errorf("answers = %v, want false", res.Answers)
	}
}

func TestExtensionBooleanCapitalFact(t *testing.T) {
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "Is Berlin the capital of Germany?")
	if !res.Answered() || res.Answers[0].Value != "true" {
		t.Fatalf("status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
	res2 := s.AnswerCtx(context.Background(), "Is Rome the capital of Germany?")
	if !res2.Answered() || res2.Answers[0].Value != "false" {
		t.Fatalf("negative case: status=%v answers=%v", res2.Status, res2.Answers)
	}
}

func TestExtensionAliveStillFails(t *testing.T) {
	// §5's failure case must stay unanswerable even with booleans on:
	// the predicate "alive" has no property mapping.
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "Is Frank Herbert still alive?")
	if res.Answered() {
		t.Fatalf("should stay unanswerable: %v", res.Answers)
	}
	if res.Status != StatusNotMapped {
		t.Errorf("status = %v", res.Status)
	}
}

func TestExtensionAggregationCount(t *testing.T) {
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "How many books did Orhan Pamuk write?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if res.Answers[0] != rdf.NewInteger(5) {
		t.Errorf("answers = %v, want 5", res.Answers)
	}
	if !strings.Contains(res.WinningSPARQL(), "COUNT(DISTINCT ?x)") {
		t.Errorf("winning query = %q, want COUNT aggregate", res.WinningSPARQL())
	}
}

func TestExtensionAggregationFilms(t *testing.T) {
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "How many films did Alfred Hitchcock direct?")
	if !res.Answered() || res.Answers[0] != rdf.NewInteger(4) {
		t.Fatalf("status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
}

func TestExtensionDoesNotBreakDataProperties(t *testing.T) {
	// Numeric questions answered by data properties must keep their
	// direct answers (no count wrapping).
	s := extensionSystem()
	res := s.AnswerCtx(context.Background(), "How many people live in Istanbul?")
	if !res.Answered() || res.Answers[0].Value != "13854740" {
		t.Fatalf("answers = %v", res.Answers)
	}
	res2 := s.AnswerCtx(context.Background(), "How tall is Michael Jordan?")
	if !res2.Answered() || res2.Answers[0].Value != "1.98" {
		t.Fatalf("answers = %v", res2.Answers)
	}
}

func TestExtensionSuperlatives(t *testing.T) {
	s := extensionSystem()
	cases := []struct {
		q    string
		want rdf.Term
	}{
		{"What is the highest mountain?", rdf.Res("Mount_Everest")},
		{"What is the deepest lake?", rdf.Res("Lake_Baikal")},
		{"Who is the tallest basketball player?", rdf.Res("Scottie_Pippen")},
	}
	for _, c := range cases {
		res := s.AnswerCtx(context.Background(), c.q)
		if !res.Answered() || len(res.Answers) != 1 || res.Answers[0] != c.want {
			t.Errorf("%q: status=%v answers=%v err=%v", c.q, res.Status, res.Answers, res.Err)
			continue
		}
		if !strings.Contains(res.WinningSPARQL(), "ORDER BY") ||
			!strings.Contains(res.WinningSPARQL(), "LIMIT 1") {
			t.Errorf("%q: winning query lacks extremisation: %s", c.q, res.WinningSPARQL())
		}
	}
	// Non-superlative questions keep their normal path.
	res := s.AnswerCtx(context.Background(), "What is the largest city of Germany?")
	if !res.Answered() || res.Answers[0] != rdf.Res("Berlin") {
		t.Errorf("largestCity path broken: %v (%v)", res.Answers, res.Status)
	}
	if strings.Contains(res.WinningSPARQL(), "ORDER BY") {
		t.Errorf("of-PP question wrongly treated as superlative: %s", res.WinningSPARQL())
	}
}

func TestDefaultConfigStaysPaperFaithful(t *testing.T) {
	// The default system must NOT answer boolean/aggregation questions
	// (Table 2's coverage is the reproduction target).
	s := Default()
	if res := s.AnswerCtx(context.Background(), "Was Albert Einstein born in Ulm?"); res.Answered() {
		t.Errorf("default config answered a boolean question: %v", res.Answers)
	}
	if res := s.AnswerCtx(context.Background(), "How many films did Alfred Hitchcock direct?"); res.Answered() {
		t.Errorf("default config answered an aggregation question: %v", res.Answers)
	}
	if res := s.AnswerCtx(context.Background(), "What is the highest mountain?"); res.Answered() {
		t.Errorf("default config answered a superlative question: %v", res.Answers)
	}
}
