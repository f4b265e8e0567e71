package ner

import (
	"testing"
)

// evaluationStyleQuestions mirrors the constructions of the QALD set
// (kept local: importing internal/qald here would create a cycle
// through internal/core).
var evaluationStyleQuestions = []string{
	"Which book is written by Orhan Pamuk?",
	"How tall is Michael Jordan?",
	"Where did Abraham Lincoln die?",
	"Who is the mayor of Berlin?",
	"What is the population of Victoria?",
	"Which company developed Minecraft?",
	"Who wrote The Time Machine?",
	"Give me all films starring Brad Pitt.",
	"Is Michael Jordan taller than Scottie Pippen?",
	"Who is the wife of the president of the United States?",
	"What is the official website of Apple?",
	"Which mountains are higher than 8000 meters?",
	"Was Albert Einstein born in Ulm?",
	"In which city was Michael Jackson born?",
}

// TestSpottingAcrossEvaluationSet runs the spotter over evaluation-style
// questions: no panics, no overlapping mentions, and every candidate
// carries a label.
func TestSpottingAcrossEvaluationSet(t *testing.T) {
	l := testLinker(t)
	for qi, text := range evaluationStyleQuestions {
		q := struct {
			ID   int
			Text string
		}{qi, text}
		words := tokenTexts(q.Text)
		mentions := l.Disambiguate(l.Spot(words))
		for i, m := range mentions {
			if m.Start < 0 || m.End > len(words) || m.Start >= m.End {
				t.Errorf("Q%d: bad mention span %+v", q.ID, m)
			}
			for _, c := range m.Candidates {
				if c.Label == "" {
					t.Errorf("Q%d: candidate without label: %+v", q.ID, c)
				}
			}
			for j := i + 1; j < len(mentions); j++ {
				if m.Start < mentions[j].End && mentions[j].Start < m.End {
					t.Errorf("Q%d: overlapping mentions %+v / %+v", q.ID, m, mentions[j])
				}
			}
		}
	}
}

// TestHighDegreeDoesNotBeatDirectLink: a direct page link between
// co-mentioned candidates must dominate raw global popularity.
func TestHighDegreeDoesNotBeatDirectLink(t *testing.T) {
	l := testLinker(t)
	// "Michael Jordan" with "Chicago Bulls" context: the basketball
	// player links to the Bulls; the footballer has no such link.
	e, cands, ok := l.Resolve("Michael Jordan", "Chicago Bulls")
	if !ok {
		t.Fatal("resolve failed")
	}
	if e.LocalName() != "Michael_Jordan" {
		t.Errorf("selected %v", e)
	}
	// The winner's score must strictly exceed the loser's.
	if len(cands) == 2 && cands[0].Score <= cands[1].Score {
		t.Errorf("scores not separated: %+v", cands)
	}
}

func TestEmptyAndWhitespacePhrases(t *testing.T) {
	l := testLinker(t)
	for _, p := range []string{"", "   ", "\t"} {
		if _, _, ok := l.Resolve(p); ok {
			t.Errorf("Resolve(%q) should fail", p)
		}
	}
}
