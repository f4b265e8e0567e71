package depparse

import "testing"

// Tests for the parser rules beyond the paper's core constructions.

func TestFrontedPrepositionParse(t *testing.T) {
	g := mustParse(t, "In which city was Albert Einstein born?")
	if rootWord(g) != "born" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelPrep, "born", "In")
	requireEdge(t, g, RelPObj, "In", "city")
	requireEdge(t, g, RelDet, "city", "which")
	requireEdge(t, g, RelNSubjPass, "born", "Einstein")
	requireEdge(t, g, RelAuxPass, "born", "was")
}

func TestPossessiveParse(t *testing.T) {
	g := mustParse(t, "What is Michael Jordan's height?")
	if rootWord(g) != "height" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "height", "What")
	requireEdge(t, g, RelCop, "height", "is")
	requireEdge(t, g, RelPoss, "height", "Jordan")
	requireEdge(t, g, RelNN, "Jordan", "Michael")
}

func TestParticleVerbParse(t *testing.T) {
	g := mustParse(t, "Where did Ernest Hemingway grow up?")
	if rootWord(g) != "grow" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAdvmod, "grow", "Where")
	requireEdge(t, g, RelNSubj, "grow", "Hemingway")
}
