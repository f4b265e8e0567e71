package depparse

import (
	"strings"
	"testing"
)

// mustParse parses a test sentence; Parse fails only on empty input.
func mustParse(t *testing.T, sentence string) *Graph {
	t.Helper()
	g, err := Parse(sentence)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FindRel returns every edge with the given relation.
func (g *Graph) FindRel(rel Rel) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.Rel == rel {
			out = append(out, e)
		}
	}
	return out
}

// NodeByWord returns the index of the first node whose lowercase word
// equals w.
func (g *Graph) NodeByWord(w string) (int, bool) {
	lw := strings.ToLower(w)
	for i, n := range g.Nodes {
		if n.Lower == lw {
			return i, true
		}
	}
	return -1, false
}

// hasEdge checks rel(head -> dep) by (lowercased) word.
func hasEdge(t *testing.T, g *Graph, rel Rel, head, dep string) bool {
	t.Helper()
	for _, e := range g.Edges {
		if e.Rel != rel || e.Head < 0 {
			continue
		}
		if strings.EqualFold(g.Nodes[e.Head].Text, head) &&
			strings.EqualFold(g.Nodes[e.Dep].Text, dep) {
			return true
		}
	}
	return false
}

func requireEdge(t *testing.T, g *Graph, rel Rel, head, dep string) {
	t.Helper()
	if !hasEdge(t, g, rel, head, dep) {
		t.Errorf("missing %s(%s, %s)\ngraph:\n%s", rel, head, dep, g)
	}
}

func rootWord(g *Graph) string {
	if g.Root < 0 {
		return ""
	}
	return g.Nodes[g.Root].Text
}

// TestFigure1 reproduces the dependency graph of the paper's Figure 1:
// "Which book is written by Orhan Pamuk".
func TestFigure1(t *testing.T) {
	g := mustParse(t, "Which book is written by Orhan Pamuk?")
	if rootWord(g) != "written" {
		t.Fatalf("root = %q, want written\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubjPass, "written", "book")
	requireEdge(t, g, RelDet, "book", "Which")
	requireEdge(t, g, RelAuxPass, "written", "is")
	requireEdge(t, g, RelPrep, "written", "by")
	requireEdge(t, g, RelPObj, "by", "Pamuk")
	requireEdge(t, g, RelNN, "Pamuk", "Orhan")
}

func TestWhoWroteActive(t *testing.T) {
	g := mustParse(t, "Who wrote The Time Machine?")
	if rootWord(g) != "wrote" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "wrote", "Who")
	requireEdge(t, g, RelDObj, "wrote", "Machine")
	requireEdge(t, g, RelNN, "Machine", "Time")
}

func TestWhatIsTheHeightOf(t *testing.T) {
	g := mustParse(t, "What is the height of Michael Jordan?")
	if rootWord(g) != "height" {
		t.Fatalf("root = %q, want height\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "height", "What")
	requireEdge(t, g, RelCop, "height", "is")
	requireEdge(t, g, RelDet, "height", "the")
	requireEdge(t, g, RelPrep, "height", "of")
	requireEdge(t, g, RelPObj, "of", "Jordan")
	requireEdge(t, g, RelNN, "Jordan", "Michael")
}

func TestHowTall(t *testing.T) {
	g := mustParse(t, "How tall is Michael Jordan?")
	if rootWord(g) != "tall" {
		t.Fatalf("root = %q, want tall\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAdvmod, "tall", "How")
	requireEdge(t, g, RelCop, "tall", "is")
	requireEdge(t, g, RelNSubj, "tall", "Jordan")
}

func TestWhereDidLincolnDie(t *testing.T) {
	g := mustParse(t, "Where did Abraham Lincoln die?")
	if rootWord(g) != "die" {
		t.Fatalf("root = %q, want die\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAdvmod, "die", "Where")
	requireEdge(t, g, RelAux, "die", "did")
	requireEdge(t, g, RelNSubj, "die", "Lincoln")
	requireEdge(t, g, RelNN, "Lincoln", "Abraham")
}

func TestWhenDidHerbertDie(t *testing.T) {
	g := mustParse(t, "When did Frank Herbert die?")
	if rootWord(g) != "die" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAdvmod, "die", "When")
	requireEdge(t, g, RelNSubj, "die", "Herbert")
}

func TestWhereWasJacksonBorn(t *testing.T) {
	g := mustParse(t, "Where was Michael Jackson born?")
	if rootWord(g) != "born" {
		t.Fatalf("root = %q, want born\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAdvmod, "born", "Where")
	requireEdge(t, g, RelAuxPass, "born", "was")
	requireEdge(t, g, RelNSubjPass, "born", "Jackson")
}

func TestWhoIsTheMayorOf(t *testing.T) {
	g := mustParse(t, "Who is the mayor of Berlin?")
	if rootWord(g) != "mayor" {
		t.Fatalf("root = %q, want mayor\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "mayor", "Who")
	requireEdge(t, g, RelCop, "mayor", "is")
	requireEdge(t, g, RelPrep, "mayor", "of")
	requireEdge(t, g, RelPObj, "of", "Berlin")
}

func TestIsFrankHerbertStillAlive(t *testing.T) {
	g := mustParse(t, "Is Frank Herbert still alive?")
	if rootWord(g) != "alive" {
		t.Fatalf("root = %q, want alive\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelCop, "alive", "Is")
	requireEdge(t, g, RelNSubj, "alive", "Herbert")
	requireEdge(t, g, RelAdvmod, "alive", "still")
}

func TestHowManyDoSupport(t *testing.T) {
	g := mustParse(t, "How many books did Orhan Pamuk write?")
	if rootWord(g) != "write" {
		t.Fatalf("root = %q, want write\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAux, "write", "did")
	requireEdge(t, g, RelDObj, "write", "books")
	requireEdge(t, g, RelAmod, "books", "many")
	requireEdge(t, g, RelAdvmod, "many", "How")
	requireEdge(t, g, RelNSubj, "write", "Pamuk")
}

func TestHowManyIntransitive(t *testing.T) {
	g := mustParse(t, "How many people live in Ankara?")
	if rootWord(g) != "live" {
		t.Fatalf("root = %q, want live\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "live", "people")
	requireEdge(t, g, RelAmod, "people", "many")
	requireEdge(t, g, RelPrep, "live", "in")
	requireEdge(t, g, RelPObj, "in", "Ankara")
}

func TestWhichCompanyDeveloped(t *testing.T) {
	g := mustParse(t, "Which company developed Minecraft?")
	if rootWord(g) != "developed" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "developed", "company")
	requireEdge(t, g, RelDet, "company", "Which")
	requireEdge(t, g, RelDObj, "developed", "Minecraft")
}

func TestWhoIsMarriedTo(t *testing.T) {
	g := mustParse(t, "Who is married to Barack Obama?")
	if rootWord(g) != "married" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelAuxPass, "married", "is")
	requireEdge(t, g, RelNSubjPass, "married", "Who")
	requireEdge(t, g, RelPrep, "married", "to")
	requireEdge(t, g, RelPObj, "to", "Obama")
}

func TestDeclarative(t *testing.T) {
	g := mustParse(t, "Orhan Pamuk wrote Snow.")
	if rootWord(g) != "wrote" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "wrote", "Pamuk")
	requireEdge(t, g, RelDObj, "wrote", "Snow")
}

func TestCopularDeclarative(t *testing.T) {
	g := mustParse(t, "Ankara is the capital of Turkey.")
	if rootWord(g) != "capital" {
		t.Fatalf("root = %q\n%s", rootWord(g), g)
	}
	requireEdge(t, g, RelNSubj, "capital", "Ankara")
	requireEdge(t, g, RelCop, "capital", "is")
	requireEdge(t, g, RelPObj, "of", "Turkey")
}

func TestGraphConnectedness(t *testing.T) {
	sentences := []string{
		"Which book is written by Orhan Pamuk?",
		"Who wrote The Time Machine?",
		"What is the height of Michael Jordan?",
		"Is Frank Herbert still alive?",
		"How many books did Orhan Pamuk write?",
		"Give me all books.", // imperative: fallback path
		"books",
		"Where was Michael Jackson born?",
		"asdf qwer zxcv",
	}
	for _, s := range sentences {
		g := mustParse(t, s)
		if g.Root < 0 {
			t.Errorf("%q: no root", s)
			continue
		}
		// Every node except the root must have exactly one head.
		for i := range g.Nodes {
			if i == g.Root {
				continue
			}
			heads := 0
			for _, e := range g.Edges {
				if int(e.Dep) == i && e.Head >= 0 {
					heads++
				}
			}
			if heads != 1 {
				t.Errorf("%q: node %d (%s) has %d heads\n%s", s, i, g.Nodes[i].Text, heads, g)
			}
		}
		// No cycles: walking up from any node reaches the root.
		for i := range g.Nodes {
			cur, steps := i, 0
			for cur != g.Root && steps <= len(g.Nodes) {
				h, _ := g.HeadOf(cur)
				if h < 0 {
					break
				}
				cur = h
				steps++
			}
			if steps > len(g.Nodes) {
				t.Errorf("%q: cycle through node %d\n%s", s, i, g)
			}
		}
	}
}

func TestPunctuationAttachment(t *testing.T) {
	g := mustParse(t, "Who wrote Snow?")
	found := false
	for _, e := range g.Edges {
		if e.Rel == RelPunct && g.Nodes[e.Dep].Text == "?" {
			found = true
		}
	}
	if !found {
		t.Errorf("question mark not attached as punct\n%s", g)
	}
}

func TestParseEmptyErrors(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Error("Parse(\"\") should error")
	}
	if _, err := Parse("   "); err == nil {
		t.Error("Parse(spaces) should error")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := mustParse(t, "Which book is written by Orhan Pamuk?")
	book, ok := g.NodeByWord("book")
	if !ok {
		t.Fatal("NodeByWord(book) failed")
	}
	head, rel := g.HeadOf(book)
	if rel != RelNSubjPass || g.Nodes[head].Text != "written" {
		t.Errorf("HeadOf(book) = %s(%s)", rel, g.Nodes[head].Text)
	}
	if det, ok := g.ChildByRel(book, RelDet); !ok || g.Nodes[det].Text != "Which" {
		t.Errorf("ChildByRel(book, det) = %v, %v", det, ok)
	}
	if kids := g.Children(book); len(kids) != 1 {
		t.Errorf("Children(book) = %v", kids)
	}
	if len(g.FindRel(RelNSubjPass)) != 1 {
		t.Error("FindRel(nsubjpass) should find 1")
	}
	if _, ok := g.NodeByWord("zzz"); ok {
		t.Error("NodeByWord(zzz) should fail")
	}
}

func TestLemmasInGraph(t *testing.T) {
	g := mustParse(t, "Which book is written by Orhan Pamuk?")
	w, _ := g.NodeByWord("written")
	if l := g.Nodes[w].Lemma; l != "write" {
		t.Errorf("lemma(written) = %s, want write", l)
	}
}

func TestStringAndTreeRender(t *testing.T) {
	g := mustParse(t, "Which book is written by Orhan Pamuk?")
	s := g.String()
	for _, want := range []string{"root(ROOT-0, written-4)", "det(book-2, Which-1)", "nsubjpass(written-4, book-2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	tree := g.Tree()
	if !strings.HasPrefix(tree, "written [VBN] <-root") {
		t.Errorf("Tree() = %q", tree)
	}
}
