package triplex

import (
	"strings"
	"testing"
)

func extract(t *testing.T, q string) *Extraction {
	t.Helper()
	ext, err := ExtractOpts(q, Options{})
	if err != nil {
		t.Fatalf("ExtractOpts(%q, Options{}): %v", q, err)
	}
	return ext
}

// TestFigure1Triples reproduces the paper's §2.1 worked example: the
// question "Which book is written by Orhan Pamuk" yields
//
//	[Subject: ?x] [Predicate: rdf:type] [Object: book]
//	[Subject: ?x] [Predicate: written]  [Object: Orhan Pamuk]
func TestFigure1Triples(t *testing.T) {
	ext := extract(t, "Which book is written by Orhan Pamuk?")
	if len(ext.Triples) != 2 {
		t.Fatalf("triples = %v, want 2", ext.Triples)
	}
	typeT := ext.Triples[0]
	if !typeT.IsType || !typeT.Subject.IsVar() || typeT.Object.Text != "book" {
		t.Errorf("type triple = %v", typeT)
	}
	main := ext.Triples[1]
	if !main.Subject.IsVar() || main.Predicate.Text != "written" ||
		main.Object.Text != "Orhan Pamuk" {
		t.Errorf("main triple = %v", main)
	}
	if main.Predicate.Lemma != "write" {
		t.Errorf("predicate lemma = %q, want write", main.Predicate.Lemma)
	}
	if ext.Expected.Kind != ExpectClass || ext.Expected.ClassText != "book" {
		t.Errorf("expected = %+v", ext.Expected)
	}
	// Paper notation renders.
	if got := typeT.String(); !strings.Contains(got, "rdf:type") {
		t.Errorf("String() = %q", got)
	}
}

// TestHeightQuestion reproduces §2.2.2: "What is the height of Michael
// Jordan?" → [Michael Jordan][height][?x].
func TestHeightQuestion(t *testing.T) {
	ext := extract(t, "What is the height of Michael Jordan?")
	if len(ext.Triples) != 1 {
		t.Fatalf("triples = %v", ext.Triples)
	}
	tr := ext.Triples[0]
	if tr.Subject.Text != "Michael Jordan" || tr.Predicate.Text != "height" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectAny {
		t.Errorf("What should not impose a type: %+v", ext.Expected)
	}
}

// TestHowTall reproduces §2.2.2: "How tall is Michael Jordan?" →
// [Michael Jordan][tall][?x], Numeric.
func TestHowTall(t *testing.T) {
	ext := extract(t, "How tall is Michael Jordan?")
	if len(ext.Triples) != 1 {
		t.Fatalf("triples = %v", ext.Triples)
	}
	tr := ext.Triples[0]
	if tr.Subject.Text != "Michael Jordan" || tr.Predicate.Text != "tall" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if tr.Predicate.Tag != "JJ" {
		t.Errorf("predicate tag = %q, want JJ", tr.Predicate.Tag)
	}
	if ext.Expected.Kind != ExpectNumeric {
		t.Errorf("expected = %+v, want Numeric", ext.Expected)
	}
}

// TestWhereDie reproduces §2.2.3: "Where did Abraham Lincoln die?" →
// [Abraham Lincoln][die][?x], Place.
func TestWhereDie(t *testing.T) {
	ext := extract(t, "Where did Abraham Lincoln die?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Abraham Lincoln" || tr.Predicate.Lemma != "die" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectPlace {
		t.Errorf("expected = %v, want Place", ext.Expected.Kind)
	}
}

func TestWhenDie(t *testing.T) {
	ext := extract(t, "When did Frank Herbert die?")
	if ext.Expected.Kind != ExpectDate {
		t.Errorf("expected = %v, want Date", ext.Expected.Kind)
	}
	if ext.Triples[0].Subject.Text != "Frank Herbert" {
		t.Errorf("triple = %v", ext.Triples[0])
	}
}

func TestWhereBornPassive(t *testing.T) {
	ext := extract(t, "Where was Michael Jackson born?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Michael Jackson" || tr.Predicate.Lemma != "bear" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectPlace {
		t.Errorf("expected = %v", ext.Expected.Kind)
	}
}

func TestWhoWrote(t *testing.T) {
	ext := extract(t, "Who wrote The Time Machine?")
	tr := ext.Triples[0]
	if !tr.Subject.IsVar() || tr.Predicate.Lemma != "write" || tr.Object.Text != "The Time Machine" {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectPerson {
		t.Errorf("Who should expect Person: %v", ext.Expected.Kind)
	}
}

func TestWhoIsMayorOf(t *testing.T) {
	ext := extract(t, "Who is the mayor of Berlin?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Berlin" || tr.Predicate.Text != "mayor" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectPerson {
		t.Errorf("expected = %v", ext.Expected.Kind)
	}
}

func TestWhoIsMarriedTo(t *testing.T) {
	ext := extract(t, "Who is married to Barack Obama?")
	tr := ext.Triples[0]
	if !tr.Subject.IsVar() || tr.Predicate.Lemma != "marry" || tr.Object.Text != "Barack Obama" {
		t.Errorf("triple = %v", tr)
	}
}

func TestWhichCompanyDeveloped(t *testing.T) {
	ext := extract(t, "Which company developed Minecraft?")
	if len(ext.Triples) != 2 {
		t.Fatalf("triples = %v", ext.Triples)
	}
	if !ext.Triples[0].IsType || ext.Triples[0].Object.Text != "company" {
		t.Errorf("type triple = %v", ext.Triples[0])
	}
	main := ext.Triples[1]
	if !main.Subject.IsVar() || main.Predicate.Lemma != "develop" || main.Object.Text != "Minecraft" {
		t.Errorf("main = %v", main)
	}
	if ext.Expected.Kind != ExpectClass || ext.Expected.ClassText != "company" {
		t.Errorf("expected = %+v", ext.Expected)
	}
}

// TestFrankHerbertAlive reproduces §5: "Is Frank Herbert still alive?"
// maps to [Frank Herbert][is/alive][...] — extractable, but the
// predicate cannot be mapped downstream.
func TestFrankHerbertAlive(t *testing.T) {
	ext := extract(t, "Is Frank Herbert still alive?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Frank Herbert" {
		t.Errorf("subject = %v", tr.Subject)
	}
	if tr.Predicate.Text != "alive" {
		t.Errorf("predicate = %v, want alive slot", tr.Predicate)
	}
	if ext.Expected.Kind != ExpectBoolean {
		t.Errorf("expected = %v, want Boolean", ext.Expected.Kind)
	}
}

func TestHowManyPeopleLive(t *testing.T) {
	ext := extract(t, "How many people live in Istanbul?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Istanbul" || tr.Predicate.Text != "population" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectNumeric {
		t.Errorf("expected = %v", ext.Expected.Kind)
	}
}

func TestHowManyPagesHave(t *testing.T) {
	ext := extract(t, "How many pages does Dune have?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Dune" || tr.Predicate.Lemma != "page" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
	if ext.Expected.Kind != ExpectNumeric {
		t.Errorf("expected = %v", ext.Expected.Kind)
	}
}

func TestHowManyCountQueryShape(t *testing.T) {
	// Requires aggregation downstream; extraction still yields the shape.
	ext := extract(t, "How many books did Orhan Pamuk write?")
	if len(ext.Triples) != 2 {
		t.Fatalf("triples = %v", ext.Triples)
	}
	if !ext.Triples[0].IsType || ext.Triples[0].Object.Text != "books" {
		t.Errorf("type triple = %v", ext.Triples[0])
	}
	if ext.Expected.Kind != ExpectNumeric {
		t.Errorf("expected = %v", ext.Expected.Kind)
	}
}

func TestWhatIsCapitalOf(t *testing.T) {
	ext := extract(t, "What is the capital of Turkey?")
	tr := ext.Triples[0]
	if tr.Subject.Text != "Turkey" || tr.Predicate.Text != "capital" || !tr.Object.IsVar() {
		t.Errorf("triple = %v", tr)
	}
}

func TestLargestCityPhrase(t *testing.T) {
	ext := extract(t, "What is the largest city of Germany?")
	tr := ext.Triples[0]
	if tr.Predicate.Text != "largest city" {
		t.Errorf("predicate phrase = %q, want 'largest city'", tr.Predicate.Text)
	}
	if tr.Subject.Text != "Germany" {
		t.Errorf("subject = %v", tr.Subject)
	}
}

func TestUnparseableQuestions(t *testing.T) {
	// Imperatives and fragments yield no triples — the paper's coverage
	// limitation (32 % of questions processed).
	for _, q := range []string{
		"Give me all books.",
		"books",
		"List all films starring Brad Pitt.",
	} {
		ext, err := ExtractOpts(q, Options{})
		if err == nil {
			t.Errorf("ExtractOpts(%q, Options{}) = %v, want ErrNoTriples", q, ext.Triples)
			continue
		}
		if _, ok := err.(*ErrNoTriples); !ok {
			t.Errorf("ExtractOpts(%q, Options{}) error type = %T", q, err)
		}
	}
}

func TestEmptyQuestion(t *testing.T) {
	if _, err := ExtractOpts("", Options{}); err == nil {
		t.Error("empty question should error")
	}
}

func TestExpectedKindStrings(t *testing.T) {
	// Table 1 rendering.
	cases := map[ExpectedKind]string{
		ExpectPerson:  "Person, Organization, Company",
		ExpectPlace:   "Place",
		ExpectDate:    "Date",
		ExpectNumeric: "Numeric",
		ExpectAny:     "Any",
		ExpectClass:   "Class",
		ExpectBoolean: "Boolean",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestQuestionWordDetection(t *testing.T) {
	cases := map[string]string{
		"Who wrote Dune?":                       "who",
		"Where did Abraham Lincoln die?":        "where",
		"Is Frank Herbert still alive?":         "is",
		"How tall is Michael Jordan?":           "how",
		"Which book is written by Orhan Pamuk?": "which",
	}
	for q, want := range cases {
		ext, _ := ExtractOpts(q, Options{})
		if ext == nil {
			t.Errorf("%q: nil extraction", q)
			continue
		}
		if ext.QuestionWord != want {
			t.Errorf("%q: question word = %q, want %q", q, ext.QuestionWord, want)
		}
	}
}
