package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
)

// TestWorkedExampleOrhanPamuk reproduces the paper's end-to-end worked
// example (§2.1–§2.3): "Which book is written by Orhan Pamuk?" must
// produce candidate queries over dbont:writer and dbont:author (the
// paper's Query1/Query2) and answer with Pamuk's books.
func TestWorkedExampleOrhanPamuk(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	answers := res.AnswerStrings(s.KB)
	want := []string{"My Name Is Red", "Snow", "The Black Book",
		"The Museum of Innocence", "The White Castle"}
	if len(answers) != len(want) {
		t.Fatalf("answers = %v, want %v", answers, want)
	}
	for i := range want {
		if answers[i] != want[i] {
			t.Errorf("answers[%d] = %q, want %q", i, answers[i], want[i])
		}
	}
	// Query1/Query2: among the candidate queries both writer and author
	// variants must appear.
	var sawWriter, sawAuthor bool
	for _, cq := range res.Answer.Candidates {
		if strings.Contains(cq.Query.String(), "dbont:writer") {
			sawWriter = true
		}
		if strings.Contains(cq.Query.String(), "dbont:author") {
			sawAuthor = true
		}
	}
	if !sawWriter || !sawAuthor {
		t.Errorf("candidate queries missing writer/author variants (writer=%v author=%v)",
			sawWriter, sawAuthor)
	}
	// The winning query is a two-pattern BGP with rdf:type dbont:Book.
	if !strings.Contains(res.WinningSPARQL(), "rdf:type dbont:Book") {
		t.Errorf("winning query = %q", res.WinningSPARQL())
	}
}

func TestHowTallMichaelJordan(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "How tall is Michael Jordan?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Value != "1.98" {
		t.Errorf("answers = %v, want 1.98", res.Answers)
	}
}

func TestWhereDidLincolnDie(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Where did Abraham Lincoln die?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Washington,_D.C.") {
		t.Errorf("answers = %v, want Washington, D.C.", res.Answers)
	}
}

func TestWhenDidFrankHerbertDie(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "When did Frank Herbert die?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Value != "1986-02-11" {
		t.Errorf("answers = %v, want 1986-02-11", res.Answers)
	}
}

func TestWhereWasMichaelJacksonBorn(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Where was Michael Jackson born?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Gary,_Indiana") {
		t.Errorf("answers = %v, want Gary, Indiana", res.Answers)
	}
}

// TestFrankHerbertAliveFailure reproduces §5: the "alive" predicate is
// unmappable, so the question is processed only up to §2.2.
func TestFrankHerbertAliveFailure(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Is Frank Herbert still alive?")
	if res.Answered() {
		t.Fatalf("should not answer: %v", res.Answers)
	}
	if res.Status != StatusNotMapped {
		t.Errorf("status = %v, want not-mapped (predicate 'alive' has no property)", res.Status)
	}
}

func TestWhoIsTheMayorOfBerlin(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Who is the mayor of Berlin?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Klaus_Wowereit") {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestWhoWroteTheTimeMachine(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Who wrote The Time Machine?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("H._G._Wells") {
		t.Errorf("answers = %v, want H. G. Wells", res.Answers)
	}
}

func TestWhoIsMarriedToObama(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Who is married to Barack Obama?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Michelle_Obama") {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestWhatIsThePopulationOfItaly(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "What is the population of Italy?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	// The paper's intro value.
	if len(res.Answers) != 1 || res.Answers[0].Value != "59464644" {
		t.Errorf("answers = %v, want 59464644", res.Answers)
	}
}

func TestWhichCompanyDevelopedMinecraft(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which company developed Minecraft?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Mojang") {
		t.Errorf("answers = %v, want Mojang", res.Answers)
	}
}

func TestUnprocessableQuestions(t *testing.T) {
	s := Default()
	// Each fails at a definite stage, reproducing the coverage limits.
	cases := []struct {
		q    string
		want Status
	}{
		{"Give me all films starring Brad Pitt.", StatusNotExtracted},
		{"Is Frank Herbert still alive?", StatusNotMapped},
		{"Who is the owner of Facebook?", StatusNotMapped}, // Facebook not in KB
	}
	for _, c := range cases {
		res := s.AnswerCtx(context.Background(), c.q)
		if res.Status != c.want {
			t.Errorf("%q: status = %v (err %v), want %v", c.q, res.Status, res.Err, c.want)
		}
	}
}

func TestCountQuestionYieldsNoAnswer(t *testing.T) {
	s := Default()
	// Needs aggregation: queries run but numeric type-check rejects the
	// book entities.
	res := s.AnswerCtx(context.Background(), "How many books did Orhan Pamuk write?")
	if res.Answered() {
		t.Fatalf("should not answer without aggregation: %v", res.Answers)
	}
	if res.Status != StatusNoAnswer && res.Status != StatusNotMapped {
		t.Errorf("status = %v", res.Status)
	}
}

func TestResultTraceCompleteness(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
	if res.Extraction == nil || res.Mapping == nil || res.Answer == nil {
		t.Fatal("trace stages missing")
	}
	if len(res.Extraction.Triples) != 2 {
		t.Errorf("extraction triples = %d", len(res.Extraction.Triples))
	}
	if len(res.Answer.Candidates) < 2 {
		t.Errorf("candidate queries = %d, want >= 2 (Query1/Query2)", len(res.Answer.Candidates))
	}
	if res.WinningSPARQL() == "" {
		t.Error("winning SPARQL empty")
	}
	// Unanswered questions have empty winning SPARQL.
	res2 := s.AnswerCtx(context.Background(), "gibberish blob")
	if res2.WinningSPARQL() != "" {
		t.Error("unanswered question should have empty winning SPARQL")
	}
}

func TestFrontedPrepositionQuestion(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "In which city was Albert Einstein born?")
	if !res.Answered() {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Ulm") {
		t.Errorf("answers = %v, want Ulm", res.Answers)
	}
}

func TestPossessiveQuestion(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "What is Michael Jordan's height?")
	if !res.Answered() || res.Answers[0].Value != "1.98" {
		t.Fatalf("status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
	res2 := s.AnswerCtx(context.Background(), "What is Italy's population?")
	if !res2.Answered() || res2.Answers[0].Value != "59464644" {
		t.Fatalf("status=%v answers=%v", res2.Status, res2.Answers)
	}
}

func TestWhDeterminedCopular(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which city is the capital of France?")
	if !res.Answered() || len(res.Answers) != 1 || res.Answers[0] != rdf.Res("Paris") {
		t.Fatalf("status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
}

func TestWordNetNounPredicates(t *testing.T) {
	// "wife"/"husband" clear the §2.2.1 WordNet thresholds against the
	// spouse property head although no string similarity exists.
	s := Default()
	res := s.AnswerCtx(context.Background(), "Who was the wife of Abraham Lincoln?")
	if !res.Answered() || res.Answers[0] != rdf.Res("Mary_Todd_Lincoln") {
		t.Fatalf("wife: status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
	res2 := s.AnswerCtx(context.Background(), "Who is the husband of Michelle Obama?")
	if !res2.Answered() || res2.Answers[0] != rdf.Res("Barack_Obama") {
		t.Fatalf("husband: status=%v answers=%v", res2.Status, res2.Answers)
	}
}

func TestFrontedWhObjectQuestion(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Which university did Albert Einstein attend?")
	if !res.Answered() || len(res.Answers) != 1 || res.Answers[0] != rdf.Res("ETH_Zurich") {
		t.Fatalf("status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
	res2 := s.AnswerCtx(context.Background(), "Which books did Orhan Pamuk write?")
	if !res2.Answered() || len(res2.Answers) != 5 {
		t.Fatalf("fronted plural object: status=%v answers=%v", res2.Status, res2.Answers)
	}
}

func TestPluralCopularQuestions(t *testing.T) {
	s := Default()
	res := s.AnswerCtx(context.Background(), "Who are the founders of Intel?")
	if !res.Answered() || len(res.Answers) != 2 {
		t.Fatalf("founders: status=%v answers=%v err=%v", res.Status, res.Answers, res.Err)
	}
	res2 := s.AnswerCtx(context.Background(), "What are the official languages of Turkey?")
	if !res2.Answered() || res2.Answers[0] != rdf.Res("Turkish_language") {
		t.Fatalf("languages: status=%v answers=%v", res2.Status, res2.Answers)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusAnswered:     "answered",
		StatusNotExtracted: "not extracted (§2.1)",
		StatusNotMapped:    "not mapped (§2.2)",
		StatusUnsupported:  "unsupported answer form",
		StatusNoAnswer:     "no type-conforming answer",
		Status(99):         "unknown",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestAblationConfigsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation builds are slow")
	}
	for _, cfg := range []Config{
		{DisablePatterns: true},
		{DisableWordNetSynonyms: true},
		{DisableTypeCheck: true},
		{DisableCentrality: true},
	} {
		s := New(cfg)
		res := s.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")
		// The flagship example must stay answerable in every ablation
		// except possibly pattern-less property mapping (strsim covers
		// "written" → writer).
		if !res.Answered() {
			t.Errorf("config %+v: status %v err %v", cfg, res.Status, res.Err)
		}
	}
}

// TestBootPhases: New accounts for its own boot, in order, and lists
// only the phases it ran.
func TestBootPhases(t *testing.T) {
	names := func(s *System) string {
		var out []string
		for _, p := range s.Boot {
			if p.Elapsed < 0 {
				t.Errorf("phase %s took %v", p.Name, p.Elapsed)
			}
			out = append(out, p.Name)
		}
		return strings.Join(out, " ")
	}
	if got := names(New(Config{})); got != "kb_build pattern_mining indexes" {
		t.Errorf("default boot phases = %q", got)
	}
	if got := names(New(Config{KB: kb.Default(), DisablePatterns: true})); got != "indexes" {
		t.Errorf("boot phases over a given KB without patterns = %q", got)
	}
}
