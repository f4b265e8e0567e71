package qald

import (
	"bytes"
	"context"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
)

func TestWriteXML(t *testing.T) {
	s := core.Default()
	rep, err := EvaluateCtx(context.Background(), s, Questions()[:5])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteXML(&buf, "qald-2-test-repro"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `<dataset id="qald-2-test-repro">`) {
		t.Errorf("missing dataset element:\n%s", out)
	}
	if !strings.Contains(out, "Which book is written by Orhan Pamuk?") {
		t.Error("missing question string")
	}
	if !strings.Contains(out, "http://dbpedia.org/resource/Snow_(novel)") {
		t.Error("missing answer URI")
	}
	// Well-formed XML.
	var ds xmlDataset
	if err := xml.Unmarshal(buf.Bytes(), &ds); err != nil {
		t.Fatalf("output not well-formed: %v", err)
	}
	if len(ds.Questions) != 5 {
		t.Errorf("questions = %d", len(ds.Questions))
	}
	// Answered questions carry answers, literal answers use <string>.
	found := false
	for _, q := range ds.Questions {
		if q.ID == 2 && q.Answers != nil { // How tall is Michael Jordan?
			for _, a := range q.Answers.Answers {
				if a.Literal == "1.98" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("literal answer missing from XML")
	}
}

func TestMacroMetrics(t *testing.T) {
	s := core.Default()
	rep, err := EvaluateCtx(context.Background(), s, Questions())
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Macro()
	// Macro recall is bounded by the paper-style recall plus the
	// vacuous (empty-gold unanswered) questions.
	if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 {
		t.Fatalf("macro out of range: %+v", m)
	}
	if m.F1 < 0.3 {
		t.Errorf("macro F1 = %.2f, suspiciously low", m.F1)
	}
	sum := rep.Summary(s.KB)
	if !strings.Contains(sum, "paper-style") || !strings.Contains(sum, "QALD-style") {
		t.Errorf("Summary = %q", sum)
	}
}

func TestPerQuestionPR(t *testing.T) {
	a := rdf.Res("A")
	b := rdf.Res("B")
	c := rdf.Res("C")
	cases := []struct {
		sys, gold    []rdf.Term
		wantP, wantR float64
	}{
		{nil, nil, 1, 1},
		{nil, []rdf.Term{a}, 0, 0},
		{[]rdf.Term{a}, nil, 0, 0},
		{[]rdf.Term{a}, []rdf.Term{a}, 1, 1},
		{[]rdf.Term{a, b}, []rdf.Term{a}, 0.5, 1},
		{[]rdf.Term{a}, []rdf.Term{a, b}, 1, 0.5},
		{[]rdf.Term{a, b}, []rdf.Term{b, c}, 0.5, 0.5},
	}
	for i, cse := range cases {
		p, r := perQuestionPR(cse.sys, cse.gold)
		if p != cse.wantP || r != cse.wantR {
			t.Errorf("case %d: P=%v R=%v, want P=%v R=%v", i, p, r, cse.wantP, cse.wantR)
		}
	}
}
