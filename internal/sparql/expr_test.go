package sparql

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Expression-level unit tests (Eval, EffectiveBool, coercions and
// String rendering) complementing the end-to-end FILTER tests.

func evalExpr(t *testing.T, src string, b Binding) (Value, bool) {
	t.Helper()
	q, err := Parse("SELECT ?x WHERE { ?x ?p ?o . FILTER" + src + " }")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Filters[0].Eval(b)
}

func TestEffectiveBooleanValues(t *testing.T) {
	cases := []struct {
		v      Value
		want   bool
		wantOK bool
	}{
		{boolValue(true), true, true},
		{boolValue(false), false, true},
		{numValue(0), false, true},
		{numValue(2.5), true, true},
		{strValue(""), false, true},
		{strValue("x"), true, true},
		{termValue(rdf.NewLiteral("")), false, true},
		{termValue(rdf.NewLiteral("abc")), true, true},
		{termValue(rdf.NewTypedLiteral("true", rdf.XSDBoolean)), true, true},
		{termValue(rdf.NewTypedLiteral("false", rdf.XSDBoolean)), false, true},
		{termValue(rdf.NewInteger(0)), false, true},
		{termValue(rdf.NewInteger(7)), true, true},
		{termValue(rdf.Res("X")), false, false},              // IRI: no EBV
		{termValue(rdf.NewDate("2020-01-01")), false, false}, // date: no EBV
	}
	for i, c := range cases {
		got, ok := c.v.EffectiveBool()
		if got != c.want || ok != c.wantOK {
			t.Errorf("case %d: EBV = %v,%v want %v,%v", i, got, ok, c.want, c.wantOK)
		}
	}
}

func TestLogicalErrorSemantics(t *testing.T) {
	b := Binding{"x": rdf.NewInteger(1)}
	// true || error -> true (SPARQL logical-or error handling).
	if v, ok := evalExpr(t, `(?x = 1 || ?missing = 2)`, b); !ok || !v.Bool {
		t.Errorf("true||error = %v,%v, want true", v, ok)
	}
	// false && error -> false.
	if v, ok := evalExpr(t, `(?x = 2 && ?missing = 2)`, b); !ok || v.Bool {
		t.Errorf("false&&error = %v,%v, want false", v, ok)
	}
	// error || false -> error.
	if _, ok := evalExpr(t, `(?missing = 2 || ?x = 2)`, b); ok {
		t.Error("error||false should be an error")
	}
	// error && true -> error.
	if _, ok := evalExpr(t, `(?missing = 2 && ?x = 1)`, b); ok {
		t.Error("error&&true should be an error")
	}
}

func TestArithmeticEdgeCases(t *testing.T) {
	b := Binding{"x": rdf.NewInteger(10)}
	if v, ok := evalExpr(t, `(?x / 4 = 2.5)`, b); !ok || !v.Bool {
		t.Errorf("division = %v,%v", v, ok)
	}
	if _, ok := evalExpr(t, `(?x / 0 = 1)`, b); ok {
		t.Error("division by zero should error")
	}
	if v, ok := evalExpr(t, `(?x - 4 * 2 = 2)`, b); !ok || !v.Bool {
		t.Errorf("precedence: %v,%v (mul binds tighter)", v, ok)
	}
	if v, ok := evalExpr(t, `((?x - 4) * 2 = 12)`, b); !ok || !v.Bool {
		t.Errorf("parens: %v,%v", v, ok)
	}
}

func TestComparisonCoercions(t *testing.T) {
	b := Binding{
		"i": rdf.NewInteger(5),
		"d": rdf.NewDouble(5.0),
		"s": rdf.NewLiteral("apple"),
		"t": rdf.NewLiteral("banana"),
	}
	if v, ok := evalExpr(t, `(?i = ?d)`, b); !ok || !v.Bool {
		t.Error("integer/double equality should coerce")
	}
	if v, ok := evalExpr(t, `(?s < ?t)`, b); !ok || !v.Bool {
		t.Error("string comparison should be lexicographic")
	}
	if v, ok := evalExpr(t, `(?s != ?i)`, b); !ok || !v.Bool {
		t.Error("string vs number inequality should hold")
	}
}

func TestStringBuiltinsMore(t *testing.T) {
	b := Binding{"l": rdf.NewLangLiteral("Orhan Pamuk", "en")}
	if v, ok := evalExpr(t, `(UCASE(STR(?l)) = "ORHAN PAMUK")`, b); !ok || !v.Bool {
		t.Errorf("UCASE: %v,%v", v, ok)
	}
	if v, ok := evalExpr(t, `(STRSTARTS(STR(?l), "Orhan"))`, b); !ok || !v.Bool {
		t.Errorf("STRSTARTS: %v,%v", v, ok)
	}
	if v, ok := evalExpr(t, `(STRENDS(STR(?l), "Pamuk"))`, b); !ok || !v.Bool {
		t.Errorf("STRENDS: %v,%v", v, ok)
	}
	if v, ok := evalExpr(t, `(LANGMATCHES(LANG(?l), "*"))`, b); !ok || !v.Bool {
		t.Errorf("LANGMATCHES *: %v,%v", v, ok)
	}
	if v, ok := evalExpr(t, `(STRLEN(STR(?l)) = 11)`, b); !ok || !v.Bool {
		t.Errorf("STRLEN: %v,%v", v, ok)
	}
}

func TestRegexInvalidPattern(t *testing.T) {
	b := Binding{"s": rdf.NewLiteral("abc")}
	if _, ok := evalExpr(t, `(REGEX(STR(?s), "["))`, b); ok {
		t.Error("invalid regex should evaluate to error")
	}
}

// TestRegexPatternFromVariable: a pattern bound per solution compiles
// at each evaluation — a match, a miss and an invalid pattern, which is
// an evaluation error — while a constant pattern is compiled once by
// the parser.
func TestRegexPatternFromVariable(t *testing.T) {
	for _, c := range []struct {
		pat      string
		want, ok bool
	}{{"^a.c$", true, true}, {"b$", false, true}, {"[", false, false}} {
		b := Binding{"s": rdf.NewLiteral("abc"), "p": rdf.NewLiteral(c.pat)}
		v, ok := evalExpr(t, `(REGEX(STR(?s), ?p))`, b)
		if ok != c.ok || ok && v.Bool != c.want {
			t.Errorf("REGEX(\"abc\", %q) = %v, %v; want %v, %v", c.pat, v.Bool, ok, c.want, c.ok)
		}
	}
	if q := MustParse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(REGEX(?o, ?p)) }`); q.Filters[0].(*CallExpr).re != nil {
		t.Error("a variable pattern was compiled at parse time")
	}
	if q := MustParse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(REGEX(?o, "a", "i")) }`); q.Filters[0].(*CallExpr).re == nil {
		t.Error("a constant pattern was not compiled at parse time")
	}

	st := store.New()
	for i, pat := range []string{"^orhan", "^w", "["} {
		s := rdf.Res(fmt.Sprint("Item", i))
		st.Add(rdf.Triple{S: s, P: rdf.Label(), O: rdf.NewLiteral([]string{"Orhan Pamuk", "Snow", "abc"}[i])})
		st.Add(rdf.Triple{S: s, P: rdf.Ont("pattern"), O: rdf.NewLiteral(pat)})
	}
	res, err := ExecuteStringCtx(context.Background(), st.Snapshot(),
		`SELECT ?x WHERE { ?x rdfs:label ?l . ?x dbont:pattern ?p . FILTER(REGEX(?l, ?p, "i")) }`)
	if err != nil {
		t.Fatal(err)
	}
	if sols := res.Solutions(); len(sols) != 1 || sols[0]["x"] != rdf.Res("Item0") {
		t.Errorf("solutions = %v, want Item0 only", sols)
	}
}

func TestExprStringRendering(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(!(?o > 3) && REGEX(STR(?o), "a", "i")) }`)
	s := q.Filters[0].String()
	for _, want := range []string{"!", `?o > "3"^^xsd:integer`, "&&", `REGEX(STR(?o), "a", "i")`} {
		if !containsStr(s, want) {
			t.Errorf("expr String() = %q, missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
