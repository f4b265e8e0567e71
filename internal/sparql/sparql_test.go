package sparql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// testGraph builds the small DBpedia-like graph the paper's worked
// examples run over.
func testGraph() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }

	add(rdf.Res("Orhan_Pamuk"), rdf.Type(), rdf.Ont("Writer"))
	add(rdf.Res("Orhan_Pamuk"), rdf.Label(), rdf.NewLangLiteral("Orhan Pamuk", "en"))
	books := []string{"Snow", "My_Name_Is_Red", "The_Black_Book"}
	for _, b := range books {
		add(rdf.Res(b), rdf.Type(), rdf.Ont("Book"))
		add(rdf.Res(b), rdf.Ont("author"), rdf.Res("Orhan_Pamuk"))
	}
	// A book by someone else.
	add(rdf.Res("The_Time_Machine"), rdf.Type(), rdf.Ont("Book"))
	add(rdf.Res("The_Time_Machine"), rdf.Ont("author"), rdf.Res("H_G_Wells"))
	add(rdf.Res("H_G_Wells"), rdf.Type(), rdf.Ont("Writer"))

	add(rdf.Res("Michael_Jordan"), rdf.Type(), rdf.Ont("BasketballPlayer"))
	add(rdf.Res("Michael_Jordan"), rdf.Ont("height"), rdf.NewDouble(1.98))
	add(rdf.Res("Scottie_Pippen"), rdf.Type(), rdf.Ont("BasketballPlayer"))
	add(rdf.Res("Scottie_Pippen"), rdf.Ont("height"), rdf.NewDouble(2.03))

	add(rdf.Res("Abraham_Lincoln"), rdf.Ont("deathPlace"), rdf.Res("Washington_D.C."))
	add(rdf.Res("Abraham_Lincoln"), rdf.Ont("deathDate"), rdf.NewDate("1865-04-15"))
	return st
}

func exec(t *testing.T, st *store.Store, src string) *Result {
	t.Helper()
	res, err := ExecuteStringCtx(context.Background(), st.Snapshot(), src)
	if err != nil {
		t.Fatalf("ExecuteStringCtx(%q): %v", src, err)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . }`)
	if len(res.Solutions()) != 3 {
		t.Fatalf("got %d solutions, want 3: %v", len(res.Solutions()), res.Solutions())
	}
	col := res.Column("x")
	names := map[string]bool{}
	for _, term := range col {
		names[term.LocalName()] = true
	}
	for _, want := range []string{"Snow", "My_Name_Is_Red", "The_Black_Book"} {
		if !names[want] {
			t.Errorf("missing %s in %v", want, names)
		}
	}
}

func TestSelectKeywordCaseInsensitive(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `select ?x where { ?x rdf:type dbont:Book } limit 2`)
	if len(res.Solutions()) != 2 {
		t.Errorf("lowercase keywords: got %d rows, want 2", len(res.Solutions()))
	}
}

func TestSelectWithExplicitPrefix(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `
# Full IRIs under local prefixes.
PREFIX o: <http://dbpedia.org/ontology/>
PREFIX r: <http://dbpedia.org/resource/>
SELECT ?b WHERE { ?b o:author r:Orhan_Pamuk . } # every book`)
	if len(res.Solutions()) != 3 {
		t.Errorf("got %d, want 3", len(res.Solutions()))
	}
}

func TestSelectFullIRIs(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?b WHERE { ?b <http://dbpedia.org/ontology/author> <http://dbpedia.org/resource/Orhan_Pamuk> }`)
	if len(res.Solutions()) != 3 {
		t.Errorf("got %d, want 3", len(res.Solutions()))
	}
}

func TestSelectStar(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT * WHERE { ?b dbont:author ?a }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v, want [b a]", res.Vars)
	}
	if len(res.Solutions()) != 4 {
		t.Errorf("got %d rows, want 4", len(res.Solutions()))
	}
}

func TestAATypeAbbreviation(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?x WHERE { ?x a dbont:Writer }`)
	if len(res.Solutions()) != 2 {
		t.Errorf("'a' abbreviation: got %d, want 2", len(res.Solutions()))
	}
}

func TestSemicolonAndCommaSyntax(t *testing.T) {
	st := testGraph()
	for _, src := range []string{
		`SELECT ?x WHERE { ?x a dbont:Book ; dbont:author res:Orhan_Pamuk . }`,
		`SELECT ?x WHERE { ?x a dbont:Book ; dbont:author res:Orhan_Pamuk ; . }`,
		`SELECT ?x WHERE { ?x a dbont:Book ; dbont:author res:Orhan_Pamuk ; }`,
	} {
		if res := exec(t, st, src); len(res.Solutions()) != 3 {
			t.Errorf("%s: got %d, want 3", src, len(res.Solutions()))
		}
	}
	res2 := exec(t, st, `ASK { res:Abraham_Lincoln dbont:deathPlace res:Washington_D.C\. , res:Nowhere }`)
	if res2.Boolean {
		t.Error("comma object list: Lincoln died in both places should be false")
	}
}

func TestAsk(t *testing.T) {
	st := testGraph()
	yes := exec(t, st, `ASK WHERE { res:Snow dbont:author res:Orhan_Pamuk }`)
	if !yes.Boolean {
		t.Error("ASK true case failed")
	}
	no := exec(t, st, `ASK { res:Snow dbont:author res:H_G_Wells }`)
	if no.Boolean {
		t.Error("ASK false case failed")
	}
	if yes.Form != FormAsk {
		t.Error("Form not FormAsk")
	}
}

func TestFilterNumericComparison(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h > 2.0) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["p"] != rdf.Res("Scottie_Pippen") {
		t.Errorf("FILTER > : %v", res.Solutions())
	}
	res2 := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h >= 1.98) FILTER(?h <= 2.0) }`)
	if len(res2.Solutions()) != 1 || res2.Solutions()[0]["p"] != rdf.Res("Michael_Jordan") {
		t.Errorf("two FILTERs: %v", res2.Solutions())
	}
}

func TestFilterEqualityAndInequality(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book . ?b dbont:author ?a . FILTER(?a != res:Orhan_Pamuk) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["b"] != rdf.Res("The_Time_Machine") {
		t.Errorf("FILTER != : %v", res.Solutions())
	}
}

// TestFilterRegexAndStr: REGEX and STR are refused; an exact label
// comparison answers what the case-insensitive search did here.
func TestFilterRegexAndStr(t *testing.T) {
	wantUnsupported(t, `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(REGEX(STR(?l), "pamuk", "i")) }`, "REGEX")
	wantUnsupported(t, `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(STR(?l) = "Orhan Pamuk") }`, "STR")
	st := testGraph()
	res := exec(t, st, `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(?l = "Orhan Pamuk"@en) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["x"] != rdf.Res("Orhan_Pamuk") {
		t.Errorf("label comparison: %v", res.Solutions())
	}
}

// TestFilterBuiltins: each term-test and string builtin is refused by
// name.
func TestFilterBuiltins(t *testing.T) {
	for fn, src := range map[string]string{
		"ISLITERAL": `SELECT ?o WHERE { res:Abraham_Lincoln ?p ?o . FILTER(ISLITERAL(?o)) }`,
		"ISIRI":     `SELECT ?o WHERE { res:Abraham_Lincoln ?p ?o . FILTER(ISIRI(?o)) }`,
		"LANG":      `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(LANG(?l) = "en") }`,
		"CONTAINS":  `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(CONTAINS(?l, "orhan")) }`,
		"ISNUMERIC": `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(ISNUMERIC(?h)) }`,
	} {
		wantUnsupported(t, src, fn)
	}
}

// TestFilterBound: BOUND is refused. With no OPTIONAL every variable of
// a solution is bound, and a FILTER over a variable no pattern binds
// rejects every solution.
func TestFilterBound(t *testing.T) {
	wantUnsupported(t, `SELECT ?x WHERE { ?x a dbont:Writer . FILTER(BOUND(?x)) }`, "BOUND")
	wantUnsupported(t, `SELECT ?x WHERE { ?x a dbont:Writer . FILTER(!BOUND(?y)) }`, "(!)")
	st := testGraph()
	if res := exec(t, st, `SELECT ?x WHERE { ?x a dbont:Writer . FILTER(?y = ?x) }`); res.Len() != 0 {
		t.Errorf("FILTER over a never-bound variable: %v", res.Solutions())
	}
}

// TestFilterArithmetic: arithmetic and unary minus are refused.
func TestFilterArithmetic(t *testing.T) {
	wantUnsupported(t, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h * 100 > 200) }`, "(*)")
	wantUnsupported(t, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(-?h < -2) }`, "(-)")
}

func TestOrderByAndLimit(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?p ?h WHERE { ?p dbont:height ?h } ORDER BY DESC(?h) LIMIT 1`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["p"] != rdf.Res("Scottie_Pippen") {
		t.Errorf("ORDER BY DESC LIMIT: %v", res.Solutions())
	}
	res2 := exec(t, st, `SELECT ?p ?h WHERE { ?p dbont:height ?h } ORDER BY ?h LIMIT 1`)
	if len(res2.Solutions()) != 1 || res2.Solutions()[0]["p"] != rdf.Res("Michael_Jordan") {
		t.Errorf("ORDER BY ASC: %v", res2.Solutions())
	}
}

func TestOffset(t *testing.T) {
	st := testGraph()
	all := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book } ORDER BY ?b`)
	off := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book } ORDER BY ?b OFFSET 2`)
	if len(all.Solutions()) != 4 || len(off.Solutions()) != 2 {
		t.Fatalf("offset: all=%d off=%d", len(all.Solutions()), len(off.Solutions()))
	}
	if all.Solutions()[2]["b"] != off.Solutions()[0]["b"] {
		t.Error("OFFSET did not skip rows in order")
	}
	none := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book } OFFSET 99`)
	if len(none.Solutions()) != 0 {
		t.Error("large OFFSET should empty results")
	}
}

func TestDistinct(t *testing.T) {
	st := testGraph()
	dup := exec(t, st, `SELECT ?a WHERE { ?b dbont:author ?a }`)
	dis := exec(t, st, `SELECT DISTINCT ?a WHERE { ?b dbont:author ?a }`)
	if len(dup.Solutions()) != 4 {
		t.Errorf("without DISTINCT: %d, want 4", len(dup.Solutions()))
	}
	if len(dis.Solutions()) != 2 {
		t.Errorf("with DISTINCT: %d, want 2", len(dis.Solutions()))
	}
}

func TestRepeatedVariableJoin(t *testing.T) {
	st := store.New()
	st.Add(rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("knows"), O: rdf.Res("A")})
	st.Add(rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("knows"), O: rdf.Res("B")})
	res := exec(t, st, `SELECT ?x WHERE { ?x dbont:knows ?x }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["x"] != rdf.Res("A") {
		t.Errorf("self-join: %v", res.Solutions())
	}
}

func TestMultiHopJoin(t *testing.T) {
	st := testGraph()
	// Which writers authored a book? (book -> author -> type Writer)
	res := exec(t, st, `SELECT DISTINCT ?w WHERE { ?b a dbont:Book . ?b dbont:author ?w . ?w a dbont:Writer . }`)
	if len(res.Solutions()) != 2 {
		t.Errorf("multi-hop join: %v", res.Solutions())
	}
}

func TestEmptyResultNoMatch(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?x WHERE { ?x dbont:author res:Nobody }`)
	if len(res.Solutions()) != 0 {
		t.Errorf("expected empty result, got %v", res.Solutions())
	}
}

func TestEmptyBGPWithAsk(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `ASK {}`)
	if !res.Boolean {
		t.Error("ASK {} should be true (one empty solution)")
	}
}

func TestDeterministicDefaultOrder(t *testing.T) {
	st := testGraph()
	a := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book }`)
	b := exec(t, st, `SELECT ?b WHERE { ?b a dbont:Book }`)
	for i := range a.Solutions() {
		if a.Solutions()[i]["b"] != b.Solutions()[i]["b"] {
			t.Fatal("default ordering not deterministic")
		}
	}
}

func TestLiteralObjectsInPatterns(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height "1.98"^^xsd:double }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["p"] != rdf.Res("Michael_Jordan") {
		t.Errorf("typed numeric literal object: %v", res.Solutions())
	}
	res2 := exec(t, st, `SELECT ?x WHERE { ?x rdfs:label "Orhan Pamuk"@en }`)
	if len(res2.Solutions()) != 1 {
		t.Errorf("lang literal object: %v", res2.Solutions())
	}
	res3 := exec(t, st, `SELECT ?x WHERE { ?x dbont:deathDate "1865-04-15"^^xsd:date }`)
	if len(res3.Solutions()) != 1 {
		t.Errorf("typed literal object: %v", res3.Solutions())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT WHERE { ?x ?p ?o }`,
		`SELECT ?x { ?x ?p ?o }`, // missing WHERE (we require it for SELECT)
		`SELECT ?x WHERE { ?x ?p }`,
		`SELECT ?x WHERE { ?x ?p ?o`,
		`SELECT ?x WHERE { ?x ?p ?o } LIMIT abc`,
		`SELECT ?x WHERE { ?x ?p ?o } ORDER BY`,
		`SELECT ?x WHERE { FILTER() }`,
		`SELECT ?x WHERE { ?x unknownprefix:p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o } garbage`,
		`SELECT ?x WHERE { ?x ?p "unterminated }`,
		`FOO ?x WHERE { ?x ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o . FILTER(REGEX(?x)) }`,
		`SELECT ?x WHERE { ?x ?p ?o . FILTER(BOUND(?x, ?o)) }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestUnsupportedSPARQLRejected: each construct outside the subset —
// the group patterns, the 17 FILTER builtins, the logical, negation and
// arithmetic operators, REDUCED and BASE — is refused with a
// *SyntaxError that names it.
func TestUnsupportedSPARQLRejected(t *testing.T) {
	const head = `SELECT ?x WHERE { ?x rdfs:label ?l . ?x dbont:height ?h . `
	rows := []struct{ name, src, construct string }{
		{"OPTIONAL", `SELECT ?x ?h WHERE { ?x a dbont:Writer . OPTIONAL { ?x dbont:height ?h } }`, "OPTIONAL"},
		{"UNION", `SELECT ?x WHERE { { ?x a dbont:Writer } UNION { ?x a dbont:Book } }`, "UNION"},
		{"nested group", `SELECT ?x WHERE { ?x a dbont:Book . { ?x dbont:author res:Orhan_Pamuk } }`, "nested group"},
		{"&&", head + `FILTER(?h > 1 && ?h < 2) }`, "&&"},
		{"||", head + `FILTER(?h > 1 || ?h < 2) }`, "||"},
		{"!", head + `FILTER(!(?h > 1)) }`, "(!)"},
		{"unary -", head + `FILTER(-?h < -2) }`, "(-)"},
		{"+", head + `FILTER(?h + 1 > 2) }`, "(+)"},
		{"-", head + `FILTER(?h - 1 > 2) }`, "(-)"},
		{"*", head + `FILTER(?h * 2 > 2) }`, "(*)"},
		{"/", head + `FILTER(?h / 2 > 2) }`, "(/)"},
		{"nested expression", head + `FILTER((?h > 2)) }`, "nested expression"},
		{"ORDER BY expression", head + `} ORDER BY DESC(?h * 2)`, "(*)"},
		{"REDUCED", `SELECT REDUCED ?x WHERE { ?x a dbont:Book }`, "REDUCED"},
		{"BASE", `BASE <http://dbpedia.org/> SELECT ?x WHERE { ?x a dbont:Book }`, "BASE"},
		{"fuzz seed", `PREFIX ex: <http://x/>
SELECT DISTINCT ?s WHERE { { ?s ex:p -2 } UNION { ?s ex:q "x"@en } OPTIONAL { ?s ex:r ?o } FILTER(?o -1 > +4.5 && !BOUND(?z) || REGEX(STR(?s), "^a", "i")) }`, "UNION"},
	}
	for _, fn := range []string{"BOUND", "STR", "LANG", "DATATYPE", "ISIRI", "ISURI",
		"ISLITERAL", "ISBLANK", "ISNUMERIC", "STRLEN", "LCASE", "UCASE", "CONTAINS",
		"STRSTARTS", "STRENDS", "REGEX", "LANGMATCHES", "SAMETERM"} {
		rows = append(rows, struct{ name, src, construct string }{fn, head + `FILTER(` + strings.ToLower(fn) + `(?l, "x")) }`, fn})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { wantUnsupported(t, r.src, r.construct) })
	}
}

func TestSyntaxErrorHasLine(t *testing.T) {
	_, err := Parse("SELECT ?x WHERE {\n ?x ?p\n}")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T, want *SyntaxError", err)
	}
	if se.Line < 2 {
		t.Errorf("line = %d, want >= 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line") {
		t.Error("error message should mention line")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT DISTINCT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . } LIMIT 5`
	q := MustParse(src)
	rendered := q.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", rendered, err)
	}
	st := testGraph()
	r1, _ := ExecuteCtx(context.Background(), st.Snapshot(), q)
	r2, _ := ExecuteCtx(context.Background(), st.Snapshot(), q2)
	if len(r1.Solutions()) != len(r2.Solutions()) {
		t.Errorf("round-trip changed result: %d vs %d", len(r1.Solutions()), len(r2.Solutions()))
	}
}

func TestLessThanVsIRIAmbiguity(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h < 2.0) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["p"] != rdf.Res("Michael_Jordan") {
		t.Errorf("FILTER < lexing: %v", res.Solutions())
	}
	res2 := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h <= 1.98) }`)
	if len(res2.Solutions()) != 1 {
		t.Errorf("FILTER <= lexing: %v", res2.Solutions())
	}
}

func TestExecuteNilQuery(t *testing.T) {
	if _, err := ExecuteCtx(context.Background(), store.New().Snapshot(), nil); err == nil {
		t.Error("ExecuteCtx(nil query) should error")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	MustParse("not sparql")
}

func TestCartesianProductQuery(t *testing.T) {
	st := testGraph()
	// Two disconnected patterns: writers x players = 2 x 2 = 4 rows.
	res := exec(t, st, `SELECT ?w ?p WHERE { ?w a dbont:Writer . ?p a dbont:BasketballPlayer . }`)
	if len(res.Solutions()) != 4 {
		t.Errorf("cartesian product: %d rows, want 4", len(res.Solutions()))
	}
}

// TestFilterOrSemantics: || and ! are refused; two FILTERs are their
// conjunction.
func TestFilterOrSemantics(t *testing.T) {
	wantUnsupported(t, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h < 1.99 || ?h > 2.02) }`, "(||)")
	wantUnsupported(t, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(!(?h < 1.99)) }`, "(!)")
	st := testGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h > 1.99) . FILTER(?h < 2.1) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["p"] != rdf.Res("Scottie_Pippen") {
		t.Errorf("two FILTERs: %v", res.Solutions())
	}
}

// TestDatatypeBuiltin: DATATYPE is refused; a typed constant compares
// with the stored date.
func TestDatatypeBuiltin(t *testing.T) {
	wantUnsupported(t, `SELECT ?o WHERE { res:Abraham_Lincoln dbont:deathDate ?o . FILTER(DATATYPE(?o) = xsd:date) }`, "DATATYPE")
	st := testGraph()
	res := exec(t, st, `SELECT ?o WHERE { res:Abraham_Lincoln dbont:deathDate ?o . FILTER(?o = "1865-04-15"^^xsd:date) }`)
	if len(res.Solutions()) != 1 {
		t.Errorf("typed date comparison: %v", res.Solutions())
	}
}

// TestSameTerm: SAMETERM is refused; '=' on IRIs is term identity.
func TestSameTerm(t *testing.T) {
	wantUnsupported(t, `SELECT ?b WHERE { ?b dbont:author ?a . FILTER(SAMETERM(?a, res:H_G_Wells)) }`, "SAMETERM")
	st := testGraph()
	res := exec(t, st, `SELECT ?b WHERE { ?b dbont:author ?a . FILTER(?a = res:H_G_Wells) }`)
	if len(res.Solutions()) != 1 || res.Solutions()[0]["b"] != rdf.Res("The_Time_Machine") {
		t.Errorf("= on IRIs: %v", res.Solutions())
	}
}
