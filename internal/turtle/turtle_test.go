package turtle

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestBasicDocument(t *testing.T) {
	src := `
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbr: <http://dbpedia.org/resource/> .
# Orhan Pamuk's books
dbr:Snow a dbo:Book ;
    dbo:author dbr:Orhan_Pamuk .
dbr:Orhan_Pamuk a dbo:Writer .
`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 3 {
		t.Fatalf("got %d triples: %v", len(triples), triples)
	}
	if triples[0].S != rdf.Res("Snow") || triples[0].P != rdf.Type() || triples[0].O != rdf.Ont("Book") {
		t.Errorf("triple 0 = %v", triples[0])
	}
	if triples[1].P != rdf.Ont("author") || triples[1].O != rdf.Res("Orhan_Pamuk") {
		t.Errorf("triple 1 = %v", triples[1])
	}
}

func TestObjectAndPredicateLists(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b , ex:c ; ex:q ex:d .
`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 3 {
		t.Fatalf("got %d triples", len(triples))
	}
	if triples[1].O.Value != "http://example.org/c" {
		t.Errorf("comma list: %v", triples[1])
	}
	if triples[2].P.Value != "http://example.org/q" {
		t.Errorf("semicolon list: %v", triples[2])
	}
}

func TestLiterals(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:e ex:label "Orhan Pamuk"@en .
ex:e ex:height 1.98 .
ex:e ex:pages 512 .
ex:e ex:rating 1.5e2 .
ex:e ex:alive false .
ex:e ex:date "1865-04-15"^^xsd:date .
ex:e ex:note "multi \"quoted\" \n line" .
`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{
		rdf.NewLangLiteral("Orhan Pamuk", "en"),
		rdf.NewTypedLiteral("1.98", rdf.XSDDecimal),
		rdf.NewTypedLiteral("512", rdf.XSDInteger),
		rdf.NewTypedLiteral("1.5e2", rdf.XSDDouble),
		rdf.NewTypedLiteral("false", rdf.XSDBoolean),
		rdf.NewDate("1865-04-15"),
		rdf.NewLiteral("multi \"quoted\" \n line"),
	}
	if len(triples) != len(want) {
		t.Fatalf("got %d triples, want %d", len(triples), len(want))
	}
	for i, w := range want {
		if triples[i].O != w {
			t.Errorf("object %d = %v, want %v", i, triples[i].O, w)
		}
	}
}

func TestGlobalPrefixFallback(t *testing.T) {
	// Without local @prefix declarations, the registered global
	// namespaces (dbont:, res:, rdf:) still resolve. A '(' in a local
	// name is written with a backslash (PN_LOCAL_ESC), and a final '.'
	// ends the statement.
	src := `res:Snow_\(novel\) rdf:type dbont:Book . res:Lincoln dbont:deathPlace res:Washington_D.C.`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if triples[0].S != rdf.Res("Snow_(novel)") || triples[0].O != rdf.Ont("Book") {
		t.Errorf("triple = %v", triples[0])
	}
	if triples[1].O != rdf.Res("Washington_D.C") {
		t.Errorf("triple = %v", triples[1])
	}
}

func TestBlankNodes(t *testing.T) {
	src := `@prefix ex: <http://example.org/> .
_:b0 ex:p _:b1 .`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !triples[0].S.IsBlank() || !triples[0].O.IsBlank() {
		t.Errorf("triple = %v", triples[0])
	}
}

func TestFullIRIs(t *testing.T) {
	src := `<http://e/s> <http://e/p> <http://e/o> .`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if triples[0].S.Value != "http://e/s" {
		t.Errorf("triple = %v", triples[0])
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		`@prefix ex: <http://e/>`,                   // missing dot
		`@base <http://e/> .`,                       // unsupported
		`ex:a ex:p ex:b .`,                          // unknown prefix
		`<http://e/s> <http://e/p> .`,               // missing object
		`<http://e/s> "lit" <http://e/o> .`,         // literal predicate
		`"lit" <http://e/p> <http://e/o> .`,         // literal subject
		`<http://e/s> <http://e/p> "unterminated .`, // unterminated string
		`<http://e/s> <http://e/p> "bad \q" .`,      // bad escape
		`<http://e/s> <http://e/p> <http://e/o>`,    // missing final dot
		`<http://e/s> <http://e/p> "x"@ .`,          // empty lang
		`<http://e/s <http://e/p> <http://e/o> .`,   // IRI containing space... actually unterminated
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("error type for %q = %T", src, err)
		}
	}
}

func TestErrorLineNumbers(t *testing.T) {
	src := "@prefix ex: <http://e/> .\n\nex:a ex:p \"unterminated .\n"
	_, err := ParseString(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
# leading comment
@prefix ex: <http://e/> . # trailing comment
ex:a # mid-statement comment
  ex:p ex:b .
`
	triples, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 1 {
		t.Errorf("got %d triples", len(triples))
	}
}

func TestRoundTripAgainstNTriples(t *testing.T) {
	// A Turtle doc and its N-Triples equivalent load the same graph.
	ttl := `
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbr: <http://dbpedia.org/resource/> .
dbr:Ankara a dbo:City ; dbo:populationTotal 4890893 .
`
	triples, err := ParseString(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 2 {
		t.Fatalf("got %d", len(triples))
	}
	if triples[1].O != rdf.NewTypedLiteral("4890893", rdf.XSDInteger) {
		t.Errorf("population = %v", triples[1].O)
	}
}

// TestLongStrings: a string in three double or three single quotes
// may span lines and hold unescaped quotes of either kind, escapes work
// in it as in a short string, and a language tag or datatype may
// follow.
func TestLongStrings(t *testing.T) {
	cases := []struct {
		name, lit string
		want      rdf.Term
	}{
		{"double quotes", `"""x"""`, rdf.NewLiteral("x")},
		{"single quotes", `'''x'''`, rdf.NewLiteral("x")},
		{"empty", `""""""`, rdf.NewLiteral("")},
		{"newlines", "\"\"\"a\nb\n\"\"\"", rdf.NewLiteral("a\nb\n")},
		{"one and two quotes inside", `"""say "hi" or ""hi"" """`, rdf.NewLiteral(`say "hi" or ""hi"" `)},
		{"the other quote", `'''it's "x"'''`, rdf.NewLiteral(`it's "x"`)},
		{"escapes", `"""tab\tquote\"""\\"""`, rdf.NewLiteral("tab\tquote\"\"\"\\")},
		{"braces and a hash", "'''{ # }\n}'''", rdf.NewLiteral("{ # }\n}")},
		{"language tag", `"""x"""@en`, rdf.NewLangLiteral("x", "en")},
		{"datatype IRI", `"""7"""^^<http://www.w3.org/2001/XMLSchema#integer>`, rdf.NewTypedLiteral("7", rdf.XSDInteger)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			triples, err := ParseString("<http://e/s> <http://e/p> " + tc.lit + " .")
			if err != nil {
				t.Fatal(err)
			}
			if len(triples) != 1 || triples[0].O != tc.want {
				t.Fatalf("got %v, want one triple with object %v", triples, tc.want)
			}
		})
	}
}

// TestLongStringErrorLines: a long string's newlines count, so an error
// after one reports its own line; an unterminated one is an error.
func TestLongStringErrorLines(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
	}{
		{"error after a long string", "<http://e/s> <http://e/p> \"\"\"a\nb\"\"\" .\n<http://e/s> <http://e/p> \"bad \\q\" .\n", 3},
		{"bad escape inside one", "<http://e/s> <http://e/p> '''a\n\nb \\q''' .\n", 3},
		{"unterminated", "<http://e/s> <http://e/p> \"\"\"a\nb\" .\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("err = %v (%T), want *ParseError", err, err)
			}
			if pe.Line != tc.line {
				t.Fatalf("line = %d, want %d: %v", pe.Line, tc.line, pe)
			}
		})
	}
}

// TestStringEscapes: a Turtle string, short or long, decodes every ECHAR
// and UCHAR that N-Triples does; a malformed one is an error.
func TestStringEscapes(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`"caf\u00e9"`, "café"},
		{`"\U0001F600"`, "😀"},
		{`"a\bb\fc"`, "a\bb\fc"},
		{`'''\u00E9\t'''`, "é\t"},
		{`"\"\'\\\n\r"`, "\"'\\\n\r"},
	} {
		triples, err := ParseString(`<http://e/s> <http://e/p> ` + c.src + ` .`)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := triples[0].O; got != rdf.NewLiteral(c.want) {
			t.Errorf("%s: %v, want %q", c.src, got, c.want)
		}
	}
	for _, src := range []string{`"\u00G9"`, `"\u12"`, `"\uD800"`, `"\U00110000"`, `"\q"`} {
		if _, err := ParseString(`<http://e/s> <http://e/p> ` + src + ` .`); err == nil {
			t.Errorf("%s: parsed; want an error", src)
		}
	}
}

// TestKeywordA: 'a' is rdf:type before any non-name character, a line
// break included, but not as the prefix of a prefixed name.
func TestKeywordA(t *testing.T) {
	for src, want := range map[string]string{
		"<http://e/s> a <http://e/C> .":                                    rdf.IRIType,
		"<http://e/s> a\n<http://e/C> .":                                   rdf.IRIType,
		"<http://e/s> a<http://e/C> .":                                     rdf.IRIType,
		"@prefix a: <http://x/> .\n<http://e/s> a:p <http://e/C> .":        "http://x/p",
		"@prefix a.b: <http://x/> .\n<http://e/s> a.b:p <http://e/C> .":    "http://x/p",
		"@prefix ab: <http://x/> .\n<http://e/s> ab:p <http://e/C> .":      "http://x/p",
		"@prefix : <http://x/> .\n<http://e/s> a :p , :q ; a <http://e/D>": "",
	} {
		triples, err := ParseString(src)
		if want == "" {
			if err == nil {
				t.Errorf("%q: parsed %v; want an error (no final '.')", src, triples)
			}
			continue
		}
		if err != nil || len(triples) != 1 || triples[0].P != rdf.NewIRI(want) {
			t.Errorf("%q: %v, %v; want predicate %s", src, triples, err, want)
		}
	}
}

// TestParseBlock: the block mode stops at the block's '}' and reports
// where it did, takes the prefixes it is given, lets the last '.' be
// left out, and numbers error lines from the start of the text.
func TestParseBlock(t *testing.T) {
	src := "PREFIX ex: <http://x/>\nINSERT DATA {\n  ex:s ex:p \"}\" , '''\n}''' ;\n    ex:q <http://x/o#\\u007D>\n} ; rest"
	pos := strings.IndexByte(src, '{') + 1
	triples, end, endLine, err := ParseBlock(src, pos, 2, map[string]string{"ex": "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.LastIndexByte(src, '}') + 1; end != want || endLine != 6 {
		t.Errorf("block ends at %d on line %d; want %d on line 6", end, endLine, want)
	}
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("}")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("\n}")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/q"), O: rdf.NewIRI("http://x/o#}")},
	}
	if len(triples) != len(want) {
		t.Fatalf("got %v, want %v", triples, want)
	}
	for i := range want {
		if triples[i] != want[i] {
			t.Errorf("triple %d = %v, want %v", i, triples[i], want[i])
		}
	}
	for _, c := range []struct {
		body string
		line int
	}{
		{"\n\n<http://x/s> <http://x/p> \"a\nb\" }", 3},
		{"\n<http://x/s> <http://x/p> '''\n\n''' , <http://x/a b> }", 4},
		{"<http://x/s> <http://x/p> <http://x/o> .\n", 2},
		{"@prefix ex: <http://x/> . }", 1},
	} {
		_, _, _, err := ParseBlock("{"+c.body, 1, 1, nil)
		pe, ok := err.(*ParseError)
		if !ok || pe.Line != c.line {
			t.Errorf("%q: %v; want a ParseError on line %d", c.body, err, c.line)
		}
	}
}
