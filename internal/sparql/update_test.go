package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestParseUpdateInsertData(t *testing.T) {
	ops, err := ParseUpdate(`
		PREFIX res: <http://dbpedia.org/resource/>
		PREFIX dbont: <http://dbpedia.org/ontology/>
		INSERT DATA {
			res:Snow dbont:author res:Orhan_Pamuk .
			res:Snow a dbont:Book ;
			         dbont:title "Snow"@en .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Delete {
		t.Fatalf("ops = %+v, want one insert", ops)
	}
	if len(ops[0].Triples) != 3 {
		t.Fatalf("got %d triples, want 3: %v", len(ops[0].Triples), ops[0].Triples)
	}
	want := rdf.Triple{
		S: rdf.NewIRI("http://dbpedia.org/resource/Snow"),
		P: rdf.NewIRI("http://dbpedia.org/ontology/author"),
		O: rdf.NewIRI("http://dbpedia.org/resource/Orhan_Pamuk"),
	}
	if ops[0].Triples[0] != want {
		t.Fatalf("triple[0] = %v, want %v", ops[0].Triples[0], want)
	}
}

func TestParseUpdateMultipleOpsInOrder(t *testing.T) {
	ops, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		DELETE DATA { ex:s ex:p ex:old } ;
		INSERT DATA { ex:s ex:p ex:new } ;
		delete data { ex:t ex:p ex:gone }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	if !ops[0].Delete || ops[1].Delete || !ops[2].Delete {
		t.Fatalf("verb dispatch wrong: %+v", ops)
	}
	if ops[1].Triples[0].O.Value != "http://example.org/new" {
		t.Fatalf("insert parsed wrong: %v", ops[1].Triples[0])
	}
}

func TestParseUpdateBracesInsideLiterals(t *testing.T) {
	ops, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		INSERT DATA { ex:s ex:note "open { and close } and a # hash" }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops[0].Triples[0].O.Value; got != "open { and close } and a # hash" {
		t.Fatalf("literal = %q", got)
	}
}

func TestParseUpdateFullIRIsWithoutPrefixes(t *testing.T) {
	ops, err := ParseUpdate(`INSERT DATA {
		<http://example.org/s> <http://example.org/p> 42 .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o := ops[0].Triples[0].O
	if o.Value != "42" || o.Datatype != rdf.XSDInteger {
		t.Fatalf("object = %+v", o)
	}
}

func TestParseUpdateEmptyBlockIsNoOp(t *testing.T) {
	ops, err := ParseUpdate(`INSERT DATA {  }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || len(ops[0].Triples) != 0 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "no update operation"},
		{"comment only", "# nothing here\n", "no update operation"},
		{"pattern insert", "INSERT { ?s ?p ?o } WHERE { ?s ?p ?o }", "only INSERT DATA"},
		{"pattern delete", "DELETE WHERE { ?s ?p ?o }", "only DELETE DATA"},
		{"select", "SELECT ?x WHERE { ?x ?p ?o }", "unsupported update verb"},
		{"load", "LOAD <http://example.org/data.ttl>", "unsupported update verb"},
		{"base", "BASE <http://example.org/>\nINSERT DATA { <s> <p> <o> }", "BASE is not supported"},
		{"unterminated block", "INSERT DATA { <http://x/s> <http://x/p> <http://x/o>", "unterminated '{'"},
		{"missing brace", "INSERT DATA <http://x/s>", "expected '{'"},
		{"bad turtle", "INSERT DATA { <http://x/s> }", ""},
		{"unknown prefix", "INSERT DATA { ex:s ex:p ex:o }", ""},
		{"bad prefix decl", "PREFIX ex <http://example.org/>\nINSERT DATA { ex:s ex:p ex:o }", "expected \"name:\""},
		{"unterminated literal", `INSERT DATA { <http://x/s> <http://x/p> "oops }`, "unterminated"},
		{"blank in delete", "DELETE DATA { _:b <http://x/p> <http://x/o> }", "blank nodes"},
		{"raw brace in an IRI", "INSERT DATA { <http://x/s> <http://x/p> <http://x/{o}> }", "'{' in IRI"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseUpdate(tc.src)
			if err == nil {
				t.Fatalf("ParseUpdate(%q) succeeded, want error", tc.src)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseUpdateBlankNodeAllowedInInsert(t *testing.T) {
	ops, err := ParseUpdate("INSERT DATA { _:b <http://x/p> <http://x/o> }")
	if err != nil {
		t.Fatal(err)
	}
	if ops[0].Triples[0].S.Kind != rdf.KindBlank {
		t.Fatalf("subject = %+v, want blank node", ops[0].Triples[0].S)
	}
}

func TestParseUpdateErrorLineNumbers(t *testing.T) {
	_, err := ParseUpdate("PREFIX ex: <http://example.org/>\nINSERT DATA {\n  ex:s ex:p\n}")
	ue, ok := err.(*UpdateError)
	if !ok {
		t.Fatalf("err = %v (%T), want *UpdateError", err, err)
	}
	// The broken statement is on line 3 of the request; the missing
	// object shows at its '}' on line 4.
	if ue.Line != 4 {
		t.Fatalf("error line = %d, want 4: %v", ue.Line, ue)
	}
}

// TestParseUpdateIRIsAndLongStrings: a block is read term by term, so a
// '#' in an IRI starts no comment, a brace in an IRI (written as its
// \uXXXX escape) or a string ends no block, and a long string parses as
// Turtle parses it.
func TestParseUpdateIRIsAndLongStrings(t *testing.T) {
	s, p := rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p")
	cases := []struct {
		name, block string
		want        rdf.Triple
	}{
		{"rdf:type as a full IRI",
			`<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .`,
			rdf.Triple{S: s, P: rdf.Type(), O: rdf.NewIRI("http://x/C")}},
		{"typed literal with a full datatype IRI",
			`<http://x/a> <http://x/p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
			rdf.Triple{S: s, P: p, O: rdf.NewTypedLiteral("7", rdf.XSDInteger)}},
		{"braces in an IRI", `<http://x/a> <http://x/p> <http://x/\u007Bo\u007D#\u007D> .`,
			rdf.Triple{S: s, P: p, O: rdf.NewIRI("http://x/{o}#}")}},
		{"long string", `<http://x/a> <http://x/p> """x""" .`,
			rdf.Triple{S: s, P: p, O: rdf.NewLiteral("x")}},
		{"long string over lines", "<http://x/a> <http://x/p> '''a {\n# } \"b\"\n''' .",
			rdf.Triple{S: s, P: p, O: rdf.NewLiteral("a {\n# } \"b\"\n")}},
		{"no final dot", `<http://x/a> <http://x/p> """x;}"""`,
			rdf.Triple{S: s, P: p, O: rdf.NewLiteral("x;}")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops, err := ParseUpdate("INSERT DATA { " + tc.block + " }")
			if err != nil {
				t.Fatal(err)
			}
			if len(ops) != 1 || len(ops[0].Triples) != 1 || ops[0].Triples[0] != tc.want {
				t.Fatalf("ops = %+v, want one insert of %v", ops, tc.want)
			}
		})
	}
}

// TestParseUpdateLongStringLines: lines inside a long string count
// toward the line an error after it reports, and an IRI that runs into
// a newline is an error.
func TestParseUpdateLongStringLines(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
	}{
		{"after a long string", "INSERT DATA {\n<http://x/a> <http://x/p> \"\"\"1\n2\n3\"\"\" .\n<http://x/a> <http://x/p> \"\\q\" .\n}", 5},
		{"newline in IRI", "INSERT DATA {\n<http://x/a\n> <http://x/p> <http://x/o> .\n}", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseUpdate(tc.src)
			ue, ok := err.(*UpdateError)
			if !ok {
				t.Fatalf("err = %v (%T), want *UpdateError", err, err)
			}
			if ue.Line != tc.line {
				t.Fatalf("line = %d, want %d: %v", ue.Line, tc.line, ue)
			}
		})
	}
}
