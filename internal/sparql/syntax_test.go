package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// syntaxCases are statements every reader of RDF text must read to the
// same triple or refuse alike: the forms on which Turtle, N-Triples,
// SPARQL UPDATE and SPARQL queries used to disagree, the bugs the one
// term reader fixed, and the deliberate grammar changes it made. nt
// marks the forms N-Triples has too.
var syntaxCases = []struct {
	name, stmt string
	nt         bool
	want       rdf.Triple // zero: every reader refuses stmt
}{
	// Numbers type alike: a '.' makes a decimal, only an exponent a
	// double (a query read 1.5 as a double), and a sign is allowed
	// (a query refused -2).
	{"decimal", `<http://e/s> <http://e/p> 1.5`, false, spo(rdf.NewTypedLiteral("1.5", rdf.XSDDecimal))},
	{"decimal without integer part", `<http://e/s> <http://e/p> .5`, false, spo(rdf.NewTypedLiteral(".5", rdf.XSDDecimal))},
	{"double", `<http://e/s> <http://e/p> 1.5e3`, false, spo(rdf.NewTypedLiteral("1.5e3", rdf.XSDDouble))},
	{"negative integer", `<http://e/s> <http://e/p> -2`, false, spo(rdf.NewTypedLiteral("-2", rdf.XSDInteger))},
	{"signed decimal", `<http://e/s> <http://e/p> +4.5`, false, spo(rdf.NewTypedLiteral("+4.5", rdf.XSDDecimal))},
	{"exponent without digits", `<http://e/s> <http://e/p> 1.0e`, false, rdf.Triple{}}, // Turtle read a double "1.0e"
	{"boolean", `<http://e/s> <http://e/p> true`, false, spo(rdf.NewTypedLiteral("true", rdf.XSDBoolean))},
	// Long strings (a query refused them).
	{"long string", `<http://e/s> <http://e/p> """x"""`, false, spo(rdf.NewLiteral("x"))},
	{"long string in single quotes", "<http://e/s> <http://e/p> '''it's\n\"x\"'''", false, spo(rdf.NewLiteral("it's\n\"x\""))},
	{"raw CR in a short string", "<http://e/s> <http://e/p> \"a\rb\"", true, rdf.Triple{}},
	// Language tags: LANGTAG, with no '_' (Turtle and UPDATE took
	// "en_US", a query refused it).
	{"language subtag", `<http://e/s> <http://e/p> "x"@en-US`, true, spo(rdf.NewLangLiteral("x", "en-US"))},
	{"'_' in a language tag", `<http://e/s> <http://e/p> "x"@en_US`, true, rdf.Triple{}},
	{"space before a language tag", `<http://e/s> <http://e/p> "x" @en`, false, spo(rdf.NewLangLiteral("x", "en"))},
	// IRIs: UCHARs decode (Turtle kept the backslash), and the raw
	// characters IRIREF refuses are refused (Turtle, N-Triples and UPDATE
	// took a space, a query refused it).
	{"UCHAR in an IRI", `<http://e/s> <http://e/p> <http://e/\u0041>`, true, spo(rdf.NewIRI("http://e/A"))},
	{"raw space in an IRI", `<http://e/a b> <http://e/p> <http://e/o>`, true, rdf.Triple{}},
	{"raw brace in an IRI", `<http://e/s> <http://e/p> <http://e/{o}>`, true, rdf.Triple{}},
	{"escaped braces in an IRI", `<http://e/s> <http://e/p> <http://e/\u007Bo\u007D>`, true, spo(rdf.NewIRI("http://e/{o}"))},
	// Prefixed names: PN_LOCAL. An apostrophe or a parenthesis is
	// escaped (UPDATE opened a string at a raw apostrophe that Turtle
	// and a query took into the name), and a final '.' ends the
	// statement (a query kept it after an initialism).
	{"raw apostrophe in a local name", `<http://e/s> <http://e/p> res:it's`, false, rdf.Triple{}},
	{"escaped apostrophe in a local name", `<http://e/s> <http://e/p> res:it\'s`, false, spo(rdf.Res("it's"))},
	{"raw parentheses in a local name", `<http://e/s> <http://e/p> res:Snow_(novel)`, false, rdf.Triple{}},
	{"escaped parentheses in a local name", `<http://e/s> <http://e/p> res:Snow_\(novel\)`, false, spo(rdf.Res("Snow_(novel)"))},
	{"escaped final dot in a local name", `<http://e/s> <http://e/p> res:Washington_D.C\.`, false, spo(rdf.Res("Washington_D.C."))},
	// The 'a' keyword before a line break (Turtle and UPDATE refused it).
	{"'a' before a line break", "<http://e/s> a\n<http://e/C>", false,
		rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.Type(), O: rdf.NewIRI("http://e/C")}},
	// Blank node labels may hold '-' (a query refused it).
	{"'-' in a blank node label", `_:b-1 <http://e/p> <http://e/o>`, true,
		rdf.Triple{S: rdf.NewBlank("b-1"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/o")}},
}

func spo(o rdf.Term) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"), O: o}
}

// statementReaders read one statement (no final '.') in each syntax.
var statementReaders = map[string]func(stmt string) ([]rdf.Triple, error){
	"turtle": func(stmt string) ([]rdf.Triple, error) { return turtle.ParseString(stmt + " .") },
	"update": func(stmt string) ([]rdf.Triple, error) {
		ops, err := ParseUpdate("INSERT DATA { " + stmt + " }")
		if err != nil {
			return nil, err
		}
		return ops[0].Triples, nil
	},
	"query": func(stmt string) ([]rdf.Triple, error) {
		q, err := Parse("SELECT * WHERE { " + stmt + " }")
		if err != nil {
			return nil, err
		}
		return q.Patterns, nil
	},
	"ntriples": func(stmt string) ([]rdf.Triple, error) { return turtle.ParseNTriplesString(stmt + " .\n") },
}

// TestStatementsAgreeAcrossSyntaxes is the cross-syntax oracle: each of
// syntaxCases reads as the same triple, or is refused, in Turtle,
// N-Triples (for its forms), a SPARQL UPDATE DATA block and a SPARQL
// query's triple pattern. The printer is a column too: a triple that
// is read prints text every reader reads back (checkPrinted).
func TestStatementsAgreeAcrossSyntaxes(t *testing.T) {
	for _, tc := range syntaxCases {
		t.Run(tc.name, func(t *testing.T) {
			for name, read := range statementReaders {
				if name == "ntriples" && !tc.nt {
					continue
				}
				got, err := read(tc.stmt)
				switch {
				case tc.want.S.IsZero() && err == nil:
					t.Errorf("%s read %q as %v; want it refused", name, tc.stmt, got)
				case !tc.want.S.IsZero() && (err != nil || len(got) != 1 || got[0] != tc.want):
					t.Errorf("%s read %q as %v, %v; want %v", name, tc.stmt, got, err, tc.want)
				}
			}
			if !tc.want.S.IsZero() {
				checkPrinted(t, tc.want)
			}
		})
	}
}

// checkPrinted fails t unless the printed text of tr (rdf.Triple.String)
// reads back as tr in Turtle, UPDATE and a query, and its N-Triples
// form (rdf.WriteNTriples, every IRI in full) in N-Triples.
func checkPrinted(t *testing.T, tr rdf.Triple) {
	t.Helper()
	var sb strings.Builder
	if err := rdf.WriteNTriples(&sb, []rdf.Triple{tr}); err != nil {
		t.Fatal(err)
	}
	for name, read := range statementReaders {
		text := strings.TrimSuffix(tr.String(), " .")
		if name == "ntriples" {
			text = strings.TrimSuffix(sb.String(), " .\n")
		}
		if got, err := read(text); err != nil || len(got) != 1 || got[0] != tr {
			t.Errorf("%#v prints as %q, which %s reads as %v, %v", tr, text, name, got, err)
		}
	}
}

// TestNumbersReadBackByTheSameText: a number written through UPDATE is
// found by a query that names it with the same text, for every numeric
// form (1.5 used to find nothing, and -2 was a syntax error).
func TestNumbersReadBackByTheSameText(t *testing.T) {
	for _, num := range []string{"42", "-2", "+7", "1.5", ".5", "-0.25", "+4.5", "1.5e3", "1E-2", "1.e5"} {
		ops, err := ParseUpdate("INSERT DATA { <http://e/s> <http://e/p> " + num + " }")
		if err != nil {
			t.Errorf("%s: update: %v", num, err)
			continue
		}
		st := store.New()
		st.ApplyBatch(ops)
		res := exec(t, st, "SELECT ?s WHERE { ?s <http://e/p> "+num+" }")
		if len(res.Solutions()) != 1 {
			t.Errorf("%s: the query finds %d rows; want 1", num, len(res.Solutions()))
		}
	}
}

// TestSignedNumberInExpressions: a sign the lexer reads into a number
// makes a signed constant operand; after an operand, where SPARQL's
// grammar makes it an operator, it is refused.
func TestSignedNumberInExpressions(t *testing.T) {
	st := testGraph()
	for src, want := range map[string]int{
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h > -1) }`:   2,
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(-2 < ?h) }`:   2,
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h < +2) }`:   1, // 1.98
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h > +2.0) }`: 1, // 2.03
	} {
		if got := len(exec(t, st, src).Solutions()); got != want {
			t.Errorf("%s: %d rows, want %d", src, got, want)
		}
	}
	// "?h -1" is SPARQL's subtraction, which the subset refuses: the
	// signed number leaves the comparison without an operator.
	for _, src := range []string{
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h -1 > 1) }`,
		`SELECT ?p WHERE { ?p dbont:height ?h . FILTER(?h +1 < 3) }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s parsed; want an error", src)
		}
	}
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o } LIMIT -1`); err == nil {
		t.Error("LIMIT -1 parsed; want an error")
	}
}
