package sparql

import (
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// FuzzParseUpdate holds ParseUpdate to four properties on any input:
// it does not panic, every triple it returns is ground, applying its
// operations to an empty store agrees with a naive triple set on what
// was added and removed and on the final size, and where the retained
// brace-scanning parser (update_reference_test.go) accepts the request
// too, both return the same operations.
func FuzzParseUpdate(f *testing.F) {
	for _, seed := range []string{
		// A '#' inside an IRI starts no comment.
		`INSERT DATA { <http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> . }`,
		`INSERT DATA { <http://x/a> <http://x/p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . }`,
		// Long strings.
		`INSERT DATA { <http://x/a> <http://x/p> """x""" . }`,
		"INSERT DATA { <http://x/a> <http://x/p> '''a\n\"b\" ''c''\n''' }",
		// The scan's delimiters inside literals and IRIs.
		`PREFIX ex: <http://x/>
INSERT DATA { ex:a ex:p "; { } < \" # '" , '; { } < " # \'' , """; { } < "" # """ ;
  ex:q <http://x/;{}#"> , <http://x/<> } ;
DELETE DATA { ex:a ex:p "; { } < \" # '" }`,
		// Deletes whose objects differ only by datatype or language tag.
		`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
INSERT DATA { <http://x/a> <http://x/p> "1"^^xsd:integer , "1"^^xsd:decimal , "1" , "1"@en , "1"@de } ;
DELETE DATA { <http://x/a> <http://x/p> "1"^^xsd:decimal , "1"@de , "1"@fr , "1"^^xsd:string } ;
INSERT DATA { <http://x/a> <http://x/p> "1"@de }`,
		// Insert, delete and re-insert across operations.
		`INSERT DATA { <http://x/a> <http://x/p> <http://x/o> } ; DELETE DATA { <http://x/a> <http://x/p> <http://x/o> } ; INSERT DATA { <http://x/a> <http://x/p> <http://x/o> , <http://x/o> }`,
		`INSERT DATA { _:b <http://x/p> 1.5e3 , true , -7 }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ops, err := ParseUpdate(src)
		if err != nil {
			return
		}
		if ref, err := refParseUpdate(src); err == nil && !reflect.DeepEqual(ops, ref) {
			t.Fatalf("ParseUpdate(%q) = %v; the reference parser reads %v", src, ops, ref)
		}
		model := map[rdf.Triple]bool{}
		wantAdded, wantRemoved := 0, 0
		for _, op := range ops {
			for _, tr := range op.Triples {
				for _, term := range [3]rdf.Term{tr.S, tr.P, tr.O} {
					if term.IsZero() || term.IsVar() {
						t.Fatalf("ParseUpdate(%q) returned %v, which is not ground", src, tr)
					}
				}
				switch {
				case op.Delete && model[tr]:
					delete(model, tr)
					wantRemoved++
				case !op.Delete && !model[tr]:
					model[tr] = true
					wantAdded++
				}
			}
		}
		st := store.New()
		added, removed := st.ApplyBatch(ops)
		if added != wantAdded || removed != wantRemoved {
			t.Fatalf("ApplyBatch(ParseUpdate(%q)) added %d and removed %d, want %d and %d", src, added, removed, wantAdded, wantRemoved)
		}
		if n := st.Snapshot().Len(); n != len(model) {
			t.Fatalf("after ParseUpdate(%q) the store holds %d triples, want %d", src, n, len(model))
		}
	})
}
