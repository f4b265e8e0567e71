package sparql

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseQuery holds the query parser and the printer to three
// properties on any input (seeds: testdata/fuzz/FuzzParseQuery): Parse
// does not panic, it refuses with a *SyntaxError, and a query it
// accepts prints (Query.String) text that parses back as the same query
// — its PREFIX declarations aside, which the text does not carry: every
// IRI prints in full or under a standard prefix. The seed that mixes
// the removed forms (UNION, OPTIONAL, BOUND, REGEX, &&, ||, !,
// arithmetic) is refused; its text is a row of
// TestUnsupportedSPARQLRejected.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("query %q: error %T %v, want a *SyntaxError", src, err, err)
			}
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("query %q prints as %q, which does not parse: %v", src, text, err)
		}
		q.Prefixes, back.Prefixes = nil, nil
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("query %q prints as %q, which parses as %+v; want %+v", src, text, back, q)
		}
	})
}
