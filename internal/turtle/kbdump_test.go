package turtle_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// kbDump is the built-in KB as N-Triples, as cmd/kbgen writes it.
func kbDump(t testing.TB) string {
	var sb strings.Builder
	if err := rdf.WriteNTriples(&sb, kb.Default().Store.Snapshot().Triples()); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestNTriplesMatchesReference: the built-in KB's dump reads as the same
// triples through the N-Triples mode, the retained N-Triples reader and
// the Turtle mode.
func TestNTriplesMatchesReference(t *testing.T) {
	dump := kbDump(t)
	got, err := turtle.ParseNTriplesString(dump)
	if err != nil {
		t.Fatal(err)
	}
	want, err := turtle.RefParseNTriples(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6499 || !reflect.DeepEqual(got, want) {
		t.Fatalf("N-Triples mode reads %d triples, the reference %d, and they differ", len(got), len(want))
	}
	asTurtle, err := turtle.ParseString(dump)
	if err != nil || !reflect.DeepEqual(asTurtle, want) {
		t.Fatalf("as Turtle: %d triples, %v; want the reference's %d", len(asTurtle), err, len(want))
	}
}

// BenchmarkLoadNTriples reads the built-in KB's dump (≈ 880 KB, 6499
// triples) in the N-Triples mode, the reader kb.Load uses for .nt files.
func BenchmarkLoadNTriples(b *testing.B) {
	dump := kbDump(b)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := turtle.ParseNTriplesString(dump); err != nil {
			b.Fatal(err)
		}
	}
}
