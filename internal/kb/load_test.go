package kb

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/turtle"
)

func TestFromTriplesReconstructsOntology(t *testing.T) {
	orig := Default()
	loaded, err := FromTriples(orig.Store.Snapshot().Triples())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Classes) != len(orig.Classes) {
		t.Errorf("classes = %d, want %d", len(loaded.Classes), len(orig.Classes))
	}
	if len(loaded.ObjectProperties) != len(orig.ObjectProperties) {
		t.Errorf("object properties = %d, want %d",
			len(loaded.ObjectProperties), len(orig.ObjectProperties))
	}
	if len(loaded.DataProperties) != len(orig.DataProperties) {
		t.Errorf("data properties = %d, want %d",
			len(loaded.DataProperties), len(orig.DataProperties))
	}
	// Property metadata survives.
	p, ok := loaded.PropertyByLocal("author")
	if !ok || !p.Object || p.Label != "author" {
		t.Errorf("author property = %+v, %v", p, ok)
	}
	h, ok := loaded.PropertyByLocal("height")
	if !ok || h.Object {
		t.Errorf("height property = %+v, %v", h, ok)
	}
	c, ok := loaded.ClassByLocal("Book")
	if !ok || c.Label != "book" {
		t.Errorf("Book class = %+v, %v", c, ok)
	}
	// Facts and labels survive.
	sn := loaded.Store.Snapshot()
	if len(withLabel(sn, "Orhan Pamuk")) != 1 {
		t.Error("labels lost in reconstruction")
	}
	if !isA(sn, rdf.Res("Orhan_Pamuk"), rdf.Ont("Person")) {
		t.Error("type closure lost in reconstruction")
	}
}

func TestFromTriplesRejectsBareData(t *testing.T) {
	bare := []rdf.Triple{
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")},
	}
	if _, err := FromTriples(bare); err == nil {
		t.Error("triples without ontology declarations should be rejected")
	}
}

func TestLoadNTriplesStream(t *testing.T) {
	orig := Default().Store.Snapshot()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, orig.Triples()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, "dump.nt")
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Store.Snapshot().Len(); got != orig.Len() {
		t.Errorf("triples = %d, want %d", got, orig.Len())
	}
}

func TestLoadTurtleStream(t *testing.T) {
	ttl := `
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbr: <http://dbpedia.org/resource/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

dbo:Book a owl:Class ; rdfs:label "book"@en .
dbo:author a owl:ObjectProperty ; rdfs:label "author"@en .
dbr:Snow a dbo:Book ; dbo:author dbr:Orhan_Pamuk ;
    rdfs:label "Snow"@en .
`
	loaded, err := Load(strings.NewReader(ttl), "mini.ttl")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.ClassByLocal("Book"); !ok {
		t.Error("Book class missing")
	}
	if _, ok := loaded.PropertyByLocal("author"); !ok {
		t.Error("author property missing")
	}
	if len(withLabel(loaded.Store.Snapshot(), "Snow")) != 1 {
		t.Error("Snow entity missing")
	}
}

func TestLoadBadStream(t *testing.T) {
	if _, err := Load(strings.NewReader("not valid at all"), "x.nt"); err == nil {
		t.Error("garbage N-Triples should fail")
	}
	if _, err := Load(strings.NewReader("@prefix broken"), "x.ttl"); err == nil {
		t.Error("garbage Turtle should fail")
	}
}

// TestLoadNTriplesRefusesTurtle: a .nt file is read in the strict
// N-Triples mode, so Turtle-only syntax fails there, on its line, while
// the same text loads as .ttl.
func TestLoadNTriplesRefusesTurtle(t *testing.T) {
	src := "<http://dbpedia.org/ontology/Book> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#Class> .\n" +
		"<http://dbpedia.org/resource/Snow> a <http://dbpedia.org/ontology/Book> .\n"
	_, err := Load(strings.NewReader(src), "mixed.nt")
	pe, ok := err.(*turtle.ParseError)
	if !ok || pe.Line != 2 {
		t.Fatalf("Load(.nt) = %v; want a turtle.ParseError on line 2", err)
	}
	if _, err := Load(strings.NewReader(src), "mixed.ttl"); err != nil {
		t.Fatalf("Load(.ttl) = %v", err)
	}
}
