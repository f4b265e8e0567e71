// custom_kb shows the full pipeline over a user-supplied knowledge
// base: a small Russian-literature graph written in Turtle is loaded
// with kb.Load, the relational-pattern corpus is regenerated from its
// facts, and the same §2.1–§2.3 pipeline answers questions about it.
//
// Run with: go run ./examples/custom_kb
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/kb"
)

// The knowledge base: ontology declarations (classes and properties
// with labels, domains and ranges) plus the instance data. kb.Load
// reconstructs the ontology indexes from these declarations.
const turtleKB = `
@prefix dbo:  <http://dbpedia.org/ontology/> .
@prefix dbr:  <http://dbpedia.org/resource/> .
@prefix owl:  <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd:  <http://www.w3.org/2001/XMLSchema#> .

# --- ontology ---
dbo:Person a owl:Class ; rdfs:label "person"@en .
dbo:Writer a owl:Class ; rdfs:label "writer"@en ; rdfs:subClassOf dbo:Person .
dbo:Place  a owl:Class ; rdfs:label "place"@en .
dbo:Town   a owl:Class ; rdfs:label "town"@en ; rdfs:subClassOf dbo:Place .
dbo:Work   a owl:Class ; rdfs:label "work"@en .
dbo:Book   a owl:Class ; rdfs:label "book"@en ; rdfs:subClassOf dbo:Work .

dbo:author a owl:ObjectProperty ; rdfs:label "author"@en ;
    rdfs:domain dbo:Book ; rdfs:range dbo:Person .
dbo:birthPlace a owl:ObjectProperty ; rdfs:label "birth place"@en ;
    rdfs:domain dbo:Person ; rdfs:range dbo:Place .
dbo:deathPlace a owl:ObjectProperty ; rdfs:label "death place"@en ;
    rdfs:domain dbo:Person ; rdfs:range dbo:Place .
dbo:deathDate a owl:DatatypeProperty ; rdfs:label "death date"@en ;
    rdfs:domain dbo:Person ; rdfs:range xsd:date .

# --- instances ---
dbr:Leo_Tolstoy a dbo:Writer ; rdfs:label "Leo Tolstoy"@en ;
    dbo:birthPlace dbr:Yasnaya_Polyana ;
    dbo:deathPlace dbr:Astapovo ;
    dbo:deathDate "1910-11-20"^^xsd:date .
dbr:Yasnaya_Polyana a dbo:Town ; rdfs:label "Yasnaya Polyana"@en .
dbr:Astapovo a dbo:Town ; rdfs:label "Astapovo"@en .

dbr:War_and_Peace a dbo:Book ; rdfs:label "War and Peace"@en ;
    dbo:author dbr:Leo_Tolstoy .
dbr:Anna_Karenina a dbo:Book ; rdfs:label "Anna Karenina"@en ;
    dbo:author dbr:Leo_Tolstoy .

dbr:Fyodor_Dostoevsky a dbo:Writer ; rdfs:label "Fyodor Dostoevsky"@en ;
    dbo:birthPlace dbr:Moscow .
dbr:Moscow a dbo:Town ; rdfs:label "Moscow"@en .
dbr:Crime_and_Punishment a dbo:Book ; rdfs:label "Crime and Punishment"@en ;
    dbo:author dbr:Fyodor_Dostoevsky .
`

func main() {
	loaded, err := kb.Load(strings.NewReader(turtleKB), "russian-lit.ttl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d triples, %d classes, %d properties\n\n",
		loaded.Store.Snapshot().Len(), len(loaded.Classes),
		len(loaded.ObjectProperties)+len(loaded.DataProperties))

	cfg := core.DefaultConfig()
	cfg.KB = loaded
	sys := core.New(cfg) // mines patterns from the loaded KB's facts

	for _, q := range []string{
		"Which book is written by Leo Tolstoy?",
		"Who wrote Crime and Punishment?",
		"Where was Fyodor Dostoevsky born?",
		"Where did Leo Tolstoy die?",
		"When did Leo Tolstoy die?",
	} {
		res := sys.AnswerCtx(context.Background(), q)
		if res.Answered() {
			fmt.Printf("Q: %-42s A: %s\n", q, strings.Join(res.AnswerStrings(sys.KB), "; "))
		} else {
			fmt.Printf("Q: %-42s A: (unanswered: %s)\n", q, res.Status)
		}
	}
}
