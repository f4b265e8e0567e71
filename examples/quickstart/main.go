// Quickstart: build the system, ask a question, inspect the trace.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

func main() {
	// core.Default() builds the full pipeline over the bundled
	// DBpedia-like knowledge base: NLP stack, mined relational patterns,
	// entity linker and SPARQL engine. Construction is cached process-
	// wide; the first call mines the pattern corpus (~1s).
	sys := core.Default()

	// The paper's running example (§2.1–§2.3).
	res := sys.AnswerCtx(context.Background(), "Which book is written by Orhan Pamuk?")

	fmt.Println("question:", res.Question)
	fmt.Println("status:  ", res.Status)
	fmt.Println("answers: ", strings.Join(res.AnswerStrings(sys.KB), "; "))
	fmt.Println("query:   ", res.WinningSPARQL())

	// The trace carries each pipeline stage.
	fmt.Println("\nextracted triple patterns (§2.1):")
	for _, t := range res.Extraction.Triples {
		fmt.Println("  ", t)
	}
	fmt.Println("\ncandidate properties of the main triple (§2.2):")
	for _, c := range res.Mapping.Triples[1].Predicates {
		fmt.Printf("   %-24s sim=%.2f freq=%d (%s)\n",
			c.Property.Term, c.Sim, c.Freq, c.Source)
	}
	fmt.Printf("\ncandidate queries (§2.3): %d\n", len(res.Answer.Candidates))
}
