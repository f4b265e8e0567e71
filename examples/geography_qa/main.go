// geography_qa exercises the geographic slice of the knowledge base:
// capitals, populations, languages, elevations — the "population of
// Italy" style questions of the paper's introduction.
//
// Run with: go run ./examples/geography_qa
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
)

func main() {
	sys := core.Default()

	questions := []string{
		"What is the capital of Turkey?",
		"What is the population of Italy?",
		"What is the official language of Turkey?",
		"How high is Mount Everest?",
		"How many people live in Istanbul?",
		"Who is the mayor of Berlin?",
		"What is the largest city of Germany?",
		// Unsupported constructions fail explicitly, not silently.
		"Which mountains are higher than 8000 meters?",
		"What is the highest mountain?",
	}

	for _, q := range questions {
		res := sys.AnswerCtx(context.Background(), q)
		if res.Answered() {
			fmt.Printf("Q: %-48s A: %s\n", q, strings.Join(res.AnswerStrings(sys.KB), "; "))
		} else {
			fmt.Printf("Q: %-48s A: (unanswered: %s)\n", q, res.Status)
		}
	}
}
