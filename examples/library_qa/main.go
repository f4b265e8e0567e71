// library_qa exercises the paper's motivating scenario: asking a
// literature knowledge base about books, authors and their lives — the
// domain of the paper's Figure 1 example and most of its worked
// examples.
//
// Run with: go run ./examples/library_qa
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
		"Which book is written by Orhan Pamuk?",
		"Who wrote The Time Machine?",
		"Who wrote The War of the Worlds?",
		"Where was Michael Jackson born?",
		"Where did Abraham Lincoln die?",
		"When did Frank Herbert die?",
		"Who is married to Barack Obama?",
		// The paper's §5 failure case — answered honestly with a reason.
		"Is Frank Herbert still alive?",
	}

	for _, q := range questions {
		res := sys.AnswerCtx(context.Background(), q)
		if res.Answered() {
			fmt.Printf("Q: %-45s A: %s\n", q, strings.Join(res.AnswerStrings(sys.KB), "; "))
		} else {
			fmt.Printf("Q: %-45s A: (unanswered: %s)\n", q, res.Status)
		}
	}

	// Inspect why the winning query was chosen for the flagship example.
	res := sys.AnswerCtx(context.Background(), questions[0])
	fmt.Println("\nwinning SPARQL:", res.WinningSPARQL())
	fmt.Println("runner-up candidate queries:")
	for i, cq := range res.Answer.Candidates {
		if i == 0 || i > 3 {
			continue
		}
		fmt.Printf("  score %.1f  %s\n", cq.Score, cq.Query)
	}
}
