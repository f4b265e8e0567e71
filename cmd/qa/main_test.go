package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPrintTraceListsEveryCandidate: -explain lists the top candidates
// of §2.3 each with its query text and, under it, its outcome — for a
// candidate that won, ran, was skipped or was never reached alike, so
// a candidate that did not run still shows its text — and none past
// the top.
func TestPrintTraceListsEveryCandidate(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	cases := []struct {
		question string
		top      int
	}{
		{"When was Synth Person 0123 born?", 8},          // skipped above the winner
		{"Which book is written by Orhan Pamuk?", 8},     // not reached below it
		{"Which book is written by Orhan Pamuk?", 2},     // cut by -top
		{"What is the most populous city in Europe?", 3}, // executed, no winner
		{"Where did Abraham Lincoln die?", 5},            // -top's default
	}
	outcomes := map[string]int{}
	for _, c := range cases {
		res := sys.AnswerCtx(context.Background(), c.question)
		if res.Answer == nil {
			t.Fatalf("%q: no §2.3 result (%v)", c.question, res.Status)
		}
		var b strings.Builder
		printTrace(&b, res, c.top)
		out := b.String()
		cands := res.Answer.Candidates
		n := min(c.top, len(cands))
		if head := fmt.Sprintf("top %d of %d --\n", n, len(cands)); !strings.Contains(out, head) {
			t.Errorf("%q: no %q in\n%s", c.question, head, out)
		}
		for i := range cands {
			text, outcome := cands[i].Query.String(), res.Answer.Outcome(i)
			listed := strings.Contains(out, fmt.Sprintf("] %s\n                    %s\n", text, outcome))
			if listed != (i < n) {
				t.Errorf("%q: candidate %d (%s, %s) listed=%v with -top %d:\n%s", c.question, i, text, outcome, listed, c.top, out)
			}
			if listed {
				kind, _, _ := strings.Cut(outcome, ":")
				outcomes[kind]++
			}
		}
	}
	for _, kind := range []string{"won", "executed", "skipped", "not reached"} {
		if outcomes[kind] == 0 {
			t.Errorf("no listed candidate %s: outcomes %v", kind, outcomes)
		}
	}
}
