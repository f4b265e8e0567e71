package main

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestUsageDocumented: the flags main.go registers and the flags its
// package comment's usage block names are the same set, so a flag
// cannot be added, renamed or deleted without the usage following.
func TestUsageDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var registered []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			registered = append(registered, name)
		}
		return true
	})

	// The usage block is the indented text after "Usage:" in the
	// package comment, up to the next unindented paragraph.
	_, usage, _ := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if i := strings.Index(usage, "\n\n"); i >= 0 && !strings.HasPrefix(usage[i+2:], "\t") {
		usage = usage[:i]
	}
	var inUsage []string
	for _, m := range regexp.MustCompile(`[\s\[]-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(usage, -1) {
		if !slices.Contains(inUsage, m[1]) {
			inUsage = append(inUsage, m[1])
		}
	}

	if len(registered) == 0 || len(inUsage) == 0 {
		t.Fatalf("found %d registered and %d usage flags", len(registered), len(inUsage))
	}
	for _, name := range registered {
		if !slices.Contains(inUsage, name) {
			t.Errorf("-%s is registered in main.go but missing from its usage block", name)
		}
	}
	for _, name := range inUsage {
		if !slices.Contains(registered, name) {
			t.Errorf("-%s is in main.go's usage block but main.go does not register it", name)
		}
	}
}

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
