// Command qalint runs the project's static-analysis suite
// (internal/lint) over the given package patterns and exits non-zero
// on any finding. It is a blocking CI step; run it locally with
// scripts/lint.sh or:
//
//	go run ./cmd/qalint ./...
//
// The enforced invariants are catalogued in internal/lint/INVARIANTS.md.
// Findings are suppressed per line with a reasoned waiver comment:
//
//	//qalint:ignore <analyzer> <reason>
//
// Run it from the repository root. Besides the packages named, it loads
// the rest of the module and cmd/qaload — the load generator, a module
// of its own that compiles against the internal packages — as use-only
// roots: unusedexport counts their uses, and nothing in them is
// reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// useRoots are loaded for their uses only: the whole module, so that a
// subset of patterns sees every caller, and cmd/qaload.
var useRoots = []string{".", "cmd/qaload"}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qalint [-list] [packages]\n\nUse-only roots: %s\n\nAnalyzers:\n", strings.Join(useRoots, " "))
		for _, a := range lint.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", useRoots, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.Analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qalint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
