// Command qald-eval reproduces the paper's evaluation (§3): it runs the
// full pipeline over the 55-question QALD-2-style test set and prints
// Table 2 (precision, recall, F1) with the per-question outcomes, plus
// Table 1 (expected answer types) and the ablation variants on request.
//
// Usage:
//
//	qald-eval                  # Table 2 + per-question report
//	qald-eval -table1          # print Table 1
//	qald-eval -ablations       # run the ablation configurations
//	qald-eval -by-category     # per-category breakdown
//	qald-eval -timeout 30s     # deadline for the whole evaluation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/qald"
)

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 (expected answer types)")
	ablations := flag.Bool("ablations", false, "evaluate the ablation configurations")
	byCategory := flag.Bool("by-category", false, "print the per-category breakdown")
	perQuestion := flag.Bool("per-question", true, "print the per-question report")
	xmlOut := flag.String("xml", "", "write the run in QALD challenge XML format to this file")
	extensions := flag.Bool("extensions", false, "enable the future-work boolean/aggregation extensions")
	timeout := flag.Duration("timeout", 0, "deadline for the whole evaluation; cancellation reaches every stage boundary (0 = none)")
	flag.Parse()

	if *table1 {
		printTable1()
		return
	}

	cfg := core.DefaultConfig()
	if *extensions {
		cfg.EnableBoolean = true
		cfg.EnableAggregation = true
		cfg.EnableSuperlatives = true
	}
	sys := core.New(cfg)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := qald.EvaluateCtx(ctx, sys, qald.Questions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qald-eval:", err)
		os.Exit(1)
	}
	fmt.Println(rep.Table2())
	fmt.Println(rep.Summary(sys.KB))
	if *xmlOut != "" {
		f, err := os.Create(*xmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qald-eval:", err)
			os.Exit(1)
		}
		if err := rep.WriteXML(f, "qald-2-repro"); err != nil {
			fmt.Fprintln(os.Stderr, "qald-eval:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *xmlOut)
	}
	if *byCategory {
		fmt.Println("Per-category (total/answered/correct):")
		for _, cat := range []qald.Category{
			qald.CatFactoid, qald.CatSuperlative, qald.CatComparative,
			qald.CatImperative, qald.CatAggregation, qald.CatBoolean,
			qald.CatComplex, qald.CatOutOfScope,
		} {
			v := rep.ByCategory()[cat]
			fmt.Printf("  %-12s %2d / %2d / %2d\n", cat, v[0], v[1], v[2])
		}
		fmt.Println()
	}
	if *perQuestion {
		fmt.Println(rep.PerQuestionTable(sys.KB))
	}

	if *ablations {
		runAblations(ctx)
	}
}

func printTable1() {
	fmt.Println("Table 1: Expected answer types for questions")
	fmt.Println("Question Type   Expected answer type")
	fmt.Println("Who             Person, Organization, Company")
	fmt.Println("Where           Place")
	fmt.Println("When            Date")
	fmt.Println("How many        Numeric")
	fmt.Println()
	fmt.Println("'Which' questions are typed by their determining noun (§2.3.2).")
}

func runAblations(ctx context.Context) {
	fmt.Println("Ablations (paper configuration minus one component):")
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"full system", core.DefaultConfig()},
		{"no relational patterns", core.Config{DisablePatterns: true}},
		{"no WordNet synonyms", core.Config{DisableWordNetSynonyms: true}},
		{"no type checking", core.Config{DisableTypeCheck: true}},
		{"no NED centrality", core.Config{DisableCentrality: true}},
	}
	for _, c := range configs {
		sys := core.New(c.cfg)
		rep, err := qald.EvaluateCtx(ctx, sys, qald.Questions())
		if err != nil {
			fmt.Fprintln(os.Stderr, "qald-eval:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-24s P=%3.0f%%  R=%3.0f%%  F1=%3.0f%%  (%d/%d correct, %d answered)\n",
			c.name, rep.Precision*100, rep.Recall*100, rep.F1*100,
			rep.Correct, rep.Answered, rep.Answered)
	}
}
