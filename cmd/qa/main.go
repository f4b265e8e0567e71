// Command qa answers natural language questions over the built-in
// DBpedia-like knowledge base, optionally printing the full pipeline
// trace (dependency graph, extracted triples, candidate properties and
// SPARQL queries, each with its outcome: won, executed, skipped by
// §2.3.2's type filter or not reached) the paper walks through in §2.
//
// Usage:
//
//	qa [-explain] [-top N] [-kb file.nt] "Which book is written by Orhan Pamuk?"
//	qa -i       # interactive: one question per line on stdin
//
// With no arguments it answers a demonstration set of questions. Every
// question runs the paper's configuration to the end: no deadline and
// no answer cache, so -explain always has the whole derivation to show.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
)

func main() {
	explain := flag.Bool("explain", false, "print the full pipeline trace")
	top := flag.Int("top", 5, "number of candidate queries to show with -explain")
	kbPath := flag.String("kb", "", "load the knowledge base from an .nt/.ttl file instead of the built-in one")
	interactive := flag.Bool("i", false, "interactive mode: read one question per line from stdin")
	flag.Parse()

	var sys *core.System
	if *kbPath != "" {
		loaded, err := kb.LoadFile(*kbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qa:", err)
			os.Exit(1)
		}
		cfg := core.DefaultConfig()
		cfg.KB = loaded
		sys = core.New(cfg)
	} else {
		sys = core.Default()
	}

	if *interactive {
		sc := bufio.NewScanner(os.Stdin)
		fmt.Print("> ")
		for sc.Scan() {
			q := strings.TrimSpace(sc.Text())
			if q == "" || q == "exit" || q == "quit" {
				break
			}
			answerOne(sys, q, *explain, *top)
			fmt.Print("> ")
		}
		return
	}

	questions := flag.Args()
	if len(questions) == 0 {
		questions = []string{
			"Which book is written by Orhan Pamuk?",
			"How tall is Michael Jordan?",
			"Where did Abraham Lincoln die?",
			"Is Frank Herbert still alive?",
		}
	}
	question := strings.Join(questions, " ")
	if len(flag.Args()) > 1 && strings.Contains(flag.Args()[0], " ") {
		// Multiple quoted questions: answer each.
		for _, q := range flag.Args() {
			answerOne(sys, q, *explain, *top)
		}
		return
	}
	if len(flag.Args()) == 0 {
		for _, q := range questions {
			answerOne(sys, q, *explain, *top)
		}
		return
	}
	answerOne(sys, question, *explain, *top)
}

func answerOne(sys *core.System, q string, explain bool, top int) {
	res := sys.AnswerCtx(context.Background(), q)
	fmt.Printf("Q: %s\n", q)
	if explain {
		printTrace(os.Stdout, res, top)
		if res.Trace != nil {
			fmt.Println("-- stage timings --")
			for _, st := range res.Trace.Stages {
				extra := ""
				if st.Candidates > 0 {
					extra = fmt.Sprintf("  candidates=%d", st.Candidates)
				}
				fmt.Printf("   %-8s %10v%s\n", st.Stage, st.Duration.Round(time.Microsecond), extra)
			}
		}
	}
	if res.Answered() {
		fmt.Printf("A: %s\n\n", strings.Join(res.AnswerStrings(sys.KB), "; "))
		return
	}
	// Unanswered is a legitimate outcome, not an error: report it and
	// keep going (the demo set, multi-question and -i modes continue
	// with the next question).
	fmt.Printf("A: (no answer — %s", res.Status)
	if res.Err != nil {
		fmt.Printf(": %v", res.Err)
	}
	fmt.Print(")\n\n")
}

// printTrace writes the -explain trace of res to w: §2.1's graph and
// triples, §2.2's mapping, the top §2.3 candidates — each one's query
// text, whether or not it ran, under it how the ranking loop left it —
// and the winning query.
func printTrace(w io.Writer, res *core.Result, top int) {
	if res.Extraction != nil && res.Extraction.Graph != nil {
		fmt.Fprintln(w, "-- dependency graph (Figure 1 style) --")
		fmt.Fprint(w, res.Extraction.Graph.String())
		fmt.Fprintln(w, "-- dependency tree --")
		fmt.Fprint(w, res.Extraction.Graph.Tree())
		if len(res.Extraction.Triples) > 0 {
			fmt.Fprintln(w, "-- extracted triple patterns (§2.1) --")
			for _, t := range res.Extraction.Triples {
				fmt.Fprintln(w, "   "+t.String())
			}
			fmt.Fprintf(w, "   expected answer type: %s\n", res.Extraction.Expected.Kind)
		}
	}
	if res.Mapping != nil {
		fmt.Fprintln(w, "-- entity & property mapping (§2.2) --")
		for _, mt := range res.Mapping.Triples {
			if !mt.Class.IsZero() {
				fmt.Fprintf(w, "   class: %s\n", mt.Class)
				continue
			}
			if !mt.Subject.IsZero() {
				fmt.Fprintf(w, "   subject entity: %s\n", mt.Subject)
			}
			if !mt.Object.IsZero() {
				fmt.Fprintf(w, "   object entity: %s\n", mt.Object)
			}
			for i, c := range mt.Predicates {
				fmt.Fprintf(w, "   P%d: %-28s sim=%.2f freq=%-4d source=%s\n",
					i+1, c.Property.Term.String(), c.Sim, c.Freq, c.Source)
			}
		}
	}
	if res.Answer != nil {
		n := min(top, len(res.Answer.Candidates))
		fmt.Fprintf(w, "-- candidate queries (§2.3), top %d of %d --\n", n, len(res.Answer.Candidates))
		for i, cq := range res.Answer.Candidates[:n] {
			fmt.Fprintf(w, "   [score %8.1f] %s\n                    %s\n", cq.Score, cq.Query, res.Answer.Outcome(i))
		}
	}
	if win := res.WinningSPARQL(); win != "" {
		fmt.Fprintf(w, "-- winning query --\n   %s\n", win)
	}
}
