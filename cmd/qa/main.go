// Command qa answers natural language questions over the built-in
// DBpedia-like knowledge base, optionally printing the full pipeline
// trace (dependency graph, extracted triples, candidate properties and
// SPARQL queries) the paper walks through in §2.
//
// Usage:
//
//	qa [-explain] [-top N] [-kb file.nt] [-timeout 2s] [-cache N] "Which book is written by Orhan Pamuk?"
//	qa -i       # interactive: one question per line on stdin
//	qa -chaos stage.answer:error:0.5 -chaos-seed 7 ...   # seeded fault injection
//
// With no arguments it answers a demonstration set of questions.
//
// -cache keeps answers, not their derivations: a question served from
// the cache (a repeat, in -i or multi-question mode) prints its answer
// and stage timings under -explain, and says that the dependency graph,
// triples, property candidates and candidate queries were not kept.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kb"
)

// injector is the optional -chaos fault injector; nil keeps every
// fault point inert.
var injector *chaos.Injector

func main() {
	explain := flag.Bool("explain", false, "print the full pipeline trace")
	top := flag.Int("top", 5, "number of candidate queries to show with -explain")
	kbPath := flag.String("kb", "", "load the knowledge base from an .nt/.ttl file instead of the built-in one")
	interactive := flag.Bool("i", false, "interactive mode: read one question per line from stdin")
	timeout := flag.Duration("timeout", 0, "per-question deadline; the pipeline cancels at the next stage/join boundary (0 = none)")
	cacheSize := flag.Int("cache", 0, "answer cache entries, useful with -i (0 = disabled)")
	chaosSpec := flag.String("chaos", "", "arm fault injection at the pipeline stage boundaries: point:kind:prob[:latency[:limit]] rules, comma-separated (see internal/chaos)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos injector's random source")
	flag.Parse()

	if *chaosSpec != "" {
		rules, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qa:", err)
			os.Exit(1)
		}
		injector = chaos.New(*chaosSeed, rules...)
		fmt.Fprintf(os.Stderr, "qa: chaos armed (%d rules, seed %d)\n", len(rules), *chaosSeed)
	}

	var sys *core.System
	if *kbPath != "" || *cacheSize != 0 {
		cfg := core.DefaultConfig()
		cfg.CacheSize = *cacheSize
		if *kbPath != "" {
			loaded, err := kb.LoadFile(*kbPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qa:", err)
				os.Exit(1)
			}
			cfg.KB = loaded
		}
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
			answerOne(sys, q, *explain, *top, *timeout)
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
			answerOne(sys, q, *explain, *top, *timeout)
		}
		return
	}
	if len(flag.Args()) == 0 {
		for _, q := range questions {
			answerOne(sys, q, *explain, *top, *timeout)
		}
		return
	}
	answerOne(sys, question, *explain, *top, *timeout)
}

func answerOne(sys *core.System, q string, explain bool, top int, timeout time.Duration) {
	ctx := chaos.With(context.Background(), injector)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res := sys.AnswerCtx(ctx, q)
	fmt.Printf("Q: %s\n", q)
	if explain {
		if res.CacheHit {
			fmt.Println("-- served from the answer cache, which keeps the answer and not its derivation: no graph, triples, mapping or candidate queries to show --")
		}
		printTrace(sys, res, top)
		if res.Trace != nil {
			fmt.Println("-- stage timings --")
			for _, st := range res.Trace.Stages {
				extra := ""
				if st.Candidates > 0 {
					extra = fmt.Sprintf("  candidates=%d", st.Candidates)
				}
				if st.CacheHit {
					extra += "  cache=hit"
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

func printTrace(sys *core.System, res *core.Result, top int) {
	if res.Extraction != nil && res.Extraction.Graph != nil {
		fmt.Println("-- dependency graph (Figure 1 style) --")
		fmt.Print(res.Extraction.Graph.String())
		fmt.Println("-- dependency tree --")
		fmt.Print(res.Extraction.Graph.Tree())
		if len(res.Extraction.Triples) > 0 {
			fmt.Println("-- extracted triple patterns (§2.1) --")
			for _, t := range res.Extraction.Triples {
				fmt.Println("   " + t.String())
			}
			fmt.Printf("   expected answer type: %s\n", res.Extraction.Expected.Kind)
		}
	}
	if res.Mapping != nil {
		fmt.Println("-- entity & property mapping (§2.2) --")
		for _, mt := range res.Mapping.Triples {
			if !mt.Class.IsZero() {
				fmt.Printf("   class: %s\n", mt.Class)
				continue
			}
			if !mt.Subject.IsZero() {
				fmt.Printf("   subject entity: %s\n", mt.Subject)
			}
			if !mt.Object.IsZero() {
				fmt.Printf("   object entity: %s\n", mt.Object)
			}
			for i, c := range mt.Predicates {
				fmt.Printf("   P%d: %-28s sim=%.2f freq=%-4d source=%s\n",
					i+1, c.Property.Term.String(), c.Sim, c.Freq, c.Source)
			}
		}
	}
	if res.Answer != nil {
		fmt.Printf("-- candidate queries (§2.3), top %d of %d --\n", top, len(res.Answer.Candidates))
		for i, cq := range res.Answer.Candidates {
			if i >= top {
				break
			}
			fmt.Printf("   [score %8.1f] %s\n", cq.Score, cq.SPARQL)
		}
	}
	if w := res.WinningSPARQL(); w != "" { // kept by a cache entry, unlike the rest
		fmt.Printf("-- winning query --\n   %s\n", w)
	}
}
