// Command kbgen builds the synthetic DBpedia-like knowledge base and
// dumps it as N-Triples (the format of the DBpedia dumps the paper's
// system loads).
//
// Usage:
//
//	kbgen [-o kb.nt] [-seed 42] [-persons 250] [-cities 60] [-books 150]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kb"
	"repro/internal/rdf"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	seed := flag.Int64("seed", 42, "synthetic generation seed")
	persons := flag.Int("persons", 250, "synthetic persons")
	cities := flag.Int("cities", 60, "synthetic cities")
	books := flag.Int("books", 150, "synthetic books")
	flag.Parse()

	k := kb.Build(kb.Config{
		Seed:             *seed,
		SyntheticPersons: *persons,
		SyntheticCities:  *cities,
		SyntheticBooks:   *books,
	})

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kbgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	sn := k.Store.Snapshot()
	if err := rdf.WriteNTriples(w, sn.Triples()); err != nil {
		fmt.Fprintln(os.Stderr, "kbgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kbgen: wrote %d triples (%d terms)\n", sn.Len(), sn.TermCount())
}
