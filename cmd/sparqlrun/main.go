// Command sparqlrun executes a SPARQL query against the built-in
// knowledge base — the endpoint-style access path the paper's examples
// use (Query1/Query2 of §2.3 can be pasted directly).
//
// Usage:
//
//	sparqlrun 'SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk }'
//	echo 'ASK { res:Snow_\(novel\) dbont:author res:Orhan_Pamuk }' | sparqlrun
//
// It accepts the subset the question answering system emits (see
// package internal/sparql): SELECT [DISTINCT] or ASK over one basic
// graph pattern, FILTER(operand relop operand) with a variable or
// constant on each side and relop one of = != < > <= >=, COUNT, ORDER
// BY ?v / ASC(…) / DESC(…), LIMIT and OFFSET. A SELECT prints a header
// of the projected variables and one tab-separated row per solution,
// an ASK prints true or false. A query outside the subset — OPTIONAL,
// UNION, a builtin such as REGEX, &&, || or arithmetic — exits 1 with
// an error naming the construct as unsupported.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/kb"
	"repro/internal/sparql"
)

func main() {
	flag.Parse()
	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparqlrun:", err)
			os.Exit(1)
		}
		query = string(data)
	}
	k := kb.Default()
	res, err := sparql.ExecuteStringCtx(context.Background(), k.Store.Snapshot(), query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparqlrun:", err)
		os.Exit(1)
	}
	if res.Form == sparql.FormAsk {
		fmt.Println(res.Boolean)
		return
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	row := make([]string, len(res.Vars))
	for i, n := 0, res.Len(); i < n; i++ {
		for c := range res.Vars {
			row[c] = ""
			if t, ok := res.TermAt(i, c); ok {
				row[c] = t.String()
			}
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d solution(s)\n", res.Len())
}
