package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlagsDocumented: the flags main.go registers, the rows of the
// README's flag table and the flags of main.go's usage block are the
// same set, so a flag cannot be added, renamed or deleted without its
// documentation following.
func TestFlagsDocumented(t *testing.T) {
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
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		registered = append(registered, name)
		return true
	})

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)`").FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}

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

	if len(registered) == 0 || len(documented) == 0 || len(inUsage) == 0 {
		t.Fatalf("found %d registered, %d documented and %d usage flags", len(registered), len(documented), len(inUsage))
	}
	for _, doc := range []struct {
		where string
		names []string
	}{{"README.md's flag table", documented}, {"main.go's usage block", inUsage}} {
		for _, name := range registered {
			if !slices.Contains(doc.names, name) {
				t.Errorf("-%s is registered in main.go but missing from %s", name, doc.where)
			}
		}
		for _, name := range doc.names {
			if !slices.Contains(registered, name) {
				t.Errorf("-%s is in %s but main.go does not register it", name, doc.where)
			}
		}
	}
	t.Logf("%d flags", len(registered))
}

// TestValidateFlags: a negative count or duration, and -shards with
// -data-dir, are refused; zeros and qaserve's defaults pass.
func TestValidateFlags(t *testing.T) {
	defaults := flagValues{maxInflight: 64, cache: 1024,
		timeout: 5 * time.Second, drain: 15 * time.Second}
	for _, tc := range []struct {
		name string
		edit func(*flagValues)
		want string // "" = valid, else a substring of the error
	}{
		{"defaults", func(*flagValues) {}, ""},
		{"zeros", func(v *flagValues) { *v = flagValues{} }, ""},
		{"shards", func(v *flagValues) { v.shards = 4 }, ""},
		{"data-dir", func(v *flagValues) { v.dataDir = "d" }, ""},
		{"max-inflight -1", func(v *flagValues) { v.maxInflight = -1 }, "-max-inflight -1"},
		{"cache -1", func(v *flagValues) { v.cache = -1 }, "-cache -1"},
		{"shards -1", func(v *flagValues) { v.shards = -1 }, "-shards -1"},
		{"timeout -1s", func(v *flagValues) { v.timeout = -time.Second }, "-timeout -1s"},
		{"drain -1s", func(v *flagValues) { v.drain = -time.Second }, "-drain -1s"},
		{"shards with data-dir", func(v *flagValues) { v.shards, v.dataDir = 2, "d" }, "incompatible with -data-dir"},
	} {
		v := defaults
		tc.edit(&v)
		err := v.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want valid", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
