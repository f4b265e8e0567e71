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

// TestFlagsDocumented: the flags main.go registers and the rows of the
// README's flag table are the same set, so a flag cannot be added,
// renamed or deleted without its documentation following.
func TestFlagsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
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

	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented flags", len(registered), len(documented))
	}
	for _, name := range registered {
		if !slices.Contains(documented, name) {
			t.Errorf("-%s is registered in main.go but has no row in README.md's flag table", name)
		}
	}
	for _, name := range documented {
		if !slices.Contains(registered, name) {
			t.Errorf("-%s has a row in README.md's flag table but main.go does not register it", name)
		}
	}
	t.Logf("%d flags", len(registered))
}

// TestValidateFlags: a negative count or duration, and -shards with
// -data-dir, are refused; zeros and qaserve's defaults pass.
func TestValidateFlags(t *testing.T) {
	defaults := flagValues{maxInflight: 64, cache: 1024,
		timeout: 5 * time.Second, updateTimeout: 10 * time.Second, drain: 15 * time.Second}
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
		{"update-timeout -1s", func(v *flagValues) { v.updateTimeout = -time.Second }, "-update-timeout -1s"},
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
