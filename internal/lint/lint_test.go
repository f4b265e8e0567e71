package lint

import (
	"go/ast"
	"regexp"
	"strings"
	"testing"
)

// The testdata harness: each directory under testdata/src is a nested
// module (module repro, invisible to the repo's own ./... patterns)
// whose sources carry expectation comments:
//
//	// want `regex`           — a diagnostic on this line must match
//	// want:below `regex`     — a diagnostic on the NEXT line must match
//
// The :below form exists for findings that land on a line already
// occupied by another magic comment (a //qalint:ignore waiver can host
// no second comment). Every diagnostic must be matched by exactly one
// expectation and vice versa. Every per-package analyzer runs on every
// module, so the testdata also pins that analyzers do not fire outside
// their scope. The whole-program unusedexport runs on its own module
// only: the others are fragments of a program, whose exports nothing in
// them needs to call.

// wantPatRe extracts quoted expectation patterns: "..." (with escapes)
// or `...`.
var wantPatRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	re  *regexp.Regexp
	met bool
}

// collectWants scans the loaded packages for want comments, keyed by
// file:line.
func collectWants(t *testing.T, pkgs []*Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					var offset int
					switch fields[0] {
					case "want":
						offset = 0
					case "want:below":
						offset = 1
					default:
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(text, fields[0])
					ms := wantPatRe.FindAllStringSubmatch(rest, -1)
					if len(ms) == 0 {
						t.Errorf("%s: want comment with no quoted pattern", pos)
						continue
					}
					key := lineKey(pos.Filename, pos.Line+offset)
					for _, m := range ms {
						pat := m[1]
						if m[2] != "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
							continue
						}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}
	return wants
}

// runTestdata loads one testdata module (with its use-only roots),
// runs the analyzers, and checks the diagnostics against the want
// comments.
func runTestdata(t *testing.T, name string, analyzers []*Analyzer, useRoots ...string) {
	t.Helper()
	pkgs, err := Load("testdata/src/"+name, useRoots, "./...")
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("testdata/%s: no packages loaded", name)
	}
	wants := collectWants(t, pkgs)
	for _, d := range Run(pkgs, analyzers) {
		key := lineKey(d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.met && w.re.MatchString(d.Message) {
				w.met, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.met {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

// perPackage is the suite without its whole-program analyzers.
func perPackage() []*Analyzer {
	var out []*Analyzer
	for _, a := range Analyzers {
		if !a.WholeProgram {
			out = append(out, a)
		}
	}
	return out
}

func TestSnapshotPin(t *testing.T)  { runTestdata(t, "snapshotpin", perPackage()) }
func TestCtxFlow(t *testing.T)      { runTestdata(t, "ctxflow", perPackage()) }
func TestWalFS(t *testing.T)        { runTestdata(t, "walfs", perPackage()) }
func TestClockInject(t *testing.T)  { runTestdata(t, "clockinject", perPackage()) }
func TestGuardedField(t *testing.T) { runTestdata(t, "guardedfield", perPackage()) }
func TestShardDomain(t *testing.T)  { runTestdata(t, "sharddomain", perPackage()) }

// TestUnusedExport runs the full suite over a small program with a
// use-only second root (loader/, a module of its own): each kind of
// unused export is a finding, and each exemption — a use from another
// package, from a generic instantiation or from the second root, an
// interface-satisfying method, a main package, a use-only package, the
// test-support packages, a reasoned waiver — holds, or the fixture
// reports it.
func TestUnusedExport(t *testing.T) { runTestdata(t, "unusedexport", Analyzers, "loader") }

// TestWaivers proves the waiver engine end to end: a reasoned waiver
// suppresses exactly the named analyzer on its own line or the next,
// a waiver naming the wrong (or an unknown) analyzer suppresses
// nothing, and malformed waivers are findings in their own right.
func TestWaivers(t *testing.T) { runTestdata(t, "waiver", perPackage()) }

// TestRepoClean runs the full suite over the repository itself, with
// cmd/qaload loaded as the use-only second root: the tree must stay
// free of findings (waivers included — a reasonless waiver is a
// finding). This is the same gate CI runs via cmd/qalint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is not short")
	}
	pkgs, err := Load("../..", []string{"cmd/qaload"}, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags := Run(pkgs, Analyzers)
	for _, d := range diags {
		t.Errorf("repo finding:\n  %s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or waive with //qalint:ignore <analyzer> <reason>", len(diags))
	}
}

func TestParseWaiver(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string
		reason   string
		ok       bool
	}{
		{"//qalint:ignore clockinject injected clock bootstraps here.", "clockinject", "injected clock bootstraps here.", true},
		{"//qalint:ignore clockinject", "clockinject", "", true},
		{"//qalint:ignore", "", "", true},
		{"// plain comment", "", "", false},
		{"// qalint:ignore ctxflow leading space form still parses.", "ctxflow", "leading space form still parses.", true},
	}
	for _, c := range cases {
		name, reason, ok := parseWaiver(&ast.Comment{Text: c.text})
		if ok != c.ok || name != c.analyzer || reason != c.reason {
			t.Errorf("parseWaiver(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, name, reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}
