// Package lint is the project's static-analysis suite: a small
// go/ast+go/types driver (the stdlib fallback of an x/tools-style
// multichecker — the build has no external dependencies) with
// analyzers that machine-check the correctness invariants this
// codebase's PRs have so far enforced by review. The catalogue of
// enforced invariants, with the "why" for each, is INVARIANTS.md in
// this directory; cmd/qalint is the CLI and CI entry point.
//
// # Waivers
//
// A finding can be suppressed with a waiver comment on its line or the
// line directly above it:
//
//	//qalint:ignore <analyzer> <reason>
//
// The reason is mandatory: a reasonless waiver is itself reported, as
// is a waiver naming an analyzer that does not exist. A waiver
// suppresses only the named analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier (used in findings and waivers).
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// A whole-program analyzer's Run is called once, with Pass.Pkg nil.
	Run func(*Pass)
	// WholeProgram marks an analyzer that reads every loaded package
	// at once (Pass.Program) rather than one package at a time.
	WholeProgram bool
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	SnapshotPin,
	CtxFlow,
	WalFS,
	ClockInject,
	GuardedField,
	ShardDomain,
	UnusedExport,
}

// Pass carries one analyzer's view of one package, or of the whole
// program.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis; nil in a whole-program pass.
	Pkg *Package
	// Program is every loaded package, use-only ones included.
	Program []*Package

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Program[0].Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// waiverAnalyzer attributes findings about malformed waiver comments.
const waiverAnalyzer = "waiver"

// waiver is one parsed //qalint:ignore comment.
type waiver struct {
	analyzer string
	reason   string
	pos      token.Position
}

// parseWaiver decodes a //qalint:ignore comment; ok is false for any
// other comment.
func parseWaiver(c *ast.Comment) (analyzer, rest string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, "qalint:ignore") {
		return "", "", false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "qalint:ignore"))
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// collectWaivers gathers the waiver comments of a package, keyed by
// file:line, and reports malformed ones (no reason, unknown analyzer)
// as findings in their own right.
func collectWaivers(pkg *Package, known map[string]bool, report func(Diagnostic)) map[string][]waiver {
	byLine := map[string][]waiver{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseWaiver(c)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case name == "":
					report(Diagnostic{Analyzer: waiverAnalyzer, Pos: pos,
						Message: "qalint:ignore needs an analyzer name and a reason"})
					continue
				case !known[name]:
					report(Diagnostic{Analyzer: waiverAnalyzer, Pos: pos,
						Message: fmt.Sprintf("qalint:ignore names unknown analyzer %q", name)})
					continue
				case reason == "":
					report(Diagnostic{Analyzer: waiverAnalyzer, Pos: pos,
						Message: fmt.Sprintf("qalint:ignore %s needs a reason", name)})
					continue
				}
				key := lineKey(pos.Filename, pos.Line)
				byLine[key] = append(byLine[key], waiver{analyzer: name, reason: reason, pos: pos})
			}
		}
	}
	return byLine
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// Run applies the analyzers to every package that is not use-only,
// filters findings through the waiver comments, and returns the
// survivors sorted by position. The packages must come from one Load,
// which gives them one FileSet.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	report := func(d Diagnostic) { out = append(out, d) }
	waivers := map[string][]waiver{}
	for _, pkg := range pkgs {
		if pkg.UseOnly {
			continue
		}
		for key, ws := range collectWaivers(pkg, known, report) {
			waivers[key] = append(waivers[key], ws...)
		}
	}
	waived := func(d Diagnostic) bool {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, w := range waivers[lineKey(d.Pos.Filename, line)] {
				if w.analyzer == d.Analyzer {
					return true
				}
			}
		}
		return false
	}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Program: pkgs}
		pass.report = func(d Diagnostic) {
			if !waived(d) {
				report(d)
			}
		}
		if a.WholeProgram {
			a.Run(pass)
			continue
		}
		for _, pkg := range pkgs {
			if !pkg.UseOnly {
				pass.Pkg = pkg
				a.Run(pass)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- shared analyzer helpers ---

// pathMatches reports whether the package import path is, or ends
// with, one of the given path suffixes (compared on whole segments, so
// "internal/wal" does not match ".../internal/wal/faultfs").
func pathMatches(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// pathHasSegment reports whether seg appears as a whole segment of the
// import path (e.g. "cmd" in "repro/cmd/qaserve").
func pathHasSegment(pkgPath, seg string) bool {
	for _, s := range strings.Split(pkgPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// fileBase returns the base filename a node was parsed from.
func fileBase(pkg *Package, pos token.Pos) string {
	return filepath.Base(pkg.Fset.Position(pos).Filename)
}

// isTestFile reports whether the node comes from a _test.go file. The
// loader does not parse test files, but analyzers still gate on this
// so the exemption holds under any driver.
func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(fileBase(pkg, pos), "_test.go")
}
