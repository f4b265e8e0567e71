package lint

import (
	"go/ast"
	"go/types"
)

// SnapshotPin forbids calling any store.Store method but Snapshot, the
// pin, inside the query-execution and §2.2 mapping packages. A Store is
// a writer: every read lives on *store.Snapshot, so a torn read — two
// reads of one question landing on different generations — is mostly a
// type error already. What keeps this analyzer is the four read
// delegates the Store still carries (Len, TermCount, Triples, Subjects)
// for cmd/qaload, a separate module compiled against them; a call to
// one of them here, or to a writer, is what it reports. It goes with
// those delegates once cmd/qaload reads through a Snapshot.
var SnapshotPin = &Analyzer{
	Name: "snapshotpin",
	Doc:  "internal/sparql, internal/answer, internal/ner and internal/propmap call no store.Store method but Snapshot: the Store's four read delegates and its writers stay out of the execution packages",
	Run:  runSnapshotPin,
}

// snapshotPinScope is where the invariant applies.
var snapshotPinScope = []string{"internal/sparql", "internal/answer", "internal/ner", "internal/propmap"}

func runSnapshotPin(p *Pass) {
	if !pathMatches(p.Pkg.Path, snapshotPinScope...) {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := p.Pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			recv := s.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Name() != "Store" || obj.Pkg() == nil || !pathMatches(obj.Pkg().Path(), "internal/store") {
				return true
			}
			if sel.Sel.Name == "Snapshot" {
				return true // the pin itself
			}
			p.Reportf(sel.Sel.Pos(),
				"direct store.Store.%s call: pin one Snapshot (Store.Snapshot) per question and read through it, or this read can see a different generation than its siblings",
				sel.Sel.Name)
			return true
		})
	}
}
