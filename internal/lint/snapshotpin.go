package lint

import (
	"go/ast"
	"go/types"
)

// SnapshotPin forbids direct store.Store reads (and writes) inside the
// query-execution packages. Every read there must go through a pinned
// store.Snapshot (or the sparql.Session wrapping one): two Store-level
// reads in one query can land on different generations and produce a
// torn result — exactly the qacache-stamp/executed-snapshot divergence
// PR 5 closed by pinning the snapshot at request entry. The only Store
// method those packages may call is Snapshot itself, the pin. The §2.2
// mapping packages are in scope too: their indexes are built from one
// snapshot at boot, and a per-request read of the live store beside
// them would mix that generation with a later one.
var SnapshotPin = &Analyzer{
	Name: "snapshotpin",
	Doc:  "reads in internal/sparql, internal/answer, internal/ner and internal/propmap must go through a pinned store.Snapshot, never store.Store",
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
