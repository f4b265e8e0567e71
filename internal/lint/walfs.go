package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WalFS keeps the durability layer's fault coverage total and its
// commit protocol honest:
//
//  1. inside internal/wal, raw os file operations are forbidden
//     outside fs.go — everything must route through the wal.FS
//     abstraction, or the faultfs fault-injection tests silently stop
//     covering the bypassing call (os.O_* flags and os.Err* sentinels
//     are values, not operations, and stay allowed);
//  2. a function documented as the commit point (its doc comment
//     contains "commit point") must call Sync before any success
//     return — an acknowledgment that did not reach stable storage is
//     the exact durability hole the PR 6 fault tests exist to rule
//     out;
//  3. inside a commit-point function, chaos fault points
//     (chaos.HitCtx) must come lexically before the first Sync — a
//     fault injected after the commit fsync would fail a commit that
//     already reached stable storage, making the soak tests' "every
//     acked commit is durable" and its contrapositive ("every errored
//     commit left no partial state") both unfalsifiable.
var WalFS = &Analyzer{
	Name: "walfs",
	Doc:  "internal/wal: no raw os file ops outside fs.go; the commit point must Sync before acknowledging, with chaos fault points before the Sync",
	Run:  runWalFS,
}

func runWalFS(p *Pass) {
	if !pathMatches(p.Pkg.Path, "internal/wal") {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) {
			continue
		}
		allowOS := fileBase(p.Pkg, f.Pos()) == "fs.go"
		if !allowOS {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Pkg.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
					return true
				}
				switch obj.(type) {
				case *types.Const, *types.Var:
					return true // O_* flags, Err* sentinels: values, not operations
				}
				p.Reportf(sel.Sel.Pos(),
					"raw os.%s outside fs.go: route file operations through wal.FS so faultfs fault coverage stays total",
					obj.Name())
				return true
			})
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "commit point") {
				checkSyncBeforeAck(p, fd)
			}
		}
	}
}

// checkSyncBeforeAck verifies, lexically, that every success return of
// the commit-point function is preceded by a Sync call, and that every
// chaos fault point fires before the first Sync. Source order is a
// conservative approximation of domination here: the commit functions
// are straight-line append/ack sequences, and a false positive is
// waivable with a reason.
func checkSyncBeforeAck(p *Pass, fd *ast.FuncDecl) {
	var syncs []token.Pos
	var hits []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Sync":
				syncs = append(syncs, call.Pos())
			case "HitCtx":
				if isChaosFunc(p, sel) {
					hits = append(hits, call.Pos())
				}
			}
		}
		return true
	})
	if len(syncs) == 0 {
		p.Reportf(fd.Name.Pos(),
			"%s is documented as the commit point but never calls Sync: an acknowledged commit must be on stable storage",
			funcDisplayName(fd))
		return
	}
	for _, h := range hits {
		if h > syncs[0] {
			p.Reportf(h,
				"chaos fault point after the first Sync in commit point %s: a fault injected past the commit fsync fails a commit that is already durable",
				funcDisplayName(fd))
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || !isSuccessReturn(ret) {
			return true
		}
		for _, s := range syncs {
			if s < ret.Pos() {
				return true
			}
		}
		p.Reportf(ret.Pos(),
			"success return in commit point %s before any Sync call: the acknowledgment is not durable",
			funcDisplayName(fd))
		return true
	})
}

// isChaosFunc reports whether the selector resolves to a function (or
// method) of the internal/chaos package — a fault point.
func isChaosFunc(p *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && pathMatches(fn.Pkg().Path(), "internal/chaos")
}

// isSuccessReturn reports whether the return acknowledges success: its
// last result (the error position) is the literal nil.
func isSuccessReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true // naked return in an ack path: treat as success
	}
	last := ret.Results[len(ret.Results)-1]
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "nil"
}
