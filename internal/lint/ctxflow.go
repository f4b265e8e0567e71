package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the context discipline the pipeline's stage loop
// and §2.3's cancellable candidate execution depend on:
//
//  1. context.Background()/context.TODO() are forbidden outside cmd/,
//     package main and _test.go files — library code must thread the
//     request context it was given, or cancellation silently stops
//     propagating mid-pipeline;
//  2. in the execution packages (core, answer, sparql, qaserve) a
//     context.Context parameter must come first, matching every
//     existing Ctx entry point;
//  3. exported functions in those packages that directly perform
//     store scans must accept a context — a scan without one cannot be
//     abandoned when the request's deadline passes mid-candidate.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background/TODO outside cmd//main/tests; ctx first and required on store-reaching exports in the execution packages",
	Run:  runCtxFlow,
}

// ctxFlowScope is where rules 2 and 3 apply (rule 1 applies to every
// non-main library package).
var ctxFlowScope = []string{"internal/core", "internal/answer", "internal/sparql", "internal/qaserve"}

// storeScanMethods are the store.Store/store.Snapshot methods whose
// cost scales with the data (rule 3); point lookups (Has, Lookup,
// Term, Len, Gen, ...) are exempt.
var storeScanMethods = map[string]bool{
	"Match": true, "ForEachMatch": true, "ForEachMatchIDs": true, "Count": true,
	"Triples": true, "Subjects": true, "Objects": true,
	"PostingList": true,
}

func runCtxFlow(p *Pass) {
	banBackground := p.Pkg.Name != "main" && !pathHasSegment(p.Pkg.Path, "cmd")
	inScope := pathMatches(p.Pkg.Path, ctxFlowScope...)
	if !banBackground && !inScope {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) {
			continue
		}
		if banBackground {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if fn.Name() != "Background" && fn.Name() != "TODO" {
					return true
				}
				p.Reportf(sel.Sel.Pos(),
					"context.%s in library code: thread the caller's context (only cmd/, package main and tests may mint root contexts)",
					fn.Name())
				return true
			})
		}
		if !inScope {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxPosition(p, fd)
			checkStoreReachingExport(p, fd)
		}
	}
}

// checkCtxPosition reports a context.Context parameter that is not the
// first parameter.
func checkCtxPosition(p *Pass, fd *ast.FuncDecl) {
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(p, field.Type) && idx > 0 {
			p.Reportf(field.Pos(),
				"%s: context.Context must be the first parameter", funcDisplayName(fd))
			return
		}
		idx += n
	}
}

// checkStoreReachingExport reports an exported function without a
// context parameter whose body directly runs a store scan.
func checkStoreReachingExport(p *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Body == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(p, field.Type) {
			return
		}
	}
	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !storeScanMethods[sel.Sel.Name] {
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
		if obj.Pkg() == nil || !pathMatches(obj.Pkg().Path(), "internal/store") {
			return true
		}
		if obj.Name() != "Store" && obj.Name() != "Snapshot" {
			return true
		}
		p.Reportf(fd.Name.Pos(),
			"exported %s scans the store (%s.%s) but takes no context.Context: the scan cannot be cancelled",
			funcDisplayName(fd), obj.Name(), sel.Sel.Name)
		reported = true
		return false
	})
}

// isContextType reports whether the parameter type is context.Context.
func isContextType(p *Pass, e ast.Expr) bool {
	t := p.Pkg.Info.Types[e].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcDisplayName renders a function or method name for messages.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	name := ""
	switch tt := t.(type) {
	case *ast.Ident:
		name = tt.Name
	case *ast.IndexExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			name = id.Name
		}
	}
	if name == "" {
		return fd.Name.Name
	}
	return name + "." + fd.Name.Name
}
