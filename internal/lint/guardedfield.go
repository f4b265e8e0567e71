package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// GuardedField is a lightweight lock checker for the fields the COW
// writer and the session's type-set map protect with a mutex. A struct
// field whose comment says "guarded by <mu>" may only be touched inside
// functions that lock that mutex (Lock or RLock) — or that document
// the transfer with "caller holds <mu>" in their doc comment, the
// convention the store's writer helpers already use. The check is
// name-based and lexical by design: it catches the realistic mistake
// (a new accessor that forgets the mutex entirely), not every aliasing
// scheme.
var GuardedField = &Analyzer{
	Name: "guardedfield",
	Doc:  "fields commented 'guarded by <mu>' are only accessed under that mutex (or a documented 'caller holds')",
	Run:  runGuardedField,
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by (\w+)`)
	callerHoldsRe = regexp.MustCompile(`(?i)callers?\s+hold`)
)

func runGuardedField(p *Pass) {
	// Guarded fields, keyed by definition position: instantiated
	// generics reuse the origin field's position, so the key survives
	// type instantiation where object identity would not.
	guarded := map[token.Pos]string{}
	fieldName := map[token.Pos]string{}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mu := guardComment(fld.Comment)
				if mu == "" {
					mu = guardComment(fld.Doc)
				}
				if mu == "" {
					continue
				}
				for _, name := range fld.Names {
					if obj := p.Pkg.Info.Defs[name]; obj != nil {
						guarded[obj.Pos()] = mu
						fieldName[obj.Pos()] = name.Name
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}

	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locked := lockedMutexes(fd.Body)
			exempt := callerHoldsDoc(fd.Doc)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Pkg.Info.Uses[sel.Sel]
				if obj == nil {
					return true
				}
				mu, ok := guarded[obj.Pos()]
				if !ok {
					return true
				}
				if locked[mu] || (exempt != "" && muNamed(exempt, mu)) {
					return true
				}
				p.Reportf(sel.Sel.Pos(),
					"field %s is guarded by %s, but %s neither locks %s nor documents \"caller holds %s\"",
					fieldName[obj.Pos()], mu, funcDisplayName(fd), mu, mu)
				return true
			})
		}
	}
}

// guardComment extracts the mutex name from a "guarded by <mu>" field
// comment.
func guardComment(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

// lockedMutexes collects the names of mutexes the body locks: any
// X.Lock() / X.RLock() call contributes X's final name component.
func lockedMutexes(body *ast.BlockStmt) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.Ident:
			locked[x.Name] = true
		case *ast.SelectorExpr:
			locked[x.Sel.Name] = true
		}
		return true
	})
	return locked
}

// callerHoldsDoc returns the doc comment text when it documents a
// lock-transfer ("caller holds ..."), empty otherwise.
func callerHoldsDoc(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	text := doc.Text()
	if callerHoldsRe.MatchString(text) {
		return text
	}
	return ""
}

// muNamed reports whether the doc text names the mutex as a whole
// word ("wmu" matches "Caller holds Store.wmu throughout").
func muNamed(doc, mu string) bool {
	re := regexp.MustCompile(`\b` + regexp.QuoteMeta(mu) + `\b`)
	return re.MatchString(doc) && strings.Contains(strings.ToLower(doc), "hold")
}
