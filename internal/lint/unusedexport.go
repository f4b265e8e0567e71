package lint

import "go/types"

// UnusedExport reports every exported package-level func, type, var
// or const, and every exported method, that no non-test file of the
// program references. An export with no caller is API surface that
// nothing exercises but the tests written for it: it grows the tree,
// and every reader has to learn it before learning it is dead.
//
// A use counts from any loaded package — the declaring one, another
// one, or a use-only root such as cmd/qaload, the load generator, a
// module of its own that compiles against the internal packages. Uses
// are matched by package path, receiver type name and name, so a use
// through a generic instantiation counts too. Not findings: exports of
// main packages, which nothing can import; methods that satisfy an
// interface declared or used anywhere in the program (by
// types.Implements), which are called through it; and the test-support
// packages below.
var UnusedExport = &Analyzer{
	Name:         "unusedexport",
	Doc:          "every exported name has a caller in non-test code (cmd/qaload included) — delete, move to the tests, unexport, or waive with a reason",
	Run:          runUnusedExport,
	WholeProgram: true,
}

// testSupport are the packages whose exports exist for tests alone.
var testSupport = []string{
	// Shared test fixtures: every caller is a _test.go file, which the
	// loader does not read.
	"internal/testutil",
	// The fault-injecting wal.FS the WAL crash tests drive: only tests
	// construct it.
	"internal/wal/faultfs",
}

// useKey names a declaration across type-checking universes: a
// package read from export data (one that no root lists) holds objects
// other than those checked from source, with the same keys.
type useKey struct {
	pkg, recv, name string
}

// keyOf returns the key of a package-level object or method, and false
// for anything else (locals, fields, universe objects).
func keyOf(obj types.Object) (useKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return useKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return useKey{}, false
			}
			return useKey{fn.Pkg().Path(), named.Obj().Name(), fn.Name()}, true
		}
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return useKey{}, false
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return useKey{}, false
	}
	return useKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// namedOf returns a receiver's named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func runUnusedExport(p *Pass) {
	used := map[useKey]bool{}
	for _, pkg := range p.Program {
		for _, obj := range pkg.Info.Uses {
			if k, ok := keyOf(obj); ok {
				used[k] = true
			}
		}
	}
	ifaces := interfacesByMethod(p.Program)

	for _, pkg := range p.Program {
		if pkg.UseOnly || pkg.Name == "main" || pathMatches(pkg.Path, testSupport...) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if k, _ := keyOf(obj); obj.Exported() && !used[k] {
				p.Reportf(obj.Pos(), "%s.%s has no caller outside tests", pkg.Name, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if k, _ := keyOf(m); !m.Exported() || used[k] || satisfies(named, m.Name(), ifaces) {
					continue
				}
				p.Reportf(m.Pos(), "%s.%s has no caller outside tests", pkg.Name, methodName(m))
			}
		}
	}
}

// methodName prints a method as (*T).M or T.M.
func methodName(m *types.Func) string {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		return "(*" + namedOf(p).Obj().Name() + ")." + m.Name()
	}
	return namedOf(recv).Obj().Name() + "." + m.Name()
}

// interfacesByMethod indexes, by method name, the non-empty interfaces
// the program can call a method through: every interface type declared
// in a loaded package or in anything it imports (the standard
// library's fmt.Stringer, io.Writer, http.Handler, ...), every
// interface-typed expression (anonymous ones included), and error.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return // uninstantiated: Implements is unspecified
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())

	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// satisfies reports whether T or *T implements an interface that has
// a method of this name, so the method is called through it.
func satisfies(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false // uninstantiated: Implements is unspecified
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
