package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one source-type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Name  string // package name
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// UseOnly marks a package of a use-only root: it is type-checked
	// so that whole-program analyzers see its uses, and nothing
	// reports on it.
	UseOnly bool
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *listErr
}

type listErr struct {
	Err string
}

// goList runs `go list -json <args>` in dir and decodes the package
// stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load type-checks the non-test source of the packages matched by
// patterns in the module containing dir, and then every package of
// each use-only root: a directory, relative to dir, holding a module
// that compiles against these packages (cmd/qaload, the load
// generator, is one). Use-only packages are marked UseOnly.
//
// Packages are checked from source in dependency order, and each
// imports the others' source-checked packages, so one program has one
// types.Object per declaration. Everything else (the standard library,
// and any module package no pattern matched) is read from compiled
// export data produced by `go list -deps -export`, so loading needs
// only the Go toolchain — no third-party machinery. Test files and
// testdata directories are not loaded (the go tool excludes testdata
// from pattern expansion).
func Load(dir string, useRoots []string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})

	var out []*Package
	load := func(dir string, useOnly bool, patterns ...string) error {
		listed, err := goList(dir, append([]string{"-deps", "-export", "--"}, patterns...)...)
		if err != nil {
			return err
		}
		for _, p := range listed {
			if exports[p.ImportPath] == "" {
				exports[p.ImportPath] = p.Export
			}
		}
		// -deps lists every package after its dependencies.
		for _, p := range listed {
			if p.DepOnly || p.Standard || checked[p.ImportPath] != nil {
				continue
			}
			if p.Error != nil {
				return fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
			}
			pkg, err := checkPackage(fset, imp, p)
			if err != nil {
				return err
			}
			pkg.UseOnly = useOnly
			checked[pkg.Path] = pkg.Types
			out = append(out, pkg)
		}
		return nil
	}
	if err := load(dir, false, patterns...); err != nil {
		return nil, err
	}
	for _, r := range useRoots {
		if err := load(filepath.Join(dir, r), true, "./..."); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, r *listedPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(r.GoFiles))
	for _, name := range r.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(r.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	tpkg, err := conf.Check(r.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", r.ImportPath, err)
	}
	return &Package{
		Path:  r.ImportPath,
		Name:  tpkg.Name(),
		Dir:   r.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
