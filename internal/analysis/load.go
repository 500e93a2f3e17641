package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Load resolves package patterns with `go list` and parses + type-checks
// every match from source. Imports (standard library and module-local alike)
// are resolved through the compiler's source importer, so the loader works
// offline with no dependency on export data or golang.org/x/tools.
func Load(dir string, patterns []string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, m := range metas {
		if len(m.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := TypeCheck(fset, m.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", m.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{Path: m.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return pkgs, nil
}

// TypeCheck runs the type checker over one package's parsed files with a
// fully populated types.Info (analyzers rely on Uses/Defs/Types/Scopes).
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v", patterns, err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var metas []listedPackage
	for dec.More() {
		var m listedPackage
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}
