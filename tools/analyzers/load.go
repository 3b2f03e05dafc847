package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package plus the comment index the
// suppression markers are resolved against.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// commentLines maps filename -> line -> comment text ending there, for
	// marker suppression (same line or the line above a finding).
	commentLines map[string]map[int]string
	findings     []Finding
}

func (p *Package) suppressed(pos token.Position, marker string) bool {
	lines := p.commentLines[pos.Filename]
	if lines == nil {
		return false
	}
	return strings.Contains(lines[pos.Line], marker) ||
		strings.Contains(lines[pos.Line-1], marker)
}

// Loader parses and type-checks each package of one module once: it is its
// own importer for in-module paths (Load, memoised by import path) and sends
// only the standard library to go/importer's "source" mode, which reads
// GOROOT and needs neither the go command nor a working directory.
type Loader struct {
	Fset          *token.FileSet
	root, modPath string
	std           types.Importer
	pkgs          map[string]*Package
}

// NewLoader creates a loader for the module modPath rooted at root. With an
// empty modPath every import is resolved as standard library.
func NewLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, root: root, modPath: modPath,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*Package{}}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPkg resolves one import of a package being type-checked.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	p, err := l.Load(filepath.Join(l.root, rel), path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Load parses every non-test .go file in dir and type-checks the package
// under importPath, or returns the package already loaded under that path.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	commentLines := map[string]map[int]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		idx := map[int]string{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := l.Fset.Position(c.End()).Line
				idx[line] += c.Text
			}
		}
		commentLines[path] = idx
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := &types.Config{Importer: importerFunc(l.importPkg)}
	pkg, err := cfg.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	p := &Package{
		Path:         importPath,
		Fset:         l.Fset,
		Files:        files,
		Pkg:          pkg,
		Info:         info,
		commentLines: commentLines,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// ModulePackages finds every package directory under root (the module root,
// holding go.mod) and returns (dir, importPath) pairs in sorted order.
func ModulePackages(root string) (modPath string, dirs [][2]string, err error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return "", nil, fmt.Errorf("no module line in %s/go.mod", root)
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs = append(dirs, [2]string{dir, ip})
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i][1] < dirs[j][1] })
	return modPath, dirs, nil
}
