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
	"sync"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the package directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ModuleRoot walks upward from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analyzers: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyzers: no module directive in %s/go.mod", root)
}

// Load parses and type-checks every non-test package under the module
// root, in sorted directory order. Each module package is checked once,
// when first listed or imported, and its imports resolve to the packages
// Load checked; the standard library comes from a cache every Load call
// shares (std). Load neither reads nor changes the working directory, so
// calls may run concurrently.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{root: root, modPath: modPath, fset: token.NewFileSet(), done: map[string]*Package{}}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.load(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// std is the standard library as the source importer type-checks it,
// once per process: it is most of the cost of a Load. Its positions
// live in its own file set, and its importer is not safe for concurrent
// use, hence the lock.
var std struct {
	sync.Mutex
	imp types.Importer
}

func importStd(path string) (*types.Package, error) {
	std.Lock()
	defer std.Unlock()
	if std.imp == nil {
		std.imp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	return std.imp.Import(path)
}

// loader is one Load call: its file set, and the module packages checked
// so far by directory (nil while one is being checked, or for a
// directory without one).
type loader struct {
	root, modPath string
	fset          *token.FileSet
	done          map[string]*Package
}

// Import implements types.Importer: a module package is loaded from its
// directory, anything else is the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return importStd(path)
	}
	pkg, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analyzers: no package %s, or an import cycle through it", path)
	}
	return pkg.Types, nil
}

// load checks the package in dir once.
func (l *loader) load(dir string) (*Package, error) {
	if pkg, seen := l.done[dir]; seen {
		return pkg, nil
	}
	l.done[dir] = nil
	pkg, err := loadDir(l.fset, l, l.root, l.modPath, dir)
	if err != nil {
		return nil, err
	}
	l.done[dir] = pkg
	return pkg, nil
}

// packageDirs lists directories under root holding non-test Go files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadDir parses and type-checks one package directory. Test files are
// excluded: the determinism contract covers what ships, and tests
// legitimately compare wall-clock behavior.
func loadDir(fset *token.FileSet, imp types.Importer, root, modPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
