package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the full import path, e.g. "promonet/internal/centrality".
	Path string
	// Rel is the import path relative to the module root, e.g.
	// "internal/centrality" ("" for the module root package). Analyzer
	// scoping keys off Rel so that test fixtures with a different module
	// name behave identically to the real tree.
	Rel string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test files that matched build constraints.
	Files []*ast.File
	// Types and Info hold the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// loader parses and type-checks module-local packages from source and
// reads everything else from compiler export data. It deliberately
// avoids any external package-loading dependency: go/parser + go/types
// + go/build (for file matching) are all it uses. The gc importer finds
// stdlib export data by running the toolchain's `go list -export`, so
// the loader needs the go command of the toolchain that built it.
//
// A loader is used from one goroutine. Each module package is
// type-checked once and memoized; loading holds the import paths
// currently being checked, which is how module import cycles are
// reported instead of recursing forever.
type loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	ctx        build.Context
	std        types.Importer

	pkgs    map[string]*Package // keyed by import path
	loading []string            // import chain being checked, outermost first
}

// newLoader builds a loader for the module. Extra build tags (e.g.
// "promodebug") widen file matching so tag-gated files are analyzed
// alongside the default set.
func newLoader(moduleRoot string, tags ...string) (*loader, error) {
	modPath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.BuildTags = append(append([]string{}, ctx.BuildTags...), tags...)
	fset := token.NewFileSet()
	return &loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modPath,
		ctx:        ctx,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// errNoGoFiles marks a directory with no files matching the loader's
// build constraints; Run tolerates it on the secondary tag pass.
var errNoGoFiles = errors.New("no buildable Go files")

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("lint: no module directive in %s", gomod)
	}
	return string(m[1]), nil
}

// Import implements types.Importer: module-local packages come from the
// source tree, everything else from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modulePath && !strings.HasPrefix(path, l.modulePath+"/") {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks the module package with the given import
// path, memoizing the result.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	for i, p := range l.loading {
		if p == path {
			cycle := append(append([]string{}, l.loading[i:]...), path)
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(cycle, " -> "))
		}
	}
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %w in %s", errNoGoFiles, dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}

	pkg := &Package{
		Path:  path,
		Rel:   rel,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of dir that match the current
// build constraints, in sorted filename order for deterministic output.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := l.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: matching %s: %w", filepath.Join(dir, name), err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// discover walks the module tree and returns the import paths of every
// buildable package under root (skipping vendor, testdata, hidden and
// underscore directories).
func (l *loader) discover(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata") {
			return filepath.SkipDir
		}
		hasGo, err := hasBuildableGo(l.ctx, p)
		if err != nil {
			return err
		}
		if hasGo {
			rel, err := filepath.Rel(l.moduleRoot, p)
			if err != nil {
				return err
			}
			ip := l.modulePath
			if rel != "." {
				ip = l.modulePath + "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasBuildableGo(ctx build.Context, dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := ctx.MatchFile(dir, name); err == nil && match {
			return true, nil
		}
	}
	return false, nil
}
