package flow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failImporter refuses every import; the fuzz typechecker runs in
// permissive mode and tolerates the resulting errors, leaving partial
// type information — exactly what the value-flow layer must survive.
type failImporter struct{}

func (failImporter) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("fuzz: imports disabled (%s)", path)
}

// repoGoFiles walks up from the working directory to the module root
// and returns the contents of every .go file in the repo — the seed
// corpus.
func repoGoFiles(t testing.TB) []string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
	var out []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(data) < 256<<10 {
			out = append(out, string(data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no seed files found")
	}
	return out
}

// FuzzCFGValueFlow drives arbitrary (possibly ill-typed) Go source
// through the full value-flow stack — CFG construction, reaching
// definitions, allocation classification, escape
// classification — asserting that nothing panics, the fixpoint
// terminates, and the solution is internally consistent: every
// reaching def of a use is a def of that use's object.
func FuzzCFGValueFlow(f *testing.F) {
	for _, src := range repoGoFiles(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip("unparseable input")
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: failImporter{},
			Error:    func(error) {}, // permissive: keep partial info
		}
		conf.Check("fuzz", fset, []*ast.File{file}, info) //nolint:errcheck

		cg := NewCallGraph(info, []*ast.File{file})
		MayAlloc(info, cg)

		check := func(params []*ast.Ident, body *ast.BlockStmt) {
			cfg := New(body, info)
			if len(cfg.Blocks) < 2 || cfg.Blocks[1] != cfg.Exit {
				t.Fatalf("CFG shape broken: %d blocks", len(cfg.Blocks))
			}
			rd := NewReachingDefs(cfg, info, params, body)
			for _, use := range trackedUses(rd) {
				obj := info.Uses[use]
				for _, d := range rd.At(use) {
					if d.Obj != obj {
						t.Fatalf("use %q at %v reached by def of %q",
							use.Name, fset.Position(use.Pos()), d.Obj.Name())
					}
				}
			}
			AllocSites(info, body)
			Escapes(info, body)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			check(ParamIdents(fd.Recv, fd.Type), fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
					check(ParamIdents(nil, lit.Type), lit.Body)
				}
				return true
			})
		}
	})
}
