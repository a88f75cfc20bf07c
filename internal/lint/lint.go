// Package lint is promonet's custom static-analysis suite. It enforces
// the repo-specific invariants that generic tooling cannot know about —
// most importantly the paper's black-box contract (promotion machinery
// must never mutate the host graph it is handed) and the determinism
// discipline the experiment reproductions depend on.
//
// The suite is built entirely on the standard library (go/ast,
// go/parser, go/token, go/types, go/build): packages are parsed and
// type-checked with a module-aware importer that resolves in-module
// imports from source and stdlib imports from compiler export data
// (located with `go list -export`), so no external package-loading
// dependency is needed.
//
// Findings can be suppressed where a rule is intentionally broken (for
// example, the strategy-application code whose whole purpose is to
// attach structure) with an annotation comment:
//
//	//promolint:allow mutation-safety -- reason for the exception
//
// placed in the doc comment of the enclosing function, on the flagged
// line, or on the line directly above it. The analyzer name is
// mandatory; a blanket allow does not exist by design.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Severity ranks a finding. Errors gate CI; warnings are advisory and
// never fail the promolint exit code on their own.
type Severity string

const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
)

// Diagnostic is one finding, addressable as file:line:col.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Severity Severity
	Message  string
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings through the pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow annotations.
	Name string
	// Doc is a one-line description shown by promolint's analyzer list.
	Doc string
	// Severity classifies the analyzer's findings; empty means SevError.
	Severity Severity
	// Run executes the analyzer over one package.
	Run func(p *Pass)
}

func (a *Analyzer) severity() Severity {
	if a.Severity == "" {
		return SevError
	}
	return a.Severity
}

// Analyzers returns the full suite in stable order: the five syntactic
// analyzers from the first generation, then the four CFG/dataflow
// analyzers built on internal/lint/flow, then the four value-flow
// analyzers built on its reaching-defs/escape layer, then the three
// interprocedural analyzers built on its summary engine.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		mutationSafety,
		determinism,
		concurrency,
		ignoredErrors,
		exportedDocs,
		versionStamp,
		engineBypass,
		poolHygiene,
		lockOrder,
		spanHygiene,
		hotpathAlloc,
		atomicConsistency,
		nilReceiver,
		viewImmutability,
		goroutineLifecycle,
		snapshotAliasing,
	}
}

// Config selects which analyzers run. The zero value runs all of them.
type Config struct {
	// Enable lists analyzer names to run; empty means all.
	Enable []string
}

// Selected returns the analyzers cfg enables, in suite order, or an
// error naming the first unknown analyzer.
func (c Config) Selected() ([]*Analyzer, error) {
	all := Analyzers()
	if len(c.Enable) == 0 {
		return all, nil
	}
	enabled := make(map[string]bool)
	for _, name := range c.Enable {
		enabled[name] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if enabled[a.Name] {
			out = append(out, a)
			delete(enabled, a.Name)
		}
	}
	for _, name := range c.Enable {
		if enabled[name] {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer *Analyzer
	suppress *suppressionIndex
	out      *[]Diagnostic
}

// Reportf records a finding at pos unless an allow annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.ReportSevf(p.analyzer.severity(), pos, format, args...)
}

// ReportSevf is Reportf with an explicit severity, for analyzers whose
// findings escalate by package scope (hotpath-alloc: warnings in
// general code, errors inside the kernel packages).
func (p *Pass) ReportSevf(sev Severity, pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.suppress.allows(position, p.analyzer.Name) {
		return
	}
	if sev == "" {
		sev = p.analyzer.severity()
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run loads the packages selected by patterns (each either a directory
// path or a "dir/..." wildcard; "./..." means the whole module) under
// the module rooted at moduleRoot and runs the analyzer suite over
// them. It returns the findings sorted by position.
//
// Every package is analyzed under two build configurations — the
// default one and again with the promodebug tag — so invariants hold in
// the debug build too; findings from files shared by both passes are
// deduplicated.
func Run(moduleRoot string, patterns []string, cfg Config) ([]Diagnostic, error) {
	analyzers, err := cfg.Selected()
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	seen := make(map[Diagnostic]bool)
	for pass, tags := range [][]string{nil, {"promodebug"}} {
		l, err := newLoader(moduleRoot, tags...)
		if err != nil {
			return nil, err
		}
		paths, err := resolvePatterns(l, moduleRoot, patterns)
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			pkg, err := l.load(path)
			if err != nil {
				// A package that only exists under the other tag set is
				// not an error on the promodebug pass.
				if pass > 0 && errors.Is(err, errNoGoFiles) {
					continue
				}
				return nil, err
			}
			var found []Diagnostic
			supp := buildSuppressionIndex(l.fset, pkg.Files)
			for _, a := range analyzers {
				a.Run(&Pass{Fset: l.fset, Pkg: pkg, analyzer: a, suppress: supp, out: &found})
			}
			for _, d := range found {
				if !seen[d] {
					seen[d] = true
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// resolvePatterns expands the command-line package patterns into module
// import paths.
func resolvePatterns(l *loader, moduleRoot string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(paths []string) {
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		dir := pat
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			dir = strings.TrimSuffix(pat, "/...")
			if dir == "." || dir == "" {
				dir = moduleRoot
			}
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(moduleRoot, dir)
		}
		if recursive {
			paths, err := l.discover(dir)
			if err != nil {
				return nil, err
			}
			add(paths)
			continue
		}
		rel, err := filepath.Rel(moduleRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", pat, moduleRoot)
		}
		ip := l.modulePath
		if rel != "." {
			ip = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		add([]string{ip})
	}
	sort.Strings(out)
	return out, nil
}

// --- allow annotations ---

const allowMarker = "promolint:allow"

// suppressionIndex answers "is this (position, analyzer) covered by an
// allow annotation?" using two granularities: per-line annotations (on
// the flagged line or the line above) and per-function annotations in
// the doc comment of the enclosing declaration.
type suppressionIndex struct {
	// line maps filename -> line -> analyzers allowed on that line.
	line map[string]map[int]map[string]bool
	// funcs are declaration ranges whose doc comment allows analyzers.
	funcs []funcAllowance
}

type funcAllowance struct {
	file     string
	from, to int // line range of the declaration body
	allowed  map[string]bool
}

func buildSuppressionIndex(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{line: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx.line[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx.line[pos.Filename] = byLine
				}
				// The annotation covers its own line and the next one, so
				// both end-of-line and preceding-line placements work.
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if byLine[ln] == nil {
						byLine[ln] = make(map[string]bool)
					}
					for _, n := range names {
						byLine[ln][n] = true
					}
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			allowed := make(map[string]bool)
			for _, c := range fd.Doc.List {
				for _, n := range parseAllow(c.Text) {
					allowed[n] = true
				}
			}
			if len(allowed) == 0 {
				continue
			}
			from := fset.Position(fd.Pos())
			to := fset.Position(fd.End())
			idx.funcs = append(idx.funcs, funcAllowance{
				file: from.Filename, from: from.Line, to: to.Line, allowed: allowed,
			})
		}
	}
	return idx
}

// parseAllow extracts analyzer names from a "//promolint:allow a,b --
// reason" comment, returning nil if the comment is not an annotation.
func parseAllow(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowMarker) {
		return nil
	}
	rest := strings.TrimPrefix(text, allowMarker)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. "promolint:allowx" is not an annotation
	}
	rest = strings.TrimSpace(rest)
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	var names []string
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if f != "" {
			names = append(names, f)
		}
	}
	return names
}

func (s *suppressionIndex) allows(pos token.Position, analyzer string) bool {
	if byLine, ok := s.line[pos.Filename]; ok {
		if set, ok := byLine[pos.Line]; ok && set[analyzer] {
			return true
		}
	}
	for _, fa := range s.funcs {
		if fa.file == pos.Filename && fa.from <= pos.Line && pos.Line <= fa.to && fa.allowed[analyzer] {
			return true
		}
	}
	return false
}

// --- shared helpers for the analyzers ---

// relScope reports whether the package's module-relative path is inside
// any of the given scopes (exact match or subdirectory).
func (p *Pass) relScope(scopes ...string) bool {
	for _, s := range scopes {
		if p.Pkg.Rel == s || strings.HasPrefix(p.Pkg.Rel, s+"/") {
			return true
		}
	}
	return false
}
