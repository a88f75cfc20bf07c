package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixtures for the CFG/dataflow analyzers (version-stamp, engine-bypass,
// pool-hygiene, lock-order). Each fixture package carries one flagging
// and at least one passing case per rule, mirroring the real tree's
// layout so relScope-based analyzers engage.

func flowFixtureFiles() map[string]string {
	return map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",

		// version-stamp: exported Graph mutators must bump on every
		// mutated return path.
		"internal/graph/graph.go": `package graph

// Graph mirrors the real structure the analyzer keys off.
type Graph struct {
	adj     [][]int32
	m       int
	version uint64
}

func (g *Graph) bumpVersion() { g.version++ }

// BadAddEdge has an early mutated return without a bump: finding.
func (g *Graph) BadAddEdge(u, v int) bool {
	if u == v {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.m++
	if u > v {
		return true
	}
	g.bumpVersion()
	return true
}

// GoodAddEdge bumps on every mutated path: no finding.
func (g *Graph) GoodAddEdge(u, v int) bool {
	if u == v {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.m++
	g.bumpVersion()
	return true
}

// BadViaHelper mutates through a helper that never bumps: finding.
func (g *Graph) BadViaHelper(u, v int) { g.insertArc(u, v) }

func (g *Graph) insertArc(u, v int) { g.adj[u] = append(g.adj[u], int32(v)) }

// GoodViaHelper mutates through a helper that always bumps: no finding.
func (g *Graph) GoodViaHelper(u, v int) { g.insertAndBump(u, v) }

func (g *Graph) insertAndBump(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.bumpVersion()
}

// GoodClone writes a fresh local's fields, not the receiver's: no
// finding.
func (g *Graph) GoodClone() *Graph {
	c := &Graph{m: g.m}
	c.adj = append([][]int32(nil), g.adj...)
	return c
}

// GoodRead never writes: no finding.
func (g *Graph) GoodRead() int { return g.m }
`,

		// engine-bypass: heavy kernel calls outside the sanctioned
		// packages.
		"internal/centrality/kernels.go": `package centrality

// Closeness is a heavy kernel.
func Closeness() []float64 { return nil }

// BetweennessSampled is a heavy kernel.
func BetweennessSampled(k int) []float64 { return nil }

// Distances is a cheap single-source helper.
func Distances(s int) []int32 { return nil }

// inPackageUse may call kernels freely: the package is in scope.
func inPackageUse() { Closeness() }
`,
		"internal/report/report.go": `package report

import "fixturemod/internal/centrality"

// BadDirect calls a heavy kernel directly: finding.
func BadDirect() []float64 { return centrality.Closeness() }

// BadSampled calls a prefixed heavy kernel: finding.
func BadSampled() []float64 { return centrality.BetweennessSampled(8) }

// GoodCheap calls a single-source helper: no finding.
func GoodCheap() []int32 { return centrality.Distances(0) }

// AllowedBaseline is an annotated intentional baseline: suppressed.
func AllowedBaseline() []float64 {
	//promolint:allow engine-bypass -- fixture differential baseline
	return centrality.Closeness()
}
`,

		// pool-hygiene: Get/Put balance and use-after-Put.
		"internal/engine/pool.go": `package engine

import "sync"

var pool sync.Pool

type buf struct{ b []byte }

func use(*buf) {}

// GoodBalanced gets, uses, puts once: no finding.
func GoodBalanced() {
	v := pool.Get().(*buf)
	use(v)
	pool.Put(v)
}

// GoodDeferred puts through defer: no finding.
func GoodDeferred() {
	v := pool.Get().(*buf)
	defer pool.Put(v)
	use(v)
}

// GoodTransfer returns the value, transferring ownership: no finding.
func GoodTransfer() *buf {
	v := pool.Get().(*buf)
	return v
}

// BadDoublePut may put twice when cond holds: finding.
func BadDoublePut(cond bool) {
	v := pool.Get().(*buf)
	if cond {
		pool.Put(v)
	}
	pool.Put(v)
}

// BadLeak returns without putting on the cond path: finding.
func BadLeak(cond bool) {
	v := pool.Get().(*buf)
	if cond {
		return
	}
	pool.Put(v)
}

// BadUseAfterPut touches the value after it went back: finding.
func BadUseAfterPut() {
	v := pool.Get().(*buf)
	pool.Put(v)
	use(v)
}

// BadClosureAfterPut captures the value after it went back: finding.
func BadClosureAfterPut() func() {
	v := pool.Get().(*buf)
	pool.Put(v)
	return func() { use(v) }
}
`,

		// lock-order: imbalance, double acquisition, AB/BA cycle.
		"internal/engine/locks.go": `package engine

import "sync"

type guarded struct {
	a sync.Mutex
	b sync.Mutex
}

// GoodDefer locks and defers the unlock: no finding.
func (s *guarded) GoodDefer() {
	s.a.Lock()
	defer s.a.Unlock()
}

// GoodPaired locks and unlocks on every path: no finding.
func (s *guarded) GoodPaired(cond bool) int {
	s.a.Lock()
	if cond {
		s.a.Unlock()
		return 1
	}
	s.a.Unlock()
	return 0
}

// BadReturnHolding returns with the lock held on the cond path: finding.
func (s *guarded) BadReturnHolding(cond bool) {
	s.a.Lock()
	if cond {
		return
	}
	s.a.Unlock()
}

// BadDoubleLock re-acquires the exclusive mutex: finding.
func (s *guarded) BadDoubleLock() {
	s.a.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.a.Unlock()
}

// lockAB and lockBA acquire in opposite orders: cycle finding.
func (s *guarded) lockAB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *guarded) lockBA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`,
	}
}

func TestVersionStamp(t *testing.T) {
	diags := runFixture(t, flowFixtureFiles())
	want(t, diags, "version-stamp", "BadAddEdge")
	want(t, diags, "version-stamp", "BadViaHelper")
	reject(t, diags, "version-stamp", "GoodAddEdge")
	reject(t, diags, "version-stamp", "GoodViaHelper")
	reject(t, diags, "version-stamp", "GoodClone")
	reject(t, diags, "version-stamp", "GoodRead")
	reject(t, diags, "version-stamp", "insertArc") // unexported helpers are summaries, not findings
}

func TestEngineBypass(t *testing.T) {
	diags := runFixture(t, flowFixtureFiles())
	want(t, diags, "engine-bypass", "centrality.Closeness")
	want(t, diags, "engine-bypass", "centrality.BetweennessSampled")
	reject(t, diags, "engine-bypass", "Distances")
	// The in-package call and the annotated baseline stay silent, so the
	// two findings above are the only ones.
	n := 0
	for _, d := range diags {
		if d.Analyzer == "engine-bypass" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("want exactly 2 engine-bypass findings, got %d\n%s", n, renderDiags(diags))
	}
}

func TestPoolHygiene(t *testing.T) {
	diags := runFixture(t, flowFixtureFiles())
	want(t, diags, "pool-hygiene", "Put twice")
	want(t, diags, "pool-hygiene", "without a Put")
	want(t, diags, "pool-hygiene", "used after it was Put")
	want(t, diags, "pool-hygiene", "escapes after it was Put")
	for _, good := range []string{"GoodBalanced", "GoodDeferred", "GoodTransfer"} {
		for _, d := range diags {
			if d.Analyzer == "pool-hygiene" && strings.Contains(d.Pos.Filename, "pool.go") {
				if line := fixtureLineFunc(t, flowFixtureFiles()["internal/engine/pool.go"], d.Pos.Line); line == good {
					t.Errorf("pool-hygiene flagged %s: %s", good, d)
				}
			}
		}
	}
}

func TestLockOrder(t *testing.T) {
	diags := runFixture(t, flowFixtureFiles())
	want(t, diags, "lock-order", "return while still holding", "guarded.a")
	want(t, diags, "lock-order", "not reentrant")
	want(t, diags, "lock-order", "lock-order cycle")
	for _, d := range diags {
		if d.Analyzer != "lock-order" {
			continue
		}
		fn := fixtureLineFunc(t, flowFixtureFiles()["internal/engine/locks.go"], d.Pos.Line)
		if fn == "GoodDefer" || fn == "GoodPaired" {
			t.Errorf("lock-order flagged %s: %s", fn, d)
		}
	}
}

// fixtureLineFunc returns the name of the function declaration enclosing
// the 1-based line in src ("" when outside any function) — fixtures
// assert per-function cleanliness without hardcoding line numbers.
func fixtureLineFunc(t *testing.T, src string, line int) string {
	t.Helper()
	name := ""
	re := regexp.MustCompile(`^func (?:\([^)]*\) )?(\w+)`)
	for i, l := range strings.Split(src, "\n") {
		if i+1 > line {
			break
		}
		if m := re.FindStringSubmatch(l); m != nil {
			name = m[1]
		}
	}
	return name
}

// TestPromodebugTaggedFilesAreAnalyzed is the loader regression test:
// a finding inside a promodebug-gated file must surface, and exactly
// once (the dual-tag run dedupes files shared by both passes).
func TestPromodebugTaggedFilesAreAnalyzed(t *testing.T) {
	files := fixtureFiles()
	files["internal/exp/debug_check.go"] = `//go:build promodebug

package exp

import "math/rand"

// DebugBad draws from the global source under the promodebug tag.
func DebugBad() int { return rand.Intn(3) }
`
	diags := runFixture(t, files)
	n := 0
	for _, d := range diags {
		if d.Analyzer == "determinism" && strings.Contains(d.Pos.Filename, "debug_check.go") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 determinism finding in the promodebug-tagged file, got %d\n%s",
			n, renderDiags(diags))
	}
	// Untagged findings must not double up either: det.go is seen by
	// both passes but its rand.Intn finding appears once.
	m := 0
	for _, d := range diags {
		if d.Analyzer == "determinism" && strings.Contains(d.Pos.Filename, "det.go") &&
			strings.Contains(d.Message, "rand.Intn") {
			m++
		}
	}
	if m != 1 {
		t.Errorf("want exactly 1 rand.Intn determinism finding in det.go, got %d\n%s",
			m, renderDiags(diags))
	}
}

// TestVersionStampCatchesBumpDeletion encodes the acceptance criterion
// directly against the real tree: deleting any single bumpVersion() call
// from internal/graph's mutators must produce a version-stamp finding.
func TestVersionStampCatchesBumpDeletion(t *testing.T) {
	root, err := moduleRootFromWD()
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(root, "internal", "graph", "graph.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^\s*g\.bumpVersion\(\)\n`)
	calls := re.FindAllIndex(src, -1)
	if len(calls) == 0 {
		t.Fatal("no g.bumpVersion() calls found in the real graph.go — the fixture premise broke")
	}

	fixture := func(body string) map[string]string {
		return map[string]string{
			"go.mod":                  "module fixturemod\n\ngo 1.22\n",
			"internal/graph/graph.go": body,
		}
	}

	// The pristine copy must be clean: graph.go is self-contained
	// (stdlib imports only), so it typechecks alone.
	if diags := runVersionStampOnly(t, fixture(string(src))); len(diags) != 0 {
		t.Fatalf("pristine graph.go copy is not clean:\n%s", renderDiags(diags))
	}

	for i, loc := range calls {
		mutated := string(src[:loc[0]]) + string(src[loc[1]:])
		diags := runVersionStampOnly(t, fixture(mutated))
		found := false
		for _, d := range diags {
			if d.Analyzer == "version-stamp" {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting bumpVersion() call %d of %d produced no version-stamp finding", i+1, len(calls))
		}
	}
}

func runVersionStampOnly(t *testing.T, files map[string]string) []Diagnostic {
	t.Helper()
	root := writeFixture(t, files)
	diags, err := Run(root, []string{"./..."}, Config{Enable: []string{"version-stamp"}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return diags
}

func TestSeverities(t *testing.T) {
	diags := runFixture(t, fixtureFiles())
	for _, d := range diags {
		wantSev := SevError
		if d.Analyzer == "exported-docs" {
			wantSev = SevWarn
		}
		if d.Severity != wantSev {
			t.Errorf("%s finding has severity %q, want %q: %s", d.Analyzer, d.Severity, wantSev, d)
		}
	}
}

func TestAnalyzerCount(t *testing.T) {
	as := Analyzers()
	if len(as) != 16 {
		names := make([]string, len(as))
		for i, a := range as {
			names[i] = a.Name
		}
		t.Fatalf("Analyzers() = %d analyzers %v, want 16", len(as), names)
	}
	seen := make(map[string]bool)
	for _, a := range as {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
