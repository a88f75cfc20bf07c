package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Mutation acceptance tests for the value-flow analyzers: each copies
// real guarded files out of the tree (rewriting the module path so the
// fixture typechecks standalone), asserts the pristine copy is clean,
// then applies a targeted mutation — the exact regression each analyzer
// exists to catch — and asserts a finding appears.

// realFile reads one file of the real tree and rewrites its imports
// onto the fixture module.
func realFile(t *testing.T, rel string) string {
	t.Helper()
	root, err := moduleRootFromWD()
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	return strings.ReplaceAll(string(src), "promonet/", "fixturemod/")
}

// realObsFiles is the standalone-typecheckable core of the real obs
// package (the debug server, trace export, and manifest files pull in
// net/http / encoding/json and are irrelevant to the span/metrics
// invariants under test). flight.go and the runtime-telemetry files
// ride along because obs.go and recorder.go reference their types.
func realObsFiles(t *testing.T) map[string]string {
	t.Helper()
	return map[string]string{
		"go.mod":                         "module fixturemod\n\ngo 1.22\n",
		"internal/obs/obs.go":            realFile(t, "internal/obs/obs.go"),
		"internal/obs/metrics.go":        realFile(t, "internal/obs/metrics.go"),
		"internal/obs/recorder.go":       realFile(t, "internal/obs/recorder.go"),
		"internal/obs/flight.go":         realFile(t, "internal/obs/flight.go"),
		"internal/obs/runtimemetrics.go": realFile(t, "internal/obs/runtimemetrics.go"),
		"internal/obs/cpu_unix.go":       realFile(t, "internal/obs/cpu_unix.go"),
		"internal/obs/cpu_other.go":      realFile(t, "internal/obs/cpu_other.go"),
	}
}

// realGraphFiles adds the real graph package (non-test files) to files.
func realGraphFiles(t *testing.T, files map[string]string) map[string]string {
	t.Helper()
	for _, name := range []string{
		"components.go", "debug_off.go", "debug_on.go", "digest.go",
		"dot.go", "graph.go", "invariants.go", "io.go", "view.go",
	} {
		files["internal/graph/"+name] = realFile(t, "internal/graph/"+name)
	}
	return files
}

func runOnly(t *testing.T, files map[string]string, analyzer string) []Diagnostic {
	t.Helper()
	root := writeFixture(t, files)
	diags, err := Run(root, []string{"./..."}, Config{Enable: []string{analyzer}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return diags
}

func mustClean(t *testing.T, diags []Diagnostic, what string) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("pristine %s copy is not clean:\n%s", what, renderDiags(diags))
	}
}

// TestSpanHygieneCatchesEndDeletion: deleting any single sp.End() —
// explicit or deferred — from the real graph I/O span discipline must
// produce a span-hygiene finding.
func TestSpanHygieneCatchesEndDeletion(t *testing.T) {
	files := realGraphFiles(t, realObsFiles(t))
	mustClean(t, runOnly(t, files, "span-hygiene"), "graph+obs")

	io := files["internal/graph/io.go"]
	re := regexp.MustCompile(`(?m)^\s*(?:defer )?sp\.End\(\)\n`)
	ends := re.FindAllStringIndex(io, -1)
	if len(ends) < 3 {
		t.Fatalf("want >= 3 sp.End() sites in the real io.go, got %d — the fixture premise broke", len(ends))
	}
	for i, loc := range ends {
		mutated := io[:loc[0]] + io[loc[1]:]
		files["internal/graph/io.go"] = mutated
		diags := runOnly(t, files, "span-hygiene")
		found := false
		for _, d := range diags {
			if d.Analyzer == "span-hygiene" && strings.HasSuffix(d.Pos.Filename, "io.go") {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting sp.End() site %d of %d produced no span-hygiene finding", i+1, len(ends))
		}
	}
}

// TestHotpathAllocCatchesInjectedAlloc: injecting an allocation into
// the real BFS hot loop must produce an error-severity hotpath-alloc
// finding (the surrounding scratch-reuse appends stay allowed).
func TestHotpathAllocCatchesInjectedAlloc(t *testing.T) {
	files := realGraphFiles(t, realObsFiles(t))
	files["internal/centrality/bfs.go"] = realFile(t, "internal/centrality/bfs.go")
	files["internal/centrality/bfs_csr.go"] = realFile(t, "internal/centrality/bfs_csr.go")
	mustClean(t, runOnly(t, files, "hotpath-alloc"), "centrality+graph+obs")

	bfs := files["internal/centrality/bfs.go"]
	marker := "for len(q) > 0 {"
	if strings.Count(bfs, marker) != 1 {
		t.Fatalf("want exactly 1 %q in the real bfs.go, got %d — the fixture premise broke",
			marker, strings.Count(bfs, marker))
	}
	files["internal/centrality/bfs.go"] = strings.Replace(bfs, marker,
		marker+"\n\t\tspill := make([]int32, 1)\n\t\t_ = spill", 1)
	diags := runOnly(t, files, "hotpath-alloc")
	found := false
	for _, d := range diags {
		if d.Analyzer == "hotpath-alloc" && strings.Contains(d.Message, "make") {
			if d.Severity != SevError {
				t.Errorf("hot-loop allocation in centrality must be %s severity, got %s", SevError, d.Severity)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("injected make() in the BFS hot loop produced no hotpath-alloc finding:\n%s", renderDiags(diags))
	}
}

// TestAtomicConsistencyCatchesPlainRead: rewriting the real obs Counter
// from the typed atomic to the raw sync/atomic form stays clean, and
// downgrading one Load to a plain read is then a finding — the exact
// torn-read regression the analyzer guards against.
func TestAtomicConsistencyCatchesPlainRead(t *testing.T) {
	files := realObsFiles(t)
	metrics := files["internal/obs/metrics.go"]
	for _, r := range []struct{ old, new string }{
		{"type Counter struct{ v atomic.Uint64 }", "type Counter struct{ v uint64 }"},
		{"func (c *Counter) Add(n uint64) { c.v.Add(n) }", "func (c *Counter) Add(n uint64) { atomic.AddUint64(&c.v, n) }"},
		{"func (c *Counter) Inc() { c.v.Add(1) }", "func (c *Counter) Inc() { atomic.AddUint64(&c.v, 1) }"},
		{"func (c *Counter) Set(n uint64) { c.v.Store(n) }", "func (c *Counter) Set(n uint64) { atomic.StoreUint64(&c.v, n) }"},
		{"func (c *Counter) Value() uint64 { return c.v.Load() }", "func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.v) }"},
	} {
		if strings.Count(metrics, r.old) != 1 {
			t.Fatalf("want exactly 1 %q in the real metrics.go — the fixture premise broke", r.old)
		}
		metrics = strings.Replace(metrics, r.old, r.new, 1)
	}
	files["internal/obs/metrics.go"] = metrics
	mustClean(t, runOnly(t, files, "atomic-consistency"), "raw-atomic obs")

	files["internal/obs/metrics.go"] = strings.Replace(metrics,
		"func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.v) }",
		"func (c *Counter) Value() uint64 { return c.v }", 1)
	diags := runOnly(t, files, "atomic-consistency")
	found := false
	for _, d := range diags {
		if d.Analyzer == "atomic-consistency" && strings.Contains(d.Message, "field v") {
			found = true
		}
	}
	if !found {
		t.Errorf("plain read of the atomic counter field produced no atomic-consistency finding:\n%s", renderDiags(diags))
	}
}

// TestNilReceiverCatchesGuardDeletion: deleting any single nil guard
// from the real Span's nil-safe methods must produce a nil-receiver
// contract finding.
func TestNilReceiverCatchesGuardDeletion(t *testing.T) {
	files := realObsFiles(t)
	mustClean(t, runOnly(t, files, "nil-receiver"), "obs")

	obs := files["internal/obs/obs.go"]
	re := regexp.MustCompile(`(?m)^\tif s == nil \{\n\t\treturn\n\t\}\n`)
	guards := re.FindAllStringIndex(obs, -1)
	if len(guards) < 5 {
		t.Fatalf("want >= 5 nil guards in the real obs.go, got %d — the fixture premise broke", len(guards))
	}
	for i, loc := range guards {
		files["internal/obs/obs.go"] = obs[:loc[0]] + obs[loc[1]:]
		diags := runOnly(t, files, "nil-receiver")
		found := false
		for _, d := range diags {
			if d.Analyzer == "nil-receiver" && strings.Contains(d.Message, "must begin with") {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting nil guard %d of %d produced no nil-receiver finding", i+1, len(guards))
		}
	}
}
