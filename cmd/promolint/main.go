// Command promolint runs promonet's custom static-analysis suite (see
// internal/lint): sixteen analyzers enforcing the repo-specific
// invariants that generic tooling cannot know about — the black-box
// read-only contract on the host graph, seeded-randomness and
// map-iteration determinism, goroutine fan-out hygiene, error
// discipline in the CLI and IO layers, doc coverage of the core
// exported API, the CFG/dataflow properties the execution engine
// depends on (version stamping of graph mutations, engine routing of
// heavy kernels, sync.Pool get/put balance, mutex acquisition order),
// the value-flow invariants of the observability and kernel layers
// (obs span lifecycle, the allocation-free discipline of
// //promolint:hotpath-marked hot code, all-or-nothing sync/atomic
// access per variable, the nil-safe method contract of nil-receiver
// types like *obs.Span), and the interprocedural contracts built on
// the summary engine: no write or unsafe retention of frozen
// graph.View adjacency arrays, goroutine termination and WaitGroup
// join discipline, and CSR snapshot/overlay aliasing safety.
//
// Module packages are parsed and type-checked from source; stdlib
// packages are read from compiler export data, which the toolchain's
// `go list -export` locates (and builds into the build cache on first
// use), so promolint needs the go command installed alongside it.
//
// Usage:
//
//	promolint [flags] [packages]
//
//	promolint ./...                    # the whole module (default)
//	promolint ./internal/centrality    # one package
//	promolint -analyzers determinism ./internal/exp/...
//	promolint -json ./...              # JSON report on stdout
//	promolint -list                    # describe the analyzers
//
// Findings go to stdout (one per line as file:line:col: [analyzer]
// message, or a JSON report with -json); run summaries and errors go to
// stderr. promolint exits 0 when the tree is clean or has only
// warn-severity findings, 1 when it has error-severity findings, and 2
// on usage or load errors (an unparseable file, a type error, a module
// import cycle). The only way to suppress a finding is an annotation
// comment //promolint:allow <analyzer> -- reason on the flagged line,
// the line above it, or in the enclosing function's doc comment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"promonet/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized over args and streams so tests
// can drive it in-process (notably the corrupt-input exit-2 contract).
//
// The injected writers are os.Stdout/os.Stderr in production and test
// buffers otherwise; either way a failed diagnostic write has no
// recovery path, so the write errors are deliberately best-effort.
//
//promolint:allow ignored-errors -- CLI output writes to injected stdout/stderr are best-effort by design
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	analyzers := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s [%s] %s\n", a.Name, severityOf(a), a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "promolint:", err)
		return 2
	}
	cfg := lint.Config{Enable: splitNames(*analyzers)}
	selected, err := cfg.Selected()
	if err != nil {
		fmt.Fprintln(stderr, "promolint:", err)
		return 2
	}
	diags, err := lint.Run(root, fs.Args(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "promolint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.NewReport(root, selected, diags)); err != nil {
			fmt.Fprintln(stderr, "promolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	errs, warns := 0, 0
	for _, d := range diags {
		if d.Severity == lint.SevWarn {
			warns++
		} else {
			errs++
		}
	}
	if errs > 0 || warns > 0 {
		fmt.Fprintf(stderr, "promolint: %d error(s), %d warning(s)\n", errs, warns)
	}
	if errs > 0 {
		return 1
	}
	return 0
}

func severityOf(a *lint.Analyzer) lint.Severity {
	if a.Severity == "" {
		return lint.SevError
	}
	return a.Severity
}

func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
