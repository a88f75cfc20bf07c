package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a fixture module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// chdir moves the process into dir for the duration of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunExitsTwoOnUnparseableFile is the robustness contract: a file
// the parser rejects must surface as exit code 2 with a diagnostic on
// stderr — never a panic, never a silent pass.
func TestRunExitsTwoOnUnparseableFile(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":    "module fixturemod\n\ngo 1.22\n",
		"broken.go": "package broken\n\nfunc Oops( {\n\tcase ???\n",
	})
	chdir(t, root)

	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run on an unparseable module = exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "promolint:") {
		t.Errorf("stderr carries no promolint diagnostic: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout must stay empty on a load error, got %q", stdout.String())
	}
}

// TestRunExitsTwoOutsideModule: no go.mod anywhere up the tree is a
// usage error, exit 2.
func TestRunExitsTwoOutsideModule(t *testing.T) {
	chdir(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("run outside any module = exit %d, want 2", code)
	}
}

// TestRunListExitsZero: -list works without a module and exits 0 with
// all sixteen analyzers.
func TestRunListExitsZero(t *testing.T) {
	chdir(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list = exit %d, want 0\nstderr: %s", code, stderr.String())
	}
	lines := strings.Count(strings.TrimSpace(stdout.String()), "\n") + 1
	if lines != 16 {
		t.Errorf("-list printed %d analyzers, want 16:\n%s", lines, stdout.String())
	}
}

// TestRunBadFlagExitsTwo: flag parse failures are usage errors.
func TestRunBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run with a bad flag = exit %d, want 2", code)
	}
}

// TestRunExitsTwoOnImportCycle: a module whose packages import each
// other is a load error, exit 2 with the cycle named on stderr.
func TestRunExitsTwoOnImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"fixturemod/b\"\n\n// A calls into b.\nfunc A() int { return b.B() }\n",
		"b/b.go": "package b\n\nimport \"fixturemod/a\"\n\n// B calls into a.\nfunc B() int { return a.A() }\n",
	})
	chdir(t, root)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("run on an import cycle = exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "import cycle: fixturemod/a -> fixturemod/b -> fixturemod/a") {
		t.Errorf("stderr does not name the cycle: %q", stderr.String())
	}
}
