package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoIsClean runs the full suite over the real module and fails on
// any finding, making "promolint exits 0" part of the ordinary test
// gate rather than a separate CI step people can forget.
func TestRepoIsClean(t *testing.T) {
	root, err := moduleRootFromWD()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./..."}, Config{})
	if err != nil {
		t.Fatalf("lint.Run on module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func moduleRootFromWD() (string, error) {
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
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
