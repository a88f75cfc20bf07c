package lint

import (
	"strings"
	"testing"
)

// TestImportCycleIsAnError: a module whose packages import each other
// must fail the load with an error that names the cycle, rather than
// recurse until the stack overflows.
func TestImportCycleIsAnError(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "fixturemod/internal/b"

// A calls into b.
func A() int { return b.B() }
`,
		"internal/b/b.go": `package b

import "fixturemod/internal/a"

// B calls into a.
func B() int { return a.A() }
`,
	})
	_, err := Run(root, []string{"./..."}, Config{})
	if err == nil {
		t.Fatal("lint.Run on an import cycle returned no error")
	}
	const cycle = "import cycle: fixturemod/internal/a -> fixturemod/internal/b -> fixturemod/internal/a"
	if !strings.Contains(err.Error(), cycle) {
		t.Errorf("error does not name the cycle %q:\n%v", cycle, err)
	}
}
