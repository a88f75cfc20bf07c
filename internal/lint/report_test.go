package lint

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"
)

func TestReportShape(t *testing.T) {
	root := t.TempDir()
	out, err := json.Marshal(NewReport(root, []*Analyzer{poolHygiene}, nil))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["findings"]) != "[]" {
		t.Errorf("empty report must serialize findings as [], got %s", m["findings"])
	}

	d := Diagnostic{
		Pos:      token.Position{Filename: filepath.Join(root, "internal", "x.go"), Line: 7, Column: 2},
		Analyzer: "pool-hygiene",
		Severity: SevWarn,
		Message:  "m",
	}
	r := NewReport(root, []*Analyzer{poolHygiene}, []Diagnostic{d})
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding, got %d", len(r.Findings))
	}
	f := r.Findings[0]
	if f.File != "internal/x.go" || f.Line != 7 || f.Col != 2 || f.Severity != "warn" {
		t.Errorf("finding not normalized: %+v", f)
	}
}
