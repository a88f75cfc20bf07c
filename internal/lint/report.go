package lint

import "path/filepath"

// Report is the machine-readable form of one promolint run, emitted by
// the -json flag and archived as a CI artifact. Paths are
// module-relative so reports diff cleanly across checkouts.
type Report struct {
	// Analyzers names every analyzer that ran, in suite order.
	Analyzers []string `json:"analyzers"`
	// Findings are the diagnostics that survived allow annotations,
	// sorted by position.
	Findings []ReportFinding `json:"findings"`
}

// ReportFinding is one finding in a Report.
type ReportFinding struct {
	File     string   `json:"file"` // module-relative, slash-separated
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// NewReport assembles a Report from a run's surviving diagnostics,
// relativizing paths against moduleRoot.
func NewReport(moduleRoot string, analyzers []*Analyzer, diags []Diagnostic) *Report {
	r := &Report{Findings: []ReportFinding{}}
	for _, a := range analyzers {
		r.Analyzers = append(r.Analyzers, a.Name)
	}
	for _, d := range diags {
		file := filepath.ToSlash(d.Pos.Filename)
		if rel, err := filepath.Rel(moduleRoot, d.Pos.Filename); err == nil {
			file = filepath.ToSlash(rel)
		}
		r.Findings = append(r.Findings, ReportFinding{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Severity: d.Severity,
			Message:  d.Message,
		})
	}
	return r
}
