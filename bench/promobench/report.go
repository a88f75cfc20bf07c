package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run: the driver-facing JSON line
// plus the answers that failed validation.
type report struct {
	attempted, failed int
	// wrong counts answers that arrived but failed validation; any makes
	// the run incorrect, unlike a refused or late request, which only
	// fails.
	wrong   int
	errs    []string
	metrics map[string]metric
}

// attempt records one operation: delivered reports whether an answer
// arrived at all, err whether it failed validation.
func (r *report) attempt(delivered bool, err error, what string) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if delivered {
		r.wrong++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) metric(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// okRatio is the share of attempted operations that succeeded: the
// ok_ratio metric, which unlike failed/attempted is never 0.
func (r *report) okRatio() float64 {
	return float64(r.attempted-r.failed) / float64(max(1, r.attempted))
}

// correct reports whether every delivered answer was valid.
func (r *report) correct() bool { return r.wrong == 0 }

// exitCode is the command's exit status for this report: non-zero when
// an answer failed validation.
func (r *report) exitCode() int {
	if r.correct() {
		return 0
	}
	return 1
}

// write prints the failures on stderr and the result line on stdout.
func (r *report) write() error {
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "invalid:", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
