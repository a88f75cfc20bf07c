// Command promobench is the repository's benchmark: four workloads that
// cover promod serving and the paper's offline pipeline, each reported
// as end-to-end metrics, or, with -trace 1, as per-layer metrics from a
// traced in-process run. See bench/README.md for the workloads, the
// metrics and how to compare two commits.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --seed 1                        # every workload, end to end
//	bash bench/run.sh --workload serve-tail --seed 7 --seconds 20
//	bash bench/run.sh --workload serve-hot --seed 1 --trace 1
//
// Each workload prints an environment line and then one JSON result line
// on stdout: {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero when an answer fails validation or a workload cannot
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

func run(args []string) int {
	fs := flag.NewFlagSet("promobench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of the hosts, request streams and jobs")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "all" {
		return runEach(*seed, *seconds, *trace)
	}
	p, err := newPlan(*workload, *seed, *seconds, connections(), false)
	if err != nil {
		return fail(err)
	}
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	var bin string
	if *trace == 0 && p.serving() {
		if bin, err = buildPromod(root, filepath.Join(root, buildDir)); err != nil {
			return fail(err)
		}
	}
	rep, err := runWorkload(p, root, bin, *trace == 1)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", p.workload, err))
	}
	if err := rep.write(); err != nil {
		return fail(err)
	}
	return rep.exitCode()
}

// runEach runs every workload in a process of its own, so that no
// workload's caches, heap or peak RSS carry over into another's.
func runEach(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "promobench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "promobench:", err)
	return 1
}

// connections is how many HTTP connections, and so concurrent requests,
// the load generator uses: two, or fewer on a machine with fewer cores.
func connections() int { return min(2, runtime.NumCPU()) }

// runWorkload builds the workload's host, records the environment and
// runs the workload end to end, or traced.
func runWorkload(p plan, root, bin string, traced bool) (*report, error) {
	if traced {
		return runTraced(p, root, filepath.Join(root, buildDir))
	}
	if !p.serving() {
		g := p.host()
		printEnv(p, root, g.N(), g.M())
		return runOffline(p)
	}
	v := newValidator(p)
	defer v.eng.Close()
	printEnv(p, root, v.snap.N(), v.snap.M())
	return runServe(p, bin, v)
}

// printEnv records, on stdout ahead of the result line, what a result
// depends on besides the code.
func printEnv(p plan, root string, n, m int) {
	// Only ask git inside a clone: elsewhere it would search the parent
	// directories, outside the tree being measured.
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	line, _ := json.Marshal(map[string]any{"env": map[string]any{
		"workload": p.workload, "seed": p.seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "host_n": n, "host_m": m, "connections": p.conns,
	}})
	fmt.Println(string(line))
}
