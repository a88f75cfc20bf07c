package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildPromod compiles cmd/promod from the module rooted at root into
// dir and returns the binary's path.
func buildPromod(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "promod"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/promod")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/promod: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running promod process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string        // API host:port
	debugAddr string        // /debug/vars host:port
	stderr    chan struct{} // closed when the stderr reader is done
	log       *tailBuffer

	waitOnce sync.Once
	waitErr  error
}

// startupTimeout bounds how long a daemon may take to announce its
// listener, host generation included.
const startupTimeout = 60 * time.Second

// startDaemon runs promod on a generated host and waits until it
// announces its listening address.
func startDaemon(bin, genSpec string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-gen-ba", genSpec)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{}), log: &tailBuffer{}}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.stderr)
		sc := bufio.NewScanner(pipe)
		var debug string
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if rest, ok := strings.CutPrefix(line, "promod: debug endpoints at http://"); ok {
				debug = strings.TrimSuffix(rest, "/debug/")
			}
			if rest, ok := strings.CutPrefix(line, "promod: listening on "); ok {
				addrs <- [2]string{rest, debug}
			}
		}
		// Drain anything the scanner refused, so the daemon never blocks
		// on a full stderr pipe.
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addrs:
		d.addr, d.debugAddr = a[0], a[1]
		return d, nil
	case <-d.stderr:
		err = errors.New("promod exited before listening")
	case <-time.After(startupTimeout):
		err = errors.New("promod did not start listening in time")
	}
	d.kill()
	return nil, fmt.Errorf("%v:\n%s", err, d.log)
}

// cpuSeconds returns process pid's user plus system CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start with the
	// state; utime and stime are the 12th and 13th of them, in clock
	// ticks of 1/100 s.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return (utime + stime) / 100, nil
}

// stop asks the daemon to drain and exit, and waits for it; a daemon that
// does not exit in time is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- d.wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("promod did not exit after SIGTERM")
	}
}

// kill ends the daemon at once, if it is still running, and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.wait()
}

// wait reaps the process after its stderr reader has finished; it may be
// called any number of times.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() {
		<-d.stderr
		d.waitErr = d.cmd.Wait()
	})
	return d.waitErr
}

// vars fetches the daemon's expvar "promonet" map from /debug/vars.
func (d *daemon) vars() (map[string]json.RawMessage, error) {
	resp, err := http.Get("http://" + d.debugAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all struct {
		Promonet map[string]json.RawMessage `json:"promonet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return all.Promonet, nil
}

// counter reads one numeric expvar, 0 when absent.
func counter(vars map[string]json.RawMessage, name string) float64 {
	v, _ := strconv.ParseFloat(string(vars[name]), 64)
	return v
}

// hist reads a histogram expvar's observation count and summed
// nanoseconds.
func hist(vars map[string]json.RawMessage, name string) (count, sumNs float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum_ns"`
	}
	_ = json.Unmarshal(vars[name], &h)
	return h.Count, h.Sum
}

// statusMB reads a memory field of process pid's /proc status, such as
// VmRSS or VmHWM, in MB.
func statusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is how often an rssSampler reads the resident set size.
const rssEvery = 100 * time.Millisecond

// rssSampler reads a process's resident set size (VmRSS) every rssEvery
// until stopped.
type rssSampler struct {
	stop    chan struct{}
	samples chan []float64
}

// sampleRSS starts sampling process pid.
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var mbs []float64
		for {
			if mb, err := statusMB(pid, "VmRSS"); err == nil {
				mbs = append(mbs, mb)
			}
			select {
			case <-s.stop:
				s.samples <- mbs
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median of its samples, in MB.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	mbs := <-s.samples
	if len(mbs) == 0 {
		return 0, errors.New("no VmRSS sample read")
	}
	return median(mbs), nil
}

// tailBuffer keeps the last lines of a daemon's stderr for error reports.
// Only the stderr reader goroutine writes it, and readers look only after
// that goroutine has exited.
type tailBuffer struct{ lines []string }

func (t *tailBuffer) add(line string) {
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string { return strings.Join(t.lines, "\n") }
