package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"promonet/internal/gen"
	"promonet/internal/graph"
)

// Workload names, in the order a run of every workload visits them.
const (
	serveHot     = "serve-hot"
	serveTail    = "serve-tail"
	serveSweep   = "serve-sweep"
	offlinePaper = "offline-paper"
)

var workloads = []string{serveHot, serveTail, serveSweep, offlinePaper}

// allMeasures are the seven measures promod serves.
var allMeasures = []string{"betweenness", "closeness", "coreness", "degree", "eccentricity", "harmonic", "katz"}

// paperMeasures are the paper's four headline measures, promoted by
// every offline-paper job.
var paperMeasures = []string{"betweenness", "coreness", "closeness", "eccentricity"}

// plan is one workload's configuration, derived from the workload name,
// the seed and the run length. Everything random in a run — the host and
// every request or job — is a pure function of the plan.
type plan struct {
	workload string
	seed     int64
	// hostSeed drives the Barabási–Albert generator; promod receives it
	// through -gen-ba, so the daemon and the validator build the same host.
	hostSeed int64
	n, k     int
	// triadic adds that many triadic-closure edges after generation (the
	// bench_test.go benchHost recipe); offline-paper only.
	triadic int

	// rate is the open loop's Poisson arrival rate per second. The open
	// loop follows an untimed warm-up at the same rate. offline-paper has
	// no open loop; its rate paces only the traced run's loopback window.
	rate           float64
	warmup, window time.Duration
	// batch: serve-sweep's batch client sends exact requests back to back
	// on one connection for the whole window, beside the open loop on the
	// rest, and the exact answers are the workload's measured class.
	// Exact requests inside the open loop queued behind each other, which
	// spread their p99 over 0.3–0.55 of its median across seeds. Without
	// the open loop beside it, the batch client's p50 was slower and
	// spread 0.22 of its median across runs, against 0.08 with it, in
	// runs alternating on one machine: the open loop keeps both cores
	// from going idle between exact requests.
	batch bool
	// reload: serve-hot swaps in a reloaded snapshot after the window. Its
	// stall after the swap lasted 38–115 ms across seeds, too unsteady to
	// gate on inside the timed window.
	reload bool
	// measures are the measures the workload's requests ask for. Set-up
	// ends at the first valid answer for each, and the validator checks
	// their values.
	measures []string
	conns    int
	drain    time.Duration // requests still pending this long after a phase fail
	// tailPct is the percentile tail_ms reports: the highest one with at
	// least minBeyond samples above it that repeated across seeds.
	tailPct float64
	toy     bool // the package tests' scale
}

// newPlan derives a workload's plan. toy shrinks hosts and phases to the
// scale the package tests run at.
func newPlan(workload string, seed int64, seconds float64, conns int, toy bool) (plan, error) {
	p := plan{
		workload: workload,
		seed:     seed,
		hostSeed: int64(mix(uint64(seed)^0x686f7374) >> 1),
		conns:    conns,
		drain:    2 * time.Second,
		warmup:   time.Second,
		window:   time.Duration(seconds * float64(time.Second)),
		tailPct:  90,
		toy:      toy,
	}
	if toy {
		p.warmup, p.drain = 200*time.Millisecond, time.Second
	}
	switch workload {
	case serveHot, serveTail:
		p.n, p.k = 200_000, 10
		if toy {
			p.n = 2000
		}
		p.measures = []string{"coreness", "degree"}
		p.rate, p.reload = 2000, true
		if workload == serveTail {
			// At 4000 requests/s the 4096-entry cache turns over about once
			// a second, so its stalls reach p99 on every seed.
			p.rate, p.reload, p.tailPct = 4000, false, 99
		}
	case serveSweep:
		p.n, p.k = 500, 10
		if toy {
			p.n = 300
		}
		p.rate, p.batch = 300, true
		p.measures = allMeasures
	case offlinePaper:
		p.n, p.k, p.triadic = 500, 4, 250
		if toy {
			p.n, p.triadic = 200, 100
		}
		p.rate, p.warmup = 200, 0
		p.measures = paperMeasures
	default:
		return plan{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return p, nil
}

// serving reports whether the workload drives a promod daemon.
func (p plan) serving() bool { return p.workload != offlinePaper }

// genSpec is the -gen-ba argument that makes promod build this host.
func (p plan) genSpec() string { return fmt.Sprintf("%d,%d,%d", p.n, p.k, p.hostSeed) }

// host builds the workload's host graph exactly as promod's BASource does
// (plus triadic closure on offline-paper).
func (p plan) host() *graph.Graph { return p.hostWithSeed(p.hostSeed) }

func (p plan) hostWithSeed(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.BarabasiAlbert(rng, p.n, p.k)
	if p.triadic > 0 {
		gen.TriadicClosure(rng, g, p.triadic)
	}
	return g
}

// --- seeded streams ---

// mix is splitmix64's finalizer: it spreads (seed, index) into
// independent-looking bits, so that op i of a stream is a pure function
// of the seed and i, whatever order the generator claims ops in.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a tiny splitmix64 generator; the zero value is usable.
type rng struct{ s uint64 }

// rngAt returns the generator for element i of the stream named salt.
func rngAt(seed int64, salt uint64, i int) rng {
	return rng{s: mix(uint64(seed)^salt) ^ mix(uint64(i)*0x2545f4914f6cdd1d)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Stream salts.
const (
	saltOps     = 0x6f7073
	saltArrival = 0x617272
	saltJobs    = 0x6a6f6273
	saltSample  = 0x73616d70
)

// Op index ranges: the open loop, the warm-up, serve-sweep's batch
// client and the traced run's loopback window each draw their own ops,
// so the warm-up never pre-answers a timed request.
const (
	firstOpen   = 0
	firstWarmup = 1 << 32
	firstBatch  = 1 << 33
	firstTraced = 1 << 34
)

// opKind is the HTTP operation an op performs.
type opKind int

const (
	opPromote opKind = iota
	opScores
	opReload
)

// op is one HTTP request of a serving workload, with the parameters the
// validator checks the answer against.
type op struct {
	due     time.Duration // open loop: when it is due, from the start of the loop
	kind    opKind
	measure string
	target  int
	size    int
	exact   bool
	labels  []int
	method  string
	path    string
	body    []byte
}

// hotTargets is how many of the oldest BA nodes (the hubs) serve-hot's
// keys promote: × {degree, coreness} × p ∈ {4, 8} makes 256 keys.
const hotTargets = 64

// opAt returns op i of the workload's request stream. offline-paper's
// stream is the promotions its jobs make, as promod requests.
func (p plan) opAt(i int) op {
	r := rngAt(p.seed, saltOps, i)
	switch p.workload {
	case serveHot:
		key := r.intn(hotTargets * 4)
		return promoteOp(key/4, []string{"degree", "coreness"}[key%2], []int{4, 8}[key/2%2], false)
	case serveTail:
		measure := []string{"degree", "coreness"}[r.intn(2)]
		if r.intn(10) == 0 {
			labels := make([]int, 8)
			for j := range labels {
				labels[j] = r.intn(p.n)
			}
			return scoresOp(measure, labels)
		}
		return promoteOp(r.intn(p.n), measure, 2+r.intn(15), false)
	case serveSweep:
		return promoteOp(r.intn(p.n), allMeasures[r.intn(len(allMeasures))], 2+r.intn(15), false)
	default: // offlinePaper
		return promoteOp(p.distinctTarget(1+i/len(paperMeasures)), paperMeasures[i%len(paperMeasures)], jobSize, false)
	}
}

// batchOp returns exact request i of serve-sweep's batch client: a
// seeded walk over the targets, a third each betweenness, closeness and
// eccentricity, at p ∈ {4, 8, 16}. Brandes takes about twice as long as
// a BFS sweep, so the thirds keep the median inside the BFS sweeps and
// p90 inside Brandes; with half betweenness the median sat on the edge
// between the two.
func (p plan) batchOp(i int) op {
	measure := []string{"betweenness", "closeness", "eccentricity"}[i%3]
	return promoteOp(p.distinctTarget(i), measure, []int{4, 8, 16}[i/3%3], true)
}

// schedule returns the open-loop stream: Poisson arrivals at p.rate over
// d, op i drawn by opAt(first+i).
func (p plan) schedule(first int, d time.Duration) []op {
	arr := rngAt(p.seed, saltArrival, first)
	var ops []op
	var t float64
	for i := first; ; i++ {
		t += -math.Log(1-arr.float()) / p.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := p.opAt(i)
		o.due = due
		ops = append(ops, o)
	}
}

// reloadOp is the admin request that swaps in a freshly loaded snapshot.
var reloadOp = op{kind: opReload, method: "POST", path: "/admin/reload"}

func promoteOp(target int, measure string, size int, exact bool) op {
	b := make([]byte, 0, 80)
	b = append(b, `{"target":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	b = append(b, `,"measure":"`...)
	b = append(b, measure...)
	b = append(b, `","size":`...)
	b = strconv.AppendInt(b, int64(size), 10)
	if exact {
		b = append(b, `,"exact":true`...)
	}
	b = append(b, '}')
	return op{kind: opPromote, measure: measure, target: target, size: size, exact: exact,
		method: "POST", path: "/v1/promote", body: b}
}

func scoresOp(measure string, labels []int) op {
	b := make([]byte, 0, 96)
	b = append(b, "/v1/scores?measure="...)
	b = append(b, measure...)
	b = append(b, "&labels="...)
	for j, l := range labels {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return op{kind: opScores, measure: measure, labels: labels, method: "GET", path: string(b)}
}

// distinctTarget is the promotion target of offline-paper job i, or of
// serve-sweep's exact request i: a seeded affine walk over the node IDs,
// so the first n promote distinct targets and none is answered from
// another's cache.
func (p plan) distinctTarget(i int) int {
	r := rngAt(p.seed, saltJobs, 0)
	step := 1 + r.intn(p.n-1)
	for gcd(step, p.n) != 1 {
		step++
	}
	return (r.intn(p.n) + i*step) % p.n
}

// jobSeed seeds job i's greedy candidate sample.
func (p plan) jobSeed(i int) int64 { return int64(mix(uint64(p.seed)^saltJobs^uint64(i)) >> 1) }

// sampled reports whether answer i is in the seeded 1-in-every sample
// whose values the validator checks exactly.
func (p plan) sampled(i, every int) bool {
	r := rngAt(p.seed, saltSample, i)
	return r.intn(every) == 0
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
