package centrality_test

import (
	"math/rand"
	"testing"

	"promonet/internal/centrality"
	"promonet/internal/gen"
	"promonet/internal/graph"
	"promonet/internal/graph/csr"
)

// referenceSourceDep is the plain one-source Brandes dependency δ_s(t)
// on g plus the virtual edge (eu, ev): a complete forward pass, then a
// complete backward pass over every reached node. It is the oracle for
// Kernel.BrandesDep, which skips the parts of the backward pass δ_s(t)
// does not depend on and must still match this bit for bit (same row
// scan order, same virtual neighbour placed after the real row).
func referenceSourceDep(g graph.View, s, t int, eu, ev int32) float64 {
	n := g.N()
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]int32, n)
	for i := range dist {
		dist[i] = centrality.Unreachable
	}
	dist[s] = 0
	sigma[s] = 1
	visit := func(v, u int32) {
		if dist[u] == centrality.Unreachable {
			dist[u] = dist[v] + 1
		}
		if dist[u] == dist[v]+1 {
			sigma[u] += sigma[v]
			preds[u] = append(preds[u], v)
		}
	}
	var order []int32
	q := []int32{int32(s)}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		order = append(order, v)
		for _, u := range g.Adjacency(int(v)) {
			if dist[u] == centrality.Unreachable {
				q = append(q, u)
			}
			visit(v, u)
		}
		extra := int32(-1)
		if v == eu {
			extra = ev
		} else if v == ev {
			extra = eu
		}
		if extra >= 0 {
			if dist[extra] == centrality.Unreachable {
				q = append(q, extra)
			}
			visit(v, extra)
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		coeff := (1 + delta[w]) / sigma[w]
		for _, v := range preds[w] {
			delta[v] += sigma[v] * coeff
		}
	}
	if t == s {
		return 0
	}
	return delta[t]
}

// depHosts are BA, triadic-closure BA and disconnected ER hosts (the
// ER graph plus a separate path component and isolated nodes).
func depHosts(seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	tri := gen.BarabasiAlbert(rng, 50, 2)
	gen.TriadicClosure(rng, tri, 40)
	disc := gen.ErdosRenyi(rng, 35, 50)
	first := disc.AddNodes(8)
	for i := 0; i < 7; i++ {
		disc.AddEdge(first+i, first+i+1)
	}
	disc.AddNodes(3)
	return map[string]*graph.Graph{
		"ba":           gen.BarabasiAlbert(rng, 50, 3),
		"triadic-ba":   tri,
		"disconnected": disc,
	}
}

// views returns g under every backend the kernels scan: the adjacency
// map, a CSR snapshot, and an overlay with one edge added and one
// removed (so some rows come from the overlay, not the snapshot).
func views(g *graph.Graph) map[string]graph.View {
	o := csr.NewOverlay(csr.Freeze(g))
	n := g.N()
	for u := 0; u < n; u++ {
		if o.Degree(u) > 0 {
			o.RemoveEdge(u, int(o.Adjacency(u)[0]))
			break
		}
	}
	for v := 1; v < n; v++ {
		if o.AddEdge(0, v) {
			break
		}
	}
	return map[string]graph.View{"graph": g, "snapshot": csr.Freeze(g), "overlay": o}
}

// TestBrandesDepMatchesReference checks Kernel.BrandesDep against the
// full-pass oracle bitwise, for every source, on targets with and
// without a virtual edge, incident to it or elsewhere.
func TestBrandesDepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for name, h := range depHosts(seed) {
			for vname, g := range views(h) {
				rng := rand.New(rand.NewSource(seed))
				k := centrality.NewKernel()
				n := g.N()
				for pair := 0; pair < 12; pair++ {
					tgt := rng.Intn(n)
					eu, ev := int32(-1), int32(-1)
					if pair%4 != 0 { // every fourth pair runs on g as is
						u, v := tgt, rng.Intn(n)
						if pair%4 == 3 {
							u = rng.Intn(n) // a virtual edge away from the target
						}
						if u != v && !g.HasEdge(u, v) {
							eu, ev = int32(u), int32(v)
						}
					}
					for s := 0; s < n; s++ {
						got := k.BrandesDep(g, s, tgt, int(eu), int(ev))
						want := referenceSourceDep(g, s, tgt, eu, ev)
						if got != want {
							t.Fatalf("%s/%s seed %d: BrandesDep(s=%d, t=%d, edge=(%d,%d)) = %v, reference %v",
								name, vname, seed, s, tgt, eu, ev, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBrandesKernelsAllocFree checks that a warmed kernel runs Brandes
// and BrandesDep from every source without allocating, on every
// backend: all per-source scratch is reused, not regrown.
func TestBrandesKernelsAllocFree(t *testing.T) {
	h := gen.BarabasiAlbert(rand.New(rand.NewSource(5)), 200, 3)
	for vname, g := range views(h) {
		n := g.N()
		tgt, v := 7, n-1
		if g.HasEdge(tgt, v) {
			t.Fatalf("%s: fixture edge (%d, %d) already present", vname, tgt, v)
		}
		k := centrality.NewKernel()
		acc := k.Acc(n)
		pass := func() {
			for s := 0; s < n; s++ {
				k.Brandes(g, s, acc)
				k.BrandesDep(g, s, tgt, tgt, v)
				k.BrandesDep(g, s, tgt, -1, -1)
			}
		}
		pass() // warm-up: per-node predecessor lists reach their capacity
		if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
			t.Fatalf("%s: %v allocations per pass over %d sources, want 0", vname, allocs, n)
		}
	}
}
