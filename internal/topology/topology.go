// Package topology provides the network graphs the topology trials flood
// appends over: deterministic, seed-driven generators for the standard
// families (complete, ring lattice, grid, Watts–Strogatz small-world,
// Barabási–Albert scale-free) plus an explicit latency-table loader, and
// the per-link delay distributions (fixed, uniform, long-tail) that turn a
// link's base latency into one sampled transmission delay.
//
// The paper's delivery assumption — every append reaches every node within
// one uniform bound Δ — is the *complete* graph under the Δ-bounded oracle.
// Everything else in this package exists to relax that assumption the way
// DAG-Sword (arXiv:2311.04638) and TangleSim (arXiv:2305.01232) do: large
// sparse topologies, heterogeneous per-link latencies, and hop-by-hop relay,
// so experiments can ask where the chain-vs-DAG separation bends when
// propagation is non-uniform.
//
// Graphs are immutable after construction and value-typed inside: one CSR
// adjacency (offsets/targets/latencies in three flat slices, both
// directions materialized), no per-node maps or pointer chasing, so
// neighbor iteration in the visibility flood's hot loop is a contiguous
// scan and a built Graph is safe to share read-only across concurrent
// trials. The complete graph stays implicit (O(1) memory) — neighbor
// iteration synthesizes the full fan-out, which keeps 10k+-node complete
// topologies free of their O(n²) edge lists.
//
// Determinism contract: a generator is a pure function of its parameters
// and the rng handed to it; adjacency lists are sorted by neighbor id, so
// equal seeds yield byte-identical graphs and every traversal order
// downstream is reproducible.
package topology

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted network: nodes [0, n) and per-link base
// latencies. The zero value is not usable; build graphs with the
// generators or FromTable.
type Graph struct {
	n        int
	complete bool    // implicit complete graph; adjacency slices are nil
	lat      float64 // uniform base latency of the implicit complete graph

	// CSR adjacency, both directions: node i's neighbors are
	// targets[offsets[i]:offsets[i+1]] with latencies lats at the same
	// indexes, sorted by neighbor id.
	offsets []int32
	targets []int32
	lats    []float64
}

// edge is one undirected link during construction, u < v.
type edge struct {
	u, v int32
	lat  float64
}

// build assembles the CSR adjacency from undirected edges. Edges must be
// deduplicated by the caller; both directions are materialized and each
// adjacency list is sorted by neighbor id, so iteration order is a pure
// function of the edge set.
func build(n int, edges []edge) *Graph {
	g := &Graph{n: n, offsets: make([]int32, n+1)}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	for i := 0; i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + deg[i]
	}
	m := int(g.offsets[n])
	g.targets = make([]int32, m)
	g.lats = make([]float64, m)
	fill := make([]int32, n)
	put := func(from, to int32, lat float64) {
		idx := g.offsets[from] + fill[from]
		g.targets[idx] = to
		g.lats[idx] = lat
		fill[from]++
	}
	for _, e := range edges {
		put(e.u, e.v, e.lat)
		put(e.v, e.u, e.lat)
	}
	for i := 0; i < n; i++ {
		lo, hi := g.offsets[i], g.offsets[i+1]
		ts, ls := g.targets[lo:hi], g.lats[lo:hi]
		sort.Sort(&adjSort{ts, ls})
	}
	return g
}

// adjSort sorts one adjacency list by neighbor id, carrying latencies.
type adjSort struct {
	ts []int32
	ls []float64
}

func (a *adjSort) Len() int           { return len(a.ts) }
func (a *adjSort) Less(i, j int) bool { return a.ts[i] < a.ts[j] }
func (a *adjSort) Swap(i, j int) {
	a.ts[i], a.ts[j] = a.ts[j], a.ts[i]
	a.ls[i], a.ls[j] = a.ls[j], a.ls[i]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// IsComplete reports whether the graph is the implicit complete graph.
func (g *Graph) IsComplete() bool { return g.complete }

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int {
	if g.complete {
		return g.n * (g.n - 1) / 2
	}
	return len(g.targets) / 2
}

// Degree returns the number of links at node i.
func (g *Graph) Degree(i int) int {
	if g.complete {
		return g.n - 1
	}
	return int(g.offsets[i+1] - g.offsets[i])
}

// Neighbors calls yield for every neighbor of node i in ascending id order
// with the link's base latency, stopping early when yield returns false.
// It allocates nothing.
func (g *Graph) Neighbors(i int, yield func(j int, lat float64) bool) {
	if g.complete {
		for j := 0; j < g.n; j++ {
			if j == i {
				continue
			}
			if !yield(j, g.lat) {
				return
			}
		}
		return
	}
	lo, hi := g.offsets[i], g.offsets[i+1]
	for k := lo; k < hi; k++ {
		if !yield(int(g.targets[k]), g.lats[k]) {
			return
		}
	}
}

// Adj returns node i's CSR adjacency row — neighbor ids and their base
// latencies, ascending by neighbor id — for batch iteration without a
// per-neighbor callback (the visibility flood's relay loop). The slices alias
// the graph's storage and must be treated as read-only. Complete graphs
// keep their adjacency implicit and return nil slices; callers fall
// back to Neighbors, which synthesizes the fan-out.
func (g *Graph) Adj(i int) ([]int32, []float64) {
	if g.complete {
		return nil, nil
	}
	lo, hi := g.offsets[i], g.offsets[i+1]
	return g.targets[lo:hi], g.lats[lo:hi]
}

// Edges calls yield once per undirected link (u < v) with its base
// latency, stopping early when yield returns false.
func (g *Graph) Edges(yield func(u, v int, lat float64) bool) {
	if g.complete {
		for u := 0; u < g.n; u++ {
			for v := u + 1; v < g.n; v++ {
				if !yield(u, v, g.lat) {
					return
				}
			}
		}
		return
	}
	for u := 0; u < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for k := lo; k < hi; k++ {
			if v := int(g.targets[k]); v > u {
				if !yield(u, v, g.lats[k]) {
					return
				}
			}
		}
	}
}

// Link returns the base latency of the link between u and v, and whether
// the link exists.
func (g *Graph) Link(u, v int) (float64, bool) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return 0, false
	}
	if g.complete {
		return g.lat, true
	}
	lo, hi := g.offsets[u], g.offsets[u+1]
	ts := g.targets[lo:hi]
	k := sort.Search(len(ts), func(i int) bool { return ts[i] >= int32(v) })
	if k < len(ts) && ts[k] == int32(v) {
		return g.lats[lo+int32(k)], true
	}
	return 0, false
}

// MinLatency returns the smallest base link latency, or 0 for a graph
// with no links.
func (g *Graph) MinLatency() float64 {
	if g.complete {
		return g.lat
	}
	min := 0.0
	for i, l := range g.lats {
		if i == 0 || l < min {
			min = l
		}
	}
	return min
}

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if g.complete || g.n <= 1 {
		return g.n > 0
	}
	seen := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	seen[0] = true
	queue = append(queue, 0)
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for k := g.offsets[u]; k < g.offsets[u+1]; k++ {
			if v := g.targets[k]; !seen[v] {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	return reached == g.n
}

// HopDiameter returns the largest hop-count distance between any two
// nodes, or -1 when the graph is disconnected. O(n·m) BFS; intended for
// inspection and tests, not hot paths.
func (g *Graph) HopDiameter() int {
	if g.n <= 1 {
		return 0
	}
	if g.complete {
		return 1
	}
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	diam := 0
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		reached := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for k := g.offsets[u]; k < g.offsets[u+1]; k++ {
				if v := g.targets[k]; dist[v] < 0 {
					dist[v] = dist[u] + 1
					reached++
					if int(dist[v]) > diam {
						diam = int(dist[v])
					}
					queue = append(queue, v)
				}
			}
		}
		if reached != g.n {
			return -1
		}
	}
	return diam
}

// validate panics on non-positive shape parameters shared by every
// generator; the scenario layer validates earlier and returns errors.
func validate(n int, lat float64) {
	if n <= 0 {
		panic(fmt.Sprintf("topology: non-positive n=%d", n))
	}
	if lat <= 0 {
		panic(fmt.Sprintf("topology: non-positive link latency %v", lat))
	}
}

// Complete returns the complete graph on n nodes with uniform base link
// latency lat, kept implicit (O(1) memory).
func Complete(n int, lat float64) *Graph {
	validate(n, lat)
	return &Graph{n: n, complete: true, lat: lat}
}

// Ring returns the ring lattice: node i linked to its k nearest neighbors
// on each side (2k total). Requires 1 <= k and 2k < n.
func Ring(n, k int, lat float64) *Graph {
	validate(n, lat)
	if k < 1 || 2*k >= n {
		panic(fmt.Sprintf("topology: ring needs 1 <= k and 2k < n, got n=%d k=%d", n, k))
	}
	edges := make([]edge, 0, n*k)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			j := (i + d) % n
			u, v := int32(i), int32(j)
			if u > v {
				u, v = v, u
			}
			edges = append(edges, edge{u, v, lat})
		}
	}
	return build(n, edges)
}

// Grid returns the cols-wide 2D lattice on n nodes (4-neighborhood, last
// row possibly partial). Requires cols >= 1.
func Grid(n, cols int, lat float64) *Graph {
	validate(n, lat)
	if cols < 1 {
		panic(fmt.Sprintf("topology: grid needs cols >= 1, got %d", cols))
	}
	var edges []edge
	for i := 0; i < n; i++ {
		if (i+1)%cols != 0 && i+1 < n { // right neighbor
			edges = append(edges, edge{int32(i), int32(i + 1), lat})
		}
		if i+cols < n { // down neighbor
			edges = append(edges, edge{int32(i), int32(i + cols), lat})
		}
	}
	return build(n, edges)
}
