// Command amdot runs one protocol execution and dumps the resulting
// append-memory structure (chain tree or BlockDAG) as Graphviz DOT on
// stdout — Byzantine blocks in red, the decision prefix bold. With
// -topology it instead emits the generated network graph itself, so
// scenario topologies can be inspected before running anything. DOT
// output is refused above -dot-max-nodes (Graphviz layouts of 10k+-node
// graphs are unreadable and take minutes); use -stats there instead,
// which prints the graph's shape — size, degree distribution, hop
// diameter — without rendering it.
//
// Examples:
//
//	amdot -protocol chain -n 8 -t 3 -lambda 0.5 -k 15 -attack fork | dot -Tsvg > run.svg
//	amdot -protocol dag -n 8 -t 2 -lambda 1 -k 15 -attack private-chain
//	amdot -topology smallworld -n 16 -topology-params k=2,beta=0.3 | dot -Tsvg > net.svg
//	amdot -topology scalefree -n 10000 -topology-params m=3 -stats
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"

	"repro/internal/dotviz"
	"repro/internal/scenario"
	"repro/internal/topology"
)

func main() {
	var (
		protocol   = flag.String("protocol", "dag", "chain | dag")
		n          = flag.Int("n", 8, "total nodes")
		t          = flag.Int("t", 2, "Byzantine nodes")
		lambda     = flag.Float64("lambda", 0.5, "token rate per node per Δ")
		k          = flag.Int("k", 15, "decision threshold")
		attack     = flag.String("attack", "silent", "Byzantine strategy (see amrun -h)")
		seed       = flag.Uint64("seed", 1, "seed")
		topo       = flag.String("topology", "", "emit this network topology as DOT instead of a run: "+scenario.Topologies.Help())
		topoParams = flag.String("topology-params", "", "topology generator parameters as k=v,k=v (e.g. k=2,beta=0.3)")
		linkDelay  = flag.Float64("link-delay", 0, "base per-link latency in Δ (0 = default 0.5)")
		stats      = flag.Bool("stats", false, "with -topology: print graph statistics instead of DOT")
		dotMax     = flag.Int("dot-max-nodes", 1024, "refuse DOT output for topologies above this many nodes")
	)
	flag.Parse()

	if *topo != "" {
		if _, ok := scenario.Topologies.Lookup(*topo); !ok {
			fatal(fmt.Errorf("unknown topology %q (have %s)", *topo, scenario.Topologies.Help()))
		}
		params, err := scenario.ParseTopologyParams(*topoParams)
		if err != nil {
			fatal(err)
		}
		g, err := scenario.BuildTopology(scenario.Spec{
			N: *n, Seed: *seed,
			Topology:       scenario.Topology(*topo),
			TopologyParams: params,
			LinkDelay:      *linkDelay,
		})
		if err != nil {
			fatal(err)
		}
		if *stats {
			printTopologyStats(g, *topo)
			return
		}
		if g.N() > *dotMax {
			fatal(fmt.Errorf("topology has %d nodes, above the %d-node DOT limit — a Graphviz layout at this scale is unusable; use -stats for a structural summary (or raise -dot-max-nodes)", g.N(), *dotMax))
		}
		fmt.Print(dotviz.Topology(g, *topo))
		return
	}

	if *stats {
		fatal(fmt.Errorf("-stats requires -topology"))
	}

	if *protocol != "chain" && *protocol != "dag" {
		fatal(fmt.Errorf("-protocol must be chain or dag"))
	}

	b, err := scenario.Bind(scenario.Spec{
		Protocol: scenario.Protocol(*protocol),
		N:        *n, T: *t, Lambda: *lambda, K: *k,
		Attack: scenario.Attack(*attack), Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	r, err := b.Run(*seed)
	if err != nil {
		fatal(err)
	}
	opts := dotviz.Options{IsByzantine: r.Roster.IsByzantine, K: *k}
	if *protocol == "chain" {
		fmt.Print(dotviz.Chain(r.FinalView, opts))
	} else {
		fmt.Print(dotviz.Dag(r.FinalView, opts))
	}
}

// printTopologyStats summarizes a generated graph without rendering it:
// size, degree spread, a power-of-two degree histogram (the shape that
// separates rings from scale-free hubs at a glance), and the hop
// diameter. This is the inspection path for graphs too large for DOT.
func printTopologyStats(g *topology.Graph, name string) {
	n := g.N()
	minDeg, maxDeg, total := n, 0, 0
	// Histogram bucket i counts nodes with degree in [2^i, 2^(i+1)).
	var hist [32]int
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		total += d
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
		hist[bits.Len(uint(d))]++
	}
	fmt.Printf("topology:     %s\n", name)
	fmt.Printf("nodes:        %d\n", n)
	fmt.Printf("links:        %d\n", g.NumEdges())
	fmt.Printf("degree:       min %d / mean %.2f / max %d\n", minDeg, float64(total)/float64(n), maxDeg)
	fmt.Printf("degree histogram:\n")
	for i, c := range hist {
		if c == 0 {
			continue
		}
		lo := 0
		if i > 0 {
			lo = 1 << (i - 1)
		}
		hi := 1<<i - 1
		if lo == hi {
			fmt.Printf("  %7d       %6d nodes\n", lo, c)
		} else {
			fmt.Printf("  %4d-%-4d     %6d nodes\n", lo, hi, c)
		}
	}
	fmt.Printf("hop diameter: %d\n", g.HopDiameter())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amdot:", err)
	os.Exit(1)
}
