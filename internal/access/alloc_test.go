package access

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestVisibilitySteadyStateAllocs pins the per-append cost of the
// visibility flood: once the arrival bitsets, announce slice and the
// simulator's event heap (which carries every in-flight hop) have grown
// past the measured window, one append-announce-drain cycle reuses all of
// it. Amortized slice growth is kept out of the window by warming up to
// just past a capacity doubling. A ring and a small-world graph cover
// both relay shapes: regular rows and rewired shortcuts, where most
// hops are dominated and elided at send time.
func TestVisibilitySteadyStateAllocs(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"ring":       topology.Ring(16, 2, 0.1),
		"smallworld": topology.WattsStrogatz(xrand.New(3, 3), 16, 2, 0.3, 0.1),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			s := sim.New()
			m := appendmem.New(16)
			v := NewVisibility(s, xrand.New(1, 1), g, topology.DelayModel{Kind: topology.DelayUniform}, m)
			parents := []appendmem.MsgID{appendmem.None}
			i := 0
			step := func() {
				msg := m.Writer(appendmem.NodeID(i%16)).MustAppend(1, 0, parents)
				parents[0] = msg.ID
				i++
				v.Sync()
				s.Run()
			}
			for i < 1100 {
				step()
			}

			allocs := testing.AllocsPerRun(100, step)
			if allocs > 0 {
				t.Errorf("warm visibility flood allocated %.2f times per append, want 0", allocs)
			}
			for id := 0; id < g.N(); id++ {
				if got := v.Prefix(appendmem.NodeID(id)); got != m.Len() {
					t.Fatalf("node %d prefix %d after quiescence, want %d", id, got, m.Len())
				}
			}
		})
	}
}

// TestVisibilitySyncIdempotentNoAllocs: Sync with nothing new must be a
// cheap no-op — it runs on every append site in the agreement loop.
func TestVisibilitySyncIdempotentNoAllocs(t *testing.T) {
	s := sim.New()
	g := topology.Ring(8, 1, 0.1)
	m := appendmem.New(8)
	v := NewVisibility(s, xrand.New(2, 2), g, topology.DelayModel{}, m)
	m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{appendmem.None})
	v.Sync()
	s.Run()

	allocs := testing.AllocsPerRun(100, v.Sync)
	if allocs != 0 {
		t.Errorf("idempotent Sync allocated %.2f times per call, want 0", allocs)
	}
}
