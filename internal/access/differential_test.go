package access

import (
	"math"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// refVisibility is the two-queue flood Visibility replaced: every hop is
// booked twice, as a value in its own (at, seq) heap and as a simulator
// event that pops it, relays skip the inbound neighbor explicitly, and no
// hop is elided. It is kept as the reference the one-event-per-hop flood
// with dominated-hop elision must match bit for bit.
type refVisibility struct {
	s   *sim.Sim
	rng *xrand.PCG
	g   *topology.Graph
	dm  topology.DelayModel
	mem *appendmem.Memory
	eps sim.Time

	announced int
	announce  []float64
	arrived   [][]uint64
	prefix    []int

	hops []refHop
	hseq uint64
	tick func()

	totalLag   float64
	deliveries int
}

type refHop struct {
	at       sim.Time
	seq      uint64
	msg      int32
	to, from int32
}

func (h *refHop) before(o *refHop) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	return h.seq < o.seq
}

func newRefVisibility(s *sim.Sim, rng *xrand.PCG, g *topology.Graph, dm topology.DelayModel, mem *appendmem.Memory) *refVisibility {
	eps := sim.Time(g.MinLatency() / 1e9)
	if eps <= 0 {
		eps = 1e-9
	}
	v := &refVisibility{s: s, rng: rng, g: g, dm: dm, mem: mem, eps: eps,
		arrived: make([][]uint64, g.N()), prefix: make([]int, g.N())}
	v.tick = v.drain
	return v
}

func (v *refVisibility) Sync() {
	n := v.mem.Len()
	if n == v.announced {
		return
	}
	now := float64(v.s.Now())
	words := (n + 63) / 64
	for id := range v.arrived {
		for len(v.arrived[id]) < words {
			v.arrived[id] = append(v.arrived[id], 0)
		}
	}
	for i := v.announced; i < n; i++ {
		v.announce = append(v.announce, now)
		author := int(v.mem.Message(appendmem.MsgID(i)).Author)
		bitSet(v.arrived[author], i)
		v.advancePrefix(author)
		v.relayFrom(int32(i), author, -1)
	}
	v.announced = n
}

func (v *refVisibility) advancePrefix(node int) {
	for v.prefix[node] < len(v.announce) && bitGet(v.arrived[node], v.prefix[node]) {
		v.prefix[node]++
	}
}

func (v *refVisibility) relayFrom(msg int32, node int, inbound int32) {
	v.g.Neighbors(node, func(j int, lat float64) bool {
		if int32(j) == inbound {
			return true
		}
		if bitGet(v.arrived[j], int(msg)) {
			return true
		}
		delay := sim.Time(v.dm.Sample(lat, v.rng))
		if delay <= 0 {
			delay = v.eps
		}
		v.hseq++
		v.push(refHop{at: v.s.Now() + delay, seq: v.hseq, msg: msg, to: int32(j), from: int32(node)})
		v.s.After(delay, v.tick)
		return true
	})
}

func (v *refVisibility) drain() {
	h := v.pop()
	node := int(h.to)
	if bitGet(v.arrived[node], int(h.msg)) {
		return
	}
	bitSet(v.arrived[node], int(h.msg))
	v.advancePrefix(node)
	v.totalLag += float64(v.s.Now()) - v.announce[h.msg]
	v.deliveries++
	v.relayFrom(h.msg, node, h.from)
}

func (v *refVisibility) MeanLag() float64 {
	if v.deliveries == 0 {
		return 0
	}
	return v.totalLag / float64(v.deliveries)
}

func (v *refVisibility) push(h refHop) {
	hs := append(v.hops, h)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(&hs[parent]) {
			break
		}
		hs[i] = hs[parent]
		i = parent
	}
	hs[i] = h
	v.hops = hs
}

func (v *refVisibility) pop() refHop {
	hs := v.hops
	min := hs[0]
	n := len(hs) - 1
	last := hs[n]
	hs = hs[:n]
	v.hops = hs
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && hs[r].before(&hs[l]) {
				m = r
			}
			if !hs[m].before(&last) {
				break
			}
			hs[i] = hs[m]
			i = m
		}
		hs[i] = last
	}
	return min
}

// floodStep is one scheduled action of a differential schedule: an append
// by author (read == false) or a comparison point (read == true).
type floodStep struct {
	at     sim.Time
	author appendmem.NodeID
	read   bool
}

// randomSchedule draws appends and reads at random instants over a
// horizon of a few link latencies, bursts of same-instant appends
// included.
func randomSchedule(rng *xrand.PCG, n, steps int, lat float64) []floodStep {
	out := make([]floodStep, 0, steps)
	at := sim.Time(0)
	for len(out) < steps {
		if rng.Intn(4) != 0 {
			at += sim.Time(rng.Float64() * 2 * lat)
		}
		out = append(out, floodStep{at: at, author: appendmem.NodeID(rng.Intn(n)), read: rng.Intn(3) == 0})
	}
	return out
}

// floodRun drives one visibility tracker through a schedule on its own
// simulator and memory.
type floodRun struct {
	s   *sim.Sim
	mem *appendmem.Memory
	rng *xrand.PCG
}

func newFloodRun(n int, seed uint64) floodRun {
	return floodRun{s: sim.New(), mem: appendmem.New(n), rng: xrand.New(seed, 77)}
}

// play books the schedule's actions on r's simulator: each append is
// announced through sync, each read calls check with the step index.
func (r floodRun) play(sched []floodStep, sync func(), check func(i int)) {
	for i, st := range sched {
		i, st := i, st
		r.s.At(st.at, func() {
			if st.read {
				check(i)
				return
			}
			r.mem.Writer(st.author).MustAppend(int64(i), 0, nil)
			sync()
		})
	}
}

// diffFlood runs the reference and the production flood over the same
// graph, delay model and schedule, and at every read compares every
// node's prefix, the delivery count, the mean-lag bits and the next draw
// of each flood rng. The production tracker is reset from a previous run
// first when pooled is set, as a pooled trial would reuse it.
func diffFlood(t *testing.T, g *topology.Graph, dm topology.DelayModel, sched []floodStep, seed uint64, pooled *Visibility) {
	t.Helper()
	n := g.N()
	ref, got := newFloodRun(n, seed), newFloodRun(n, seed)
	rv := newRefVisibility(ref.s, ref.rng, g, dm, ref.mem)
	var v *Visibility
	if pooled != nil {
		pooled.Reset(got.s, got.rng, g, dm, got.mem)
		v = pooled
	} else {
		v = NewVisibility(got.s, got.rng, g, dm, got.mem)
	}
	type snap struct {
		prefix     []int
		deliveries int
		lag        uint64
		draw       uint64
	}
	refSnaps := map[int]snap{}
	ref.play(sched, rv.Sync, func(i int) {
		refSnaps[i] = snap{append([]int(nil), rv.prefix...), rv.deliveries,
			math.Float64bits(rv.MeanLag()), ref.rng.Uint64()}
	})
	ref.s.Run()
	reads := 0
	got.play(sched, v.Sync, func(i int) {
		want := refSnaps[i]
		reads++
		for id := 0; id < n; id++ {
			if p := v.Prefix(appendmem.NodeID(id)); p != want.prefix[id] {
				t.Fatalf("step %d: node %d prefix %d, reference %d", i, id, p, want.prefix[id])
			}
		}
		if v.Deliveries() != want.deliveries {
			t.Fatalf("step %d: %d deliveries, reference %d", i, v.Deliveries(), want.deliveries)
		}
		if lag := math.Float64bits(v.MeanLag()); lag != want.lag {
			t.Fatalf("step %d: mean lag %v, reference %v", i, v.MeanLag(), math.Float64frombits(want.lag))
		}
		if d := got.rng.Uint64(); d != want.draw {
			t.Fatalf("step %d: next flood draw %#x, reference %#x", i, d, want.draw)
		}
	})
	got.s.Run()
	if reads != len(refSnaps) {
		t.Fatalf("compared %d reads, reference took %d", reads, len(refSnaps))
	}
	if v.Deliveries() != rv.deliveries || math.Float64bits(v.MeanLag()) != math.Float64bits(rv.MeanLag()) {
		t.Fatalf("at quiescence: %d deliveries lag %v, reference %d lag %v",
			v.Deliveries(), v.MeanLag(), rv.deliveries, rv.MeanLag())
	}
}

// TestVisibilityFloodDifferential pins the one-event-per-hop flood with
// dominated-hop elision to the two-queue reference over every graph
// family and delay distribution, under random append/read schedules,
// both freshly built and reset from a previous run. The pooled tracker
// first floods a short schedule, so the next run's first messages reuse
// the message indexes — and pending slots — the short run left behind.
func TestVisibilityFloodDifferential(t *testing.T) {
	const n = 24
	const lat = 0.1
	graphs := map[string]func(seed uint64) *topology.Graph{
		"ring":       func(uint64) *topology.Graph { return topology.Ring(n, 2, lat) },
		"smallworld": func(seed uint64) *topology.Graph { return topology.WattsStrogatz(xrand.New(seed, 5), n, 2, 0.3, lat) },
		"scalefree":  func(seed uint64) *topology.Graph { return topology.BarabasiAlbert(xrand.New(seed, 6), n, 2, lat) },
		"complete":   func(uint64) *topology.Graph { return topology.Complete(n, lat) },
	}
	for name, mk := range graphs {
		for _, kind := range []topology.DelayKind{topology.DelayFixed, topology.DelayUniform, topology.DelayLongTail} {
			dm := topology.DelayModel{Kind: kind}
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				var pooled *Visibility
				for seed := uint64(1); seed <= 6; seed++ {
					g := mk(seed)
					sched := randomSchedule(xrand.New(seed, 9), n, 150, lat)
					diffFlood(t, g, dm, sched, seed, nil)
					if pooled == nil {
						pooled = NewVisibility(sim.New(), xrand.New(0, 0), g, dm, appendmem.New(n))
					}
					short := randomSchedule(xrand.New(seed, 10), n, 12, lat)
					diffFlood(t, g, dm, short, seed+100, pooled)
					diffFlood(t, g, dm, sched, seed, pooled)
				}
			})
		}
	}
}

// TestVisibilityFloodDifferentialSimultaneousHops targets the tie the
// elision must resolve like the reference: on a fixed-latency ring two
// flood fronts reach the node opposite the author at the same instant,
// and appends issued together collide on the same hop times.
func TestVisibilityFloodDifferentialSimultaneousHops(t *testing.T) {
	for _, n := range []int{6, 8, 9} {
		g := topology.Ring(n, 1, 0.5)
		var sched []floodStep
		for i := 0; i < 3*n; i++ {
			at := sim.Time(i/3) * 0.5
			sched = append(sched,
				floodStep{at: at, author: appendmem.NodeID(i % n)},
				floodStep{at: at, author: appendmem.NodeID((i + n/2) % n)},
				floodStep{at: at + 0.5*sim.Time(n/2), read: true})
		}
		diffFlood(t, g, topology.DelayModel{}, sched, uint64(n), nil)
	}
	// The plainest instance: one append on an even ring meets itself at
	// the antipode, both fronts arriving at exactly n/2 hops.
	s := sim.New()
	mem := appendmem.New(6)
	v := NewVisibility(s, xrand.New(1, 1), topology.Ring(6, 1, 0.5), topology.DelayModel{}, mem)
	mem.Writer(0).MustAppend(1, 0, nil)
	v.Sync()
	fired := s.Run()
	// Six nodes, five arrivals, five hop events: node 0 sends to 1 and 5,
	// they send on to 2 and 4, and node 2's hop reaches node 3 at 1.5.
	// Node 4's hop would land on node 3 at the same instant, behind the
	// earlier-booked one, so it is dominated and never booked.
	if v.Deliveries() != 5 || fired != 5 {
		t.Fatalf("deliveries=%d events=%d, want 5 and 5", v.Deliveries(), fired)
	}
}
