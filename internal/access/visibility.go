package access

import (
	"repro/internal/appendmem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Visibility derives per-node views of the shared append memory from
// message arrival times over a network topology, replacing the uniform
// Δ-bound with propagation that depends on where the author sits in the
// graph.
//
// Each announced append is flooded from its author: the author sees it
// immediately, every other node at the instant the flood first reaches it
// (per-link delays sampled from the delay model, duplicates suppressed).
// A node's view is the *maximal fully-arrived prefix* of the global
// memory: the longest leading run of messages that have all reached it.
// Prefixes are what keeps the model honest — appendmem views are totally
// ordered by construction (M(τ) ⊆ M(τ′), Definition 2.1), so a node that
// has message 7 but not message 5 cannot expose 7 yet; it reads up to 4
// until the gap fills. The prefix rule makes per-node views valid Views
// while preserving "later reads see no less".
//
// Determinism: every hop is one simulator event carrying its (message,
// target) payload, so floods drain in the simulator's (time, seq) order
// with a dedicated rng; every draw happens inside an event callback, so
// per-node views are a pure function of (graph, delay model, rng state,
// append order) and byte-identical at any worker count.
//
// A hop is dropped at send time — after its delay is drawn, so the rng
// stream is unchanged — when it could never be a first arrival: its
// target already has the message, or already has an earlier-or-equal
// pending arrival of it (on a tie the earlier-booked hop fires first).
// Pending arrivals are remembered in a small direct-mapped table per node
// (pendingWays slots keyed by the low bits of the message index); a slot
// taken by another message only forgoes an elision, so views stay exact.
type Visibility struct {
	s   *sim.Sim
	rng *xrand.PCG
	g   *topology.Graph
	dm  topology.DelayModel
	mem *appendmem.Memory
	eps sim.Time

	announced int        // messages of mem already flooded
	words     int        // arrival bitset length, in 64-message words
	announce  []float64  // announce instant per message
	arrived   [][]uint64 // per-node arrival bitset over message indexes
	prefix    []int      // per-node maximal fully-arrived prefix length
	pending   []pendingHop
	hop       func() // bound deliver, allocated once

	totalLag   float64 // summed (arrival − announce) over non-author arrivals
	deliveries int     // number of non-author arrivals
}

// pendingWays is the number of pending-arrival slots per node.
const pendingWays = 8

// pendingHop is the earliest booked arrival of message tag-1 at a node; a
// zero tag is an empty slot. Once the message has arrived the slot is
// stale, which is harmless: the arrival bit is checked first.
type pendingHop struct {
	at  sim.Time
	tag int32
}

// NewVisibility creates the visibility tracker for mem over graph g. The
// graph's node count must match the memory's; link latencies are in
// simulator time units.
func NewVisibility(s *sim.Sim, rng *xrand.PCG, g *topology.Graph, dm topology.DelayModel, mem *appendmem.Memory) *Visibility {
	v := &Visibility{}
	v.hop = v.deliver
	v.Reset(s, rng, g, dm, mem)
	return v
}

// Reset rebinds the tracker to a fresh run, as if newly created by
// NewVisibility with the same arguments, while keeping the capacity of
// its per-node state — a pooled trial floods without regrowing it.
func (v *Visibility) Reset(s *sim.Sim, rng *xrand.PCG, g *topology.Graph, dm topology.DelayModel, mem *appendmem.Memory) {
	if g.N() != mem.NumNodes() {
		panic("access: topology size does not match memory")
	}
	eps := sim.Time(g.MinLatency() / 1e9)
	if eps <= 0 {
		eps = 1e-9
	}
	n := g.N()
	v.s, v.rng, v.g, v.dm, v.mem, v.eps = s, rng, g, dm, mem, eps
	v.announced, v.words = 0, 0
	v.announce = v.announce[:0]
	if cap(v.arrived) < n {
		v.arrived = make([][]uint64, n)
	}
	v.arrived = v.arrived[:n]
	for id := range v.arrived {
		v.arrived[id] = v.arrived[id][:0]
	}
	v.prefix = runner.Resize(v.prefix, n)
	v.pending = runner.Resize(v.pending, n*pendingWays)
	v.totalLag, v.deliveries = 0, 0
}

// Release drops the tracker's references into the finished run (its
// simulator, rng, graph and memory) so a pooled tracker does not keep
// them alive; Reset rebinds it.
func (v *Visibility) Release() {
	v.s, v.rng, v.g, v.mem = nil, nil, nil, nil
}

// Sync floods every message appended to the memory since the last call.
// Call it after each append site; announcing is idempotent and cheap when
// nothing is new. The author's own arrival is immediate (a node sees its
// own append the moment it lands).
func (v *Visibility) Sync() {
	n := v.mem.Len()
	if n == v.announced {
		return
	}
	now := float64(v.s.Now())
	if words := (n + 63) / 64; words > v.words {
		for id := range v.arrived {
			for len(v.arrived[id]) < words {
				v.arrived[id] = append(v.arrived[id], 0)
			}
		}
		v.words = words
	}
	for i := v.announced; i < n; i++ {
		v.announce = append(v.announce, now)
		author := int(v.mem.Message(appendmem.MsgID(i)).Author)
		// The author's own arrival: immediate, lag-free, no inbound link.
		bitSet(v.arrived[author], i)
		v.advancePrefix(author)
		v.relayFrom(int32(i), author)
	}
	v.announced = n
}

// advancePrefix extends node's maximal fully-arrived prefix past any
// newly filled gaps.
func (v *Visibility) advancePrefix(node int) {
	for v.prefix[node] < len(v.announce) && bitGet(v.arrived[node], v.prefix[node]) {
		v.prefix[node]++
	}
}

// relayFrom sends one hop of the flood to every neighbor of node, in
// ascending neighbor order over the graph's CSR row; implicit complete
// graphs fall back to the Neighbors iterator. The inbound neighbor needs
// no special case: it already holds the message, so send skips it.
func (v *Visibility) relayFrom(msg int32, node int) {
	if ts, ls := v.g.Adj(node); ts != nil {
		for k, j := range ts {
			v.send(msg, int(j), ls[k])
		}
		return
	}
	v.g.Neighbors(node, func(j int, lat float64) bool {
		v.send(msg, j, lat)
		return true
	})
}

// send books one link transmission of msg to node j unless j already
// has the message or an earlier-or-equal pending arrival of it. The delay
// is drawn before the pending check, so elision never shifts the rng.
func (v *Visibility) send(msg int32, j int, lat float64) {
	if bitGet(v.arrived[j], int(msg)) {
		return // already there; skip the redundant transmission
	}
	delay := sim.Time(v.dm.Sample(lat, v.rng))
	if delay <= 0 {
		delay = v.eps
	}
	at := v.s.Now() + delay
	p := &v.pending[j*pendingWays+int(msg)&(pendingWays-1)]
	if p.tag == msg+1 && p.at <= at {
		return // dominated: the pending hop arrives first
	}
	*p = pendingHop{at: at, tag: msg + 1}
	v.s.AfterArg(delay, v.hop, uint64(uint32(msg))<<32|uint64(uint32(j)))
}

// deliver fires one hop: the executing event's payload names the message
// and the receiving node. Duplicates are suppressed by the arrival bitset.
func (v *Visibility) deliver() {
	arg := v.s.Arg()
	msg, node := int32(arg>>32), int(uint32(arg))
	if bitGet(v.arrived[node], int(msg)) {
		return
	}
	bitSet(v.arrived[node], int(msg))
	v.advancePrefix(node)
	v.totalLag += float64(v.s.Now()) - v.announce[msg]
	v.deliveries++
	v.relayFrom(msg, node)
}

// Prefix returns the length of node id's maximal fully-arrived prefix.
func (v *Visibility) Prefix(id appendmem.NodeID) int { return v.prefix[id] }

// ViewFor returns node id's current view: the maximal prefix of the
// global memory all of whose messages have reached the node.
func (v *Visibility) ViewFor(id appendmem.NodeID) appendmem.View {
	return v.mem.ViewAt(v.prefix[id])
}

// MeanLag returns the mean propagation lag over all non-author arrivals
// so far (0 when nothing has propagated yet). Messages still in flight at
// the end of a run are not counted.
func (v *Visibility) MeanLag() float64 {
	if v.deliveries == 0 {
		return 0
	}
	return v.totalLag / float64(v.deliveries)
}

// Deliveries returns the number of non-author arrivals accounted so far.
func (v *Visibility) Deliveries() int { return v.deliveries }

func bitGet(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(b []uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
