package msgnet

import (
	"fmt"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func newNet(n int) (*sim.Sim, *Network) {
	s := sim.New()
	return s, New(s, xrand.New(1, 1), n, 1.0)
}

func TestSendDelivers(t *testing.T) {
	s, nw := newNet(3)
	var got []Envelope
	nw.Register(1, func(e Envelope) { got = append(got, e) })
	nw.Send(0, 1, "hello", []byte("payload"))
	s.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	e := got[0]
	if e.From != 0 || e.To != 1 || e.Kind != "hello" || string(e.Body) != "payload" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestDelayBounded(t *testing.T) {
	s := sim.New()
	nw := New(s, xrand.New(2, 2), 2, 0.5)
	var deliveredAt sim.Time
	nw.Register(1, func(Envelope) { deliveredAt = s.Now() })
	nw.Send(0, 1, "x", nil)
	s.Run()
	if deliveredAt <= 0 || deliveredAt > 0.5 {
		t.Fatalf("delivery at %v, want (0, 0.5]", deliveredAt)
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	s, nw := newNet(4)
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nw.Register(appendmem.NodeID(i), func(Envelope) { counts[i]++ })
	}
	nw.Broadcast(2, "b", nil)
	s.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("node %d received %d", i, c)
		}
	}
}

func TestBodyIsCopied(t *testing.T) {
	s, nw := newNet(2)
	body := []byte{1, 2, 3}
	var got []byte
	nw.Register(1, func(e Envelope) { got = e.Body })
	nw.Send(0, 1, "x", body)
	body[0] = 99
	s.Run()
	if got[0] != 1 {
		t.Fatal("Send aliased the caller's body")
	}
}

func TestDropFilter(t *testing.T) {
	s, nw := newNet(3)
	delivered := 0
	nw.Register(1, func(Envelope) { delivered++ })
	nw.Register(2, func(Envelope) { delivered++ })
	nw.SetDrop(func(e Envelope) bool { return e.To == 1 })
	nw.Send(0, 1, "x", nil)
	nw.Send(0, 2, "x", nil)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	// Dropped messages still count as sent.
	if nw.Stats().Messages != 2 {
		t.Fatalf("messages = %d", nw.Stats().Messages)
	}
}

func TestStats(t *testing.T) {
	s, nw := newNet(3)
	nw.Register(1, func(Envelope) {})
	nw.Send(0, 1, "a", []byte("1234"))
	nw.Send(0, 1, "b", []byte("12"))
	nw.Send(0, 1, "a", nil)
	s.Run()
	st := nw.Stats()
	if st.Messages != 3 || st.Bytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByKind["a"] != 2 || st.ByKind["b"] != 1 {
		t.Fatalf("by kind = %v", st.ByKind)
	}
}

func TestSignVerify(t *testing.T) {
	_, nw := newNet(3)
	data := []byte("the record")
	sig := nw.Signer(0).Sign(data)
	if !nw.Verify(0, data, sig) {
		t.Fatal("valid signature rejected")
	}
	if nw.Verify(1, data, sig) {
		t.Fatal("signature verified against wrong key")
	}
	if nw.Verify(0, []byte("tampered"), sig) {
		t.Fatal("signature verified over tampered data")
	}
	if nw.Verify(99, data, sig) {
		t.Fatal("out-of-range id verified")
	}
}

func TestForgeryImpossible(t *testing.T) {
	// A Byzantine node signing with its own key cannot produce a signature
	// valid under a correct node's key.
	_, nw := newNet(3)
	data := []byte("forged claim: node 0 said X")
	byzSig := nw.Signer(2).Sign(data)
	if nw.Verify(0, data, byzSig) {
		t.Fatal("forged signature accepted")
	}
}

func TestKeysDeterministic(t *testing.T) {
	_, nw1 := newNet(3)
	_, nw2 := newNet(3)
	for i := 0; i < 3; i++ {
		a, b := nw1.PublicKey(appendmem.NodeID(i)), nw2.PublicKey(appendmem.NodeID(i))
		if string(a) != string(b) {
			t.Fatal("keys differ across identical constructions")
		}
	}
}

func TestUnregisteredReceiverDoesNotCrash(t *testing.T) {
	s, nw := newNet(2)
	nw.Send(0, 1, "x", nil)
	s.Run() // no handler for 1: must not panic
}

func TestSendOutOfRangePanics(t *testing.T) {
	_, nw := newNet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Send did not panic")
		}
	}()
	nw.Send(0, 5, "x", nil)
}

// TestOracleEqualTimestampDrainOrder pins the pending heap's contract:
// deliveries due at the same time drain in scheduling order, the order the
// simulator fires their events in. Drawn delays never tie, so the
// deliveries are scheduled directly, the way Send does.
func TestOracleEqualTimestampDrainOrder(t *testing.T) {
	s, nw := newNet(3)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		nw.Register(appendmem.NodeID(i), func(e Envelope) {
			order = append(order, fmt.Sprintf("%d<-%s", i, e.Body))
		})
	}
	for _, d := range []struct {
		to   appendmem.NodeID
		body string
	}{{2, "a"}, {1, "b"}, {0, "c"}} {
		nw.dseq++
		nw.push(delivery{at: 0.25, seq: nw.dseq, env: Envelope{From: 0, To: d.to, Kind: "k", Body: []byte(d.body)}})
		s.After(0.25, nw.tick)
	}
	s.Run()
	want := []string{"2<-a", "1<-b", "0<-c"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestBroadcastSteadyStateAllocs pins the delivery path's allocations:
// once the pending heap and the simulator's event heap are warm, a
// broadcast-and-drain cycle allocates nothing but the per-receiver body
// copies Send makes.
func TestBroadcastSteadyStateAllocs(t *testing.T) {
	const n = 8
	s, nw := newNet(n)
	delivered := 0
	for i := 0; i < n; i++ {
		nw.Register(appendmem.NodeID(i), func(Envelope) { delivered++ })
	}
	for _, tc := range []struct {
		body []byte
		want float64
	}{{nil, 0}, {[]byte{1}, n}} {
		round := func() {
			nw.Broadcast(0, "append", tc.body)
			s.Run()
		}
		for i := 0; i < 50; i++ {
			round()
		}
		delivered = 0
		if got := testing.AllocsPerRun(100, round); got != tc.want {
			t.Errorf("warm broadcast with a %d-byte body: %v allocs, want %v", len(tc.body), got, tc.want)
		}
		// AllocsPerRun invokes the function runs+1 times (one warm-up).
		if delivered != 101*n {
			t.Fatalf("delivered %d, want %d", delivered, 101*n)
		}
	}
}
