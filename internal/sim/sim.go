// Package sim is a deterministic discrete-event simulator: a virtual clock
// and an event heap with stable tie-breaking.
//
// All protocol executions in this repository run inside a Sim. Determinism
// is load-bearing: a run is a pure function of (Config, Seed), so events at
// equal virtual times fire in scheduling order (a monotone sequence number
// breaks ties), and nothing in the simulator consults wall-clock time or
// global randomness.
//
// The simulator is single-goroutine by design. Parallelism in this
// repository happens across independent trials (one Sim each), never inside
// a run, which keeps executions replayable and the core free of locks.
//
// The event queue is a value-typed binary min-heap: events are stored
// inline in one backing slice (no per-event pointer, no interface boxing),
// so the steady state of a run — heap size fluctuating below its
// high-water mark — schedules and fires events without allocating. The
// ordering key (at, seq) is total (seq is unique), so the fire order is
// independent of the heap's internal layout.
package sim

// Time is virtual simulation time. The unit is arbitrary; protocols use Δ
// (the synchrony bound) as their natural scale.
type Time float64

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now     Time
	events  []event // value-typed binary min-heap, ordered by (at, seq)
	seq     uint64
	arg     uint64 // payload of the executing event (see AfterArg)
	stopped bool
}

// event is 32 bytes: the one-word payload lets a caller book per-event
// state (a hop's message and target) in the heap entry itself instead of
// a side queue of its own.
type event struct {
	at  Time
	seq uint64
	fn  func()
	arg uint64
}

// before reports whether e fires before o: earlier time, scheduling order
// breaking ties.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// siftUp restores the heap property after appending at index i.
func (s *Sim) siftUp(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown restores the heap property after replacing the root.
func (s *Sim) siftDown() {
	h := s.events
	n := len(h)
	e := h[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// New returns a fresh simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Reset returns the simulator to its initial state — clock at zero, no
// pending events, not stopped — while retaining the event queue's backing
// array, so a pooled Sim reuses its high-water-mark capacity across trials
// instead of re-growing it. Queued event slots are zeroed to release their
// closures to the GC.
func (s *Sim) Reset() {
	for i := range s.events {
		s.events[i] = event{}
	}
	s.events = s.events[:0]
	s.now = 0
	s.seq = 0
	s.arg = 0
	s.stopped = false
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// StartAt sets the clock of a fresh simulator to t, so a checkpointed run
// resumes mid-stream with every rescheduled event keeping its original
// absolute time. It panics once events are queued or the clock has moved —
// jumping a live simulator would reorder causality.
func (s *Sim) StartAt(t Time) {
	if len(s.events) > 0 || s.now != 0 {
		panic("sim: StartAt on a running simulator")
	}
	s.now = t
}

// Pending returns the number of scheduled, not-yet-fired events.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics — it would silently reorder causality.
func (s *Sim) At(t Time, fn func()) { s.at(t, fn, 0) }

// After schedules fn to run d time units from now. Negative d panics.
func (s *Sim) After(d Time, fn func()) { s.at(s.now+d, fn, 0) }

// AfterArg is After with a one-word payload: while fn runs, Arg returns
// arg. A caller that schedules many events of one kind binds fn once and
// keeps each event's state in arg, so scheduling allocates nothing and
// needs no queue beside the simulator's. Ordering is After's: (time,
// scheduling order), shared with every other event.
func (s *Sim) AfterArg(d Time, fn func(), arg uint64) { s.at(s.now+d, fn, arg) }

func (s *Sim) at(t Time, fn func(), arg uint64) {
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	s.events = append(s.events, event{at: t, seq: s.seq, fn: fn, arg: arg})
	s.siftUp(len(s.events) - 1)
}

// Arg returns the payload of the executing event: the arg it was
// scheduled with by AfterArg, 0 for At/After. Read it before the
// callback steps the simulator again.
func (s *Sim) Arg() uint64 { return s.arg }

// Stop makes the current Run/RunUntil return after the executing event
// completes. Remaining events stay queued.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// Step fires the earliest pending event and returns true, or returns false
// when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n] = event{} // release the closure
	s.events = s.events[:n]
	if n > 0 {
		s.siftDown()
	}
	s.now = e.at
	s.arg = e.arg
	e.fn()
	return true
}

// Run fires events until the queue is empty or Stop is called. It returns
// the number of events fired.
func (s *Sim) Run() int {
	fired := 0
	for !s.stopped && s.Step() {
		fired++
	}
	return fired
}

// RunUntil fires events with time <= deadline (or until Stop), advances the
// clock to the deadline, and returns the number of events fired. Events
// scheduled beyond the deadline stay queued.
func (s *Sim) RunUntil(deadline Time) int {
	fired := 0
	for !s.stopped && len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
		fired++
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
	return fired
}
