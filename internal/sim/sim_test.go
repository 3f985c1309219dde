package sim

import (
	"testing"

	"repro/internal/xrand"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if n := s.Run(); n != 0 {
		t.Fatalf("Run on empty sim fired %d events", n)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved: %v", s.Now())
	}
}

func TestEventOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []string
	s.At(5, func() { order = append(order, "a") })
	s.At(5, func() { order = append(order, "b") })
	s.At(5, func() { order = append(order, "c") })
	s.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("ties broken unstably: %v", order)
	}
}

// TestArgEventsShareOrder: payload events and plain ones share one
// (time, scheduling order) sequence, and each callback sees its own
// payload — plain events read 0.
func TestArgEventsShareOrder(t *testing.T) {
	s := New()
	var got []uint64
	rec := func() { got = append(got, s.Arg()) }
	s.AfterArg(5, rec, 1)
	s.At(5, rec)
	s.AfterArg(2, rec, 3)
	s.AfterArg(5, rec, 4)
	s.Run()
	want := []uint64{3, 1, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payloads fired as %v, want %v", got, want)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var seen []Time
	s.At(1.5, func() { seen = append(seen, s.Now()) })
	s.At(2.5, func() { seen = append(seen, s.Now()) })
	s.Run()
	if seen[0] != 1.5 || seen[1] != 2.5 {
		t.Fatalf("Now() inside events = %v", seen)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 10 {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop", fired)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() false")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	n := s.RunUntil(3)
	if n != 3 || len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatal("remaining events lost")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Fatalf("idle clock = %v, want 7", s.Now())
	}
}

func TestDeterministicUnderLoad(t *testing.T) {
	run := func() []int {
		s := New()
		rng := xrand.New(42, 42)
		var order []int
		for i := 0; i < 1000; i++ {
			i := i
			s.At(Time(rng.Intn(100)), func() { order = append(order, i) })
		}
		s.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestMonotoneClock(t *testing.T) {
	s := New()
	rng := xrand.New(3, 3)
	last := Time(-1)
	ok := true
	for i := 0; i < 500; i++ {
		s.At(Time(rng.Float64()*50), func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Fatal("clock went backwards")
	}
}
