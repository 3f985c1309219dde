package sim

import (
	"testing"
	"unsafe"
)

// TestScheduleStepNoAllocs pins the steady-state allocation behaviour the
// trial pooling depends on: once the event heap's backing array has grown
// to its working size, At and Step allocate nothing. Scheduling a
// pre-bound callback must not box it, and popping must not shrink or
// reallocate the heap.
func TestScheduleStepNoAllocs(t *testing.T) {
	s := New()
	fn := func() {}

	// Warm the heap's capacity past anything the measured loop needs.
	for i := 0; i < 64; i++ {
		s.At(Time(i), fn)
	}
	for s.Step() {
	}

	allocs := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocated %.1f times per op, want 0", allocs)
	}
}

// TestResetRetainsCapacity checks Reset keeps the grown backing array, so
// a pooled Sim re-enters service already warm.
func TestResetRetainsCapacity(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.At(Time(i), fn)
	}
	grown := cap(s.events)
	s.Reset()
	if cap(s.events) != grown {
		t.Fatalf("Reset dropped heap capacity: %d -> %d", grown, cap(s.events))
	}
	if s.Pending() != 0 || s.Now() != 0 || s.Stopped() {
		t.Fatalf("Reset left state behind: pending=%d now=%v stopped=%v",
			s.Pending(), s.Now(), s.Stopped())
	}
}

// TestAfterArgStepNoAllocs pins the payload-carrying schedule at the same
// cost as At: a warm AfterArg+Step allocates nothing, and the callback
// reads back the payload it was booked with.
func TestAfterArgStepNoAllocs(t *testing.T) {
	s := New()
	var got uint64
	fn := func() { got = s.Arg() }
	for i := 0; i < 64; i++ {
		s.AfterArg(Time(i), fn, uint64(i))
	}
	for s.Step() {
	}

	arg := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		arg++
		s.AfterArg(1, fn, arg)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterArg+Step allocated %.1f times per op, want 0", allocs)
	}
	if got != arg {
		t.Fatalf("Arg() = %d in the callback, want %d", got, arg)
	}
}

// TestEventSize keeps the heap entry within 32 bytes: the payload word
// must not push every simulator event onto a larger stride.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Fatalf("event is %d bytes, want <= 32", n)
	}
}
