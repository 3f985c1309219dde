package appendmem

// Index is a substrate index over a read of the memory (chain.Tree,
// dag.Dag) that ingests only the suffix a later read adds. View is the
// indexed read; every id below View().Size() is ingested. Extend ingests
// the suffix of a read that extends View(); Rebuild re-indexes a read
// from scratch, keeping the index's storage. TipFloor is the smallest tip
// id (negative when there is none) and Compact retires index state below
// a watermark, returning the watermark achieved.
type Index interface {
	comparable
	View() View
	Extend(view View)
	Rebuild(view View)
	TipFloor() MsgID
	Compact(reqW int) int
}

// Cached is a reusable index handle for one consumer whose reads of a
// single memory grow monotonically (every View is a prefix of the next —
// the append-memory invariant every protocol loop and analyzer obeys). At
// extends the held index by the view's new suffix instead of rebuilding;
// when handed a view of a different memory or an older prefix (e.g. an
// asynchronous node's stale append view) it falls back to a from-scratch
// rebuild, in place, so it is always correct and only *fast* in the
// monotone case. One implementation serves both substrates: chain.Cached
// and dag.Cached are its instances.
//
// The zero value is not ready; use NewCached. A Cached must not be shared
// across goroutines.
type Cached[T Index] struct {
	build func(View) T
	t     T
	// live reports that t indexes this consumer's reads: false before the
	// first At and after Reset, which keeps t only for its capacity.
	live bool
}

// NewCached returns an empty handle over the indexes build makes; the
// first At builds one.
func NewCached[T Index](build func(View) T) *Cached[T] { return &Cached[T]{build: build} }

// At returns the index of view, extending the previously returned index
// when view is a forward read of the same memory. The returned index is
// owned by the handle and is invalidated (re-pointed at a larger view) by
// the next At call.
func (c *Cached[T]) At(view View) T {
	var none T
	switch {
	case c.live && c.t.View().SubsetOf(view):
		c.t.Extend(view)
	case c.t != none:
		c.t.Rebuild(view)
	default:
		c.t = c.build(view)
	}
	c.live = true
	return c.t
}

// Reset empties the handle for another consumer, as if freshly made by
// NewCached, but keeps the held index's storage: the next At rebuilds in
// place. It drops the index's reference to the memory it read.
func (c *Cached[T]) Reset() {
	var none T
	if c.t != none {
		c.t.Rebuild(View{})
	}
	c.live = false
}

// Live reports whether the handle holds an index: At was called since it
// was made or last Reset.
func (c *Cached[T]) Live() bool { return c.live }

// Extends reports whether At(view) extends the held index instead of
// rebuilding it: before the first At, or when the held index's view is a
// prefix of view.
func (c *Cached[T]) Extends(view View) bool {
	return !c.live || c.t.View().SubsetOf(view)
}

// Floor returns the smallest id the handle's future extensions or appends
// can reach: the minimum of the ingested prefix (extensions read from
// there) and the tip floor (parents draw from the tips). 0 before the
// first At — such a consumer would build from id 0, so nothing may be
// retired under it.
func (c *Cached[T]) Floor() int {
	if !c.live {
		return 0
	}
	f := c.t.View().Size()
	if tf := c.t.TipFloor(); tf >= 0 && int(tf) < f {
		f = int(tf)
	}
	return f
}

// CompactTo forwards Compact(reqW) to the held index and returns the
// watermark achieved; 0 when no index exists yet.
func (c *Cached[T]) CompactTo(reqW int) int {
	if !c.live {
		return 0
	}
	return c.t.Compact(reqW)
}
