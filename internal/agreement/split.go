package agreement

import "repro/internal/appendmem"

// Memo is a rule's per-node memo of answers about the view the node last
// indexed, such as the parents of its next append. Clear forgets the view
// and empties the memo, keeping its capacity. Floor is the smallest id the
// memo can still reference, math.MaxInt when it holds none.
type Memo interface {
	Clear()
	Floor() int
}

// Split is the index bookkeeping of a rule split per trial and per node
// (see Recycler), written once over the index handle both substrates share
// (appendmem.Cached). A trial instance holds the decision index its node
// instances share. A node instance holds a SplitNode. The zero value is
// the stateless rule: it holds nothing, and each call indexes its view
// from scratch.
type Split[T appendmem.Index, M Memo] struct {
	shared *appendmem.Cached[T]
	node   *SplitNode[T, M]
}

// SplitNode is one correct node's state: the rule's memo, the decision
// index — the trial's shared one, or the node's private one when there
// was no trial step — and the node's own index. The own index serves the
// views the decision index cannot extend (an asynchronous node's stale
// append view, a resumed run's first views) and bounds the floor only
// while live.
type SplitNode[T appendmem.Index, M Memo] struct {
	Memo     M
	dec, own *appendmem.Cached[T]
	private  bool
}

// Trial returns the trial instance of s: a decision index for its node
// instances to share, on spare's storage when spare is a released trial
// instance.
func (s Split[T, M]) Trial(spare Split[T, M], build func(appendmem.View) T) Split[T, M] {
	s.shared = spare.shared
	if spare.node != nil || s.shared == nil {
		s.shared = appendmem.NewCached(build)
	}
	return s
}

// Node returns a node instance of s over the trial's shared decision
// index, or over a private one when s is no trial instance, keeping
// spare's node state when spare is a released node instance.
func (s Split[T, M]) Node(spare Split[T, M], build func(appendmem.View) T, newMemo func() M) Split[T, M] {
	n := spare.node
	if n == nil {
		n = &SplitNode[T, M]{Memo: newMemo(), own: appendmem.NewCached(build)}
	}
	n.dec, n.private = s.shared, s.shared == nil
	if n.private {
		// Made fresh, not recycled: see Recycler.
		n.dec = appendmem.NewCached(build)
	}
	s.node = n
	return s
}

// State returns the node state of a node instance. Any other instance
// (the zero value, a trial instance) gets a throwaway one, whose indexes
// are built from scratch.
func (s Split[T, M]) State(build func(appendmem.View) T, newMemo func() M) *SplitNode[T, M] {
	if s.node != nil {
		return s.node
	}
	return Split[T, M]{}.Node(Split[T, M]{}, build, newMemo).node
}

// At indexes view through the decision index when view extends it, else
// through the node's own.
func (n *SplitNode[T, M]) At(view appendmem.View) T {
	if n.dec.Extends(view) {
		return n.dec.At(view)
	}
	return n.own.At(view)
}

// Release implements Recycler's Release: it resets the indexes the
// instance recycles and clears the memo, keeping their capacity.
func (s Split[T, M]) Release() {
	switch n := s.node; {
	case n != nil:
		n.own.Reset()
		n.Memo.Clear()
		n.dec, n.private = nil, false
	case s.shared != nil:
		s.shared.Reset()
	}
}

// ViewFloor implements WindowedRule. A node instance reports the smallest
// id its memo and the indexes it owns can reach; the trial instance
// reports the shared index's floor; the zero value reports 0, since it
// rebuilds from the first message. An unused own index adds no bound:
// only views older than the decision index need it, and windowed runs
// (the default timing model) append and decide on the latest read only.
func (s Split[T, M]) ViewFloor() int {
	switch n := s.node; {
	case n != nil:
		f := n.Memo.Floor()
		if n.own.Live() {
			f = min(f, n.own.Floor())
		}
		if n.private {
			f = min(f, n.dec.Floor())
		}
		return f
	case s.shared != nil:
		return s.shared.Floor()
	}
	return 0
}

// CompactTo implements WindowedRule by compacting the indexes the instance
// owns (a node instance: its own and private ones; the trial instance:
// the shared one); the watermark achieved is the smallest of theirs.
func (s Split[T, M]) CompactTo(w int) int {
	switch n := s.node; {
	case n != nil:
		got := w
		if n.own.Live() {
			got = min(got, n.own.CompactTo(w))
		}
		if n.private {
			got = min(got, n.dec.CompactTo(w))
		}
		return got
	case s.shared != nil:
		return s.shared.CompactTo(w)
	}
	return 0
}
