// Package xrand provides deterministic pseudo-random number generation and
// the distribution samplers the append-memory simulations need.
//
// Everything in this repository must be a pure function of (Config, Seed),
// so xrand deliberately avoids math/rand's global state. The core generator
// is PCG-XSH-RR (O'Neill 2014), a small, fast, statistically strong PRNG
// with cheap stream splitting: every node, every trial and every adversary
// gets its own independent stream derived from a root seed, which keeps
// parallel trial execution race-free and replayable.
package xrand

import "math"

// PCG is a PCG-XSH-RR 64/32 generator. The zero value is NOT usable; create
// instances with New or Split.
type PCG struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed on stream stream. Two generators
// with different streams are statistically independent even for equal seeds.
func New(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.state = p.inc + seed
	p.Uint32()
	return p
}

// State is a snapshot of a generator's position in its stream. Capturing
// and restoring it is how trial checkpointing resumes every rng stream at
// the exact draw it had reached — replaying a run suffix byte-identically.
type State struct {
	State  uint64
	Stream uint64
}

// State returns the generator's current state for later Restore.
func (p *PCG) State() State { return State{State: p.state, Stream: p.inc} }

// Restore returns a generator positioned exactly at s: its next draw is
// the same the captured generator would have produced.
func Restore(s State) *PCG { return &PCG{state: s.State, inc: s.Stream} }

// Split derives a new, independent generator from p. The child's seed and
// stream are drawn from p, so repeated Split calls yield distinct streams.
// Split advances p.
func (p *PCG) Split() *PCG {
	seed := uint64(p.Uint32())<<32 | uint64(p.Uint32())
	stream := uint64(p.Uint32())<<32 | uint64(p.Uint32())
	return New(seed, stream)
}

// Uint32 returns the next 32 uniform random bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniform random bits.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling keeps it unbiased.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint32(n)
	// Classic unbiased rejection: threshold = 2^32 mod n.
	threshold := -bound % bound
	for {
		r := p.Uint32()
		if r >= threshold {
			return int(r % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair random bit as a bool.
func (p *PCG) Bool() bool { return p.Uint32()&1 == 1 }

// Exp returns an exponentially distributed sample with rate lambda
// (mean 1/lambda). It panics if lambda <= 0. Used for Poisson-process
// inter-arrival times of memory-access tokens.
func (p *PCG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	for {
		u := p.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, via the Marsaglia polar method.
func (p *PCG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (p *PCG) Perm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly random element index weighted by weights.
// Zero-weight entries are never picked. It panics when the total weight
// is not positive.
func (p *PCG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: Pick with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Pick with non-positive total weight")
	}
	x := p.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
