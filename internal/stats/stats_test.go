package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Variance != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Errorf("mean = %v, want 3", s.Mean)
	}
	if s.Variance != 2.5 {
		t.Errorf("variance = %v, want 2.5", s.Variance)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Variance != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

func TestSummaryProperties(t *testing.T) {
	p := xrand.New(1, 1)
	if err := quick.Check(func(seed uint32) bool {
		n := int(seed%100) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = p.Norm(0, 10)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Variance >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		if got := Quantile(xs, tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got := Quantile([]float64{0, 10}, 0.5)
	if got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestProportion(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	if p.Rate() != 0.5 {
		t.Errorf("rate = %v", p.Rate())
	}
	lo, hi := p.Wilson95()
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("Wilson interval [%v,%v] excludes the point estimate", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Errorf("Wilson interval [%v,%v] implausibly wide for n=100", lo, hi)
	}
}

func TestProportionEdges(t *testing.T) {
	zero := Proportion{0, 100}
	lo, hi := zero.Wilson95()
	if lo != 0 || hi > 0.05 {
		t.Errorf("all-failure interval [%v,%v]", lo, hi)
	}
	one := Proportion{100, 100}
	lo, hi = one.Wilson95()
	if hi < 0.999 || lo < 0.95 {
		t.Errorf("all-success interval [%v,%v]", lo, hi)
	}
	empty := Proportion{}
	lo, hi = empty.Wilson95()
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval [%v,%v], want [0,1]", lo, hi)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("under = %d", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("over = %d", h.Over)
	}
	if h.Bins[0] != 2 {
		t.Errorf("bin 0 = %d, want 2", h.Bins[0])
	}
	if h.Bins[9] != 1 {
		t.Errorf("bin 9 = %d, want 1", h.Bins[9])
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
}

func TestNormalTail(t *testing.T) {
	if got := NormalTail(0, 0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P[N>mean] = %v, want 0.5", got)
	}
	if got := NormalTail(1.96, 0, 1); math.Abs(got-0.025) > 0.001 {
		t.Errorf("P[N>1.96] = %v, want about 0.025", got)
	}
	if got := NormalTail(5, 10, 0); got != 1 {
		t.Errorf("degenerate tail below mean = %v, want 1", got)
	}
}

func TestPoissonTail(t *testing.T) {
	// P[X >= 1] = 1 - e^-lambda
	lambda := 2.0
	want := 1 - math.Exp(-lambda)
	if got := PoissonTail(1, lambda); math.Abs(got-want) > 1e-12 {
		t.Errorf("PoissonTail(1,%v) = %v, want %v", lambda, got, want)
	}
	if got := PoissonTail(0, 5); got != 1 {
		t.Errorf("PoissonTail(0) = %v, want 1", got)
	}
	// Tails are monotone decreasing in k.
	prev := 1.0
	for k := 1; k < 20; k++ {
		cur := PoissonTail(k, 3)
		if cur > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d: %v > %v", k, cur, prev)
		}
		prev = cur
	}
}

// TestPoissonTailMatchesSampler checks the analytical tail against a
// Poisson process: the number of Exp(lambda) arrivals in one unit of time.
func TestPoissonTailMatchesSampler(t *testing.T) {
	p := xrand.New(2, 2)
	const lambda, k, trials = 4.0, 6, 200000
	hits := 0
	for i := 0; i < trials; i++ {
		arrivals := 0
		for at := p.Exp(lambda); at < 1; at += p.Exp(lambda) {
			arrivals++
		}
		if arrivals >= k {
			hits++
		}
	}
	emp := float64(hits) / trials
	ana := PoissonTail(k, lambda)
	if math.Abs(emp-ana) > 0.01 {
		t.Fatalf("empirical tail %v vs analytical %v", emp, ana)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("fit = (%v, %v, %v), want (1, 2, 1)", a, b, r2)
	}
}

func TestLogFit(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 + 3*math.Log(x)
	}
	a, b, r2 := LogFit(xs, ys)
	if math.Abs(a-1) > 1e-9 || math.Abs(b-3) > 1e-9 || r2 < 0.999 {
		t.Fatalf("log fit = (%v, %v, %v), want (1, 3, 1)", a, b, r2)
	}
}

func TestLogFitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogFit with x=0 did not panic")
		}
	}()
	LogFit([]float64{0, 1}, []float64{0, 1})
}

func TestSummaryStringAndSEM(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.SEM() <= 0 || s.CI95() <= 0 {
		t.Fatal("SEM/CI95 not positive")
	}
	if str := s.String(); len(str) == 0 {
		t.Fatal("empty String")
	}
	empty := Summary{}
	if empty.SEM() != 0 {
		t.Fatal("empty SEM not 0")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestProportionString(t *testing.T) {
	p := Proportion{3, 10}
	if s := p.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram bounds did not panic")
		}
	}()
	NewHistogram(1, 1, 3)
}

func TestNormalTailDegenerateAbove(t *testing.T) {
	if got := NormalTail(15, 10, 0); got != 0 {
		t.Fatalf("degenerate tail above mean = %v, want 0", got)
	}
}

func TestPoissonTailZeroLambda(t *testing.T) {
	if got := PoissonTail(3, 0); got != 0 {
		t.Fatalf("PoissonTail with lambda=0: %v", got)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for _, f := range []func(){
		func() { LinearFit([]float64{1}, []float64{1}) },
		func() { LinearFit([]float64{2, 2}, []float64{1, 5}) }, // degenerate x
		func() { LogFit([]float64{1}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLinearFitPerfectlyFlat(t *testing.T) {
	// Zero variance in y: r² defined as 1.
	_, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if b != 0 || r2 != 1 {
		t.Fatalf("flat fit = (b=%v, r2=%v)", b, r2)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}
