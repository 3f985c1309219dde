package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed/stream diverged at step %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different ids coincide %d/1000 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(1, 1)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split streams coincide %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	p := New(3, 3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	p := New(11, 5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(9, 9)
	if err := quick.Check(func(_ int) bool {
		f := p.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	p := New(4, 4)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += p.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestExpMoments(t *testing.T) {
	p := New(5, 5)
	for _, lambda := range []float64{0.5, 1, 4} {
		sum := 0.0
		const trials = 200000
		for i := 0; i < trials; i++ {
			sum += p.Exp(lambda)
		}
		mean := sum / trials
		want := 1 / lambda
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("Exp(%v) mean = %v, want about %v", lambda, mean, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	p := New(7, 7)
	const mean, sd, trials = 3.0, 2.0, 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := p.Norm(mean, sd)
		sum += x
		sumSq += x * x
	}
	m := sum / trials
	v := sumSq/trials - m*m
	if math.Abs(m-mean) > 0.03 {
		t.Errorf("Norm mean = %v, want %v", m, mean)
	}
	if math.Abs(v-sd*sd) > 0.1 {
		t.Errorf("Norm variance = %v, want %v", v, sd*sd)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(10, 10)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		perm := p.Perm(n)
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPickWeights(t *testing.T) {
	p := New(12, 12)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[p.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight entry picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want about 3", ratio)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero total did not panic")
		}
	}()
	New(1, 1).Pick([]float64{0, 0})
}

func TestShuffleDeterministic(t *testing.T) {
	run := func() []int {
		p := New(99, 99)
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		p.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic for same seed")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Exp(1.5)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1, 1).Exp(0)
}

func TestPickNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	New(1, 1).Pick([]float64{1, -1})
}

func TestBoolBalance(t *testing.T) {
	p := New(30, 30)
	trues := 0
	for i := 0; i < 10000; i++ {
		if p.Bool() {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Fatalf("Bool biased: %d/10000", trues)
	}
}
