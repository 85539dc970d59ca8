package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkDecorrelates(t *testing.T) {
	g := NewRNG(1)
	a := g.Fork("availability")
	b := NewRNG(1).Fork("runtimes")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams with different labels agree on %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", x)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 2000; i++ {
		x := g.TruncNormal(1000, 500, 100, 3000)
		if x < 100 || x > 3000 {
			t.Fatalf("TruncNormal out of bounds: %v", x)
		}
	}
}

func TestTruncNormalZeroStdev(t *testing.T) {
	g := NewRNG(3)
	if x := g.TruncNormal(50, 0, 0, 100); x != 50 {
		t.Fatalf("TruncNormal with stdev 0 = %v, want 50", x)
	}
	if x := g.TruncNormal(500, 0, 0, 100); x != 100 {
		t.Fatalf("TruncNormal clamps mean to hi: got %v, want 100", x)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11)
	var m Mean
	for i := 0; i < 50000; i++ {
		m.Add(g.Exp(3600))
	}
	if math.Abs(m.Mean()-3600) > 100 {
		t.Fatalf("Exp(3600) sample mean = %v, want ~3600", m.Mean())
	}
	if g.Exp(0) != 0 || g.Exp(-5) != 0 {
		t.Fatal("Exp with nonpositive mean should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(13)
	var m Mean
	for i := 0; i < 50000; i++ {
		m.Add(g.Normal(10, 2))
	}
	if math.Abs(m.Mean()-10) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~10", m.Mean())
	}
	if math.Abs(m.Stdev()-2) > 0.1 {
		t.Fatalf("Normal stdev = %v, want ~2", m.Stdev())
	}
}

func TestLognormalMedian(t *testing.T) {
	g := NewRNG(17)
	n, below := 20000, 0
	for i := 0; i < n; i++ {
		if g.Lognormal(0, 0.5) < 1 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("Lognormal(0,.5) median fraction below 1 = %v, want ~0.5", frac)
	}
}

func TestMeanWelford(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 || m.Mean() != 5 {
		t.Fatalf("mean = %v (n=%d), want 5 (8)", m.Mean(), m.N())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(m.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", m.Var(), 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Var() != 0 || m.CI95() != 0 {
		t.Fatal("empty Mean should report zeros")
	}
}

func TestRMS(t *testing.T) {
	var r RMS
	r.Add(3)
	r.Add(4)
	want := math.Sqrt(12.5)
	if math.Abs(r.Value()-want) > 1e-12 {
		t.Fatalf("RMS = %v, want %v", r.Value(), want)
	}
	var empty RMS
	if empty.Value() != 0 {
		t.Fatal("empty RMS should be 0")
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Fatalf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPropertyClampRange(t *testing.T) {
	f := func(x float64) bool {
		v := Clamp01(x)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
