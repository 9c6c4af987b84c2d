package streak

import (
	"math"
	"testing"

	"popgraph/internal/xrand"
)

// TestExpectedKFormula verifies Lemma 27a closed form against simulation:
// E[K] = 2^{h+1} − 2.
func TestExpectedKFormula(t *testing.T) {
	r := xrand.New(8)
	for _, h := range []int{1, 2, 3, 5} {
		want := ExpectedK(h)
		const trials = 60000
		var sum int64
		for i := 0; i < trials; i++ {
			sum += SampleK(h, r)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("h=%d: E[K] measured %v, formula %v", h, mean, want)
		}
	}
}

// TestLemma26Domination checks Geom(2^{-h}) ⪯ K ⪯ Geom(2^{-h-1}) + h at a
// few tail points by comparing empirical tail probabilities against the
// closed-form geometric tails with generous slack.
func TestLemma26Domination(t *testing.T) {
	r := xrand.New(10)
	const h = 3
	const trials = 40000
	samples := make([]int64, trials)
	for i := range samples {
		samples[i] = SampleK(h, r)
	}
	tail := func(k int64) float64 {
		count := 0
		for _, s := range samples {
			if s >= k {
				count++
			}
		}
		return float64(count) / trials
	}
	for _, k := range []int64{8, 16, 32, 64} {
		lower := math.Pow(1-1.0/(1<<h), float64(k))       // P[Geom(2^-h) >= k]... lower bound on tail
		upper := math.Pow(1-1.0/(1<<(h+1)), float64(k-h)) // P[Geom(2^-h-1)+h >= k]
		got := tail(k)
		slack := 0.02
		if got < lower-slack || got > upper+slack {
			t.Errorf("k=%d: tail %v outside [%v, %v]", k, got, lower, upper)
		}
	}
}

// TestExpectedXFormula verifies Lemma 27b: E[X(d)] = E[K]·m/d.
func TestExpectedXFormula(t *testing.T) {
	r := xrand.New(12)
	const h, m = 2, 40
	for _, d := range []int{1, 4, 10, 40} {
		want := ExpectedX(h, d, m)
		const trials = 30000
		var sum int64
		for i := 0; i < trials; i++ {
			sum += SampleX(h, d, m, r)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-want) > 0.06*want {
			t.Errorf("d=%d: E[X] measured %v, formula %v", d, mean, want)
		}
	}
}

// TestSampleRMean verifies E[R] = ℓ·E[K] (Lemma 28a).
func TestSampleRMean(t *testing.T) {
	r := xrand.New(14)
	const h, ell = 3, 20
	want := float64(ell) * ExpectedK(h)
	const trials = 4000
	var sum int64
	for i := 0; i < trials; i++ {
		sum += SampleR(h, ell, r)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("E[R] measured %v, want %v", mean, want)
	}
}

// TestSampleSMean verifies Lemma 29a: E[S] = (2^{h+1}−2)·ℓ·m/d.
func TestSampleSMean(t *testing.T) {
	r := xrand.New(16)
	const h, d, m, ell = 2, 3, 30, 10
	want := ExpectedK(h) * float64(ell) * float64(m) / float64(d)
	const trials = 4000
	var sum int64
	for i := 0; i < trials; i++ {
		sum += SampleS(h, d, m, ell, r)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-want) > 0.06*want {
		t.Errorf("E[S] measured %v, want %v", mean, want)
	}
}

// TestRConcentration exercises Lemma 28b/c qualitatively: for ℓ ≥ ln n,
// R concentrates within [E[R]/2, 4·E[R]] with overwhelming probability.
func TestRConcentration(t *testing.T) {
	r := xrand.New(18)
	const h, ell = 3, 12 // ell >= ln n for n up to e^12
	want := float64(ell) * ExpectedK(h)
	const trials = 3000
	outside := 0
	for i := 0; i < trials; i++ {
		v := float64(SampleR(h, ell, r))
		if v <= want/2 || v >= 4*want {
			outside++
		}
	}
	if frac := float64(outside) / trials; frac > 0.02 {
		t.Errorf("R escaped [E[R]/2, 4E[R]] in %v of runs", frac)
	}
}

func TestSampleXValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleX(2, 5, 3, xrand.New(1)) // d > m
}
