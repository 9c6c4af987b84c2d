// Package streak samples the space-efficient local approximate clock of
// Section 5.1: each node keeps a streak counter in {0, ..., h}; an
// initiator increments it, a responder resets it to zero, and reaching h
// "completes a streak" (a clock tick) and resets the counter. The clock
// itself runs inside the fast protocol (internal/protocols/fastelect);
// this package holds its distributions.
//
// The number K of interactions a node needs to complete a streak is the
// number of fair coin flips to see h consecutive heads:
//
//	E[K] = 2^{h+1} − 2                  (Lemma 27a)
//	Geom(2^{-h}) ⪯ K ⪯ Geom(2^{-h-1})+h (Lemma 26)
//
// and the number of scheduler steps X(d) for a degree-d node satisfies
// E[X(d)] = E[K]·m/d (Lemma 27b). The package provides the direct
// samplers for K, X(d), R and S(d, ℓ) used by experiment E8.
package streak

import (
	"fmt"

	"popgraph/internal/xrand"
)

// SampleK draws the number of interactions a fixed node needs to complete
// one streak of length h: fair coin flips until h consecutive heads.
func SampleK(h int, r *xrand.Rand) int64 {
	var flips int64
	run := 0
	for {
		flips++
		if r.Bool() {
			run++
			if run == h {
				return flips
			}
		} else {
			run = 0
		}
	}
}

// SampleX draws X(d): the number of scheduler steps until a fixed node of
// degree d, in a graph with m edges, completes one streak of length h.
// Between its interactions the node waits Geom(d/m) steps.
func SampleX(h, d, m int, r *xrand.Rand) int64 {
	if d < 1 || m < 1 || d > m {
		panic(fmt.Sprintf("streak: SampleX(d=%d, m=%d) invalid", d, m))
	}
	p := float64(d) / float64(m)
	var steps int64
	run := 0
	for {
		steps += r.Geometric(p)
		if r.Bool() {
			run++
			if run == h {
				return steps
			}
		} else {
			run = 0
		}
	}
}

// SampleR draws R: the number of interactions to complete ell streaks
// (a sum of ell independent copies of K, Lemma 28).
func SampleR(h, ell int, r *xrand.Rand) int64 {
	var total int64
	for i := 0; i < ell; i++ {
		total += SampleK(h, r)
	}
	return total
}

// SampleS draws S(d, ell): the number of scheduler steps until a fixed
// node of degree d completes ell streaks (Lemma 29).
func SampleS(h, d, m, ell int, r *xrand.Rand) int64 {
	var total int64
	for i := 0; i < ell; i++ {
		total += SampleX(h, d, m, r)
	}
	return total
}

// ExpectedK returns E[K] = 2^{h+1} − 2 (Lemma 27a).
func ExpectedK(h int) float64 { return float64(int64(1)<<(h+1)) - 2 }

// ExpectedX returns E[X(d)] = E[K]·m/d (Lemma 27b).
func ExpectedX(h, d, m int) float64 { return ExpectedK(h) * float64(m) / float64(d) }
