package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ptm/internal/bitmap"
)

// Confidence intervals for the persistent-traffic estimators.
//
// The paper reports point estimates only. For operational use an interval
// matters: the estimators invert noisy bit fractions, and at small
// persistent volumes the sampling noise is a large relative effect. We
// compute intervals by parametric bootstrap: re-simulate the fitted
// generative model (the abstract independent-vehicle populations of
// Eq. 3/13 plus the estimated common population), re-run the estimator on
// each replicate, and take percentiles. This honestly propagates the
// nonlinearity of the inversion instead of relying on a delta-method
// linearization that breaks exactly where the interval is widest.

// Interval is a two-sided confidence interval for an estimate.
type Interval struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
	// Replicates is the number of bootstrap replicates used.
	Replicates int
}

// ErrBadLevel is returned for confidence levels outside (0, 1).
var ErrBadLevel = errors.New("core: confidence level outside (0, 1)")

// defaultReplicates balances interval stability against latency; 200
// replicates give percentile estimates stable to a few percent.
const defaultReplicates = 200

func percentiles(samples []float64, level float64) (lo, hi float64) {
	sort.Float64s(samples)
	alpha := (1 - level) / 2
	at := func(q float64) float64 {
		pos := q * float64(len(samples)-1)
		i := int(pos)
		if i >= len(samples)-1 {
			return samples[len(samples)-1]
		}
		frac := pos - float64(i)
		return samples[i]*(1-frac) + samples[i+1]*frac
	}
	return at(alpha), at(1 - alpha)
}

// setRandomBits sets n random bit positions in b.
func setRandomBits(b *bitmap.Bitmap, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		b.Set(rng.Uint64())
	}
}

// PointConfidence returns a bootstrap confidence interval for a point
// persistent estimate. replicates <= 0 selects the default. The result's
// randomness is fully determined by seed.
func PointConfidence(res *PointResult, level float64, replicates int, seed int64) (Interval, error) {
	if res == nil {
		return Interval{}, errors.New("core: nil result")
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("%w: %v", ErrBadLevel, level)
	}
	if replicates <= 0 {
		replicates = defaultReplicates
	}
	rng := rand.New(rand.NewSource(seed))
	nStar := int(res.Estimate + 0.5)
	nA := int(res.Na - res.Estimate + 0.5)
	nB := int(res.Nb - res.Estimate + 0.5)
	if nA < 0 {
		nA = 0
	}
	if nB < 0 {
		nB = 0
	}
	samples := make([]float64, 0, replicates)
	for r := 0; r < replicates; r++ {
		ea, err := bitmap.New(res.M)
		if err != nil {
			return Interval{}, err
		}
		eb, err := bitmap.New(res.M)
		if err != nil {
			return Interval{}, err
		}
		// Common vehicles set the same bit in both subset joins.
		for i := 0; i < nStar; i++ {
			idx := rng.Uint64()
			ea.Set(idx)
			eb.Set(idx)
		}
		setRandomBits(ea, nA, rng)
		setRandomBits(eb, nB, rng)
		onesStar, _, err := bitmap.AndOnes([]*bitmap.Bitmap{ea, eb})
		if err != nil {
			return Interval{}, err
		}
		rep, err := pointResultFromFractions(res.M, res.T, ea.FractionZero(), eb.FractionZero(), float64(onesStar)/float64(res.M))
		if err != nil {
			// Degenerate replicates (possible under extreme load) are
			// skipped rather than aborting the interval.
			continue
		}
		samples = append(samples, rep.Estimate)
	}
	if len(samples) < replicates/2 {
		return Interval{}, fmt.Errorf("%w: %d of %d bootstrap replicates degenerate", ErrDegenerate, replicates-len(samples), replicates)
	}
	lo, hi := percentiles(samples, level)
	return Interval{Lo: lo, Hi: hi, Level: level, Replicates: len(samples)}, nil
}

// PointToPointConfidence returns a bootstrap confidence interval for a
// point-to-point persistent estimate.
func PointToPointConfidence(res *PointToPointResult, level float64, replicates int, seed int64) (Interval, error) {
	if res == nil {
		return Interval{}, errors.New("core: nil result")
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("%w: %v", ErrBadLevel, level)
	}
	if replicates <= 0 {
		replicates = defaultReplicates
	}
	rng := rand.New(rand.NewSource(seed))
	nCommon := int(res.Estimate + 0.5)
	nL := int(res.N - res.Estimate + 0.5)
	nLP := int(res.NPrime - res.Estimate + 0.5)
	if nL < 0 {
		nL = 0
	}
	if nLP < 0 {
		nLP = 0
	}
	s := res.S
	samples := make([]float64, 0, replicates)
	for r := 0; r < replicates; r++ {
		eL, err := bitmap.New(res.M)
		if err != nil {
			return Interval{}, err
		}
		eLP, err := bitmap.New(res.MPrime)
		if err != nil {
			return Interval{}, err
		}
		// A common vehicle picks one of s representative hashes at each
		// location: same slot (probability 1/s) means the same 64-bit
		// hash, hence congruent indices after the mod reduction.
		for i := 0; i < nCommon; i++ {
			h1 := rng.Uint64()
			eL.Set(h1)
			if rng.Intn(s) == 0 {
				eLP.Set(h1)
			} else {
				eLP.Set(rng.Uint64())
			}
		}
		setRandomBits(eL, nL, rng)
		setRandomBits(eLP, nLP, rng)
		rep, err := p2pFromJoins(eL, eL.Ones(), eLP, eLP.Ones(), res.T, s)
		if err != nil {
			continue
		}
		samples = append(samples, rep.Estimate)
	}
	if len(samples) < replicates/2 {
		return Interval{}, fmt.Errorf("%w: %d of %d bootstrap replicates degenerate", ErrDegenerate, replicates-len(samples), replicates)
	}
	lo, hi := percentiles(samples, level)
	return Interval{Lo: lo, Hi: hi, Level: level, Replicates: len(samples)}, nil
}
