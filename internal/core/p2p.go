package core

import (
	"fmt"
	"math"

	"ptm/internal/bitmap"
	"ptm/internal/lpc"
	"ptm/internal/record"
)

// PointToPointResult carries a point-to-point persistent traffic estimate
// (Section IV-B) and the intermediate quantities of Eq. (21).
type PointToPointResult struct {
	// Estimate is n̂″, the estimated number of vehicles passing both
	// locations in every period, clamped at zero.
	Estimate float64
	// Raw is the unclamped estimator output.
	Raw float64
	// Exact is the estimate from the exact inversion of Eq. (19), i.e.
	// without the paper's ln(1+x) ≈ x approximation. For the bitmap sizes
	// of interest it differs from Raw by well under 0.1%.
	Exact float64
	// M and MPrime are the two joined sizes (M <= MPrime); S the
	// representative-bit parameter; T the number of periods.
	M, MPrime, S, T int
	// Swapped reports whether the locations were reordered so M <= MPrime.
	Swapped bool
	// V0, V0Prime, V0DoublePrime are the zero fractions of E*, E′* and E″*.
	V0, V0Prime, V0DoublePrime float64
	// N and NPrime are the abstract independent-vehicle counts of Eq. (13).
	N, NPrime float64
}

// EstimatePointToPoint computes the paper's point-to-point persistent
// traffic estimator (Eq. 21) from the two locations' record sets. s is the
// number of representative bits per vehicle configured system-wide
// (Section II-D); the estimate is meaningful only if it matches the s the
// vehicles actually used.
func EstimatePointToPoint(setL, setLPrime *record.Set, s int) (*PointToPointResult, error) {
	return EstimatePointToPointWith(nil, setL, setLPrime, s)
}

// EstimatePointToPointWith is EstimatePointToPoint with the two
// first-level joins E* and E′* held in sc, which is Reset on entry — a
// worker that owns one scratch and queries in a loop performs the whole
// two-level pipeline without allocating bitmap storage. The second-level
// join E″* is never materialized at all: its zero count comes from a
// fused OR+popcount over E* (virtually expanded) and E′*. A nil sc
// allocates the two first-level joins fresh.
func EstimatePointToPointWith(sc *bitmap.JoinScratch, setL, setLPrime *record.Set, s int) (*PointToPointResult, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadS, s)
	}
	sc.Reset()
	eL, onesL, eLP, onesLP, err := firstLevelJoins(sc, setL, setLPrime)
	if err != nil {
		return nil, err
	}
	return p2pFromJoins(eL, onesL, eLP, onesLP, setL.Len(), s)
}

// firstLevelJoins checks that the two sets cover the same t >= 2 periods
// and AND-joins each into sc: E* at L and E′* at L′, with their popcounts
// (Section IV-A).
func firstLevelJoins(sc *bitmap.JoinScratch, setL, setLPrime *record.Set) (eL *bitmap.Bitmap, onesL int, eLP *bitmap.Bitmap, onesLP int, err error) {
	if setL.Len() < 2 || setLPrime.Len() < 2 {
		return nil, 0, nil, 0, fmt.Errorf("%w: got %d and %d", ErrTooFewPeriods, setL.Len(), setLPrime.Len())
	}
	if err := record.CheckAligned(setL, setLPrime); err != nil {
		return nil, 0, nil, 0, err
	}
	eL, onesL, err = sc.AndAll(setL.Bitmaps())
	if err != nil {
		return nil, 0, nil, 0, fmt.Errorf("core: joining records at L: %w", err)
	}
	eLP, onesLP, err = sc.AndAll(setLPrime.Bitmaps())
	if err != nil {
		return nil, 0, nil, 0, fmt.Errorf("core: joining records at L': %w", err)
	}
	return eL, onesL, eLP, onesLP, nil
}

// EstimatePointToPointFromJoins is the second level of Eq. (21) over
// first-level AND joins computed elsewhere: E* at L (with onesL set bits)
// and E′* at L′ (onesLP set bits), each over the same t >= 2 periods. The
// cluster router ends here, with E* and E′* received from the two
// locations' partitions.
func EstimatePointToPointFromJoins(eL *bitmap.Bitmap, onesL int, eLP *bitmap.Bitmap, onesLP, t, s int) (*PointToPointResult, error) {
	if t < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrTooFewPeriods, t)
	}
	return p2pFromJoins(eL, onesL, eLP, onesLP, t, s)
}

// p2pFromJoins is the one Eq. (21) tail, shared by every point-to-point
// estimate — persistent, single-period OD volume (t = 1) and bootstrap
// replicate alike. It orders the two joins so that m <= m′, counts E″*
// with a fused OR+popcount over E* (virtually expanded) and E′* without
// materializing it, and inverts the zero fractions.
func p2pFromJoins(eL *bitmap.Bitmap, onesL int, eLP *bitmap.Bitmap, onesLP, t, s int) (*PointToPointResult, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadS, s)
	}
	swapped := false
	if eL.Size() > eLP.Size() {
		eL, eLP = eLP, eL
		onesL, onesLP = onesLP, onesL
		swapped = true
	}
	onesDP, mPrime, err := bitmap.OrOnes([]*bitmap.Bitmap{eL, eLP})
	if err != nil {
		return nil, fmt.Errorf("core: second-level OR join: %w", err)
	}
	m := eL.Size()
	v0 := float64(m-onesL) / float64(m)
	v0p := float64(mPrime-onesLP) / float64(mPrime)
	v0dp := float64(mPrime-onesDP) / float64(mPrime)
	return p2pResultFromFractions(m, mPrime, s, t, swapped, v0, v0p, v0dp)
}

// p2pResultFromFractions inverts Eq. (21) from the measured fractions.
func p2pResultFromFractions(m, mPrime, s, t int, swapped bool, v0, v0p, v0dp float64) (*PointToPointResult, error) {
	if v0 == 0 || v0p == 0 {
		return nil, fmt.Errorf("%w: V0=%v V0'=%v", ErrSaturated, v0, v0p)
	}
	if v0dp == 0 {
		return nil, fmt.Errorf("%w: E''* has no zero bits", ErrSaturated)
	}
	// Eq. (21): n̂″ = s·m′·(ln V″0 − ln V*0 − ln V′0).
	diff := math.Log(v0dp) - math.Log(v0) - math.Log(v0p)
	mp := float64(mPrime)
	raw := float64(s) * mp * diff
	// Exact inversion of Eq. (19): n″ = diff / ln(1 + 1/(s·m′ − s)).
	exact := diff / math.Log1p(1/(float64(s)*mp-float64(s)))

	n, err := lpc.Estimate(m, v0)
	if err != nil {
		return nil, fmt.Errorf("core: estimating n: %w", err)
	}
	np, err := lpc.Estimate(mPrime, v0p)
	if err != nil {
		return nil, fmt.Errorf("core: estimating n': %w", err)
	}
	return &PointToPointResult{
		Estimate:      math.Max(0, raw),
		Raw:           raw,
		Exact:         exact,
		M:             m,
		MPrime:        mPrime,
		S:             s,
		T:             t,
		Swapped:       swapped,
		V0:            v0,
		V0Prime:       v0p,
		V0DoublePrime: v0dp,
		N:             n,
		NPrime:        np,
	}, nil
}

// EstimatePointToPointBaselineAND is the naive second-level design the
// paper rejects in Section IV-A: AND the two per-location joins and run
// plain linear counting on the result. Because a common vehicle generally
// sets *different* indices at the two locations (probability 1-1/m of
// differing per representative choice), the AND destroys most of the
// common-vehicle signal; the ablation bench quantifies the failure.
func EstimatePointToPointBaselineAND(setL, setLPrime *record.Set) (float64, error) {
	eL, _, eLP, _, err := firstLevelJoins(nil, setL, setLPrime)
	if err != nil {
		return 0, err
	}
	ones, mPrime, err := bitmap.AndOnes([]*bitmap.Bitmap{eL, eLP})
	if err != nil {
		return 0, err
	}
	v0 := float64(mPrime-ones) / float64(mPrime)
	if v0 == 0 {
		return 0, fmt.Errorf("%w: AND join has no zero bits", ErrSaturated)
	}
	return lpc.Estimate(mPrime, v0)
}
