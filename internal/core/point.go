package core

import (
	"fmt"
	"math"

	"ptm/internal/bitmap"
	"ptm/internal/lpc"
	"ptm/internal/record"
)

// PointResult carries a point persistent traffic estimate (Section III-B)
// plus the intermediate quantities the formula consumed, for diagnostics
// and for the experiment harness.
type PointResult struct {
	// Estimate is n̂*, the estimated number of common vehicles, clamped
	// at zero.
	Estimate float64
	// Raw is the unclamped estimator output; small negative values occur
	// by sampling noise when the true persistent volume is near zero.
	Raw float64
	// M is the joined bitmap size, T the number of periods.
	M, T int
	// Va0 and Vb0 are the zero fractions of the subset joins E_a and E_b;
	// V1 is the one fraction of E* (the quantities of Eq. 12).
	Va0, Vb0, V1 float64
	// Na and Nb are the abstract independent-vehicle counts of Eq. (3).
	Na, Nb float64
}

// EstimatePoint computes the paper's point persistent traffic estimator
// (Eq. 12) over the records of one location with the paper's contiguous
// half split. See EstimatePointOpts for strategy control.
func EstimatePoint(set *record.Set) (*PointResult, error) {
	return EstimatePointOpts(set, SplitHalves)
}

// EstimatePointOpts is EstimatePoint with an explicit split strategy.
//
// The estimator consumes only the three bit fractions of Eq. (12), so no
// joined bitmap is ever materialized: Va0 and Vb0 come from fused
// AND+popcount kernels over each subset, and V1 from the same kernel over
// all t records (E* = E_a ∧ E_b is the AND of every record, by
// associativity). A subset join's zero fraction is invariant under the
// replication expansion, so counting at the subset's own largest size
// yields bit-for-bit the same fraction the materialized pipeline measured
// at m (DESIGN.md §8).
func EstimatePointOpts(set *record.Set, strategy SplitStrategy) (*PointResult, error) {
	if set.Len() < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrTooFewPeriods, set.Len())
	}
	bs := set.Bitmaps()
	m := set.MaxSize()
	pa, pb := strategy.split(bs)
	va0, vb0, v1, err := pointFractions(bs, pa, pb, m)
	if err != nil {
		return nil, err
	}
	return pointResultFromFractions(m, set.Len(), va0, vb0, v1)
}

// pointFractions measures the three bit fractions of Eq. (12) — the zero
// fractions of the subset joins E_a and E_b and the one fraction of E* —
// with fused AND+popcount kernels. This is the measurement hot path of
// the point estimator: it runs once per query over every record word,
// and it must stay allocation-free because the kernels it drives are.
// The AndOnes calls happen in the order pa, pb, bs so the floating-point
// results match the pre-refactor estimator bit for bit.
//
//ptm:noalloc
func pointFractions(bs, pa, pb []*bitmap.Bitmap, m int) (va0, vb0, v1 float64, err error) {
	onesA, mA, err := bitmap.AndOnes(pa)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: joining Π_a: %w", err)
	}
	onesB, mB, err := bitmap.AndOnes(pb)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: joining Π_b: %w", err)
	}
	onesStar, _, err := bitmap.AndOnes(bs)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: joining E*: %w", err)
	}
	va0 = float64(mA-onesA) / float64(mA)
	vb0 = float64(mB-onesB) / float64(mB)
	v1 = float64(onesStar) / float64(m)
	return va0, vb0, v1, nil
}

// pointResultFromFractions inverts Eq. (12) from the measured fractions.
// Every point estimate ends here, bootstrap replicates included.
func pointResultFromFractions(m, t int, va0, vb0, v1 float64) (*PointResult, error) {
	if va0 == 0 || vb0 == 0 {
		return nil, fmt.Errorf("%w: Va0=%v Vb0=%v", ErrSaturated, va0, vb0)
	}
	// Eq. (12): n̂* = [ln Va0 + ln Vb0 − ln(V1 + Va0 + Vb0 − 1)] / ln(1 − 1/m).
	arg := v1 + va0 + vb0 - 1
	if arg <= 0 {
		return nil, fmt.Errorf("%w: V1+Va0+Vb0-1 = %v", ErrDegenerate, arg)
	}
	logq := math.Log1p(-1 / float64(m))
	raw := (math.Log(va0) + math.Log(vb0) - math.Log(arg)) / logq

	na, err := lpc.Estimate(m, va0)
	if err != nil {
		return nil, fmt.Errorf("core: estimating n_a: %w", err)
	}
	nb, err := lpc.Estimate(m, vb0)
	if err != nil {
		return nil, fmt.Errorf("core: estimating n_b: %w", err)
	}
	return &PointResult{
		Estimate: math.Max(0, raw),
		Raw:      raw,
		M:        m,
		T:        t,
		Va0:      va0,
		Vb0:      vb0,
		V1:       v1,
		Na:       na,
		Nb:       nb,
	}, nil
}

// EstimatePointBaseline is the benchmark method of Section VI-B: apply
// plain linear probabilistic counting (Eq. 1) directly to E*, the AND of
// all t records. It systematically over-counts because transient-vehicle
// collisions also leave ones in E*; Fig. 4 quantifies the gap. Like
// EstimatePointOpts, it is a single fused count — E* never exists in
// memory.
//
//ptm:noalloc
func EstimatePointBaseline(set *record.Set) (float64, error) {
	if set.Len() < 2 {
		return 0, fmt.Errorf("%w: got %d", ErrTooFewPeriods, set.Len())
	}
	ones, m, err := bitmap.AndOnes(set.Bitmaps())
	if err != nil {
		return 0, fmt.Errorf("core: joining E*: %w", err)
	}
	v0 := float64(m-ones) / float64(m)
	if v0 == 0 {
		return 0, fmt.Errorf("%w: E* has no zero bits", ErrSaturated)
	}
	return lpc.Estimate(m, v0)
}

// EstimateVolume estimates a single record's plain traffic volume with
// Eq. (1); this is the per-period point (non-persistent) measurement.
func EstimateVolume(r *record.Record) (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	n, err := lpc.Estimate(r.Size(), r.Bitmap.FractionZero())
	if err != nil {
		return 0, fmt.Errorf("core: volume estimate: %w", err)
	}
	return n, nil
}
