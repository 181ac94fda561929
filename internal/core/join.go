// Package core implements the paper's primary contribution: the persistent
// traffic estimators of Sections III (point) and IV (point-to-point),
// together with the simpler baseline estimators the evaluation compares
// against. Every estimator measures its bit fractions with the fused join
// kernels of internal/bitmap and ends in one of two shared tails: Eq. (12)
// for point estimates, Eq. (21) for point-to-point ones.
package core

import (
	"errors"
	"fmt"

	"ptm/internal/bitmap"
)

// Estimation errors.
var (
	// ErrTooFewPeriods is returned when a persistent estimate is requested
	// over fewer than two periods; with t = 1 the problem degenerates to
	// plain volume estimation (use EstimateVolume).
	ErrTooFewPeriods = errors.New("core: persistent estimation needs at least 2 periods")
	// ErrSaturated is returned when a joined bitmap has no zero bits, so
	// the linear-counting step diverges. Increase the load factor f.
	ErrSaturated = errors.New("core: joined bitmap saturated (no zero bits)")
	// ErrDegenerate is returned when the measured bit fractions are
	// inconsistent with the probabilistic model (the log argument of the
	// estimator is non-positive). This only happens under extreme
	// saturation or corrupted records.
	ErrDegenerate = errors.New("core: measured fractions outside the estimator's domain")
	// ErrBadS is returned for non-positive representative-bit counts.
	ErrBadS = errors.New("core: s must be >= 1")
)

// SplitStrategy selects how the t expanded bitmaps Π are divided into the
// two subsets Π_a and Π_b of Section III-B. The paper uses contiguous
// halves; interleaved splitting is provided for the ablation study (it
// changes nothing statistically when periods are exchangeable, and the
// ablation bench demonstrates that).
type SplitStrategy int

const (
	// SplitHalves assigns the first ⌈t/2⌉ records to Π_a and the rest to
	// Π_b (the paper's split).
	SplitHalves SplitStrategy = iota
	// SplitInterleaved assigns even-indexed records to Π_a and odd-indexed
	// ones to Π_b.
	SplitInterleaved
)

// String implements fmt.Stringer.
func (s SplitStrategy) String() string {
	switch s {
	case SplitHalves:
		return "halves"
	case SplitInterleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("SplitStrategy(%d)", int(s))
	}
}

func (s SplitStrategy) split(bs []*bitmap.Bitmap) (a, b []*bitmap.Bitmap) {
	switch s {
	case SplitInterleaved:
		for i, bm := range bs {
			if i%2 == 0 {
				a = append(a, bm)
			} else {
				b = append(b, bm)
			}
		}
		return a, b
	default: // SplitHalves
		half := (len(bs) + 1) / 2
		return bs[:half], bs[half:]
	}
}
