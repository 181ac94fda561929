package core

import (
	"errors"
	"fmt"

	"ptm/internal/record"
)

// Beyond the paper's persistent estimators, the same join machinery
// answers two adjacent questions:
//
//   - Single-period point-to-point volume (the problem of the paper's
//     refs [15]/[16]): how many vehicles passed both L and L' during ONE
//     period. Setting t = 1 in the Section IV derivation changes nothing
//     — E* and E'* are simply the period's records — so Eq. (21) applies
//     directly.
//   - Multi-location persistent traffic: vehicles passing ALL of k >= 3
//     locations in every period. A closed-form estimator would need the
//     joint representative-bit correlation structure across k locations;
//     instead we expose the rigorous upper bound min over pairs, which is
//     tight when one pair dominates.

// ErrNeedTwoLocations is returned for multi-location queries with fewer
// than two locations.
var ErrNeedTwoLocations = errors.New("core: need at least two locations")

// EstimateODVolume estimates the number of vehicles that passed both
// locations during one measurement period, from the two locations'
// records for that period. The records must be from the same period; s is
// the system-wide representative-bit count.
func EstimateODVolume(recL, recLPrime *record.Record, s int) (*PointToPointResult, error) {
	if recL == nil || recLPrime == nil {
		return nil, record.ErrNilBitmap
	}
	if err := recL.Validate(); err != nil {
		return nil, err
	}
	if err := recLPrime.Validate(); err != nil {
		return nil, err
	}
	if recL.Period != recLPrime.Period {
		return nil, fmt.Errorf("%w: periods %d and %d", record.ErrPeriodSkew, recL.Period, recLPrime.Period)
	}
	// With t = 1 the period's records are E* and E′* themselves.
	return p2pFromJoins(recL.Bitmap, recL.Bitmap.Ones(), recLPrime.Bitmap, recLPrime.Bitmap.Ones(), 1, s)
}

// MultiPointResult is an upper bound on the persistent traffic through
// three or more locations.
type MultiPointResult struct {
	// UpperBound is min over location pairs of the pairwise persistent
	// estimate — a vehicle passing all locations passes every pair.
	UpperBound float64
	// BindingPair indexes (into the input slice) the pair that attains
	// the bound.
	BindingPair [2]int
	// Pairwise holds every pairwise estimate, row-major upper triangle.
	Pairwise map[[2]int]float64
}

// EstimateMultiPointUpperBound bounds the number of vehicles passing ALL
// of the given locations in every period by the minimum pairwise
// point-to-point persistent estimate.
func EstimateMultiPointUpperBound(sets []*record.Set, s int) (*MultiPointResult, error) {
	if len(sets) < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrNeedTwoLocations, len(sets))
	}
	res := &MultiPointResult{
		UpperBound: -1,
		Pairwise:   make(map[[2]int]float64),
	}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			est, err := EstimatePointToPoint(sets[i], sets[j], s)
			if err != nil {
				return nil, fmt.Errorf("core: pair (%d,%d): %w", i, j, err)
			}
			key := [2]int{i, j}
			res.Pairwise[key] = est.Estimate
			if res.UpperBound < 0 || est.Estimate < res.UpperBound {
				res.UpperBound = est.Estimate
				res.BindingPair = key
			}
		}
	}
	return res, nil
}
