package core

// Differential harness for the fused estimator pipeline: the materialized
// reference implementations below reproduce the pre-kernel pipelines
// verbatim (ExpandTo every record, AndAll/OrAll, Clone+And/Or — for the
// estimators, the bootstrap replicates of the confidence intervals and
// the single-period OD volume alike), and every test demands that the
// fused estimators agree with them bit for bit — not approximately: the
// virtual-expansion fractions are exactly the materialized fractions, so
// the float64 results must be identical.
//
// The reference is also the body of BenchmarkJoinPoint and
// BenchmarkJoinPointToPoint.

import (
	"math"
	"math/rand"
	"testing"

	"ptm/internal/bitmap"
	"ptm/internal/lpc"
	"ptm/internal/record"
	"ptm/internal/synth"
	"ptm/internal/vhash"
)

// matPointJoin is the materialized joined state of Section III-B: the
// AND of each subset and the AND of the two, all at the largest size m.
type matPointJoin struct {
	M, T          int
	Ea, Eb, EStar *bitmap.Bitmap
}

// estimate inverts Eq. (12) from the materialized bitmaps' fractions.
func (j *matPointJoin) estimate() (*PointResult, error) {
	return pointResultFromFractions(j.M, j.T, j.Ea.FractionZero(), j.Eb.FractionZero(), j.EStar.FractionOne())
}

// matP2PJoin is the materialized two-level joined state of Section IV-A.
type matP2PJoin struct {
	M, MPrime, T                    int
	Swapped                         bool
	EStar, EStarPrime, EDoublePrime *bitmap.Bitmap
}

// estimate inverts Eq. (21) from the materialized bitmaps' fractions.
func (j *matP2PJoin) estimate(s int) (*PointToPointResult, error) {
	if s < 1 {
		return nil, ErrBadS
	}
	return p2pResultFromFractions(j.M, j.MPrime, s, j.T, j.Swapped,
		j.EStar.FractionZero(), j.EStarPrime.FractionZero(), j.EDoublePrime.FractionZero())
}

// materializedJoinPoint is the original point join: expand all records
// to m, AND-join each subset, AND the two joins.
func materializedJoinPoint(set *record.Set, strategy SplitStrategy) (*matPointJoin, error) {
	if set.Len() < 2 {
		return nil, ErrTooFewPeriods
	}
	bs := set.Bitmaps()
	m := set.MaxSize()
	expanded := make([]*bitmap.Bitmap, len(bs))
	for i, b := range bs {
		e, err := b.ExpandTo(m)
		if err != nil {
			return nil, err
		}
		expanded[i] = e
	}
	pa, pb := strategy.split(expanded)
	ea, err := bitmap.AndAll(pa)
	if err != nil {
		return nil, err
	}
	eb, err := bitmap.AndAll(pb)
	if err != nil {
		return nil, err
	}
	estar := ea.Clone()
	if err := estar.And(eb); err != nil {
		return nil, err
	}
	return &matPointJoin{M: m, T: set.Len(), Ea: ea, Eb: eb, EStar: estar}, nil
}

// materializedJoinPointToPoint is the original point-to-point join:
// AND-join each location, materialize the expansion of the smaller join,
// OR.
func materializedJoinPointToPoint(setL, setLPrime *record.Set) (*matP2PJoin, error) {
	if setL.Len() < 2 || setLPrime.Len() < 2 {
		return nil, ErrTooFewPeriods
	}
	if err := record.CheckAligned(setL, setLPrime); err != nil {
		return nil, err
	}
	eL, err := bitmap.AndAll(setL.Bitmaps())
	if err != nil {
		return nil, err
	}
	eLP, err := bitmap.AndAll(setLPrime.Bitmaps())
	if err != nil {
		return nil, err
	}
	return materializedSecondLevel(eL, eLP, setL.Len())
}

// materializedSecondLevel orders two first-level joins so that m <= m′,
// materializes the expansion of the smaller and ORs it into a copy of
// the larger.
func materializedSecondLevel(eL, eLP *bitmap.Bitmap, t int) (*matP2PJoin, error) {
	swapped := false
	if eL.Size() > eLP.Size() {
		eL, eLP = eLP, eL
		swapped = true
	}
	sStar, err := eL.ExpandTo(eLP.Size())
	if err != nil {
		return nil, err
	}
	edp := sStar.Clone()
	if err := edp.Or(eLP); err != nil {
		return nil, err
	}
	return &matP2PJoin{
		M: eL.Size(), MPrime: eLP.Size(), T: t, Swapped: swapped,
		EStar: eL, EStarPrime: eLP, EDoublePrime: edp,
	}, nil
}

// materializedODVolume is the original EstimateODVolume: the period's
// two records are E* and E′*, and E″* is materialized by ExpandTo+Or.
func materializedODVolume(recL, recLPrime *record.Record, s int) (*PointToPointResult, error) {
	if recL.Period != recLPrime.Period {
		return nil, record.ErrPeriodSkew
	}
	j, err := materializedSecondLevel(recL.Bitmap, recLPrime.Bitmap, 1)
	if err != nil {
		return nil, err
	}
	return j.estimate(s)
}

// materializedPointConfidence is the original PointConfidence replicate
// loop: each replicate materializes E* = E_a ∧ E_b with Clone+And.
func materializedPointConfidence(res *PointResult, level float64, replicates int, seed int64) (Interval, error) {
	rng := rand.New(rand.NewSource(seed))
	nStar := int(res.Estimate + 0.5)
	nA := max(int(res.Na-res.Estimate+0.5), 0)
	nB := max(int(res.Nb-res.Estimate+0.5), 0)
	var samples []float64
	for r := 0; r < replicates; r++ {
		ea, eb := bitmap.MustNew(res.M), bitmap.MustNew(res.M)
		for i := 0; i < nStar; i++ {
			idx := rng.Uint64()
			ea.Set(idx)
			eb.Set(idx)
		}
		setRandomBits(ea, nA, rng)
		setRandomBits(eb, nB, rng)
		estar := ea.Clone()
		if err := estar.And(eb); err != nil {
			return Interval{}, err
		}
		rep, err := (&matPointJoin{M: res.M, T: res.T, Ea: ea, Eb: eb, EStar: estar}).estimate()
		if err != nil {
			continue
		}
		samples = append(samples, rep.Estimate)
	}
	if len(samples) < replicates/2 {
		return Interval{}, ErrDegenerate
	}
	lo, hi := percentiles(samples, level)
	return Interval{Lo: lo, Hi: hi, Level: level, Replicates: len(samples)}, nil
}

// materializedP2PConfidence is the original PointToPointConfidence
// replicate loop: each replicate materializes E″* with ExpandTo+Clone+Or.
func materializedP2PConfidence(res *PointToPointResult, level float64, replicates int, seed int64) (Interval, error) {
	rng := rand.New(rand.NewSource(seed))
	nCommon := int(res.Estimate + 0.5)
	nL := max(int(res.N-res.Estimate+0.5), 0)
	nLP := max(int(res.NPrime-res.Estimate+0.5), 0)
	s := res.S
	var samples []float64
	for r := 0; r < replicates; r++ {
		eL, eLP := bitmap.MustNew(res.M), bitmap.MustNew(res.MPrime)
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
		sStar, err := eL.ExpandTo(res.MPrime)
		if err != nil {
			return Interval{}, err
		}
		edp := sStar.Clone()
		if err := edp.Or(eLP); err != nil {
			return Interval{}, err
		}
		rep, err := (&matP2PJoin{
			M: res.M, MPrime: res.MPrime, T: res.T,
			EStar: eL, EStarPrime: eLP, EDoublePrime: edp,
		}).estimate(s)
		if err != nil {
			continue
		}
		samples = append(samples, rep.Estimate)
	}
	if len(samples) < replicates/2 {
		return Interval{}, ErrDegenerate
	}
	lo, hi := percentiles(samples, level)
	return Interval{Lo: lo, Hi: hi, Level: level, Replicates: len(samples)}, nil
}

// materializedKWay is the original EstimatePointKWay join: expand all
// records, AND-join each round-robin group, AND the group joins.
func materializedKWay(set *record.Set, k int) (m int, v0 []float64, v1 float64, err error) {
	m = set.MaxSize()
	groups := make([][]*bitmap.Bitmap, k)
	for i, b := range set.Bitmaps() {
		e, err := b.ExpandTo(m)
		if err != nil {
			return 0, nil, 0, err
		}
		groups[i%k] = append(groups[i%k], e)
	}
	joins := make([]*bitmap.Bitmap, k)
	v0 = make([]float64, k)
	for i, g := range groups {
		j, err := bitmap.AndAll(g)
		if err != nil {
			return 0, nil, 0, err
		}
		joins[i] = j
		v0[i] = j.FractionZero()
	}
	estar := joins[0].Clone()
	for _, j := range joins[1:] {
		if err := estar.And(j); err != nil {
			return 0, nil, 0, err
		}
	}
	return m, v0, estar.FractionOne(), nil
}

// diffWorkloads yields point and pair workloads with deliberately mixed
// record sizes (per-period sizing) as well as the paper's uniform sizing.
func diffPointSets(t *testing.T, trials int) []*record.Set {
	t.Helper()
	var sets []*record.Set
	for i := 0; i < trials; i++ {
		g, err := synth.NewGenerator(uint64(100+i), 3)
		if err != nil {
			t.Fatal(err)
		}
		vols, err := g.Volumes(3+i%5, 200, 3000)
		if err != nil {
			t.Fatal(err)
		}
		w, err := g.Point(synth.PointConfig{
			Loc: 1, Volumes: vols, NCommon: 20 + 10*i,
			PerPeriodSizing: i%2 == 1, // odd trials: mixed sizes within the set
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, w.Set)
	}
	return sets
}

func requireSameFloat(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: fused %v != materialized %v (not bit-identical)", name, got, want)
	}
}

func TestEstimatePointMatchesMaterialized(t *testing.T) {
	for _, set := range diffPointSets(t, 8) {
		for _, strat := range []SplitStrategy{SplitHalves, SplitInterleaved} {
			j, err := materializedJoinPoint(set, strat)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := j.estimate()
			got, gotErr := EstimatePointOpts(set, strat)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: fused %v, materialized %v", gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			requireSameFloat(t, "Estimate", got.Estimate, want.Estimate)
			requireSameFloat(t, "Raw", got.Raw, want.Raw)
			requireSameFloat(t, "Va0", got.Va0, want.Va0)
			requireSameFloat(t, "Vb0", got.Vb0, want.Vb0)
			requireSameFloat(t, "V1", got.V1, want.V1)
			requireSameFloat(t, "Na", got.Na, want.Na)
			requireSameFloat(t, "Nb", got.Nb, want.Nb)
			if got.M != want.M || got.T != want.T {
				t.Fatalf("M/T mismatch: (%d,%d) vs (%d,%d)", got.M, got.T, want.M, want.T)
			}
		}
	}
}

func TestEstimatePointBaselineMatchesMaterialized(t *testing.T) {
	for _, set := range diffPointSets(t, 6) {
		j, err := materializedJoinPoint(set, SplitHalves)
		if err != nil {
			t.Fatal(err)
		}
		v0 := j.EStar.FractionZero()
		want, wantErr := lpc.Estimate(j.M, v0)
		got, gotErr := EstimatePointBaseline(set)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: %v vs %v", gotErr, wantErr)
		}
		if wantErr == nil {
			requireSameFloat(t, "baseline", got, want)
		}
	}
}

// diffPairs yields two-location workloads over 2..5 periods; location B
// carries 10x location A's traffic, so its records are larger (m < m′)
// except in every third workload, which forces the same size.
func diffPairs(t *testing.T, n int) []*synth.PairWorkload {
	t.Helper()
	var ws []*synth.PairWorkload
	for i := 0; i < n; i++ {
		g, err := synth.NewGenerator(uint64(500+i), 3)
		if err != nil {
			t.Fatal(err)
		}
		t0 := 2 + i%4
		volsA, err := g.Volumes(t0, 200, 2000)
		if err != nil {
			t.Fatal(err)
		}
		volsB, err := g.Volumes(t0, 2000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		w, err := g.Pair(synth.PairConfig{
			LocA: 1, LocB: 2, VolumesA: volsA, VolumesB: volsB,
			NCommon: 50 + 20*i, SameSize: i%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// requireSameP2P demands bit-identical Eq. (21) results.
func requireSameP2P(t *testing.T, got, want *PointToPointResult) {
	t.Helper()
	requireSameFloat(t, "Estimate", got.Estimate, want.Estimate)
	requireSameFloat(t, "Raw", got.Raw, want.Raw)
	requireSameFloat(t, "Exact", got.Exact, want.Exact)
	requireSameFloat(t, "V0", got.V0, want.V0)
	requireSameFloat(t, "V0Prime", got.V0Prime, want.V0Prime)
	requireSameFloat(t, "V0DoublePrime", got.V0DoublePrime, want.V0DoublePrime)
	requireSameFloat(t, "N", got.N, want.N)
	requireSameFloat(t, "NPrime", got.NPrime, want.NPrime)
	if got.M != want.M || got.MPrime != want.MPrime || got.T != want.T || got.S != want.S || got.Swapped != want.Swapped {
		t.Fatalf("meta mismatch: %+v vs %+v", got, want)
	}
}

func TestEstimatePointToPointMatchesMaterialized(t *testing.T) {
	sc := new(bitmap.JoinScratch)
	for _, w := range diffPairs(t, 8) {
		j, err := materializedJoinPointToPoint(w.SetA, w.SetB)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := j.estimate(3)

		// The fused estimator, with and without a reused scratch.
		for _, scratch := range []*bitmap.JoinScratch{nil, sc, sc} { // sc twice: reuse across calls
			got, gotErr := EstimatePointToPointWith(scratch, w.SetA, w.SetB, 3)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: %v vs %v", gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			requireSameP2P(t, got, want)
		}

		// Baseline AND variant.
		sStar, err := j.EStar.ExpandTo(j.MPrime)
		if err != nil {
			t.Fatal(err)
		}
		and := sStar.Clone()
		if err := and.And(j.EStarPrime); err != nil {
			t.Fatal(err)
		}
		wantB, wantBErr := lpc.Estimate(j.MPrime, and.FractionZero())
		gotB, gotBErr := EstimatePointToPointBaselineAND(w.SetA, w.SetB)
		if (wantBErr == nil) != (gotBErr == nil) {
			t.Fatalf("baseline error mismatch: %v vs %v", gotBErr, wantBErr)
		}
		if wantBErr == nil {
			requireSameFloat(t, "baselineAND", gotB, wantB)
		}
	}
}

func TestEstimatePointKWayMatchesMaterialized(t *testing.T) {
	for _, set := range diffPointSets(t, 6) {
		for k := 2; k <= set.Len(); k++ {
			m, v0, v1, err := materializedKWay(set, k)
			if err != nil {
				t.Fatal(err)
			}
			saturated := false
			for _, v := range v0 {
				if v == 0 {
					saturated = true
				}
			}
			got, gotErr := EstimatePointKWay(set, k)
			if saturated {
				if gotErr == nil {
					t.Fatal("fused k-way missed saturation")
				}
				continue
			}
			if gotErr != nil {
				t.Fatal(gotErr)
			}
			want, err := invertKWay(m, v0, v1)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFloat(t, "kway Estimate", got.Estimate, want)
			requireSameFloat(t, "kway V1", got.V1, v1)
			for i := range v0 {
				requireSameFloat(t, "kway V0", got.V0[i], v0[i])
			}
		}
	}
}

// TestScratchIndependence: results computed with a heavily reused scratch
// must not depend on stale contents from earlier, larger joins.
func TestScratchIndependence(t *testing.T) {
	sc := new(bitmap.JoinScratch)
	ws := diffPairs(t, 6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		w := ws[rng.Intn(len(ws))]
		fresh, freshErr := EstimatePointToPointWith(nil, w.SetA, w.SetB, 3)
		reused, reusedErr := EstimatePointToPointWith(sc, w.SetA, w.SetB, 3)
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("error mismatch: %v vs %v", reusedErr, freshErr)
		}
		if freshErr != nil {
			continue
		}
		requireSameP2P(t, reused, fresh)
	}
}

// requireSameInterval demands bit-identical bootstrap intervals.
func requireSameInterval(t *testing.T, got, want Interval) {
	t.Helper()
	requireSameFloat(t, "Lo", got.Lo, want.Lo)
	requireSameFloat(t, "Hi", got.Hi, want.Hi)
	requireSameFloat(t, "Level", got.Level, want.Level)
	if got.Replicates != want.Replicates {
		t.Fatalf("replicates: fused %d, materialized %d", got.Replicates, want.Replicates)
	}
}

func TestPointConfidenceMatchesMaterialized(t *testing.T) {
	compared := 0
	for _, set := range diffPointSets(t, 6) {
		res, err := EstimatePoint(set)
		if err != nil {
			continue // saturated workloads have no interval to compare
		}
		for seed := int64(1); seed <= 3; seed++ {
			want, wantErr := materializedPointConfidence(res, 0.9, 60, seed)
			got, gotErr := PointConfidence(res, 0.9, 60, seed)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: fused %v, materialized %v", gotErr, wantErr)
			}
			if wantErr == nil {
				requireSameInterval(t, got, want)
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("every workload saturated: no interval compared")
	}
}

func TestPointToPointConfidenceMatchesMaterialized(t *testing.T) {
	unequal := 0
	for _, w := range diffPairs(t, 6) {
		res, err := EstimatePointToPoint(w.SetA, w.SetB, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.M != res.MPrime {
			unequal++
		}
		for seed := int64(1); seed <= 3; seed++ {
			want, wantErr := materializedP2PConfidence(res, 0.9, 60, seed)
			got, gotErr := PointToPointConfidence(res, 0.9, 60, seed)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: fused %v, materialized %v", gotErr, wantErr)
			}
			if wantErr == nil {
				requireSameInterval(t, got, want)
			}
		}
	}
	if unequal == 0 {
		t.Fatal("no workload with m < m′: the virtual expansion went untested")
	}
}

func TestEstimateODVolumeMatchesMaterialized(t *testing.T) {
	compared := 0
	sizes := [][2]int{{1 << 10, 1 << 10}, {1 << 10, 1 << 13}, {1 << 12, 1 << 16}, {64, 1 << 12}}
	for i, sz := range sizes {
		pool := newIDPool(t, 3, uint64(300+i))
		common := pool.take(40 + 30*i)
		build := func(loc vhash.LocationID, m int) *record.Record {
			r, err := record.New(loc, 7, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range common {
				r.Bitmap.Set(v.Index(loc, m))
			}
			for _, v := range pool.take(m / 3) {
				r.Bitmap.Set(v.Index(loc, m))
			}
			return r
		}
		recL, recLP := build(1, sz[0]), build(2, sz[1])
		for _, order := range [][2]*record.Record{{recL, recLP}, {recLP, recL}} {
			want, wantErr := materializedODVolume(order[0], order[1], 3)
			got, gotErr := EstimateODVolume(order[0], order[1], 3)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: fused %v, materialized %v", gotErr, wantErr)
			}
			if wantErr == nil {
				requireSameP2P(t, got, want)
				compared++
			}
		}
	}
	if compared < len(sizes) {
		t.Fatalf("only %d of %d OD rows compared", compared, 2*len(sizes))
	}
}
