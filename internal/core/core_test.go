package core

import (
	"errors"
	"math"
	"testing"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// idPool hands out vehicle identities with unique IDs, deterministically
// derived from a seed.
type idPool struct {
	tb   testing.TB
	next uint64
	s    int
	seed uint64
}

func newIDPool(tb testing.TB, s int, seed uint64) *idPool {
	return &idPool{tb: tb, s: s, seed: seed}
}

func (p *idPool) take(n int) []*vhash.Identity {
	out := make([]*vhash.Identity, n)
	for i := range out {
		v, err := vhash.NewSeededIdentity(vhash.VehicleID(p.next), p.s, p.seed)
		if err != nil {
			p.tb.Fatal(err)
		}
		p.next++
		out[i] = v
	}
	return out
}

// makeSet builds a record set at loc with the given bitmap size: the common
// vehicles appear in every period, plus transientPerPeriod[j] fresh
// transient vehicles in period j.
func makeSet(tb testing.TB, pool *idPool, loc vhash.LocationID, m int, common []*vhash.Identity, transientPerPeriod []int) *record.Set {
	tb.Helper()
	recs := make([]*record.Record, len(transientPerPeriod))
	for j, nt := range transientPerPeriod {
		r, err := record.New(loc, record.PeriodID(j+1), m)
		if err != nil {
			tb.Fatal(err)
		}
		for _, v := range common {
			r.Bitmap.Set(v.Index(loc, m))
		}
		for _, v := range pool.take(nt) {
			r.Bitmap.Set(v.Index(loc, m))
		}
		recs[j] = r
	}
	set, err := record.NewSet(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

func relErr(est, actual float64) float64 {
	return math.Abs(est-actual) / actual
}

func TestSplitStrategyString(t *testing.T) {
	if SplitHalves.String() != "halves" || SplitInterleaved.String() != "interleaved" {
		t.Error("unexpected strategy names")
	}
	if SplitStrategy(9).String() != "SplitStrategy(9)" {
		t.Errorf("unknown strategy String = %q", SplitStrategy(9).String())
	}
}

func TestEstimatePointRequiresTwoPeriods(t *testing.T) {
	pool := newIDPool(t, 3, 1)
	set := makeSet(t, pool, 1, 64, nil, []int{5})
	if _, err := EstimatePoint(set); !errors.Is(err, ErrTooFewPeriods) {
		t.Errorf("EstimatePoint err = %v", err)
	}
	if _, err := EstimatePointOpts(set, SplitInterleaved); !errors.Is(err, ErrTooFewPeriods) {
		t.Errorf("EstimatePointOpts err = %v", err)
	}
	if _, err := EstimatePointBaseline(set); !errors.Is(err, ErrTooFewPeriods) {
		t.Errorf("EstimatePointBaseline err = %v", err)
	}
}

func TestEstimatePointExpandsToMaxSize(t *testing.T) {
	loc := vhash.LocationID(3)
	r1, err := record.New(loc, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := record.New(loc, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	set, err := record.NewSet([]*record.Record{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 256 || res.T != 2 {
		t.Errorf("result M/T = %d/%d, want 256/2", res.M, res.T)
	}
	if res.Va0 != 1 || res.Vb0 != 1 || res.V1 != 0 || res.Estimate != 0 {
		t.Errorf("empty records: Va0=%v Vb0=%v V1=%v estimate=%v, want 1/1/0/0",
			res.Va0, res.Vb0, res.V1, res.Estimate)
	}
}

// TestEstimatePointRetainsCommonVehicles: a common vehicle's bit survives
// the full two-subset AND pipeline across mixed bitmap sizes (Section
// III-A). With no transients, E* holds exactly the common vehicles' bits
// at the largest size, so V1·m counts them.
func TestEstimatePointRetainsCommonVehicles(t *testing.T) {
	pool := newIDPool(t, 3, 2)
	loc := vhash.LocationID(8)
	common := pool.take(20)
	recs := []*record.Record{}
	sizes := []int{256, 512, 1024, 512, 1024}
	for j, m := range sizes {
		r, err := record.New(loc, record.PeriodID(j+1), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range common {
			r.Bitmap.Set(v.Index(loc, m))
		}
		recs = append(recs, r)
	}
	set, err := record.NewSet(recs)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for _, v := range common {
		distinct[v.Index(loc, 1024)] = true
	}
	for _, strat := range []SplitStrategy{SplitHalves, SplitInterleaved} {
		res, err := EstimatePointOpts(set, strat)
		if err != nil {
			t.Fatal(err)
		}
		if ones := res.V1 * float64(res.M); res.M != 1024 || ones != float64(len(distinct)) {
			t.Errorf("strategy %v: E* holds %v ones at m=%d, want the %d common bits at 1024",
				strat, ones, res.M, len(distinct))
		}
	}
}

func TestSplitHalvesSizes(t *testing.T) {
	bs := make([]*bitmap.Bitmap, 5)
	for i := range bs {
		bs[i] = bitmap.MustNew(64)
	}
	a, b := SplitHalves.split(bs)
	if len(a) != 3 || len(b) != 2 {
		t.Errorf("halves split = %d/%d, want 3/2", len(a), len(b))
	}
	a, b = SplitInterleaved.split(bs)
	if len(a) != 3 || len(b) != 2 {
		t.Errorf("interleaved split = %d/%d, want 3/2", len(a), len(b))
	}
}

func TestEstimatePointAccuracy(t *testing.T) {
	pool := newIDPool(t, 3, 42)
	loc := vhash.LocationID(1)
	const (
		m       = 1 << 14 // f = 2 for ~8000 vehicles/period
		nCommon = 1000
	)
	common := pool.take(nCommon)
	set := makeSet(t, pool, loc, m, common, []int{5000, 6200, 4800, 7000, 5500})

	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Estimate, nCommon); re > 0.10 {
		t.Errorf("point estimate %v vs true %d: rel err %.3f > 0.10", res.Estimate, nCommon, re)
	}
	if res.M != m || res.T != 5 {
		t.Errorf("result M/T = %d/%d", res.M, res.T)
	}
	if res.Va0 <= 0 || res.Va0 >= 1 || res.Vb0 <= 0 || res.Vb0 >= 1 {
		t.Errorf("implausible fractions: Va0=%v Vb0=%v", res.Va0, res.Vb0)
	}
	if res.Na < float64(nCommon) || res.Nb < float64(nCommon) {
		t.Errorf("abstract counts below persistent volume: Na=%v Nb=%v", res.Na, res.Nb)
	}
}

func TestEstimatePointTwoPeriods(t *testing.T) {
	pool := newIDPool(t, 3, 7)
	common := pool.take(800)
	set := makeSet(t, pool, 2, 1<<13, common, []int{3000, 3500})
	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Estimate, 800); re > 0.15 {
		t.Errorf("t=2 estimate %v vs 800: rel err %.3f", res.Estimate, re)
	}
}

// TestEstimatePointBeatsBaseline mirrors Fig. 4: at small persistent
// volume the benchmark estimator (plain LPC on the full AND) overestimates
// badly; the proposed estimator does not.
func TestEstimatePointBeatsBaseline(t *testing.T) {
	pool := newIDPool(t, 3, 11)
	const nCommon = 100
	common := pool.take(nCommon)
	set := makeSet(t, pool, 4, 1<<14, common, []int{6000, 7000, 5500, 6500, 7200})

	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EstimatePointBaseline(set)
	if err != nil {
		t.Fatal(err)
	}
	reProposed, reBase := relErr(res.Estimate, nCommon), relErr(base, nCommon)
	if reProposed >= reBase {
		t.Errorf("proposed rel err %.3f not better than baseline %.3f", reProposed, reBase)
	}
	if base <= res.Estimate {
		t.Errorf("baseline %.1f should overestimate above proposed %.1f", base, res.Estimate)
	}
}

func TestEstimatePointZeroCommon(t *testing.T) {
	pool := newIDPool(t, 3, 13)
	set := makeSet(t, pool, 5, 1<<14, nil, []int{5000, 6000, 5500, 4500})
	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	// With no persistent traffic the estimate must be near zero compared
	// with the per-period volumes.
	if res.Estimate > 250 {
		t.Errorf("zero-common estimate = %v, want near 0", res.Estimate)
	}
}

func TestEstimatePointSaturated(t *testing.T) {
	loc := vhash.LocationID(6)
	recs := []*record.Record{}
	for p := 1; p <= 2; p++ {
		r, err := record.New(loc, record.PeriodID(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 64; i++ {
			r.Bitmap.Set(i)
		}
		recs = append(recs, r)
	}
	set, err := record.NewSet(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimatePoint(set); !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
	if _, err := EstimatePointBaseline(set); !errors.Is(err, ErrSaturated) {
		t.Errorf("baseline err = %v, want ErrSaturated", err)
	}
}

func TestEstimatePointDegenerate(t *testing.T) {
	// Two records, each with a single (different) zero bit: Va0 = Vb0 =
	// 1/64, V*1 = 62/64, so V1 + Va0 + Vb0 - 1 = 0 — outside the model.
	loc := vhash.LocationID(7)
	recs := []*record.Record{}
	for p := 1; p <= 2; p++ {
		r, err := record.New(loc, record.PeriodID(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 64; i++ {
			if int(i) != p-1 { // record 1 leaves bit 0 zero, record 2 bit 1
				r.Bitmap.Set(i)
			}
		}
		recs = append(recs, r)
	}
	set, err := record.NewSet(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimatePoint(set); !errors.Is(err, ErrDegenerate) {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
}

func TestEstimateVolume(t *testing.T) {
	pool := newIDPool(t, 3, 17)
	const n = 4000
	r, err := record.New(9, 1, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pool.take(n) {
		r.Bitmap.Set(v.Index(9, r.Size()))
	}
	got, err := EstimateVolume(r)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(got, n); re > 0.05 {
		t.Errorf("volume estimate %v vs %d: rel err %.3f", got, n, re)
	}
	if _, err := EstimateVolume(&record.Record{}); err == nil {
		t.Error("nil-bitmap record accepted")
	}
}

// TestEq12FormulaRegression pins the estimator to a hand-computed
// instance of Eq. (12): n̂* = [ln Va0 + ln Vb0 − ln(V1+Va0+Vb0−1)] / ln(1−1/m).
func TestEq12FormulaRegression(t *testing.T) {
	loc := vhash.LocationID(99)
	const m = 64
	// Craft two records with known joined fractions. Πa = {r1}, Πb = {r2}.
	r1, err := record.New(loc, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := record.New(loc, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	// r1: bits 0..15 set  -> Va0 = 48/64 = 0.75
	// r2: bits 8..31 set  -> Vb0 = 40/64 = 0.625
	// AND: bits 8..15     -> V1  = 8/64  = 0.125
	for i := uint64(0); i < 16; i++ {
		r1.Bitmap.Set(i)
	}
	for i := uint64(8); i < 32; i++ {
		r2.Bitmap.Set(i)
	}
	set, err := record.NewSet([]*record.Record{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	want := (math.Log(0.75) + math.Log(0.625) - math.Log(0.125+0.75+0.625-1)) / math.Log(1-1.0/64)
	if math.Abs(res.Raw-want) > 1e-9 {
		t.Errorf("Eq.12 = %v, want %v", res.Raw, want)
	}
	if res.Va0 != 0.75 || res.Vb0 != 0.625 || res.V1 != 0.125 {
		t.Errorf("fractions %v %v %v", res.Va0, res.Vb0, res.V1)
	}
}

// TestEq21FormulaRegression pins the point-to-point estimator to a
// hand-computed instance of Eq. (21): n̂″ = s·m′·(ln V″0 − ln V0 − ln V′0).
func TestEq21FormulaRegression(t *testing.T) {
	const (
		m      = 64
		mPrime = 128
		s      = 3
	)
	mk := func(loc vhash.LocationID, size int, setBits []uint64) *record.Set {
		var recs []*record.Record
		for p := record.PeriodID(1); p <= 2; p++ {
			r, err := record.New(loc, p, size)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range setBits {
				r.Bitmap.Set(i)
			}
			recs = append(recs, r)
		}
		set, err := record.NewSet(recs)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	// E* (size 64): bits {1, 5} -> V0 = 62/64.
	// E'* (size 128): bits {5, 70, 100} -> V0' = 125/128.
	// S* = E* replicated: {1, 5, 65, 69}; OR E'* -> {1,5,65,69,70,100}:
	// V0'' = 122/128.
	setL := mk(1, m, []uint64{1, 5})
	setLP := mk(2, mPrime, []uint64{5, 70, 100})
	res, err := EstimatePointToPoint(setL, setLP, s)
	if err != nil {
		t.Fatal(err)
	}
	v0 := 62.0 / 64
	v0p := 125.0 / 128
	v0dp := 122.0 / 128
	want := s * float64(mPrime) * (math.Log(v0dp) - math.Log(v0) - math.Log(v0p))
	if math.Abs(res.Raw-want) > 1e-9 {
		t.Errorf("Eq.21 = %v, want %v", res.Raw, want)
	}
	if res.V0 != v0 || res.V0Prime != v0p || res.V0DoublePrime != v0dp {
		t.Errorf("fractions %v %v %v", res.V0, res.V0Prime, res.V0DoublePrime)
	}
}

// --- point-to-point ---

// makePair builds aligned record sets at two locations: nCommon vehicles
// pass both locations every period; each location also sees its own fresh
// transients per period.
func makePair(tb testing.TB, pool *idPool, locA, locB vhash.LocationID, mA, mB int, nCommon int, transientsA, transientsB []int) (*record.Set, *record.Set) {
	tb.Helper()
	common := pool.take(nCommon)
	t := len(transientsA)
	recsA := make([]*record.Record, t)
	recsB := make([]*record.Record, t)
	for j := 0; j < t; j++ {
		ra, err := record.New(locA, record.PeriodID(j+1), mA)
		if err != nil {
			tb.Fatal(err)
		}
		rb, err := record.New(locB, record.PeriodID(j+1), mB)
		if err != nil {
			tb.Fatal(err)
		}
		for _, v := range common {
			ra.Bitmap.Set(v.Index(locA, mA))
			rb.Bitmap.Set(v.Index(locB, mB))
		}
		for _, v := range pool.take(transientsA[j]) {
			ra.Bitmap.Set(v.Index(locA, mA))
		}
		for _, v := range pool.take(transientsB[j]) {
			rb.Bitmap.Set(v.Index(locB, mB))
		}
		recsA[j], recsB[j] = ra, rb
	}
	setA, err := record.NewSet(recsA)
	if err != nil {
		tb.Fatal(err)
	}
	setB, err := record.NewSet(recsB)
	if err != nil {
		tb.Fatal(err)
	}
	return setA, setB
}

func TestEstimatePointToPointAccuracy(t *testing.T) {
	pool := newIDPool(t, 3, 23)
	const nCommon = 1000
	setA, setB := makePair(t, pool, 10, 11, 1<<13, 1<<15, nCommon,
		[]int{3000, 2500, 3200, 2800, 3100},
		[]int{12000, 14000, 13000, 15000, 12500})

	res, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Estimate, nCommon); re > 0.15 {
		t.Errorf("p2p estimate %v vs %d: rel err %.3f > 0.15", res.Estimate, nCommon, re)
	}
	if res.M != 1<<13 || res.MPrime != 1<<15 {
		t.Errorf("M/M' = %d/%d", res.M, res.MPrime)
	}
	if res.Swapped {
		t.Error("unexpected swap")
	}
	if res.S != 3 || res.T != 5 {
		t.Errorf("S/T = %d/%d", res.S, res.T)
	}
	// The paper's approximation and the exact inversion agree closely for
	// m' = 2^15.
	if math.Abs(res.Raw-res.Exact) > 0.001*math.Abs(res.Exact)+1e-9 {
		t.Errorf("approx %v deviates from exact %v", res.Raw, res.Exact)
	}
}

func TestEstimatePointToPointSwap(t *testing.T) {
	pool := newIDPool(t, 3, 29)
	const nCommon = 800
	// First location has the LARGER bitmap — join must swap.
	setA, setB := makePair(t, pool, 12, 13, 1<<15, 1<<13, nCommon,
		[]int{12000, 14000, 13000, 15000, 12500},
		[]int{3000, 2500, 3200, 2800, 3100})
	res, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Error("expected Swapped = true")
	}
	if res.M != 1<<13 || res.MPrime != 1<<15 {
		t.Errorf("after swap M/M' = %d/%d", res.M, res.MPrime)
	}
	if re := relErr(res.Estimate, nCommon); re > 0.15 {
		t.Errorf("swapped estimate %v vs %d: rel err %.3f", res.Estimate, nCommon, re)
	}
}

func TestEstimatePointToPointZeroCommon(t *testing.T) {
	pool := newIDPool(t, 3, 31)
	setA, setB := makePair(t, pool, 14, 15, 1<<13, 1<<13, 0,
		[]int{3000, 2500, 3200},
		[]int{2800, 3100, 2900})
	res, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate > 300 {
		t.Errorf("zero-common p2p estimate = %v, want near 0", res.Estimate)
	}
}

func TestEstimatePointToPointErrors(t *testing.T) {
	pool := newIDPool(t, 3, 37)
	setA, setB := makePair(t, pool, 16, 17, 1<<10, 1<<10, 10, []int{100, 100}, []int{100, 100})
	if _, err := EstimatePointToPoint(setA, setB, 0); !errors.Is(err, ErrBadS) {
		t.Errorf("s=0 err = %v", err)
	}

	// Misaligned periods.
	one := makeSet(t, pool, 18, 1<<10, nil, []int{50})
	if _, err := EstimatePointToPoint(one, setB, 3); !errors.Is(err, ErrTooFewPeriods) {
		t.Errorf("t=1 err = %v", err)
	}
	three := makeSet(t, pool, 19, 1<<10, nil, []int{50, 50, 50})
	if _, err := EstimatePointToPoint(three, setB, 3); !errors.Is(err, record.ErrPeriodSkew) {
		t.Errorf("skew err = %v", err)
	}
}

// TestBaselineANDUnderestimates: the rejected AND second-level design
// loses common vehicles that picked different representative bits at the
// two locations, so it grossly underestimates (Section IV-A's rationale
// for OR).
func TestBaselineANDUnderestimates(t *testing.T) {
	pool := newIDPool(t, 3, 41)
	const nCommon = 1000
	setA, setB := makePair(t, pool, 20, 21, 1<<14, 1<<14, nCommon,
		[]int{3000, 2500, 3200, 2800, 3100},
		[]int{2800, 3100, 2900, 3300, 2700})
	res, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	and, err := EstimatePointToPointBaselineAND(setA, setB)
	if err != nil {
		t.Fatal(err)
	}
	if and > res.Estimate/2 {
		t.Errorf("AND baseline %v suspiciously close to proposed %v", and, res.Estimate)
	}
	if re := relErr(res.Estimate, nCommon); re > 0.2 {
		t.Errorf("proposed rel err %.3f", re)
	}
	if reAnd := relErr(and, nCommon); reAnd < 0.4 {
		t.Errorf("AND baseline rel err %.3f unexpectedly good", reAnd)
	}
}

// --- k-way extension ---

func TestEstimatePointKWayMatchesEq12(t *testing.T) {
	pool := newIDPool(t, 3, 43)
	common := pool.take(600)
	set := makeSet(t, pool, 22, 1<<14, common, []int{5000, 6000, 5500, 6500})

	eq12, err := EstimatePoint(set)
	if err != nil {
		t.Fatal(err)
	}
	// k=2 round-robin equals the interleaved split, so compare against
	// the interleaved closed form.
	inter, err := EstimatePointOpts(set, SplitInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	kway, err := EstimatePointKWay(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kway.Estimate-inter.Estimate) > 1e-3*(1+inter.Estimate) {
		t.Errorf("k=2 numeric %v != closed form %v", kway.Estimate, inter.Estimate)
	}
	// And all three should be decent estimates of the truth.
	for name, est := range map[string]float64{"eq12": eq12.Estimate, "inter": inter.Estimate, "kway": kway.Estimate} {
		if re := relErr(est, 600); re > 0.15 {
			t.Errorf("%s rel err %.3f", name, re)
		}
	}
}

func TestEstimatePointKWayThree(t *testing.T) {
	pool := newIDPool(t, 3, 47)
	common := pool.take(700)
	set := makeSet(t, pool, 23, 1<<14, common, []int{5000, 6000, 5500, 6500, 5200, 5800})
	res, err := EstimatePointKWay(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 || len(res.V0) != 3 {
		t.Errorf("K=%d len(V0)=%d", res.K, len(res.V0))
	}
	if re := relErr(res.Estimate, 700); re > 0.15 {
		t.Errorf("3-way estimate %v vs 700: rel err %.3f", res.Estimate, re)
	}
}

func TestEstimatePointKWayValidation(t *testing.T) {
	pool := newIDPool(t, 3, 53)
	set := makeSet(t, pool, 24, 1<<10, nil, []int{100, 100, 100})
	if _, err := EstimatePointKWay(set, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := EstimatePointKWay(set, 4); err == nil {
		t.Error("k>t accepted")
	}
	one := makeSet(t, pool, 25, 1<<10, nil, []int{100})
	if _, err := EstimatePointKWay(one, 2); !errors.Is(err, ErrTooFewPeriods) {
		t.Errorf("t=1 err = %v", err)
	}
}
