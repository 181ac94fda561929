//go:build !race

// Zero-allocation regression tests for the //ptm:noalloc hot paths. The
// perfguard lint rule proves these contracts at analysis time from the
// compiler's own escape diagnostics; each assertion here enforces the
// same contract at runtime, one per annotated entry point. The file is
// excluded from -race builds because race instrumentation introduces
// bookkeeping allocations unrelated to the contracts under test.

package bitmap

import "testing"

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s allocated %.1f times per run, want 0", name, n)
	}
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	a, b := MustNew(1<<10), MustNew(1<<12)
	for i := uint64(0); i < 4000; i += 3 {
		a.Set(i)
		b.Set(i * 7)
	}
	ms := []*Bitmap{a, b}
	dst := MustNew(1 << 12)
	var sinkInt int
	var sinkBool bool
	var sinkFloat float64

	requireZeroAllocs(t, "Set", func() { a.Set(123) })
	requireZeroAllocs(t, "Get", func() { sinkBool = a.Get(123) })
	requireZeroAllocs(t, "AtomicSet", func() { a.AtomicSet(123) })
	requireZeroAllocs(t, "AtomicGet", func() { sinkBool = a.AtomicGet(123) })
	requireZeroAllocs(t, "Ones", func() { sinkInt = a.Ones() })
	requireZeroAllocs(t, "Zeros", func() { sinkInt = a.Zeros() })
	requireZeroAllocs(t, "AtomicOnes", func() { sinkInt = a.AtomicOnes() })
	requireZeroAllocs(t, "FractionZero", func() { sinkFloat = a.FractionZero() })
	requireZeroAllocs(t, "FractionOne", func() { sinkFloat = a.FractionOne() })
	requireZeroAllocs(t, "AtomicFractionOne", func() { sinkFloat = a.AtomicFractionOne() })
	requireZeroAllocs(t, "AndOnes", func() {
		ones, _, err := AndOnes(ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "OrOnes", func() {
		ones, _, err := OrOnes(ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "join into dst/and", func() {
		ones, _, err := join(dst, ms, tileWords, true)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "join into dst/or", func() {
		ones, _, err := join(dst, ms, tileWords, false)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	// A warm scratch reuses its slot, so steady-state AndAll leases
	// nothing.
	sc := new(JoinScratch)
	requireZeroAllocs(t, "warm JoinScratch.AndAll", func() {
		sc.Reset()
		_, ones, err := sc.AndAll(ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})

	_, _, _ = sinkInt, sinkBool, sinkFloat
}

// TestBlockKernelPathsDoNotAllocate steers the fused entry points down
// each arm of the join dispatcher — the sub-block reference loop, the
// register kernel, the pattern collapse, the tiled kernel, and a wide
// join whose dst aliases an operand — and requires zero allocations on
// all of them, mirroring the //ptm:noalloc contracts on the kernels.
func TestBlockKernelPathsDoNotAllocate(t *testing.T) {
	wide := func(n, bitsz int) []*Bitmap {
		ms := make([]*Bitmap, n)
		for i := range ms {
			b := MustNew(bitsz)
			for k := uint64(0); k < uint64(bitsz); k += 3 {
				b.Set(k + uint64(i))
			}
			ms[i] = b
		}
		return ms
	}
	tiled := wide(2*maxFusedOperands+1, 1<<12)
	arms := []struct {
		name string
		dst  *Bitmap
		ms   []*Bitmap
	}{
		{"subblock", MustNew(256), wide(3, 256)},                            // < one block → joinByWord
		{"regs", MustNew(1 << 12), wide(5, 1<<12)},                          // ≤ maxFusedOperands larges → joinRegs
		{"mixed", MustNew(1 << 12), append(wide(5, 1<<12), wide(3, 64)...)}, // sub-block operands → gatherPat collapse
		{"tiled", MustNew(1 << 12), tiled},                                  // operand overflow → joinTiled
		{"aliased", tiled[0], tiled},                                        // dst aliases a wide operand → joinTiled
	}
	var sinkInt int
	for _, arm := range arms {
		requireZeroAllocs(t, "AndOnes/"+arm.name, func() {
			ones, _, err := AndOnes(arm.ms)
			if err != nil {
				t.Fatal(err)
			}
			sinkInt = ones
		})
		requireZeroAllocs(t, "join into dst/"+arm.name, func() {
			ones, _, err := join(arm.dst, arm.ms, tileWords, true)
			if err != nil {
				t.Fatal(err)
			}
			sinkInt = ones
		})
	}
	_ = sinkInt
}
