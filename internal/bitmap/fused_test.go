package bitmap

// Differential tests for the join plane: every dispatch arm of join —
// the masked-index reference loop, the register kernel with and without
// the collapsed small-operand pattern, and the tiled kernel at several
// tile sizes — must be bit-exact and count-exact against the
// materialized AndAll/OrAll pipeline (ExpandTo + And/Or), for every
// output kind. The materialized pipeline is the one oracle; the fused
// kernels may replace it only because these tests (and the two fuzz
// targets) hold.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// oracle is the materialized reference join: AndAll or OrAll of ms.
func oracle(t *testing.T, ms []*Bitmap, and bool) *Bitmap {
	t.Helper()
	join := OrAll
	if and {
		join = AndAll
	}
	out, err := join(ms)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out
}

// opName labels the join operator in failure messages and subtest names.
func opName(and bool) string {
	if and {
		return "and"
	}
	return "or"
}

// checkJoin verifies one join of ms through the dispatcher with tile tw
// against the oracle, for every output kind: count only, Into a dst of
// the natural size m, Into a replicated 4m-bit dst, and Into a dst that
// aliases an equal-size operand. With the production tile it also drives
// the exported entry points, which pass exactly that tile: AndOnes/OrOnes
// and JoinScratch.AndAll, fresh and nil.
func checkJoin(t *testing.T, ms []*Bitmap, tw int, and bool) {
	t.Helper()
	name := opName(and)
	want := oracle(t, ms, and)
	m := want.Size()
	wantBig, err := want.ExpandTo(4 * m) // expansion commutes with the join
	if err != nil {
		t.Fatal(err)
	}
	expect := func(kind string, got *Bitmap, ones int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s (tile %d): %v", name, kind, tw, err)
		}
		w := want
		if got != nil && got.Size() != m {
			w = wantBig
		}
		if ones != w.Ones() || (got != nil && !got.Equal(w)) {
			t.Fatalf("%s %s (tile %d): ones=%d want=%d", name, kind, tw, ones, w.Ones())
		}
	}

	ones, gotM, err := join(nil, ms, tw, and)
	if err == nil && gotM != m {
		t.Fatalf("%s count: m=%d, want %d", name, gotM, m)
	}
	expect("count", nil, ones, err)

	for _, size := range []int{m, 4 * m} {
		dst := MustNew(size)
		ones, _, err := join(dst, ms, tw, and)
		expect(fmt.Sprintf("into %d bits", size), dst, ones, err)
	}

	for i, o := range ms {
		if o.Size() != m {
			continue
		}
		clones := make([]*Bitmap, len(ms))
		for j, c := range ms {
			clones[j] = c.Clone()
		}
		ones, _, err := join(clones[i], clones, tw, and)
		expect(fmt.Sprintf("into operand %d", i), clones[i], ones, err)
		break
	}

	if tw != tileWords {
		return
	}
	onesFn := OrOnes
	if and {
		onesFn = AndOnes
	}
	ones, _, err = onesFn(ms)
	expect("Ones", nil, ones, err)
	if !and {
		return
	}
	for _, s := range []*JoinScratch{new(JoinScratch), nil} {
		got, ones, err := s.AndAll(ms)
		expect("scratch AndAll", got, ones, err)
	}
}

// joinWord returns a random word whose bit density suits a t-way join:
// about 1 - ln2/t for AND and ln2/t for OR, so the join of t such words
// is about half ones and a wrong word cannot hide in an all-zero or
// all-one result.
func joinWord(rng *rand.Rand, t int, and bool) uint64 {
	w := ^uint64(0)
	for k := bits.Len(uint(t * 3 / 2)); k > 0; k-- {
		w &= rng.Uint64()
	}
	if and {
		return ^w
	}
	return w
}

// TestFusedKernelsDifferential is the join plane's differential matrix:
// operand count × size mix × AND/OR × tile, each cell checked for every
// output kind by checkJoin. Operands are FromWords views, the form the
// out-of-core store hands to the kernels. The axes are chosen to pin
// every dispatch arm and its edges:
//
//   - counts 1, 2, 3; 16 and 17 (the register budget maxFusedOperands and
//     one past it); 40 (several operand windows per tile);
//   - sizes 64 bits (one word), 512 (exactly one block), 1024 and 2^19
//     (two production tiles), uniform and mixed, with the smallest
//     operand first or last;
//   - "64+1024" puts one sub-block operand before the large ones, so at
//     16 operands the pattern takes the last register slot and at 17 it
//     overflows into the tiled kernel;
//   - tiles of one block, three blocks (not a power of two) and the
//     production constant.
func TestFusedKernelsDifferential(t *testing.T) {
	cycle := func(sizes ...int) func(int) int {
		return func(i int) int { return sizes[i%len(sizes)] }
	}
	mixes := []struct {
		name string
		size func(i int) int
	}{
		{"64", cycle(64)},
		{"512", cycle(512)},
		{"1024", cycle(1024)},
		{"2^19", cycle(1 << 19)},
		{"64,128,256", cycle(64, 128, 256)},
		{"512,64", cycle(512, 64)},
		{"64+1024", func(i int) int {
			if i == 0 {
				return 64
			}
			return 1024
		}},
		{"2^19,64,1024,128,512", cycle(1<<19, 64, 1024, 128, 512)},
		{"64,1024,2^19", cycle(64, 1024, 1<<19)},
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, maxFusedOperands, maxFusedOperands + 1, 40} {
		for _, mix := range mixes {
			for _, and := range []bool{true, false} {
				ms := make([]*Bitmap, n)
				for i := range ms {
					words := make([]uint64, mix.size(i)/wordBits)
					for j := range words {
						words[j] = joinWord(rng, n, and)
					}
					b, err := FromWords(words)
					if err != nil {
						t.Fatal(err)
					}
					ms[i] = b
				}
				for _, tw := range []int{blockWords, 3 * blockWords, tileWords} {
					t.Run(fmt.Sprintf("n=%d/sizes=%s/%s/tile=%d", n, mix.name, opName(and), tw), func(t *testing.T) {
						checkJoin(t, ms, tw, and)
					})
				}
			}
		}
	}
}

// randomOperands builds 1..6 bitmaps with random power-of-two sizes and
// random density, deliberately mixing sizes to exercise the virtual
// expansion.
func randomOperands(rng *rand.Rand) []*Bitmap {
	t := 1 + rng.Intn(6)
	ms := make([]*Bitmap, t)
	for i := range ms {
		size := 64 << rng.Intn(7) // 2^6 .. 2^12
		b := MustNew(size)
		nset := rng.Intn(size + 1)
		for k := 0; k < nset; k++ {
			b.Set(rng.Uint64())
		}
		ms[i] = b
	}
	return ms
}

// randomWideOperands builds an operand list wide enough to overflow the
// register kernel's operand budget: 2..40 bitmaps, sizes 2^6..2^13 bits,
// so lists mix sub-block (64..256-bit) and multi-block operands.
func randomWideOperands(rng *rand.Rand) []*Bitmap {
	t := 2 + rng.Intn(39)
	ms := make([]*Bitmap, t)
	for i := range ms {
		size := 64 << rng.Intn(8) // 2^6 .. 2^13
		b := MustNew(size)
		// Density high enough that deep ANDs stay nonzero sometimes.
		for k := 0; k < size; k++ {
			if rng.Intn(3) > 0 {
				b.Set(uint64(k))
			}
		}
		ms[i] = b
	}
	return ms
}

func TestBlockKernelsWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		ms := randomWideOperands(rng)
		checkJoin(t, ms, tileWords, true)
		checkJoin(t, ms, tileWords, false)
	}
}

// TestBlockKernelsTinyTiles forces the tiled kernel across many tile
// boundaries on random wide shapes: tiles of one block (64 bytes), two
// blocks, 16 blocks (1 KiB) and the production constant.
func TestBlockKernelsTinyTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tw := range []int{blockWords, 2 * blockWords, 16 * blockWords, tileWords} {
		for trial := 0; trial < 20; trial++ {
			ms := randomWideOperands(rng)
			checkJoin(t, ms, tw, true)
			checkJoin(t, ms, tw, false)
		}
	}
}

// TestBlockKernelsManyLargeEqual pins the exact register-budget boundary:
// maxFusedOperands-1, maxFusedOperands, maxFusedOperands+1 and far more
// equal large operands, each alone and with sub-block operands (the
// collapsed pattern takes a register slot but no slot of the tiled
// kernel's operand walk).
func TestBlockKernelsManyLargeEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nLarge := range []int{maxFusedOperands - 1, maxFusedOperands, maxFusedOperands + 1, 2*maxFusedOperands + 3} {
		for _, nSmall := range []int{0, 1, 3} {
			ms := make([]*Bitmap, 0, nLarge+nSmall)
			for i := 0; i < nLarge; i++ {
				b := MustNew(1 << 12)
				for k := 0; k < b.Size(); k++ {
					if rng.Intn(4) > 0 {
						b.Set(uint64(k))
					}
				}
				ms = append(ms, b)
			}
			for i := 0; i < nSmall; i++ {
				b := MustNew(64 << (i % 3)) // 64, 128, 256 bits: all sub-block
				for k := 0; k < b.Size(); k++ {
					if rng.Intn(2) == 0 {
						b.Set(uint64(k))
					}
				}
				ms = append(ms, b)
			}
			checkJoin(t, ms, tileWords, true)
			checkJoin(t, ms, tileWords, false)
		}
	}
}

// TestWordsJoinDifferential proves joins over FromWords views of raw word
// slices — the form the out-of-core store hands to AndOnes — bit-identical
// to joins over the owning bitmaps, across operand counts that hit every
// dispatch arm (1, 2, sub-block, register, > maxFusedOperands).
func TestWordsJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{64, 128, 256, 512, 1024, 4096}
	for _, n := range []int{1, 2, 3, 5, 10, maxFusedOperands, maxFusedOperands + 1, 2*maxFusedOperands + 3} {
		for trial := 0; trial < 20; trial++ {
			ms := make([]*Bitmap, n)
			views := make([]*Bitmap, n)
			for i := range ms {
				b := MustNew(sizes[rng.Intn(len(sizes))])
				for j := range b.words {
					b.words[j] = rng.Uint64() & rng.Uint64() // ~25% density
				}
				v, err := FromWords(append([]uint64(nil), b.Uint64s()...))
				if err != nil {
					t.Fatalf("FromWords: %v", err)
				}
				ms[i], views[i] = b, v
			}
			for _, and := range []bool{true, false} {
				onesFn := OrOnes
				if and {
					onesFn = AndOnes
				}
				wantOnes, wantM, err := onesFn(ms)
				if err != nil {
					t.Fatalf("n=%d %s bitmaps: %v", n, opName(and), err)
				}
				gotOnes, gotM, err := onesFn(views)
				if err != nil {
					t.Fatalf("n=%d %s views: %v", n, opName(and), err)
				}
				if gotOnes != wantOnes || gotM != wantM {
					t.Fatalf("n=%d %s: words view (%d, %d) != bitmap view (%d, %d)",
						n, opName(and), gotOnes, gotM, wantOnes, wantM)
				}
			}
		}
	}
}

// TestBlockKernelsAliasedWide: a join too wide for the register kernel
// whose dst aliases an operand. The tiled kernel stages each tile on the
// stack, so every operand word of a tile is read before dst is written.
func TestBlockKernelsAliasedWide(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ms := make([]*Bitmap, maxFusedOperands+4)
	for i := range ms {
		b := MustNew(1 << 12)
		for k := 0; k < b.Size(); k++ {
			if rng.Intn(4) > 0 {
				b.Set(uint64(k))
			}
		}
		ms[i] = b
	}
	for _, and := range []bool{true, false} {
		want := oracle(t, ms, and)
		dst := ms[rng.Intn(len(ms))]
		ones, _, err := join(dst, ms, tileWords, and)
		if err != nil {
			t.Fatal(err)
		}
		if ones != want.Ones() || !dst.Equal(want) {
			t.Fatalf("aliased wide join (and=%v): ones=%d want=%d equal=%v",
				and, ones, want.Ones(), dst.Equal(want))
		}
		// dst is now the join, not the original operand; rebuild it for
		// the OR round.
		if and {
			fresh := MustNew(1 << 12)
			for k := 0; k < fresh.Size(); k++ {
				if rng.Intn(4) > 0 {
					fresh.Set(uint64(k))
				}
			}
			copy(dst.words, fresh.words)
		}
	}
}

func TestFusedSingleOperand(t *testing.T) {
	b := MustNew(256)
	for _, i := range []uint64{0, 63, 64, 200, 255} {
		b.Set(i)
	}
	ones, m, err := AndOnes([]*Bitmap{b})
	if err != nil || ones != b.Ones() || m != 256 {
		t.Fatalf("AndOnes single = (%d, %d, %v), want (%d, 256, nil)", ones, m, err, b.Ones())
	}
	ones, m, err = OrOnes([]*Bitmap{b})
	if err != nil || ones != b.Ones() || m != 256 {
		t.Fatalf("OrOnes single = (%d, %d, %v)", ones, m, err)
	}
	// A single operand into a larger dst is a pure replication.
	dst := MustNew(1024)
	if _, _, err := join(dst, []*Bitmap{b}, tileWords, false); err != nil {
		t.Fatal(err)
	}
	want, err := b.ExpandTo(1024)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("single-operand OR into a larger dst is not the replication expansion")
	}
}

func TestFusedErrors(t *testing.T) {
	if _, _, err := AndOnes(nil); err == nil {
		t.Fatal("AndOnes(nil) should fail")
	}
	if _, _, err := OrOnes([]*Bitmap{}); err == nil {
		t.Fatal("OrOnes(empty) should fail")
	}
	if _, err := MaxSize(nil); err == nil {
		t.Fatal("MaxSize(nil) should fail")
	}
	big, small := MustNew(512), MustNew(64)
	if _, _, err := join(small, []*Bitmap{big}, tileWords, true); err == nil {
		t.Fatal("AND join into a smaller dst should fail")
	}
	if _, _, err := join(small, []*Bitmap{small, big}, tileWords, false); err == nil {
		t.Fatal("OR join into a smaller dst should fail")
	}
	for _, sc := range []*JoinScratch{nil, new(JoinScratch)} {
		if _, _, err := sc.AndAll(nil); err == nil {
			t.Fatalf("scratch %p: AndAll(empty) should fail", sc)
		}
	}
}

// TestFusedAliasing: dst may alias an equal-size operand, matching the
// in-place discipline of And/Or.
func TestFusedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := MustNew(512), MustNew(128)
	for i := 0; i < 300; i++ {
		a.Set(rng.Uint64())
		b.Set(rng.Uint64())
	}
	want := oracle(t, []*Bitmap{a, b}, true)
	ones, _, err := join(a, []*Bitmap{a, b}, tileWords, true)
	if err != nil {
		t.Fatal(err)
	}
	if ones != want.Ones() || !a.Equal(want) {
		t.Fatal("aliased AND join differs from the materialized join")
	}
}

// TestJoinScratchReuse verifies the arena discipline: leases after Reset
// reuse the same backing storage, and results are stable across cycles.
func TestJoinScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := randomOperands(rng)
	sc := new(JoinScratch)
	first, firstOnes, err := sc.AndAll(ms)
	if err != nil {
		t.Fatal(err)
	}
	firstWords := &first.words[0]
	firstClone := first.Clone()
	sc.Reset()
	second, secondOnes, err := sc.AndAll(ms)
	if err != nil {
		t.Fatal(err)
	}
	if &second.words[0] != firstWords {
		t.Fatal("scratch did not reuse backing storage after Reset")
	}
	if secondOnes != firstOnes || !second.Equal(firstClone) {
		t.Fatal("scratch-backed join not stable across Reset cycles")
	}
	// Growing lease: a larger request after Reset reallocates that slot
	// but stays correct.
	sc.Reset()
	big := MustNew(1 << 14)
	for k := uint64(0); k < uint64(big.Size()); k += 3 {
		big.Set(k) // dense, so the AND keeps most of ms[0]'s ones
	}
	got, ones, err := sc.AndAll([]*Bitmap{big, ms[0]})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, []*Bitmap{big, ms[0]}, true)
	if ones != want.Ones() || !got.Equal(want) {
		t.Fatal("grown scratch lease produced a wrong join")
	}
}

// fuzzOperands builds n operands whose sizes come from 3-bit fields of
// sizeBits (2^6..2^13 bits) and whose contents come from seed.
func fuzzOperands(n int, sizeBits uint16, seed uint64) []*Bitmap {
	rng := rand.New(rand.NewSource(int64(seed)))
	ms := make([]*Bitmap, n)
	for i := range ms {
		exp := int(sizeBits>>(3*uint(i%5))) & 7
		b := MustNew(64 << exp)
		for k := rng.Intn(b.Size() + 1); k > 0; k-- {
			b.Set(rng.Uint64())
		}
		ms[i] = b
	}
	return ms
}

// FuzzFusedJoin drives the differential harness from fuzzer-chosen
// operand shapes and contents.
func FuzzFusedJoin(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint64(1))
	f.Add(uint8(3), uint16(0x0421), uint64(42))
	f.Add(uint8(6), uint16(0xffff), uint64(99))
	f.Fuzz(func(t *testing.T, nOps uint8, sizeBits uint16, seed uint64) {
		ms := fuzzOperands(int(nOps)%6+1, sizeBits, seed)
		checkJoin(t, ms, tileWords, true)
		checkJoin(t, ms, tileWords, false)
	})
}

// FuzzFusedJoinWide drives the differential harness with fuzzer-chosen
// wide shapes and tile sizes (1..16 blocks, powers of two or not),
// reaching the register-budget overflow and tile-boundary logic
// FuzzFusedJoin's ≤6 operands cannot.
func FuzzFusedJoinWide(f *testing.F) {
	f.Add(uint8(17), uint16(0x0421), uint8(0), uint64(1))
	f.Add(uint8(33), uint16(0xffff), uint8(2), uint64(42))
	f.Add(uint8(40), uint16(0x8001), uint8(7), uint64(99))
	f.Fuzz(func(t *testing.T, nOps uint8, sizeBits uint16, tileBlocks uint8, seed uint64) {
		ms := fuzzOperands(int(nOps)%40+1, sizeBits, seed)
		tw := blockWords * (1 + int(tileBlocks)%16)
		checkJoin(t, ms, tw, true)
		checkJoin(t, ms, tw, false)
	})
}
