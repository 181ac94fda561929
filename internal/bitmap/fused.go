// Fused join kernels: AND/OR joins of mixed-size bitmaps without
// materializing the Section III-A expansions.
//
// The replication expansion has a structural consequence the naive
// ExpandTo pipeline ignores: word i of an l-bit bitmap's expansion to
// m >= l bits is simply word (i mod l/64) of the original, and because
// every size is a power of two the mod is a mask. A join of mixed-size
// operands can therefore stream over the words of the *largest* operand,
// reading each smaller operand through modular indexing — no expansion
// buffer exists at any point. The estimators of internal/core consume
// only the zero/one fractions of joined bitmaps, so the kernels below
// also fuse the bits.OnesCount64 reduction into the same pass: each
// output word is computed, counted, and (for the Into entry points)
// stored exactly once.
//
// Correctness of the virtual expansion (DESIGN.md §8): for an l-bit
// bitmap b and any power-of-two m >= l, ExpandTo(m) repeats b's words
// m/l times, so expansion word i equals b.words[i mod (l/64)]. l/64 is a
// power of two (New enforces l >= 64 and power-of-two l — the same
// invariant the pow2size lint rule protects), hence
//
//	expanded.words[i] == b.words[i & (len(b.words)-1)].
//
// Every kernel is differentially tested against the materialized
// AndAll/OrAll pipeline (fused_test.go, FuzzFusedJoin, FuzzFusedJoinWide).

package bitmap

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrJoinEmpty is returned by the join kernels for an empty operand list.
var ErrJoinEmpty = errors.New("bitmap: join of zero bitmaps")

// word returns word i of b's virtual expansion to any size with at least
// i+1 words. len(b.words) is a power of two, so replication makes the
// modular index a mask.
//
//ptm:exclusive join plane reads sealed records
//ptm:noalloc
//ptm:inline
func (b *Bitmap) word(i int) uint64 { return b.words[i&(len(b.words)-1)] }

// MaxSize returns the largest Size among the operands, the common join
// size m of Section III-A. It returns ErrJoinEmpty for an empty list.
//
//ptm:noalloc
func MaxSize(ms []*Bitmap) (int, error) {
	if len(ms) == 0 {
		return 0, ErrJoinEmpty
	}
	m := 0
	for _, b := range ms {
		if b.Size() > m {
			m = b.Size()
		}
	}
	return m, nil
}

// AndOnes returns the number of one bits in AndAll(ms) — the AND-join of
// the operands virtually expanded to the largest size m — together with m
// itself, without allocating anything. This is the fused kernel behind
// the V1 and V0 fractions of Eqs. (8) and (12).
//
//ptm:noalloc
//ptm:inline
func AndOnes(ms []*Bitmap) (ones, m int, err error) {
	return join(nil, ms, tileWords, true)
}

// OrOnes is AndOnes for the OR join (the second-level join of
// Section IV-A).
//
//ptm:noalloc
//ptm:inline
func OrOnes(ms []*Bitmap) (ones, m int, err error) {
	return join(nil, ms, tileWords, false)
}

// AndAllInto computes the AND-join of the operands, virtually expanded to
// dst's size, into dst, and returns the join's popcount from the same
// pass. dst must be at least as large as every operand (expansion of the
// join commutes with the join of expansions, so a larger dst holds the
// join replicated). dst may alias an operand of equal size — every kernel
// reads a block or tile from all operands before writing it — but must
// not alias a smaller operand (impossible anyway: sizes differ).
//
//ptm:sink bitmap write
//ptm:noalloc
//ptm:inline
func AndAllInto(dst *Bitmap, ms []*Bitmap) (ones int, err error) {
	ones, _, err = join(dst, ms, tileWords, true)
	return ones, err
}

// OrAllInto is AndAllInto for the OR join.
//
//ptm:sink bitmap write
//ptm:noalloc
//ptm:inline
func OrAllInto(dst *Bitmap, ms []*Bitmap) (ones int, err error) {
	ones, _, err = join(dst, ms, tileWords, false)
	return ones, err
}

// join is the one dispatcher of the join plane. It validates the
// operands, then routes the join — count-only when dst is nil, stored
// into dst otherwise — to one of three kernels (DESIGN.md §8, §13):
//
//   - outputs smaller than one block take the masked-index reference
//     loop joinByWord;
//   - otherwise, operands smaller than one block collapse into one
//     pattern slot, and when the large operands plus that slot fit the
//     register budget the single-pass register kernel joinRegs folds
//     every operand per output block;
//   - wider joins take the tiled kernel joinTiled with tiles of tw
//     words (tileWords in production; tests pass smaller tiles to force
//     tile boundaries).
//
// Popcounts are order-free integers, so the arm taken changes no result
// (the float contract of core.pointFractions is over AndOnes *values*,
// which are exact). The per-join gather indexing here is setup code, so
// this function carries noalloc but not nobce.
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
func join(dst *Bitmap, ms []*Bitmap, tw int, and bool) (ones, m int, err error) {
	m, err = MaxSize(ms)
	if err != nil {
		return 0, 0, err
	}
	var out []uint64
	words := m / wordBits
	if dst != nil {
		if dst.nbits < m {
			return 0, 0, fmt.Errorf("%w: dst %d < operand %d", ErrShrink, dst.nbits, m)
		}
		out, words = dst.words, len(dst.words)
	}
	// m is a power of two >= 64, so words >= blockWords implies words is a
	// multiple of blockWords — the block kernels' only shape requirement.
	if words < blockWords {
		return joinByWord(out, ms, words, and), m, nil
	}
	var ops [maxFusedOperands][]uint64
	var pat [blockWords]uint64
	hasPat := gatherPat(ms, &pat, and)
	n, ok := gatherOps(ms, &ops)
	if ok && hasPat {
		if n == len(ops) {
			ok = false
		} else {
			ops[n] = pat[:]
			n++
		}
	}
	if ok {
		return joinRegs(out, words, ops[:n], and), m, nil
	}
	return joinTiled(out, words, ms, pat, tw, and), m, nil
}

// joinByWord is the masked-index reference loop: one output word at a
// time through the modular word(i) accessor, stored into dst when dst is
// non-nil. It serves outputs smaller than one block (m < 512 bits). Each
// word is read from every operand before it is stored, so dst may alias
// an equal-size operand.
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
func joinByWord(dst []uint64, ms []*Bitmap, words int, and bool) int {
	first := ms[0]
	rest := ms[1:]
	ones := 0
	for i := 0; i < words; i++ {
		w := first.word(i)
		if and {
			for _, o := range rest {
				w &= o.word(i)
			}
		} else {
			for _, o := range rest {
				w |= o.word(i)
			}
		}
		if i < len(dst) {
			dst[i] = w
		}
		ones += bits.OnesCount64(w)
	}
	return ones
}

// JoinScratch is a reusable arena for join outputs. A pipeline leases
// output bitmaps with AndAll/OrAll, consumes them, and calls Reset; the
// next cycle reuses the same backing storage, so steady-state join
// pipelines (the ~1000-trial evaluation cells, the daemon's query loop)
// allocate nothing. Leased bitmaps are valid only until the next Reset.
//
// The zero value is ready to use. A nil *JoinScratch is also valid: every
// lease falls back to a fresh allocation, which lets one code path serve
// both the scratch-backed hot loop and one-shot callers.
//
// A JoinScratch is not safe for concurrent use; give each worker its own.
type JoinScratch struct {
	slots []*Bitmap
	used  int
}

// Reset invalidates all leased bitmaps and makes their storage available
// for reuse. Contents are not cleared; every kernel overwrites each word.
func (s *JoinScratch) Reset() {
	if s != nil {
		s.used = 0
	}
}

// lease returns an n-bit bitmap backed by the scratch (or freshly
// allocated for a nil receiver). Its contents are unspecified; callers
// must overwrite every word before reading.
//
//ptm:exclusive scratch arenas are single-owner by contract
func (s *JoinScratch) lease(n int) (*Bitmap, error) {
	if s == nil {
		return New(n)
	}
	if n < wordBits || n > MaxBits {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrSizeOutOfRange, n, wordBits, MaxBits)
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: %d", ErrSizeNotPowerOfTwo, n)
	}
	if s.used < len(s.slots) {
		b := s.slots[s.used]
		if words := n / wordBits; cap(b.words) < words {
			b.words = make([]uint64, words)
		} else {
			b.words = b.words[:words]
		}
		b.nbits = n
		s.used++
		return b, nil
	}
	b, err := New(n)
	if err != nil {
		return nil, err
	}
	s.slots = append(s.slots, b)
	s.used++
	return b, nil
}

// AndAll AND-joins the operands into a scratch-leased bitmap of the
// common size m and returns it with its popcount. The result is valid
// until the next Reset.
func (s *JoinScratch) AndAll(ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAll(ms, true)
}

// OrAll is AndAll for the OR join.
func (s *JoinScratch) OrAll(ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAll(ms, false)
}

// AndAllTo is AndAll with an explicit output size n >= the largest
// operand; the join is produced replicated to n bits (Section III-A
// expansion of the joined result). JoinPoint uses it to keep E_a and E_b
// at the common size m even when the largest record fell in the other
// subset.
func (s *JoinScratch) AndAllTo(n int, ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAllTo(n, ms, true)
}

// OrAllTo is AndAllTo for the OR join.
func (s *JoinScratch) OrAllTo(n int, ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAllTo(n, ms, false)
}

func (s *JoinScratch) joinAll(ms []*Bitmap, and bool) (*Bitmap, int, error) {
	m, err := MaxSize(ms)
	if err != nil {
		return nil, 0, err
	}
	return s.joinAllTo(m, ms, and)
}

func (s *JoinScratch) joinAllTo(n int, ms []*Bitmap, and bool) (*Bitmap, int, error) {
	if len(ms) == 0 {
		return nil, 0, ErrJoinEmpty
	}
	dst, err := s.lease(n)
	if err != nil {
		return nil, 0, err
	}
	ones, _, err := join(dst, ms, tileWords, and)
	if err != nil {
		return nil, 0, err
	}
	return dst, ones, nil
}
