//! Bitset helpers shared by the enumerator: set-bit iteration and the
//! masked-intersection word kernel of the antichain DFS.
//!
//! The kernel computes `dst = (a & b) restricted to bit indices > idx` —
//! the per-candidate step that derives the next depth's candidate set from
//! the current one and the chosen node's parallel mask. Three
//! implementations exist:
//!
//! * [`and_above_scalar`] — the straight-line `u64` loop the seed shipped,
//!   kept public as the differential-test oracle;
//! * a 4-lane manually unrolled `u64` kernel (the portable default);
//! * an AVX2 variant (`x86_64` only, runtime-gated on
//!   `is_x86_feature_detected!("avx2")`) processing four words per
//!   256-bit lane.
//!
//! [`and_above`] dispatches to the widest available variant; all three are
//! exact drop-ins for each other (see the unit and property tests).

/// Iterator over the set bit indices of a `u64`-packed bitset.
///
/// ```
/// use mps_patterns::BitIter;
/// let words = [0b1010u64, 0b1];
/// let idx: Vec<usize> = BitIter::new(&words).collect();
/// assert_eq!(idx, vec![1, 3, 64]);
/// ```
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> BitIter<'a> {
    /// Iterate the set bits of `words`, ascending.
    pub fn new(words: &'a [u64]) -> BitIter<'a> {
        BitIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Count set bits across all words.
#[cfg(test)]
pub(crate) fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The word-local mask keeping only bit positions strictly above
/// `idx % 64`. Two single-step shifts, so `idx % 64 == 63` (where a fused
/// `<< 64` would be undefined) degenerates cleanly to the empty mask.
#[inline(always)]
fn high_mask(idx: usize) -> u64 {
    (u64::MAX << (idx % 64)) << 1
}

/// `dst = (a & b)` restricted to bit indices strictly greater than `idx` —
/// the enumerator's per-candidate kernel (current candidate set ∩ chosen
/// node's parallel mask, keeping only nodes after the chosen one).
///
/// All three slices must have equal length, and `idx` must be below
/// `64 × dst.len()`. Dispatches to an AVX2 kernel when the CPU has it
/// (runtime-detected once, `x86_64` only) and to a 4-lane unrolled `u64`
/// kernel otherwise; both are bit-identical to [`and_above_scalar`].
#[inline]
pub fn and_above(dst: &mut [u64], a: &[u64], b: &[u64], idx: usize) {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    debug_assert!(idx < 64 * dst.len().max(1));
    #[cfg(target_arch = "x86_64")]
    if simd::try_and_above(dst, a, b, idx) {
        return;
    }
    and_above_unrolled(dst, a, b, idx);
}

/// Reference implementation of [`and_above`]: one word at a time, with the
/// below-`idx` words zeroed and the boundary word masked. Public as the
/// oracle the widened kernels are differentially tested (and benched)
/// against.
pub fn and_above_scalar(dst: &mut [u64], a: &[u64], b: &[u64], idx: usize) {
    let iw = idx / 64;
    for w in 0..dst.len() {
        let mut word = a[w] & b[w];
        if w == iw {
            word &= high_mask(idx);
        } else if w < iw {
            word = 0;
        }
        dst[w] = word;
    }
}

/// Portable widened kernel: the boundary region (words `0..=idx/64`) is
/// handled exactly like the scalar oracle, and the unconditional tail
/// (`idx/64 + 1..`) — where the mask is all-ones — runs as a 4-lane
/// manually unrolled AND.
fn and_above_unrolled(dst: &mut [u64], a: &[u64], b: &[u64], idx: usize) {
    let iw = idx / 64;
    let n = dst.len();
    let boundary = iw.min(n.saturating_sub(1));
    dst[..boundary].fill(0);
    if iw < n {
        dst[iw] = a[iw] & b[iw] & high_mask(idx);
    }
    let tail = (iw + 1).min(n);
    let (dst, a, b) = (&mut dst[tail..], &a[tail..], &b[tail..]);
    let mut chunks = dst.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((d, x), y) in (&mut chunks).zip(&mut ac).zip(&mut bc) {
        d[0] = x[0] & y[0];
        d[1] = x[1] & y[1];
        d[2] = x[2] & y[2];
        d[3] = x[3] & y[3];
    }
    for ((d, x), y) in chunks
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *d = x & y;
    }
}

/// Count the set bits of `words` at bit indices strictly greater than
/// `idx` — for a node's parallel row, the nodes parallel to it with a
/// greater id.
pub fn count_above(words: &[u64], idx: usize) -> usize {
    let iw = idx / 64;
    words
        .iter()
        .enumerate()
        .skip(iw)
        .map(|(w, &word)| {
            let word = if w == iw { word & high_mask(idx) } else { word };
            word.count_ones() as usize
        })
        .sum()
}

/// Count the set bits of `a & b` at bit indices strictly greater than
/// `idx` — [`and_above`] fused with a popcount and no destination write:
/// the number of depth-2 candidates a depth-1 branch opens.
pub fn and_above_count(a: &[u64], b: &[u64], idx: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let iw = idx / 64;
    a.iter()
        .zip(b.iter())
        .enumerate()
        .skip(iw)
        .map(|(w, (&x, &y))| {
            let mut word = x & y;
            if w == iw {
                word &= high_mask(idx);
            }
            word.count_ones() as usize
        })
        .sum()
}

/// The AVX2 variant and its runtime gate (`x86_64` only). The only
/// `unsafe` in the crate; confined here so the safety argument stays next
/// to the intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::high_mask;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached result of `is_x86_feature_detected!("avx2")`:
    /// 0 = unknown, 1 = no, 2 = yes.
    static AVX2: AtomicU8 = AtomicU8::new(0);

    /// Whether the running CPU supports AVX2 (detected once, then cached
    /// in a relaxed atomic — redundant detections are harmless).
    #[inline]
    pub(super) fn avx2_available() -> bool {
        match AVX2.load(Ordering::Relaxed) {
            0 => {
                let yes = std::arch::is_x86_feature_detected!("avx2");
                AVX2.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
                yes
            }
            v => v == 2,
        }
    }

    /// Safe entry: run the AVX2 kernel if the CPU has AVX2, reporting
    /// whether it did. `false` means the caller must use a fallback.
    #[inline]
    pub(super) fn try_and_above(dst: &mut [u64], a: &[u64], b: &[u64], idx: usize) -> bool {
        if !avx2_available() {
            return false;
        }
        // SAFETY: gated on runtime AVX2 detection just above.
        unsafe { and_above_avx2(dst, a, b, idx) };
        true
    }

    /// AVX2 [`super::and_above`]: boundary region scalar (it is at most
    /// `idx/64 + 1` words, usually one), unconditional tail in 256-bit
    /// (4 × u64) lanes with unaligned loads/stores.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 (see [`avx2_available`]).
    /// Slice accesses are all bounds-derived; the intrinsics use unaligned
    /// load/store so no alignment precondition exists.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_above_avx2(dst: &mut [u64], a: &[u64], b: &[u64], idx: usize) {
        use std::arch::x86_64::{_mm256_and_si256, _mm256_loadu_si256, _mm256_storeu_si256};
        let iw = idx / 64;
        let n = dst.len();
        dst[..iw.min(n.saturating_sub(1))].fill(0);
        if iw < n {
            dst[iw] = a[iw] & b[iw] & high_mask(idx);
        }
        let tail = (iw + 1).min(n);
        let lanes = (n - tail) / 4;
        for lane in 0..lanes {
            let w = tail + lane * 4;
            // SAFETY: `w + 3 < n` by the `lanes` bound; loads/stores are
            // the unaligned variants.
            unsafe {
                let x = _mm256_loadu_si256(a.as_ptr().add(w).cast());
                let y = _mm256_loadu_si256(b.as_ptr().add(w).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(w).cast(), _mm256_and_si256(x, y));
            }
        }
        for w in (tail + lanes * 4)..n {
            dst[w] = a[w] & b[w];
        }
    }
}

#[cfg(test)]
#[allow(unsafe_code)] // differential tests call the AVX2 kernel directly
mod tests {
    use super::*;

    #[test]
    fn iterates_across_words() {
        let mut words = vec![0u64; 3];
        for &i in &[0usize, 63, 64, 127, 130] {
            words[i / 64] |= 1 << (i % 64);
        }
        let got: Vec<usize> = BitIter::new(&words).collect();
        assert_eq!(got, vec![0, 63, 64, 127, 130]);
        assert_eq!(popcount(&words), 5);
    }

    #[test]
    fn empty_bitsets() {
        assert_eq!(BitIter::new(&[]).count(), 0);
        assert_eq!(BitIter::new(&[0, 0]).count(), 0);
    }

    #[test]
    fn full_word() {
        let got: Vec<usize> = BitIter::new(&[u64::MAX]).collect();
        assert_eq!(got.len(), 64);
        assert_eq!(got[0], 0);
        assert_eq!(got[63], 63);
    }

    /// Tiny deterministic xorshift so kernel tests need no external RNG.
    fn rng_words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    /// Every implementation variant against the scalar oracle on one input.
    fn assert_all_variants_match(a: &[u64], b: &[u64], idx: usize) {
        let n = a.len();
        let mut want = vec![0xAAu64; n];
        and_above_scalar(&mut want, a, b, idx);
        let mut unrolled = vec![0x55u64; n];
        and_above_unrolled(&mut unrolled, a, b, idx);
        assert_eq!(unrolled, want, "unrolled vs scalar, n={n} idx={idx}");
        let mut dispatched = vec![0x33u64; n];
        and_above(&mut dispatched, a, b, idx);
        assert_eq!(dispatched, want, "dispatch vs scalar, n={n} idx={idx}");
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_available() {
            let mut avx = vec![0x77u64; n];
            // SAFETY: runtime-detected AVX2.
            unsafe { simd::and_above_avx2(&mut avx, a, b, idx) };
            assert_eq!(avx, want, "avx2 vs scalar, n={n} idx={idx}");
        }
    }

    #[test]
    fn and_above_matches_scalar_on_random_rows() {
        // Word counts straddling the 4-lane boundary and the single-word
        // case, with the index in every word — including the last — and at
        // every bit offset class (0, mid, 63 within its word).
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16] {
            let a = rng_words(n as u64, n);
            let b = rng_words(n as u64 + 100, n);
            for word in 0..n {
                for bit in [0usize, 1, 31, 62, 63] {
                    assert_all_variants_match(&a, &b, word * 64 + bit);
                }
            }
        }
    }

    #[test]
    fn and_above_boundary_semantics() {
        // idx % 64 == 63 empties its own word; everything below idx's word
        // is cleared; everything above is a plain AND.
        let a = [u64::MAX, u64::MAX, u64::MAX];
        let b = [u64::MAX, 0xF0F0F0F0F0F0F0F0, u64::MAX];
        let mut dst = [0u64; 3];
        and_above(&mut dst, &a, &b, 63);
        assert_eq!(dst, [0, 0xF0F0F0F0F0F0F0F0, u64::MAX]);
        and_above(&mut dst, &a, &b, 64);
        assert_eq!(dst, [0, 0xF0F0F0F0F0F0F0F0 & !1, u64::MAX]);
        and_above(&mut dst, &a, &b, 127);
        assert_eq!(dst, [0, 0, u64::MAX]);
        // Root index in the very last word: nothing survives past the top
        // bit, and bit idx itself is always excluded.
        and_above(&mut dst, &a, &b, 191);
        assert_eq!(dst, [0, 0, 0]);
        and_above(&mut dst, &a, &b, 190);
        assert_eq!(dst, [0, 0, 1u64 << 63]);
        // words == 1, all bit positions.
        let a1 = [0xDEADBEEFDEADBEEFu64];
        let b1 = [0x123456789ABCDEF0u64];
        for idx in 0..64 {
            assert_all_variants_match(&a1, &b1, idx);
        }
    }

    #[test]
    fn and_above_equals_definition() {
        // Independent semantic check (not just implementation agreement):
        // bit i of the result is set iff i > idx and bit i is set in a & b.
        let a = rng_words(7, 6);
        let b = rng_words(13, 6);
        for idx in [0usize, 63, 64, 100, 200, 383] {
            let mut dst = vec![0u64; 6];
            and_above(&mut dst, &a, &b, idx);
            for i in 0..6 * 64 {
                let got = dst[i / 64] >> (i % 64) & 1;
                let want = u64::from(i > idx && (a[i / 64] & b[i / 64]) >> (i % 64) & 1 == 1);
                assert_eq!(got, want, "bit {i}, idx {idx}");
            }
        }
    }

    #[test]
    fn count_above_matches_oracle() {
        for n in [1usize, 2, 5, 9] {
            let words = rng_words(n as u64 + 40, n);
            for idx in 0..n * 64 {
                let mut masked = vec![0u64; n];
                and_above_scalar(&mut masked, &words, &words, idx);
                assert_eq!(
                    count_above(&words, idx),
                    popcount(&masked),
                    "n={n} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn and_above_count_matches_kernel() {
        for n in [1usize, 2, 5, 9] {
            let a = rng_words(n as u64 + 3, n);
            let b = rng_words(n as u64 + 77, n);
            for idx in 0..n * 64 {
                let mut masked = vec![0u64; n];
                and_above_scalar(&mut masked, &a, &b, idx);
                assert_eq!(
                    and_above_count(&a, &b, idx),
                    popcount(&masked),
                    "n={n} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn high_mask_edges() {
        assert_eq!(high_mask(0), !1u64);
        assert_eq!(high_mask(62), 1u64 << 63);
        assert_eq!(high_mask(63), 0);
        assert_eq!(high_mask(64), !1u64, "mask is word-local");
    }
}
