//! Packed bit matrices of SNP data.
//!
//! A [`BitMatrix`] stores one sequence (an SNP string, a forensic profile, …)
//! per row, with one bit per SNP site: `1` marks the presence of the minor
//! allele, `0` its absence (paper Fig. 2). Rows are packed into machine words
//! and zero-padded so that every row occupies `words_per_row` whole words.
//! Zero padding never changes comparison results (see
//! [`CompareOp::padding_safe`](crate::CompareOp::padding_safe)).

use crate::word::Word;

/// A dense, row-major, bit-packed binary matrix.
///
/// Logical shape is `rows × cols` bits; physical storage is
/// `rows × words_per_row` words of type `W`, where `words_per_row` is at
/// least `ceil(cols / W::BITS)` and may be larger when padding to a blocking
/// multiple was requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix<W: Word = u64> {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<W>,
}

impl<W: Word> BitMatrix<W> {
    /// Minimum number of `W` words needed to hold `cols` bits.
    #[inline]
    pub fn words_for_cols(cols: usize) -> usize {
        cols.div_ceil(W::BITS as usize)
    }

    /// Creates an all-zeros matrix of `rows × cols` bits.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::zeros_padded(rows, cols, Self::words_for_cols(cols))
    }

    /// Creates an all-zeros matrix whose rows are padded to
    /// `words_per_row >= ceil(cols / W::BITS)` words.
    pub fn zeros_padded(rows: usize, cols: usize, words_per_row: usize) -> Self {
        let min = Self::words_for_cols(cols);
        assert!(
            words_per_row >= min,
            "words_per_row {words_per_row} cannot hold {cols} bit columns (need >= {min})"
        );
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![W::ZERO; rows * words_per_row],
        }
    }

    /// Builds a matrix from a bit-valued closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds a matrix from row slices of booleans. All rows must have equal
    /// length; an empty input produces a `0 × 0` matrix.
    pub fn from_bool_rows(rows: &[Vec<bool>]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but row 0 has {cols}",
                r.len()
            );
        }
        Self::from_fn(rows.len(), cols, |r, c| rows[r][c])
    }

    /// Wraps existing packed words. `data.len()` must equal
    /// `rows * words_per_row`, and padding bits beyond `cols` must be zero
    /// (checked).
    pub fn from_words(rows: usize, cols: usize, words_per_row: usize, data: Vec<W>) -> Self {
        assert!(words_per_row >= Self::words_for_cols(cols));
        assert_eq!(
            data.len(),
            rows * words_per_row,
            "data length {} != rows {rows} * words_per_row {words_per_row}",
            data.len()
        );
        let m = BitMatrix {
            rows,
            cols,
            words_per_row,
            data,
        };
        assert!(
            m.padding_is_zero(),
            "padding bits beyond column {cols} must be zero"
        );
        m
    }

    /// Number of logical rows (sequences).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical bit columns (SNP sites).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of storage words per row (including padding words).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The full packed storage, row-major.
    #[inline]
    pub fn words(&self) -> &[W] {
        &self.data
    }

    /// The packed words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[W] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable packed words of row `r`. Callers must keep padding bits zero;
    /// prefer [`set`](Self::set) unless performance demands raw access.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [W] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Reads bit (`r`, `c`).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        let w = c / W::BITS as usize;
        let b = (c % W::BITS as usize) as u32;
        self.data[r * self.words_per_row + w].bit(b)
    }

    /// Writes bit (`r`, `c`).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        let w = c / W::BITS as usize;
        let b = (c % W::BITS as usize) as u32;
        let word = &mut self.data[r * self.words_per_row + w];
        *word = word.with_bit(b, v);
    }

    /// Total number of set bits (minor alleles) in the matrix.
    pub fn count_ones(&self) -> u64 {
        self.data.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Fraction of logical bits that are set; `0.0` for empty matrices.
    pub fn density(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.count_ones() as f64 / total
        }
    }

    /// True if every padding bit (beyond `cols`, and all padding words) is
    /// zero. This is an invariant of the type; it is validated on untrusted
    /// construction paths and checkable in tests.
    pub fn padding_is_zero(&self) -> bool {
        let full_words = self.cols / W::BITS as usize;
        let rem_bits = (self.cols % W::BITS as usize) as u32;
        for r in 0..self.rows {
            let row = self.row(r);
            if rem_bits != 0 && row[full_words] & !W::low_mask(rem_bits) != W::ZERO {
                return false;
            }
            let first_pad = full_words + usize::from(rem_bits != 0);
            if row[first_pad..].iter().any(|&w| w != W::ZERO) {
                return false;
            }
        }
        true
    }

    /// Returns a copy with rows padded (with zero rows) to a multiple of
    /// `row_multiple` and row storage padded to a multiple of `word_multiple`
    /// words, as required by the blocked algorithms (paper Fig. 2). The
    /// logical `rows()`/`cols()` of the result reflect the *padded* shape in
    /// rows but keep the original bit columns.
    pub fn padded_to(&self, row_multiple: usize, word_multiple: usize) -> BitMatrix<W> {
        assert!(row_multiple > 0 && word_multiple > 0);
        let new_rows = self.rows.next_multiple_of(row_multiple);
        let new_wpr = self.words_per_row.next_multiple_of(word_multiple);
        let mut out = BitMatrix::zeros_padded(new_rows, self.cols, new_wpr);
        for r in 0..self.rows {
            out.data[r * new_wpr..r * new_wpr + self.words_per_row].copy_from_slice(self.row(r));
        }
        out
    }

    /// Returns a copy containing only rows `lo..hi`.
    pub fn row_slice(&self, lo: usize, hi: usize) -> BitMatrix<W> {
        assert!(
            lo <= hi && hi <= self.rows,
            "row slice {lo}..{hi} out of bounds ({} rows)",
            self.rows
        );
        BitMatrix {
            rows: hi - lo,
            cols: self.cols,
            words_per_row: self.words_per_row,
            data: self.data[lo * self.words_per_row..hi * self.words_per_row].to_vec(),
        }
    }

    /// Bitwise NOT of every *logical* bit; padding stays zero. Used to
    /// pre-negate a mixture database so AND-NOT reduces to AND (paper §II-C).
    pub fn negated(&self) -> BitMatrix<W> {
        let mut out = self.clone();
        let full_words = self.cols / W::BITS as usize;
        let rem_bits = (self.cols % W::BITS as usize) as u32;
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for w in row.iter_mut().take(full_words) {
                *w = !*w;
            }
            if rem_bits != 0 {
                row[full_words] = !row[full_words] & W::low_mask(rem_bits);
            }
        }
        out
    }

    /// Converts the packed storage to a matrix over a different word type,
    /// preserving the logical bit layout. Useful for moving host-side `u64`
    /// data into the GPU's 32-bit element world.
    pub fn convert<V: Word>(&self) -> BitMatrix<V> {
        BitMatrix::<V>::from_fn(self.rows, self.cols, |r, c| self.get(r, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(rows: usize, cols: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r + c) % 2 == 0)
    }

    #[test]
    fn zeros_shape_and_contents() {
        let m = BitMatrix::<u64>::zeros(3, 130);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 130);
        assert_eq!(m.words_per_row(), 3); // ceil(130/64)
        assert_eq!(m.count_ones(), 0);
        assert!(m.padding_is_zero());
    }

    #[test]
    fn words_for_cols_boundaries() {
        assert_eq!(BitMatrix::<u64>::words_for_cols(0), 0);
        assert_eq!(BitMatrix::<u64>::words_for_cols(1), 1);
        assert_eq!(BitMatrix::<u64>::words_for_cols(64), 1);
        assert_eq!(BitMatrix::<u64>::words_for_cols(65), 2);
        assert_eq!(BitMatrix::<u32>::words_for_cols(64), 2);
    }

    #[test]
    fn get_set_roundtrip_across_word_boundaries() {
        let mut m = BitMatrix::<u32>::zeros(2, 70);
        m.set(0, 0, true);
        m.set(0, 31, true);
        m.set(0, 32, true);
        m.set(1, 69, true);
        assert!(m.get(0, 0) && m.get(0, 31) && m.get(0, 32) && m.get(1, 69));
        assert!(!m.get(1, 0));
        assert_eq!(m.count_ones(), 4);
        m.set(0, 32, false);
        assert!(!m.get(0, 32));
        assert!(m.padding_is_zero());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = BitMatrix::<u64>::zeros(2, 10);
        let _ = m.get(0, 10);
    }

    #[test]
    fn from_bool_rows_matches_from_fn() {
        let rows = vec![vec![true, false, true], vec![false, false, true]];
        let a = BitMatrix::<u64>::from_bool_rows(&rows);
        let b = BitMatrix::<u64>::from_fn(2, 3, |r, c| rows[r][c]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_words_validates_padding() {
        // 1 row, 4 cols in a u8 word: high 4 bits are padding.
        let ok = BitMatrix::<u8>::from_words(1, 4, 1, vec![0b0000_1010]);
        assert!(ok.get(0, 1) && ok.get(0, 3));
        let bad =
            std::panic::catch_unwind(|| BitMatrix::<u8>::from_words(1, 4, 1, vec![0b0001_1010]));
        assert!(bad.is_err(), "dirty padding must be rejected");
    }

    #[test]
    fn density_of_checkerboard() {
        let m = checkerboard(4, 64);
        assert!((m.density() - 0.5).abs() < 1e-12);
        assert_eq!(BitMatrix::<u64>::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn padded_to_preserves_content_and_zero_pads() {
        let m = checkerboard(3, 100);
        let p = m.padded_to(8, 4);
        assert_eq!(p.rows(), 8);
        assert_eq!(p.cols(), 100);
        assert_eq!(p.words_per_row(), 4);
        assert!(p.padding_is_zero());
        for r in 0..3 {
            for c in 0..100 {
                assert_eq!(p.get(r, c), m.get(r, c));
            }
        }
        assert_eq!(p.count_ones(), m.count_ones());
    }

    #[test]
    fn row_slice_extracts_rows() {
        let m = checkerboard(5, 33);
        let s = m.row_slice(1, 4);
        assert_eq!(s.rows(), 3);
        for r in 0..3 {
            assert_eq!(s.row(r), m.row(r + 1));
        }
    }

    #[test]
    fn negated_flips_logical_bits_only() {
        let m = checkerboard(2, 70);
        let n = m.negated();
        assert!(n.padding_is_zero());
        for r in 0..2 {
            for c in 0..70 {
                assert_eq!(n.get(r, c), !m.get(r, c));
            }
        }
        assert_eq!(n.count_ones() + m.count_ones(), 2 * 70);
    }

    #[test]
    fn double_negation_is_identity() {
        let m = checkerboard(3, 65);
        assert_eq!(m.negated().negated(), m);
    }

    #[test]
    fn convert_u64_to_u32_preserves_bits() {
        let m = checkerboard(3, 130);
        let c: BitMatrix<u32> = m.convert();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 130);
        assert!(c.padding_is_zero());
        for r in 0..3 {
            for col in 0..130 {
                assert_eq!(c.get(r, col), m.get(r, col));
            }
        }
        // And back again.
        let back: BitMatrix<u64> = c.convert();
        assert_eq!(back, m);
    }

    #[test]
    fn zeros_padded_stores_every_padding_word() {
        let m = BitMatrix::<u32>::zeros_padded(4, 40, 8);
        assert_eq!(m.words_per_row(), 8);
        assert_eq!(m.words().len(), 4 * 8);
    }
}
