//! Shannon-entropy estimation.
//!
//! Encrypted data is statistically indistinguishable from uniform random
//! bytes, so its byte entropy sits near 8 bits/byte while typical user file
//! data sits well below. RSSD's offloaded detectors and its offload engine's
//! codec chooser both use this estimator.

use std::cell::RefCell;

/// Computes the Shannon entropy of `data` in bits per byte (`0.0..=8.0`).
///
/// Returns `0.0` for empty input.
///
/// The result is bit-for-bit the textbook sum: `-Σ p·log2 p` over the
/// non-zero byte counts, each term computed as `(c / n) · log2(c / n)` in
/// `f64` and subtracted in byte-value order `0..256`. Only the work is
/// reorganised: the histogram runs in four independent `u32` lanes, and the
/// terms come from a per-thread table memoised for the most recent input
/// length (inputs longer than 64 KiB compute their at most 256 terms
/// directly). The write path hashes `entropy_mil` into the evidence chain,
/// so a single differing ulp would fork the chain.
///
/// # Examples
///
/// ```
/// use rssd_compress::shannon_entropy;
///
/// assert_eq!(shannon_entropy(&[0u8; 1024]), 0.0);
/// let uniform: Vec<u8> = (0..=255).collect();
/// assert!((shannon_entropy(&uniform) - 8.0).abs() < 1e-9);
/// ```
pub fn shannon_entropy(data: &[u8]) -> f64 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let counts = histogram(data);
    if n > TERM_TABLE_MAX_LEN {
        return entropy_of_counts(&counts, n as u64);
    }
    TERMS.with(|table| {
        let mut table = table.borrow_mut();
        if table.len() != n + 1 {
            // A new length: forget the old terms. Count 0 contributes
            // nothing (and `x - 0.0 == x` bit-for-bit), so it needs no
            // branch in the sum.
            table.clear();
            table.resize(n + 1, f64::NAN);
            table[0] = 0.0;
        }
        let mut entropy = 0.0;
        for &c in &counts {
            let slot = &mut table[c as usize];
            if slot.is_nan() {
                *slot = term(c, n as u64);
            }
            entropy -= *slot;
        }
        entropy
    })
}

/// Inputs up to this many bytes take their `p·log2 p` terms from the
/// per-thread table (at most 512 KiB of `f64`s); longer inputs compute
/// their terms directly.
const TERM_TABLE_MAX_LEN: usize = 1 << 16;

thread_local! {
    /// `TERMS[c]` memoises [`term`]`(c, n)` for the last input length `n`
    /// seen on this thread (`len() == n + 1`); NaN marks a count whose term
    /// has not been needed yet.
    static TERMS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The entropy term `p·log2 p` of a byte seen `count` times among `n`.
/// Every entropy in this module is a sum of exactly these values.
#[inline]
fn term(count: u64, n: u64) -> f64 {
    let p = count as f64 / n as f64;
    p * p.log2()
}

/// `-Σ term(c, n)` over the non-zero counts, in byte-value order.
fn entropy_of_counts(counts: &[u64; 256], n: u64) -> f64 {
    let mut entropy = 0.0;
    for &c in counts {
        if c > 0 {
            entropy -= term(c, n);
        }
    }
    entropy
}

/// Byte histogram of `data`.
///
/// Counts land in four `u32` lanes, one per byte position modulo four, so
/// consecutive equal bytes (a zero page, a run) increment different
/// counters instead of serialising on one store-to-load chain. Lanes are
/// folded into the `u64` result every [`LANE_CHUNK`] bytes, long before a
/// lane could overflow.
fn histogram(data: &[u8]) -> [u64; 256] {
    let mut counts = [0u64; 256];
    for chunk in data.chunks(LANE_CHUNK) {
        let mut lanes = [[0u32; 256]; 4];
        let mut quads = chunk.chunks_exact(4);
        for q in &mut quads {
            lanes[0][q[0] as usize] += 1;
            lanes[1][q[1] as usize] += 1;
            lanes[2][q[2] as usize] += 1;
            lanes[3][q[3] as usize] += 1;
        }
        for &b in quads.remainder() {
            lanes[0][b as usize] += 1;
        }
        for (b, total) in counts.iter_mut().enumerate() {
            *total += u64::from(lanes[0][b])
                + u64::from(lanes[1][b])
                + u64::from(lanes[2][b])
                + u64::from(lanes[3][b]);
        }
    }
    counts
}

/// Bytes counted per lane fold; each lane sees a quarter of them.
const LANE_CHUNK: usize = 1 << 30;

/// Streaming entropy estimator that can absorb data in chunks, as the
/// detection engine sees pages arrive segment by segment.
///
/// # Examples
///
/// ```
/// use rssd_compress::EntropyEstimator;
///
/// let mut est = EntropyEstimator::new();
/// est.update(b"hello ");
/// est.update(b"world");
/// assert!(est.bits_per_byte() > 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct EntropyEstimator {
    counts: [u64; 256],
    total: u64,
}

impl Default for EntropyEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        EntropyEstimator {
            counts: [0u64; 256],
            total: 0,
        }
    }

    /// Absorbs `data` into the histogram.
    pub fn update(&mut self, data: &[u8]) {
        for (total, c) in self.counts.iter_mut().zip(histogram(data)) {
            *total += c;
        }
        self.total += data.len() as u64;
    }

    /// Total bytes absorbed.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Current entropy estimate in bits per byte (`0.0` when empty).
    pub fn bits_per_byte(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        entropy_of_counts(&self.counts, self.total)
    }

    /// Chi-squared statistic against the uniform distribution. Ciphertext
    /// tracks the uniform expectation closely (statistic near 256); text and
    /// binaries deviate by orders of magnitude.
    pub fn chi_squared_uniform(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let expected = self.total as f64 / 256.0;
        self.counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// Resets the histogram.
    pub fn reset(&mut self) {
        self.counts = [0u64; 256];
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(EntropyEstimator::new().bits_per_byte(), 0.0);
    }

    #[test]
    fn constant_is_zero() {
        assert_eq!(shannon_entropy(&[42u8; 4096]), 0.0);
    }

    #[test]
    fn uniform_is_eight_bits() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        assert!((shannon_entropy(&data) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn two_symbols_is_one_bit() {
        let data: Vec<u8> = (0..1024).map(|i| (i % 2) as u8).collect();
        assert!((shannon_entropy(&data) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"some moderately compressible english text, repeated a bit";
        let mut est = EntropyEstimator::new();
        est.update(&data[..10]);
        est.update(&data[10..]);
        assert!((est.bits_per_byte() - shannon_entropy(data)).abs() < 1e-12);
        assert_eq!(est.total_bytes(), data.len() as u64);
    }

    #[test]
    fn chi_squared_separates_uniform_from_text() {
        let mut uniform = EntropyEstimator::new();
        let data: Vec<u8> = (0..65536).map(|i| (i % 256) as u8).collect();
        uniform.update(&data);

        let mut text = EntropyEstimator::new();
        text.update(&b"english text ".repeat(5000));

        assert!(uniform.chi_squared_uniform() < 1.0);
        assert!(text.chi_squared_uniform() > 10_000.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut est = EntropyEstimator::new();
        est.update(b"abc");
        est.reset();
        assert_eq!(est.total_bytes(), 0);
        assert_eq!(est.bits_per_byte(), 0.0);
    }
}
