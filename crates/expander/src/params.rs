//! Expander sizing profiles.

/// Sizing constants for the randomized lossless-expander construction.
///
/// For inputs `V` and contender capacity `L`, Lemma 3 uses degree
/// `Δ = 4·lg(|V|/L)` and output width `|W| = 12e⁴·L·lg(|V|/L)`; the
/// resulting graph is an `(L, Δ, 1/4)`-lossless expander with positive
/// probability. The paper's width constant `12e⁴ ≈ 655` exists to make a
/// union bound go through and is still heavy for experiments (ℓ = 8,
/// N = 256 already needs ~26 000 registers per stage), so we also provide
/// a `compact` profile whose expansion we validate empirically (see
/// ARCHITECTURE.md, "Substitutions"): exclusiveness and wait-freedom of the
/// renaming algorithms never depend on expansion — only the *progress
/// rate* does — so weaker constants only move constants in measured
/// curves.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpanderParams {
    /// Multiplier on `L·lg(|V|/L)` giving the number of outputs.
    pub width_factor: f64,
    /// Multiplier on `lg(|V|/L)` giving the input degree.
    pub degree_factor: f64,
    /// Lower bound on the degree (keeps tiny instances connected).
    pub min_degree: usize,
    /// Expansion slack ε; unique-neighbour matchings have size
    /// `> (1−2ε)|X|` (Lemma 2). The paper uses ε = 1/4.
    pub epsilon: f64,
}

impl ExpanderParams {
    /// The constants of Lemma 3: `Δ = 4·lg(|V|/L)`,
    /// `|W| = 12e⁴·L·lg(|V|/L)`, ε = 1/4.
    #[must_use]
    pub fn paper() -> Self {
        ExpanderParams {
            width_factor: 12.0 * std::f64::consts::E.powi(4),
            degree_factor: 4.0,
            min_degree: 4,
            epsilon: 0.25,
        }
    }

    /// Laptop-scale constants: `Δ ≈ 2·lg(|V|/L)` (min 4),
    /// `|W| ≈ 16·L·lg(|V|/L)`. The expected fraction of a size-`L` subset
    /// with a unique neighbour is `1 − (L·Δ/|W|)^Δ ≈ 1 − 8^{-Δ}`, far above
    /// the 1/2 the Majority analysis needs; `tests` and experiment T1
    /// validate this empirically.
    #[must_use]
    pub fn compact() -> Self {
        ExpanderParams {
            width_factor: 16.0,
            degree_factor: 2.0,
            min_degree: 4,
            epsilon: 0.25,
        }
    }

    /// Degree for `n_inputs` inputs at capacity `L`.
    #[must_use]
    pub fn degree(&self, n_inputs: usize, capacity: usize) -> usize {
        let ratio = (n_inputs.max(2) as f64 / capacity.max(1) as f64).max(2.0);
        let d = (self.degree_factor * ratio.log2()).ceil() as usize;
        d.max(self.min_degree)
    }

    /// Number of outputs for `n_inputs` inputs at capacity `L`.
    #[must_use]
    pub fn width(&self, n_inputs: usize, capacity: usize) -> usize {
        let l = capacity.max(1) as f64;
        let ratio = (n_inputs.max(2) as f64 / l).max(2.0);
        let w = (self.width_factor * l * ratio.log2()).ceil() as usize;
        // Never fewer outputs than the degree, or adjacency lists could
        // not be distinct.
        w.max(self.degree(n_inputs, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = ExpanderParams::paper();
        // 12e^4 ≈ 655.18
        assert!((p.width_factor - 655.18).abs() < 0.01);
        assert_eq!(p.degree_factor, 4.0);
    }

    #[test]
    fn degree_grows_with_ratio() {
        let p = ExpanderParams::compact();
        let d_small = p.degree(1 << 8, 8);
        let d_large = p.degree(1 << 20, 8);
        assert!(d_large > d_small);
    }

    #[test]
    fn width_scales_linearly_in_capacity() {
        let p = ExpanderParams::compact();
        let w8 = p.width(1 << 16, 8);
        let w16 = p.width(1 << 16, 16);
        assert!(w16 > w8);
        assert!(w16 < 3 * w8);
    }

    #[test]
    fn width_at_least_degree() {
        let p = ExpanderParams::compact();
        for n in [2usize, 4, 16, 1024] {
            for l in [1usize, 2, 8] {
                assert!(p.width(n, l) >= p.degree(n, l));
            }
        }
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let p = ExpanderParams::compact();
        assert!(p.degree(1, 1) >= p.min_degree);
        assert!(p.width(1, 1) >= 1);
        assert!(p.degree(8, 16) >= p.min_degree); // capacity above inputs
    }
}
