//! Parallel execution of additive queries.
//!
//! A query returns the number of one-entries in its pool **with
//! multiplicity**: if a one-entry was drawn twice, it contributes two
//! (paper §II). All `m` queries are independent, so execution is a parallel
//! map over queries — the software analogue of the paper's simultaneous
//! wet-lab measurements.
//!
//! Two kernels compute the same `y = Aᵀσ`:
//!
//! * [`execute_queries`] — query-parallel, `O(distinct(q))` per query; works
//!   for any design (including streaming).
//! * [`execute_queries_support_into`] — over the CSR transpose rows of the
//!   support only, `O(Σ_{i∈supp} Δ*_i) = O(k·m·γ)` total instead of the
//!   dense walk's `O(nnz)`, which wins by orders of magnitude in the
//!   sparse regime `k ≪ n` (the `design_sampling` bench compares them).
//!   Sums are exact, so both kernels return bit-identical `y`.

use rayon::prelude::*;

use pooled_design::csr::CsrDesign;
use pooled_design::PoolingDesign;

use crate::signal::Signal;

/// Execute all queries in parallel: `y_q = Σ_i A_iq · σ_i`.
pub fn execute_queries<D: PoolingDesign + ?Sized>(design: &D, sigma: &Signal) -> Vec<u64> {
    let mut y = Vec::new();
    execute_queries_into(design, sigma, &mut y);
    y
}

/// Workspace variant of [`execute_queries`]: writes into `y` (resized to
/// `m`), reusing its capacity — allocation-free in replicate loops after
/// warm-up.
///
/// # Panics
/// Panics if the design and signal disagree on `n`.
pub fn execute_queries_into<D: PoolingDesign + ?Sized>(
    design: &D,
    sigma: &Signal,
    y: &mut Vec<u64>,
) {
    assert_eq!(design.n(), sigma.n(), "design and signal disagree on n");
    execute_queries_dense_into(design, sigma.dense(), y);
}

/// [`execute_queries_into`] over a raw dense 0/1 slice, for callers that
/// keep the signal in a reusable buffer instead of a [`Signal`].
///
/// # Panics
/// Panics if `dense.len() != design.n()`.
pub fn execute_queries_dense_into<D: PoolingDesign + ?Sized>(
    design: &D,
    dense: &[u8],
    y: &mut Vec<u64>,
) {
    assert_eq!(design.n(), dense.len(), "design and dense signal disagree on n");
    y.clear();
    y.resize(design.m(), 0);
    y.par_iter_mut().enumerate().for_each(|(q, slot)| {
        let mut acc = 0u64;
        design.for_each_distinct(q, &mut |e, c| {
            acc += dense[e] as u64 * c as u64;
        });
        *slot = acc;
    });
}

/// Sparse execution path over materialized CSR storage: overwrites `y`
/// (length `m`) with `y_q = Σ_{i∈support} A_iq`, summing only the
/// support's transpose rows instead of every pool. Sequential and
/// allocation-free — for `k` entries the work is `k` short rows, far too
/// little to pay for a fan-out, and callers (the serving engine's
/// workers, batch lanes) hand it slices of reusable planes.
///
/// `support` must hold distinct indices (a repeated index counts twice,
/// where the dense kernels would count it once); any order.
///
/// # Panics
/// Panics if `y.len() != design.m()` or a support index is `≥ n`.
pub fn execute_queries_support_into(design: &CsrDesign, support: &[usize], y: &mut [u64]) {
    assert_eq!(y.len(), design.m(), "query result slice must have length m");
    y.fill(0);
    for &i in support {
        assert!(i < design.n(), "support index {i} out of range for n={}", design.n());
        let (qs, mults) = design.entry_row(i);
        for (&q, &c) in qs.iter().zip(mults) {
            y[q as usize] += c as u64;
        }
    }
}

/// Result of the one extra “count everything” query the paper suggests for
/// learning `k` when it is unknown (§I-C): a single pool containing every
/// entry once returns exactly `k`.
pub fn weight_revealing_query(sigma: &Signal) -> u64 {
    sigma.weight() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_design::csr::CsrDesign;
    use pooled_design::streaming::StreamingDesign;
    use pooled_rng::SeedSequence;

    #[test]
    fn zero_signal_zero_results() {
        let d = CsrDesign::sample(100, 20, 50, &SeedSequence::new(1));
        let sigma = Signal::from_support(100, vec![]);
        assert!(execute_queries(&d, &sigma).iter().all(|&y| y == 0));
    }

    #[test]
    fn all_ones_signal_returns_gamma() {
        let d = CsrDesign::sample(50, 10, 25, &SeedSequence::new(2));
        let sigma = Signal::from_dense(&[1u8; 50]);
        assert!(execute_queries(&d, &sigma).iter().all(|&y| y == 25));
    }

    #[test]
    fn dense_slice_path_matches_signal_path() {
        let d = CsrDesign::sample(200, 40, 100, &SeedSequence::new(9));
        let sigma = Signal::random(200, 7, &mut SeedSequence::new(9).child("s", 0).rng());
        let want = execute_queries(&d, &sigma);
        let mut y = Vec::new();
        execute_queries_dense_into(&d, sigma.dense(), &mut y);
        assert_eq!(y, want);
    }

    #[test]
    fn multiplicity_counts() {
        // Fig. 1 semantics: an entry drawn twice contributes twice.
        let d = CsrDesign::from_pools(7, &[vec![0, 4, 4, 5]]);
        let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
        assert_eq!(execute_queries(&d, &sigma), vec![1 + 2]);
    }

    #[test]
    fn fig1_full_example() {
        // The paper's running example: queries produce (2, 2, 3, 1, 1).
        let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
        let pools = vec![
            vec![0, 1, 3], // σ0+σ1 = 2
            vec![1, 1, 2], // σ1 twice = 2
            vec![0, 1, 4], // 3
            vec![4, 5],    // 1
            vec![4, 6],    // 1
        ];
        let d = CsrDesign::from_pools(7, &pools);
        assert_eq!(execute_queries(&d, &sigma), vec![2, 2, 3, 1, 1]);
    }

    #[test]
    fn support_slice_path_matches_dense_path_on_every_family() {
        use pooled_design::factory::DesignKind;
        let seeds = SeedSequence::new(31);
        let mut y = vec![7; 90];
        for kind in DesignKind::ALL {
            let d = kind.sample(500, 90, 0.5, &seeds.child(kind.name(), 0));
            for k in [0, 1, 9] {
                let sigma = Signal::random(500, k, &mut seeds.child("sig", k as u64).rng());
                let mut want = Vec::new();
                execute_queries_dense_into(&d, sigma.dense(), &mut want);
                execute_queries_support_into(d.csr(), sigma.support(), &mut y);
                assert_eq!(y, want, "{} k={k}", kind.name());
            }
        }
    }

    #[test]
    fn support_slice_path_counts_multiplicity_in_any_order() {
        // Fig. 1's multi-edge: entry 4 drawn twice contributes twice, and
        // the support's order is irrelevant.
        let d = CsrDesign::from_pools(7, &[vec![0, 4, 4, 5], vec![1, 2]]);
        let mut y = vec![0; 2];
        execute_queries_support_into(&d, &[4, 1, 0], &mut y);
        assert_eq!(y, vec![1 + 2, 1]);
    }

    #[test]
    #[should_panic(expected = "length m")]
    fn support_slice_path_rejects_wrong_length() {
        let d = CsrDesign::sample(10, 5, 5, &SeedSequence::new(6));
        execute_queries_support_into(&d, &[1], &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn support_slice_path_rejects_out_of_range_index() {
        let d = CsrDesign::sample(10, 5, 5, &SeedSequence::new(6));
        execute_queries_support_into(&d, &[10], &mut [0; 5]);
    }

    #[test]
    fn streaming_design_matches_csr() {
        let seeds = SeedSequence::new(4);
        let s = StreamingDesign::new(300, 40, 150, &seeds);
        let c = s.materialize();
        let sigma = Signal::random(300, 9, &mut seeds.child("sig", 0).rng());
        assert_eq!(execute_queries(&s, &sigma), execute_queries(&c, &sigma));
    }

    #[test]
    fn results_bounded_by_gamma() {
        let seeds = SeedSequence::new(5);
        let d = CsrDesign::sample(200, 50, 100, &seeds);
        let sigma = Signal::random(200, 150, &mut seeds.child("sig", 0).rng());
        for &y in &execute_queries(&d, &sigma) {
            assert!(y <= 100);
        }
    }

    #[test]
    fn weight_revealing_query_returns_k() {
        let sigma = Signal::from_support(100, vec![5, 17, 99]);
        assert_eq!(weight_revealing_query(&sigma), 3);
    }

    #[test]
    #[should_panic(expected = "disagree on n")]
    fn dimension_mismatch_panics() {
        let d = CsrDesign::sample(10, 5, 5, &SeedSequence::new(6));
        let sigma = Signal::from_support(11, vec![0]);
        let _ = execute_queries(&d, &sigma);
    }
}
