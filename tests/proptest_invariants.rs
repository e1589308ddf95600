//! Property-based invariants across the workspace, driven by proptest.

use proptest::prelude::*;

use pooled_data::core::mn::MnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::design::csr::CsrDesign;
use pooled_data::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every sampled design conserves the pool size: multiplicities of each
    /// query sum to Γ, and the transpose mirrors the forward rows exactly.
    #[test]
    fn design_conservation_and_transpose(
        n in 2usize..300,
        m in 0usize..40,
        seed in any::<u64>(),
    ) {
        let gamma = (n / 2).max(1);
        let d = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
        let mut forward_pairs = 0usize;
        for q in 0..m {
            let (es, cs) = d.query_row(q);
            prop_assert_eq!(cs.iter().map(|&c| c as usize).sum::<usize>(), gamma);
            prop_assert!(es.windows(2).all(|w| w[0] < w[1]));
            forward_pairs += es.len();
            for (&e, &c) in es.iter().zip(cs) {
                let (qs, tcs) = d.entry_row(e as usize);
                let pos = qs.binary_search(&(q as u32)).ok().unwrap();
                prop_assert_eq!(tcs[pos], c);
            }
        }
        let backward_pairs: usize = (0..n).map(|i| d.entry_row(i).0.len()).sum();
        prop_assert_eq!(forward_pairs, backward_pairs);
    }

    /// y = Aᵀσ is bounded by Γ and exactly reproduced by the dense matrix.
    #[test]
    fn query_results_bounded_and_linear(
        n in 4usize..200,
        m in 1usize..30,
        k_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let k = ((n as f64 * k_frac) as usize).min(n);
        let d = CsrDesign::sample(n, m, gamma, &seeds.child("d", 0));
        let sigma = Signal::random(n, k, &mut seeds.child("s", 0).rng());
        let y = execute_queries(&d, &sigma);
        prop_assert_eq!(y.len(), m);
        for &v in &y {
            prop_assert!(v as usize <= gamma);
        }
        // Superposition: y(σ) + y(complement) = Γ for every query.
        let complement: Vec<usize> =
            (0..n).filter(|&i| !sigma.is_one(i)).collect();
        let comp_sig = Signal::from_support(n, complement);
        let y2 = execute_queries(&d, &comp_sig);
        for (a, b) in y.iter().zip(&y2) {
            prop_assert_eq!((a + b) as usize, gamma);
        }
    }

    /// The decoder output always has weight min(k, n) and never depends on
    /// the accumulation path.
    #[test]
    fn decoder_weight_and_path_independence(
        n in 8usize..200,
        m in 1usize..40,
        k in 0usize..12,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let d = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let y = execute_queries(&d, &sigma);
        let a = MnDecoder::new(k).decode(&d, &y);
        let b = MnDecoder::new(k).decode(&d, &y);
        prop_assert_eq!(a.estimate.weight(), k.min(n));
        prop_assert_eq!(a.scores, b.scores);
        prop_assert_eq!(a.estimate, b.estimate);
    }

    /// Signals: support/dense round trip and overlap symmetry.
    #[test]
    fn signal_round_trip_and_overlap_symmetry(
        n in 1usize..500,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let k1 = seeds.child("k1", 0).seed() as usize % (n + 1);
        let k2 = seeds.child("k2", 0).seed() as usize % (n + 1);
        let a = Signal::random(n, k1, &mut seeds.child("a", 0).rng());
        let b = Signal::random(n, k2, &mut seeds.child("b", 0).rng());
        prop_assert_eq!(Signal::from_dense(a.dense()), a.clone());
        prop_assert_eq!(a.overlap(&b), b.overlap(&a));
        prop_assert!(a.overlap(&b) <= k1.min(k2));
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
    }

    /// Parallel primitives agree with their sequential references.
    #[test]
    fn parallel_primitives_match_reference(
        data in prop::collection::vec(-1000i64..1000, 0..2000),
        k in 0usize..64,
    ) {
        let fast = pooled_data::par::topk::top_k_indices(&data, k);
        let slow = pooled_data::par::topk::top_k_indices_by_sort(&data, k);
        prop_assert_eq!(fast, slow);
    }

    /// The ground truth is always consistent in the exhaustive search and
    /// uniqueness implies the witness equals the truth.
    #[test]
    fn exhaustive_search_soundness(
        n in 6usize..14,
        k in 1usize..3,
        m in 1usize..20,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let d = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        let sigma = Signal::random(n, k, &mut seeds.child("s", 0).rng());
        let y = execute_queries(&d, &sigma);
        let out = pooled_data::core::exhaustive::exhaustive_search(&d, &y, k);
        prop_assert!(out.consistent_count >= 1, "truth must be counted");
        if out.consistent_count == 1 {
            prop_assert_eq!(out.witness.unwrap(), sigma);
        }
    }

    /// Peeling never misclassifies a resolved entry on exact data.
    #[test]
    fn peeling_partial_correctness(
        n in 10usize..150,
        k in 1usize..8,
        m in 1usize..60,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let d = pooled_data::baselines::peeling::sparse_design_for(
            n, m, k.min(n), 1.0, &seeds.child("d", 0));
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let y = execute_queries(&d, &sigma);
        let out = pooled_data::baselines::peeling::peel(&d, &y);
        for (i, r) in out.resolved.iter().enumerate() {
            if let Some(v) = r {
                prop_assert_eq!(*v, sigma.is_one(i), "entry {} misresolved", i);
            }
        }
    }
}
