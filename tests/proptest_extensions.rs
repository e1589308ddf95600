//! Property-based invariants for the extension stack (threshold, adaptive,
//! alternative designs, the Γ-general decoder).

use proptest::prelude::*;

use pooled_data::adaptive::{counting_dorfman, quantitative_bisect, CountOracle};
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::design::{CsrDesign, DesignKind, PoolingDesign};
use pooled_data::prelude::*;
use pooled_data::threshold::ThresholdChannel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantitative bisection is exact on arbitrary signals and respects
    /// its query bound.
    #[test]
    fn bisect_exact_on_arbitrary_signals(
        n in 1usize..600,
        seed in any::<u64>(),
        density in 0.0f64..1.0,
    ) {
        let k = ((n as f64) * density) as usize;
        let sigma = Signal::random(n, k.min(n), &mut SeedSequence::new(seed).rng());
        let mut oracle = CountOracle::new(&sigma);
        let res = quantitative_bisect(&mut oracle);
        prop_assert_eq!(&res.estimate, &sigma);
        let bound = 1 + 2 * n; // trivial upper bound: every split queries once
        prop_assert!(res.queries <= bound);
    }

    /// Counting Dorfman is exact for every group size.
    #[test]
    fn dorfman_exact_for_any_group_size(
        n in 1usize..400,
        g in 1usize..50,
        seed in any::<u64>(),
        density in 0.0f64..1.0,
    ) {
        let k = (((n as f64) * density) as usize).min(n);
        let sigma = Signal::random(n, k, &mut SeedSequence::new(seed).rng());
        let mut oracle = CountOracle::new(&sigma);
        let res = counting_dorfman(&mut oracle, g);
        prop_assert_eq!(&res.estimate, &sigma);
        prop_assert!(res.rounds <= 2);
    }

    /// Threshold bits are monotone in T and match the load definition.
    #[test]
    fn threshold_bits_monotone_and_faithful(
        n in 2usize..200,
        m in 1usize..30,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let k = (n / 4).max(1);
        let sigma = Signal::random(n, k, &mut seeds.child("sig", 0).rng());
        let design = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        let mut prev: Option<Vec<u8>> = None;
        for t in 1..=4u64 {
            let bits = ThresholdChannel::new(t).execute(&design, &sigma);
            // Faithfulness against a direct load computation.
            #[allow(clippy::needless_range_loop)]
            for q in 0..m {
                let mut load = 0u64;
                design.for_each_distinct(q, &mut |e, _| load += sigma.get(e) as u64);
                prop_assert_eq!(bits[q], u8::from(load >= t));
            }
            if let Some(p) = prev {
                // Monotone: raising T can only turn bits off.
                prop_assert!(p.iter().zip(&bits).all(|(&a, &b)| a >= b));
            }
            prev = Some(bits);
        }
    }

    /// Every design family conserves its own pool-size accounting: draws
    /// visited equal `pool_len`, distinct ≤ draws, and multiplicities sum
    /// to the draw count.
    #[test]
    fn design_families_conserve_draws(
        n in 2usize..300,
        m in 1usize..25,
        seed in any::<u64>(),
        kind_idx in 0usize..4,
    ) {
        let kind = DesignKind::ALL[kind_idx];
        let d = kind.sample(n, m, 0.5, &SeedSequence::new(seed));
        for q in 0..d.m() {
            let mut draws = 0usize;
            d.for_each_draw(q, &mut |_| draws += 1);
            prop_assert_eq!(draws, d.pool_len(q));
            let mut mult_sum = 0usize;
            let mut distinct = 0usize;
            d.for_each_distinct(q, &mut |_, c| {
                mult_sum += c as usize;
                distinct += 1;
            });
            prop_assert_eq!(mult_sum, draws);
            prop_assert!(distinct <= draws.max(1));
            prop_assert_eq!(distinct, d.distinct_len(q));
        }
    }

    /// The Γ-general decoder ranks identically to the classic decoder on
    /// the paper's design whenever `Γ = n/2` **exactly** (even `n`): then
    /// `n·Ψ − kΓΔ* = (n/2)·(2Ψ − kΔ*)`. For odd `n` the classic score's
    /// `k/2` centering assumes a pool fraction the design cannot provide
    /// (`⌊n/2⌋/n ≠ 1/2`) and the two decoders may legitimately disagree on
    /// marginal instances — the general decoder is the exactly-centered
    /// one.
    #[test]
    fn general_and_classic_decoders_rank_identically(
        half_n in 5usize..150,
        m in 1usize..60,
        seed in any::<u64>(),
    ) {
        let n = 2 * half_n;
        let seeds = SeedSequence::new(seed);
        let k = (n / 10).max(1);
        let sigma = Signal::random(n, k, &mut seeds.child("sig", 0).rng());
        let design = CsrDesign::sample(n, m, n / 2, &seeds.child("d", 0));
        let y = execute_queries(&design, &sigma);
        let classic = MnDecoder::new(k).decode(&design, &y);
        let general = GeneralMnDecoder::new(k).decode(&design, &y);
        prop_assert_eq!(classic.estimate, general.estimate);
    }
}
