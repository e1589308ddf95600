//! Golden digests of every decoder's output on every design family.
//!
//! Each digest folds one decoder's scores, selected support, Ψ and Δ* on
//! one design: classic MN, Γ-general MN and Threshold-MN on every family
//! at two shapes and on a streaming design, plus the Ψ-only baseline's
//! support on the materialized designs. The constants were recorded
//! while the decoders still took their sums from several kernels
//! (blocked, atomic and direct scatter, fused trial kernels), so the one
//! sum path that replaced them has to reproduce every decode exactly.
//!
//! A second golden decodes every family above the top-k kernel's
//! parallel grain on two threads, and folds classic and Γ-general MN's
//! support in ranking order. Its constants were recorded while Γ-general
//! MN still ranked all `n` scores with a parallel merge sort, and then
//! while the decoders ranked a finished score slice, in parallel chunks
//! at this size; now each entry is offered to one selection heap as the
//! sum kernel finishes it, so this pins that selection on a 2-thread
//! pool. `pooled_par::topk`'s own tests pin the parallel chunks.
//!
//! A third golden decodes every family at the benchmark's `single_large`
//! shape, whose bitmap rows are 14 words long, so the popcount kernel is
//! pinned at the longest served rows as well. Its constants were recorded
//! while the kernel still counted one bitmap word per instruction, each
//! entry's row read whole.

use pooled_data::baselines::control::PsiOnlyDecoder;
use pooled_data::baselines::AdditiveDecoder;
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::factory::DesignKind;
use pooled_data::design::StreamingDesign;
use pooled_data::engine::job::Digest;
use pooled_data::par::pool::pool_with_threads;
use pooled_data::prelude::*;
use pooled_data::threshold::ThresholdMnDecoder;

/// Shapes as `(n, m, c, k)`: a dense design whose bitmap rows end
/// mid-word (`m = 130`), and sparse pools that keep no bitmap at all.
const SHAPES: [(usize, usize, f64, usize); 2] = [(257, 130, 0.5, 5), (2000, 64, 0.01, 3)];

/// Per family and shape of [`SHAPES`]: the MN, Γ-general MN,
/// Threshold-MN and Ψ-only digests.
const GOLDEN: [(DesignKind, [[u64; 4]; 2]); 4] = [
    (
        DesignKind::RandomRegular,
        [
            [9133564177678579609, 488497426062635547, 14889947441530983501, 10717377276603630535],
            [17482064592799934826, 1190292126352941184, 13156370076076770808, 12751606368297365273],
        ],
    ),
    (
        DesignKind::NoReplace,
        [
            [824807373433567882, 15598372867090515681, 12636337495699555239, 9376097950090590001],
            [12413376368503556896, 3692015115449408573, 4264450085796351832, 342565399248723971],
        ],
    ),
    (
        DesignKind::Bernoulli,
        [
            [3219349598188688103, 4832305853328329442, 17093424750964511824, 4402407000760285718],
            [2584806496842854597, 1146772654354412298, 12541030144555364749, 17982896352971412715],
        ],
    ),
    (
        DesignKind::EntryRegular,
        [
            [11559890859799728611, 13478255993220963570, 7459105019046848495, 13346413534950752816],
            [10513464420621232921, 2617391935890480590, 8281281327619863377, 6201461629527010074],
        ],
    ),
];

/// MN, Γ-general MN and Threshold-MN digests on
/// `StreamingDesign::new(257, 130, 128, …)`.
const GOLDEN_STREAMING: [u64; 3] = [1155688843086463479, 12580036340811016065, 274057766045849613];

/// `(n, m, c, k)` with `n` above the top-k kernel's parallel grain
/// (16 384 scores), at which a 2-thread selection of a score slice splits
/// into two chunks.
const PAR_SHAPE: (usize, usize, f64, usize) = (20_000, 300, 0.5, 50);

/// Per family at [`PAR_SHAPE`] on 2 threads: classic MN's and Γ-general
/// MN's support in ranking order, folded with their scores.
const GOLDEN_PAR: [(DesignKind, [u64; 2]); 4] = [
    (DesignKind::RandomRegular, [12714508867108108458, 17167250345259321212]),
    (DesignKind::NoReplace, [4664989085350115165, 7841287639295893216]),
    (DesignKind::Bernoulli, [4863086833649167063, 10006578155025668449]),
    (DesignKind::EntryRegular, [6972998663730243587, 15543242375059285425]),
];

/// `(n, m, c, k)` of the benchmark's `single_large` workload: bitmap rows
/// of `⌈862/64⌉ = 14` words.
const LARGE_SHAPE: (usize, usize, f64, usize) = (10_000, 862, 0.5, 16);

/// Per family at [`LARGE_SHAPE`]: the MN, Γ-general MN and Threshold-MN
/// digests.
const GOLDEN_LARGE: [(DesignKind, [u64; 3]); 4] = [
    (DesignKind::RandomRegular, [11942688338358282816, 15709730036927074459, 5149336630232150168]),
    (DesignKind::NoReplace, [2451169160745905764, 14165643331745715445, 2082426543430985598]),
    (DesignKind::Bernoulli, [11103172502438337373, 14914343576233855020, 8589028651243858540]),
    (DesignKind::EntryRegular, [2778794556080123346, 17166242511092192005, 4816587555039737718]),
];

fn push_all(h: &mut Digest, values: &[u64]) {
    h.push(values.len() as u64);
    for &v in values {
        h.push(v);
    }
}

fn push_support(h: &mut Digest, support: &[usize]) {
    h.push(support.len() as u64);
    for &i in support {
        h.push(i as u64);
    }
}

/// One instance on `design`: a seeded weight-`k` signal, its additive
/// results, and the one-bit results `y_q ≥ t` at the median-like
/// threshold `t = max(1, ⌊mean y⌋)`.
fn instance<D: PoolingDesign + ?Sized>(design: &D, k: usize, seed: u64) -> (Vec<u64>, Vec<u8>) {
    let seeds = SeedSequence::new(seed);
    let sigma = Signal::random(design.n(), k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(design, &sigma);
    let t = (y.iter().sum::<u64>() / y.len().max(1) as u64).max(1);
    let bits = y.iter().map(|&v| u8::from(v >= t)).collect();
    (y, bits)
}

/// The MN, Γ-general MN and Threshold-MN digests of one design.
fn digest_decoders<D: PoolingDesign + ?Sized>(design: &D, k: usize, seed: u64) -> [u64; 3] {
    let (y, bits) = instance(design, k, seed);

    let mn = MnDecoder::new(k).decode(design, &y);
    let mut h = Digest::new();
    for &s in &mn.scores {
        h.push(s as u64);
    }
    push_support(&mut h, mn.estimate.support());
    push_all(&mut h, &mn.psi);
    push_all(&mut h, &mn.delta_star);
    let mn = h.finish();

    let general = GeneralMnDecoder::new(k).decode(design, &y);
    let mut h = Digest::new();
    for &s in &general.scores {
        h.push_i128(s);
    }
    push_support(&mut h, general.estimate.support());
    push_all(&mut h, &general.psi);
    push_all(&mut h, &general.delta_star);
    let general = h.finish();

    let threshold = ThresholdMnDecoder::new(k).decode(design, &bits);
    let mut h = Digest::new();
    for &s in &threshold.scores {
        h.push(s as u64);
    }
    push_support(&mut h, threshold.estimate.support());
    push_all(&mut h, &threshold.psi_pos);
    push_all(&mut h, &threshold.delta_star);
    [mn, general, h.finish()]
}

#[test]
fn every_decoder_reproduces_its_golden_digests() {
    let got: Vec<(DesignKind, [[u64; 4]; 2])> = GOLDEN
        .iter()
        .map(|&(kind, _)| {
            let mut per_shape = [[0u64; 4]; 2];
            for (s, &(n, m, c, k)) in SHAPES.iter().enumerate() {
                let seed = 1905 + s as u64;
                let design = kind.sample(n, m, c, &SeedSequence::new(seed).child("design", 0));
                let [mn, general, threshold] = digest_decoders(&design, k, seed);
                let (y, _) = instance(&design, k, seed);
                let mut h = Digest::new();
                push_support(
                    &mut h,
                    PsiOnlyDecoder::new().reconstruct(design.csr(), &y, k).support(),
                );
                per_shape[s] = [mn, general, threshold, h.finish()];
            }
            (kind, per_shape)
        })
        .collect();
    let stream = StreamingDesign::new(257, 130, 128, &SeedSequence::new(1907).child("design", 0));
    let streaming = digest_decoders(&stream, 5, 1907);
    assert_eq!((got, streaming), (GOLDEN.to_vec(), GOLDEN_STREAMING));
}

#[test]
fn ranking_above_the_parallel_grain_reproduces_its_golden_digests() {
    let (n, m, c, k) = PAR_SHAPE;
    let got: Vec<(DesignKind, [u64; 2])> = pool_with_threads(2).install(|| {
        GOLDEN_PAR
            .iter()
            .map(|&(kind, _)| {
                let seed = 1908;
                let design = kind.sample(n, m, c, &SeedSequence::new(seed).child("design", 0));
                let (y, _) = instance(&design, k, seed);
                let mut ws = MnWorkspace::new();
                MnDecoder::new(k).decode_with(&design, &y, &mut ws);
                let mut h = Digest::new();
                push_support(&mut h, ws.support());
                for &s in ws.scores() {
                    h.push(s as u64);
                }
                let mn = h.finish();
                GeneralMnDecoder::new(k).decode_with(&design, &y, &mut ws);
                let mut h = Digest::new();
                push_support(&mut h, ws.support());
                for &s in ws.scores_wide() {
                    h.push_i128(s);
                }
                (kind, [mn, h.finish()])
            })
            .collect()
    });
    assert_eq!(got, GOLDEN_PAR.to_vec());
}

#[test]
fn single_large_shape_reproduces_its_golden_digests() {
    let (n, m, c, k) = LARGE_SHAPE;
    let got: Vec<(DesignKind, [u64; 3])> = GOLDEN_LARGE
        .iter()
        .map(|&(kind, _)| {
            let seed = 1909;
            let design = kind.sample(n, m, c, &SeedSequence::new(seed).child("design", 0));
            assert!(design.csr().has_bitmap(), "{} keeps a bitmap", kind.name());
            (kind, digest_decoders(&design, k, seed))
        })
        .collect();
    assert_eq!(got, GOLDEN_LARGE.to_vec());
}
