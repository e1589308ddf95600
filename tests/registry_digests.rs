//! Golden fingerprints of the engine's served decoders at bitmap rows of 8
//! words or more.
//!
//! The engine's other absolute goldens serve rows of 3 to 6 words, so none
//! pins the registry's score digest where the AVX-512 popcount arm runs
//! whole 8-lane groups over long rows. This test serves jobs through
//! [`process_job`] for every design family and every served decoder at
//! three shapes: `single_large`'s (14-word rows), `cold_churn`'s (9-word
//! rows) and one whose `n` is not a multiple of 8 (10-word rows, the last
//! bitmap group holding one entry). It folds the result fingerprints,
//! support and score digests included, into one constant per family,
//! decoder and shape. The constants were recorded while every decoder
//! still scored, ranked and digested its entries in loops after the sum
//! kernel.

use pooled_data::design::factory::DesignKind;
use pooled_data::engine::job::{DecoderKind, DesignSpec, Digest, JobSpec};
use pooled_data::engine::worker::{process_job, WorkerScratch};
use pooled_data::engine::DesignKey;

/// Shapes as `(n, m, k)`, all at `c = ½`: the benchmark's `single_large`
/// (`⌈862/64⌉ = 14` words a row) and `cold_churn` (9 words), and
/// `n = 4001` (10 words; 500 whole groups of 8 entries and one of 1).
const SHAPES: [(usize, usize, usize); 3] = [(10_000, 862, 16), (4000, 564, 12), (4001, 600, 12)];

/// Jobs served per family, decoder and shape.
const JOBS: u64 = 3;

/// Per family and served decoder: the folded fingerprints at each shape
/// of [`SHAPES`].
const GOLDEN: [(DesignKind, DecoderKind, [u64; 3]); 12] = [
    (
        DesignKind::RandomRegular,
        DecoderKind::Mn,
        [6072483445157234771, 7466124289283876386, 12591403295535375888],
    ),
    (
        DesignKind::RandomRegular,
        DecoderKind::GeneralMn,
        [11286837676563961708, 9976479318559131844, 11979805236460808960],
    ),
    (
        DesignKind::RandomRegular,
        DecoderKind::ThresholdMn,
        [11508051365079639580, 2883894110673254456, 13134890108987122143],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::Mn,
        [17564794697222905780, 11534459794995513918, 8486402886805122654],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::GeneralMn,
        [307521838029739985, 7400662193390585651, 12753357392515903501],
    ),
    (
        DesignKind::NoReplace,
        DecoderKind::ThresholdMn,
        [2432325434279318689, 15781793554121202938, 10362113166753672147],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::Mn,
        [1182445196484088927, 14113586526562268556, 7159158956731516339],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::GeneralMn,
        [8958762564590585261, 10559101346475516834, 10855983620250600095],
    ),
    (
        DesignKind::Bernoulli,
        DecoderKind::ThresholdMn,
        [6832296982913627442, 8355046875988396816, 4078018333528535583],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::Mn,
        [1904196983155188942, 8994732125004974481, 2721872040708557749],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::GeneralMn,
        [3560066489219681270, 8654471859149389234, 14493459222360436846],
    ),
    (
        DesignKind::EntryRegular,
        DecoderKind::ThresholdMn,
        [5440818635827852286, 11102586197858914091, 3191280812173402302],
    ),
];

#[test]
fn served_decoders_reproduce_their_golden_fingerprints_on_long_rows() {
    let mut got: Vec<(DesignKind, DecoderKind, [u64; 3])> =
        GOLDEN.iter().map(|&(kind, decoder, _)| (kind, decoder, [0; 3])).collect();
    let mut scratch = WorkerScratch::new(0);
    for (s, &(n, m, k)) in SHAPES.iter().enumerate() {
        for kind in DesignKind::ALL {
            let design = DesignSpec { kind, c_milli: 500, seed: 2027 + s as u64 };
            let key = DesignKey { n, m, kind, c_milli: design.c_milli, seed: design.seed };
            let sampled = key.sample();
            assert!(sampled.csr().has_bitmap(), "{} at n {n}", kind.name());
            for (_, decoder, slot) in got.iter_mut().filter(|row| row.0 == kind) {
                let mut digest = Digest::new();
                for job in 0..JOBS {
                    let spec = JobSpec {
                        id: job,
                        n,
                        k,
                        m,
                        design,
                        decoder: *decoder,
                        seed: 31 * job + s as u64,
                        query_cost_micros: 0,
                    };
                    digest.push(process_job(&spec, &sampled, &mut scratch).fingerprint());
                }
                slot[s] = digest.finish();
            }
        }
    }
    assert_eq!(got, GOLDEN);
}
