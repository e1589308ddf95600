//! Golden digests of every design family's materialized arrays.
//!
//! A design is a pure function of its key: fingerprints, spilled
//! snapshots and WAL replay all rely on resampling a key giving the same
//! design bit for bit. Each digest below folds one design's `gamma`,
//! every forward row, every transpose row, whether it keeps the entry
//! bitmap, and the Ψ/Δ* sums for one fixed weight vector (plus the
//! family's own `gamma` and per-query pool sizes). The constants were
//! recorded with the sort → run-length → transpose constructor, so any
//! constructor that replaces it has to reproduce every design exactly.

use pooled_data::design::csr::CsrDesign;
use pooled_data::design::factory::{AnyDesign, DesignKind};
use pooled_data::engine::job::Digest;
use pooled_data::prelude::*;

/// Shapes as `(n, m, c)`: `cold_churn`'s served shape, a design whose
/// bitmap rows end mid-word (`m = 130`), and sparse pools that keep no
/// bitmap at all.
const SHAPES: [(usize, usize, f64); 3] = [(4000, 564, 0.5), (257, 130, 0.5), (2000, 64, 0.01)];

/// One digest per family and shape of [`SHAPES`].
const GOLDEN: [(DesignKind, [u64; 3]); 4] = [
    (DesignKind::RandomRegular, [219016523255444799, 9859775214780922275, 8143679654740684567]),
    (DesignKind::NoReplace, [13878502399014266149, 11371216322472674475, 14639944001205522655]),
    (DesignKind::Bernoulli, [6023488062197407290, 9330636498428065069, 460243833758351359]),
    (DesignKind::EntryRegular, [16374243899741833122, 10628924018465653711, 14495601711711521456]),
];

/// Digests of `CsrDesign::from_pools` on the Fig. 1 pools and on
/// unsorted pools with multiplicities of three and more.
const GOLDEN_FROM_POOLS: [u64; 2] = [3957709832565541468, 10619901933951038810];

fn push_row(h: &mut Digest, (idx, mults): (&[u32], &[u32])) {
    h.push(idx.len() as u64);
    for (&i, &c) in idx.iter().zip(mults) {
        h.push(i as u64);
        h.push(c as u64);
    }
}

fn digest_csr(h: &mut Digest, d: &CsrDesign) {
    h.push(d.n() as u64);
    h.push(d.m() as u64);
    h.push(d.gamma() as u64);
    for q in 0..d.m() {
        push_row(h, d.query_row(q));
    }
    for i in 0..d.n() {
        push_row(h, d.entry_row(i));
    }
    h.push(d.has_bitmap() as u64);
    let w: Vec<u64> = (0..d.m() as u64).map(|q| (q * 7 + 3) % 13).collect();
    let (mut psi, mut dstar) = (vec![0u64; d.n()], vec![0u64; d.n()]);
    d.gather_distinct_into(&w, &mut psi, &mut dstar);
    for (&p, &s) in psi.iter().zip(&dstar) {
        h.push(p);
        h.push(s);
    }
}

fn digest_design(d: &AnyDesign) -> u64 {
    let mut h = Digest::new();
    digest_csr(&mut h, d.csr());
    h.push(d.gamma() as u64);
    for q in 0..d.m() {
        h.push(d.pool_len(q) as u64);
    }
    h.finish()
}

fn digest_pools(n: usize, pools: &[Vec<usize>]) -> u64 {
    let mut h = Digest::new();
    digest_csr(&mut h, &CsrDesign::from_pools(n, pools));
    h.finish()
}

#[test]
fn every_family_reproduces_its_golden_design_digests() {
    let got: Vec<(DesignKind, [u64; 3])> = GOLDEN
        .iter()
        .map(|&(kind, _)| {
            let mut per_shape = [0u64; 3];
            for (slot, (s, &(n, m, c))) in per_shape.iter_mut().zip(SHAPES.iter().enumerate()) {
                let seeds = SeedSequence::new(1905 + s as u64).child("design", 0);
                *slot = digest_design(&kind.sample(n, m, c, &seeds));
            }
            (kind, per_shape)
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn from_pools_reproduces_its_golden_digests() {
    // Fig. 1 of the paper: entry 4 is drawn twice in the third query.
    let fig1 = [vec![0, 1, 2], vec![0, 1, 3], vec![0, 4, 4, 5], vec![2, 4, 6], vec![4, 5, 6]];
    let unsorted = [
        vec![7, 3, 7, 0, 7, 3, 9, 7],
        vec![5, 5, 5, 2, 8, 2],
        vec![],
        vec![9, 0, 9, 0, 9, 0, 9, 1],
        vec![6, 6, 6, 6, 6],
    ];
    let got = [digest_pools(7, &fig1), digest_pools(10, &unsorted)];
    assert_eq!(got, GOLDEN_FROM_POOLS);
}
