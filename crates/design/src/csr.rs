//! Materialized CSR storage of a pooling design.
//!
//! Per query we store the *distinct* member entries together with their draw
//! multiplicities (run-length encoding of the `Γ` draws), plus the transposed
//! entry→queries adjacency.
//!
//! # Construction
//!
//! Every constructor, for every family, pushes its pools through one
//! sort-free builder. A pool's draws are counted into per-entry counters,
//! and closing the pool writes its distinct entries in ascending order,
//! with their counts as multiplicities, straight into the final
//! `entries`/`mults` arrays: no per-query buffer and no sort (see
//! `CsrBuilder`). The builder's last step, which snapshot reload shares
//! ([`CsrDesign::from_rows`]), records each pool's draw count (so
//! [`PoolingDesign::pool_len`] is exact for pools of any size), builds
//! the transpose from plain degree counts and a scatter over cache-sized
//! blocks of entries that keeps each entry's queries ascending, then the
//! entry bitmap. Construction runs on the calling thread and allocates a
//! fixed handful of times per design, however many queries it has.
//!
//! # The entry bitmap
//!
//! A design whose distinct density `nnz/(n·m)` is at least 1/32 also keeps
//! its distinct incidences as an entry-major bitmap: row `i` is `⌈m/64⌉`
//! `u64` words, and bit `q` of it is set when query `q` contains entry `i`.
//! From that density up the bitmap takes no more bytes than the transpose's
//! `u32` query indices; at the paper's `c = ½` it is 12–16× smaller (1.1 MiB
//! against 13.6 MB at n = 10⁴, m = 862), so it stays in L2 while the indices
//! stream from memory. It is built once, at construction, so sampling and
//! snapshot reload both produce it, for every design family.
//!
//! [`CsrDesign::gather_distinct_into`] then sums by popcount. With `B_i`
//! the row of entry `i` and `Y_b` bit-plane `b` of the query weights,
//! `Ψ_i = Σ_b 2^b · popcount(B_i ∧ Y_b)` and `Δ*_i = popcount(B_i)`. Only
//! the *mixed* planes are counted: a plane in which every weight has the
//! bit clear adds nothing, and one in which every weight has it set adds
//! `2^b · Δ*_i`. Every sum is an exact integer, so the popcount and the
//! index gather over the transpose agree bit for bit. The index gather
//! serves designs without a bitmap, and weights with more mixed planes
//! than the measured crossover: 5/4 of the incidences per bitmap word,
//! which is 30 planes at the paper's `c = ½` and 2 at the 1/32 cutoff.
//! The popcount kernel runs per entry and writes nothing shared. On x86-64
//! it runs the `popcnt` instruction when the CPU has one (detected at run
//! time; the build targets baseline x86-64), and a portable count
//! otherwise ([`PopcountArm`]).

use rayon::prelude::*;

use pooled_rng::bounded::FixedBound;
use pooled_rng::SeedSequence;

use crate::PoolingDesign;

/// A design keeps the entry bitmap when `32·nnz ≥ n·m`: from that distinct
/// density up, `n·m/64` words take no more bytes than `nnz` `u32` indices.
const BITMAP_DENSITY_RECIP: usize = 32;

/// Crossover of the popcount kernel against the index gather, as the
/// ratio `CROSSOVER.0 / CROSSOVER.1` of mixed weight bit-planes to
/// incidences per bitmap word: [`CsrDesign::gather_distinct_into`] counts
/// by popcount while `planes ≤ 5/4 · nnz / (n·⌈m/64⌉)`, and takes the
/// index gather for wider weights. Per entry, the popcount kernel does one
/// word operation per bitmap word and plane where the gather does one load
/// per incidence, so the crossover scales with the incidences a bitmap
/// word holds. Measured by `cargo bench -p pooled_bench --bench
/// popcount_vs_gather` on one thread of a 2-vCPU Xeon (baseline x86-64
/// build, `popcnt` arm) at n = 10⁴, m = 862: the popcount kernel stayed
/// faster up to ≥ 24 planes at Γ = n/2 (24 incidences a word), 20 at n/4
/// (13.6), 10 at n/8 (7.3), 5 at n/16 (3.7) and 3 at n/31 (1.95), about
/// 1.4 planes per incidence a word; 5/4 sits just below. The paper's
/// `c = ½` designs allow 30–39 planes; the served weights have 0–12
/// (`y` 3–5, Bernoulli pool sizes 10–12, every other weight vector 0–1).
const CROSSOVER: (usize, usize) = (5, 4);

/// Incidences per block of the transpose scatter (see
/// [`CsrDesign::assemble`]). A block's transpose rows take 128 KiB, which
/// stay in L2 and in the TLB while every query writes into them; written
/// query by query over the whole array instead, each write touches
/// another page. On one thread of a 2-vCPU Xeon VM this cut the transpose
/// of a design at n = 10⁴, m = 862, c = ½ from about 70 ms to 50 ms;
/// blocks of 4Ki to 32Ki incidences measured alike, and 64Ki and up
/// slower.
const SCATTER_BLOCK: usize = 1 << 14;

/// Words of weight bit-planes one pass of the popcount kernel holds on the
/// stack (8 KiB). Weights with `p` mixed planes are counted over
/// `1024 / p` words of queries per pass, so any `m` and any width up to 64
/// planes decode without allocating; every served shape fits in one pass.
const PLANE_WORDS: usize = 1024;

/// Entries per task of the popcount kernel: one instruction dispatch per
/// block, not per entry.
const ENTRY_BLOCK: usize = 256;

/// The two arms of the popcount kernel's instruction dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopcountArm {
    /// The `popcnt` instruction when the CPU has one (detected at run
    /// time on x86-64), else the portable count. What
    /// [`CsrDesign::gather_distinct_into`] runs.
    Native,
    /// The portable count on every CPU: the fallback arm, callable on its
    /// own so that hosts with `popcnt` still test it.
    Portable,
}

/// Compressed sparse rows for both orientations of the bipartite multigraph.
#[derive(Clone, Debug)]
pub struct CsrDesign {
    n: usize,
    m: usize,
    gamma: usize,
    /// Row offsets into `entries`/`mults`, length `m + 1`.
    q_offsets: Vec<u64>,
    /// Distinct entries of each query, ascending within a row.
    entries: Vec<u32>,
    /// Draw multiplicities matching `entries` (`A_iq ≥ 1`).
    mults: Vec<u32>,
    /// Draws of each query with multiplicity (`Σ_i A_iq`), length `m`.
    pool_lens: Vec<u32>,
    /// Transpose row offsets, length `n + 1`.
    e_offsets: Vec<u64>,
    /// Distinct queries of each entry (ascending within a row).
    queries: Vec<u32>,
    /// Multiplicities matching `queries`.
    t_mults: Vec<u32>,
    /// Entry-major distinct-incidence bitmap, `words` per entry (see
    /// module docs); empty when the design is too sparse to keep one.
    bits: Vec<u64>,
    /// Words per bitmap row, `⌈m/64⌉`; 0 when there is no bitmap.
    words: usize,
    /// Most mixed weight planes counted by popcount (see [`CROSSOVER`]).
    popcount_planes: u32,
}

impl CsrDesign {
    /// Sample the paper's design: `m` queries of `Γ = gamma` uniform draws
    /// with replacement from `{0, …, n−1}`, materialized.
    ///
    /// Query `q` draws from the substream `seeds.child("query", q)`, which is
    /// the exact contract [`crate::streaming::StreamingDesign`] follows — the
    /// two representations are bit-identical.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sample(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        let fb = FixedBound::new(n as u64);
        let mut rows = CsrBuilder::new(n, m, m * gamma.min(n));
        for q in 0..m {
            let mut rng = seeds.child("query", q as u64).rng();
            for _ in 0..gamma {
                rows.push(fb.sample(&mut rng) as usize);
            }
            rows.end_pool();
        }
        rows.finish(gamma)
    }

    /// Build a design from explicit pools given as entry lists **with
    /// repetitions** (multi-edges), in any order, e.g. the worked example
    /// of Fig. 1. `Γ` is the first pool's length; every pool's own length
    /// is its [`PoolingDesign::pool_len`].
    ///
    /// # Panics
    /// Panics if `n == 0`, or any entry index is out of range.
    pub fn from_pools(n: usize, pools: &[Vec<usize>]) -> Self {
        assert!(n > 0, "design needs at least one entry");
        let bound = pools.iter().map(|pool| pool.len().min(n)).sum();
        let mut rows = CsrBuilder::new(n, pools.len(), bound);
        for pool in pools {
            for &e in pool {
                assert!(e < n, "entry {e} out of range for n={n}");
                rows.push(e);
            }
            rows.end_pool();
        }
        let gamma = rows.first_pool_draws();
        rows.finish(gamma)
    }

    /// Rebuild a design from its flat forward rows: `q_offsets` (`m + 1`
    /// offsets from 0 to `nnz`) over `entries` and `mults`, the rows that
    /// [`Self::query_row`] exposes, concatenated. The pool sizes, the
    /// transpose and the bitmap are *not* inputs: they are rebuilt by the
    /// same last step sampling takes, so a design round-tripped through
    /// its forward rows is bit-identical to the original (the durable
    /// tier's snapshot-reload path relies on this).
    ///
    /// Returns `None` when the rows break an invariant: `n == 0`, offsets
    /// that do not run monotonically from 0 to `nnz`, `mults` of another
    /// length than `entries`, a row that is not strictly ascending, an
    /// entry out of range, or a zero multiplicity. So callers can hand it
    /// rows decoded from untrusted bytes.
    pub fn from_rows(
        n: usize,
        gamma: usize,
        q_offsets: Vec<u64>,
        entries: Vec<u32>,
        mults: Vec<u32>,
    ) -> Option<Self> {
        let nnz = entries.len() as u64;
        let fenced = q_offsets.first() == Some(&0) && q_offsets.last() == Some(&nnz);
        if n == 0 || !fenced || mults.len() != entries.len() || mults.contains(&0) {
            return None;
        }
        for bounds in q_offsets.windows(2) {
            let row = entries.get(bounds[0] as usize..bounds[1] as usize)?;
            let ascending = row.windows(2).all(|pair| pair[0] < pair[1]);
            if !ascending || row.last().is_some_and(|&e| e as usize >= n) {
                return None;
            }
        }
        Some(Self::assemble(n, gamma, q_offsets, entries, mults))
    }

    /// The last step of every constructor: each pool's draw count, the
    /// transpose by plain degree counts and a scatter, then the entry
    /// bitmap.
    ///
    /// The scatter runs over blocks of [`SCATTER_BLOCK`] incidences' worth
    /// of entries; within a block it walks the queries in order, so each
    /// transpose row still fills in ascending query order. Entry `e`'s
    /// write cursor is slot `e + 1` of the offsets: it starts at row `e`'s
    /// start and ends at its end, which is row `e + 1`'s start, so the
    /// finished cursors are the finished offsets.
    fn assemble(
        n: usize,
        gamma: usize,
        q_offsets: Vec<u64>,
        entries: Vec<u32>,
        mults: Vec<u32>,
    ) -> Self {
        let (m, nnz) = (q_offsets.len() - 1, entries.len());
        let pool_lens = q_offsets
            .windows(2)
            .map(|row| mults[row[0] as usize..row[1] as usize].iter().sum())
            .collect();
        let mut e_offsets = vec![0u64; n + 1];
        for &e in &entries {
            e_offsets[e as usize + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut e_offsets[1..] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        let mut queries = vec![0u32; nnz];
        let mut t_mults = vec![0u32; nnz];
        let block = (SCATTER_BLOCK * n).div_ceil(nnz.max(1)).max(1);
        // Per query, the first entry of its row not yet scattered.
        let mut row_at: Vec<u64> = q_offsets[..m].to_vec();
        for first in (0..n).step_by(block) {
            let end = (first + block).min(n) as u32;
            for (q, at) in row_at.iter_mut().enumerate() {
                let row_end = q_offsets[q + 1];
                while *at < row_end && entries[*at as usize] < end {
                    let j = *at as usize;
                    let cursor = &mut e_offsets[entries[j] as usize + 1];
                    queries[*cursor as usize] = q as u32;
                    t_mults[*cursor as usize] = mults[j];
                    *cursor += 1;
                    *at += 1;
                }
            }
        }
        let mut design = Self {
            n,
            m,
            gamma,
            q_offsets,
            entries,
            mults,
            pool_lens,
            e_offsets,
            queries,
            t_mults,
            bits: Vec::new(),
            words: 0,
            popcount_planes: 0,
        };
        design.build_bitmap();
        design
    }

    /// Set the entry bitmap from the transpose when the distinct density
    /// reaches 1/32 (entry-parallel; each row is written by one task).
    fn build_bitmap(&mut self) {
        if self.m == 0 || BITMAP_DENSITY_RECIP * self.nnz() < self.n * self.m {
            return;
        }
        let words = self.m.div_ceil(64);
        let mut bits = vec![0u64; self.n * words];
        bits.par_chunks_mut(words).enumerate().for_each(|(i, row)| {
            for &q in self.entry_row(i).0 {
                row[q as usize / 64] |= 1 << (q % 64);
            }
        });
        self.bits = bits;
        self.words = words;
        let (num, den) = CROSSOVER;
        self.popcount_planes = (num * self.nnz() / (den * self.n * words)).min(64) as u32;
    }

    /// Distinct entries of query `q` (ascending) with multiplicities.
    #[inline]
    pub fn query_row(&self, q: usize) -> (&[u32], &[u32]) {
        let (s, e) = (self.q_offsets[q] as usize, self.q_offsets[q + 1] as usize);
        (&self.entries[s..e], &self.mults[s..e])
    }

    /// Distinct queries containing entry `i` (ascending) with multiplicities.
    #[inline]
    pub fn entry_row(&self, i: usize) -> (&[u32], &[u32]) {
        let (s, e) = (self.e_offsets[i] as usize, self.e_offsets[i + 1] as usize);
        (&self.queries[s..e], &self.t_mults[s..e])
    }

    /// Total number of stored (entry, query) incidences (distinct pairs).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether this design keeps the entry bitmap (see module docs).
    pub fn has_bitmap(&self) -> bool {
        self.words > 0
    }

    /// Distinct Ψ/Δ* accumulation, entry-parallel and without atomics:
    /// `psi[i] = Σ_{q ∋ i} w[q]` and `dstar[i] = |∂*x_i|`, written into
    /// caller-provided buffers without allocating. By popcount over the
    /// entry bitmap when the design keeps one and the weights have no more
    /// mixed bit-planes than the design's crossover (see module docs), by
    /// the index gather over the transpose otherwise; both give identical
    /// sums.
    ///
    /// # Panics
    /// Panics if `w.len() != m` or the outputs are shorter than `n`.
    pub fn gather_distinct_into(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        self.check_sums_args(w, psi, dstar);
        let planes = WeightPlanes::of(w);
        if self.has_bitmap() && planes.mixed.count_ones() <= self.popcount_planes {
            self.popcount_sums(w, planes, psi, dstar, PopcountArm::Native);
        } else {
            self.index_gather_sums(w, psi, dstar);
        }
    }

    /// [`Self::gather_distinct_into`] by popcount over the entry bitmap at
    /// any weight width, on the chosen instruction arm.
    ///
    /// # Panics
    /// Panics if the design keeps no bitmap ([`Self::has_bitmap`]), or on
    /// the argument checks of [`Self::gather_distinct_into`].
    pub fn popcount_distinct_into(
        &self,
        w: &[u64],
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
    ) {
        assert!(self.has_bitmap(), "design keeps no entry bitmap");
        self.check_sums_args(w, psi, dstar);
        self.popcount_sums(w, WeightPlanes::of(w), psi, dstar, arm);
    }

    /// [`Self::gather_distinct_into`] by the index gather over the
    /// transpose, whatever the design keeps: the reference the popcount
    /// kernel is tested against.
    ///
    /// # Panics
    /// As [`Self::gather_distinct_into`].
    pub fn index_gather_distinct_into(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        self.check_sums_args(w, psi, dstar);
        self.index_gather_sums(w, psi, dstar);
    }

    fn check_sums_args(&self, w: &[u64], psi: &[u64], dstar: &[u64]) {
        assert_eq!(w.len(), self.m, "weight vector length must equal m");
        assert!(psi.len() >= self.n && dstar.len() >= self.n, "psi/dstar must have length n");
    }

    fn index_gather_sums(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        psi[..self.n].par_iter_mut().zip(dstar[..self.n].par_iter_mut()).enumerate().for_each(
            |(i, (p, d))| {
                let (qs, _) = self.entry_row(i);
                let mut acc = 0u64;
                for &q in qs {
                    acc += w[q as usize];
                }
                *p = acc;
                *d = qs.len() as u64;
            },
        );
    }

    /// The popcount kernel: per pass, the mixed planes of a run of query
    /// words go on the stack, then every entry block counts its rows
    /// against them.
    fn popcount_sums(
        &self,
        w: &[u64],
        planes: WeightPlanes,
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
    ) {
        let mut shifts = [0u32; 64];
        let mut count = 0;
        for b in 0..64 {
            if planes.mixed >> b & 1 == 1 {
                shifts[count] = b;
                count += 1;
            }
        }
        let shifts = &shifts[..count];
        let span = PLANE_WORDS.checked_div(count).map_or(self.words, |s| s.min(self.words));
        let mut buf = [0u64; PLANE_WORDS];
        let mut w0 = 0;
        while w0 < self.words {
            let cw = span.min(self.words - w0);
            let plane_words = &mut buf[..count * cw];
            plane_words.fill(0);
            let q0 = w0 * 64;
            for (q, &v) in w[q0..(q0 + cw * 64).min(self.m)].iter().enumerate() {
                for (j, &s) in shifts.iter().enumerate() {
                    plane_words[j * cw + q / 64] |= (v >> s & 1) << (q % 64);
                }
            }
            let pass = PopcountPass {
                bits: &self.bits,
                words: self.words,
                w0,
                cw,
                planes: plane_words,
                shifts,
                full: planes.full,
                first: w0 == 0,
            };
            psi[..self.n]
                .par_chunks_mut(ENTRY_BLOCK)
                .zip(dstar[..self.n].par_chunks_mut(ENTRY_BLOCK))
                .enumerate()
                .for_each(|(block, (p, d))| pass.run(block * ENTRY_BLOCK, p, d, arm));
            w0 += cw;
        }
    }
}

/// Which bit-planes of a weight vector vary across queries.
struct WeightPlanes {
    /// Planes set in some weights and clear in others: the ones counted.
    mixed: u64,
    /// Planes set in every weight: each adds `2^b · Δ*_i`.
    full: u64,
}

impl WeightPlanes {
    fn of(w: &[u64]) -> Self {
        let (any, all) = w.iter().fold((0, u64::MAX), |(any, all), &v| (any | v, all & v));
        Self { mixed: any & !all, full: all }
    }
}

/// One pass of the popcount kernel: query words `w0..w0 + cw` of every
/// bitmap row against the mixed planes of the same words.
struct PopcountPass<'a> {
    bits: &'a [u64],
    words: usize,
    w0: usize,
    cw: usize,
    /// Mixed plane `j` is `planes[j·cw..(j+1)·cw]`, shifted by `shifts[j]`.
    planes: &'a [u64],
    shifts: &'a [u32],
    full: u64,
    /// The first pass writes the sums; later passes add to them.
    first: bool,
}

impl PopcountPass<'_> {
    /// Count the rows of entries `first_entry..` into `psi`/`dstar` on
    /// `arm`.
    fn run(&self, first_entry: usize, psi: &mut [u64], dstar: &mut [u64], arm: PopcountArm) {
        #[cfg(target_arch = "x86_64")]
        if arm == PopcountArm::Native && std::is_x86_feature_detected!("popcnt") {
            // SAFETY: the running CPU supports `popcnt`, checked just above.
            return unsafe { self.run_popcnt(first_entry, psi, dstar) };
        }
        let _ = arm; // other targets have one arm: `count_ones` as compiled
        self.rows(first_entry, psi, dstar);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn run_popcnt(&self, first_entry: usize, psi: &mut [u64], dstar: &mut [u64]) {
        self.rows(first_entry, psi, dstar);
    }

    /// The kernel body, inlined into each arm so `count_ones` compiles to
    /// that arm's instruction.
    #[inline(always)]
    fn rows(&self, first_entry: usize, psi: &mut [u64], dstar: &mut [u64]) {
        for (j, (p, d)) in psi.iter_mut().zip(dstar.iter_mut()).enumerate() {
            let start = (first_entry + j) * self.words + self.w0;
            let row = &self.bits[start..start + self.cw];
            let degree: u64 = row.iter().map(|x| x.count_ones() as u64).sum();
            let mut sum = self.full * degree;
            for (plane, &s) in self.planes.chunks_exact(self.cw).zip(self.shifts) {
                let c: u64 = row.iter().zip(plane).map(|(x, y)| (x & y).count_ones() as u64).sum();
                sum += c << s;
            }
            if self.first {
                *p = sum;
                *d = degree;
            } else {
                *p += sum;
                *d += degree;
            }
        }
    }
}

/// Sort-free assembly of a design's forward rows, one pool at a time:
/// every constructor pushes its pools through it.
///
/// [`Self::push`] counts a draw into its entry's counter and marks the
/// entry in a bitset, one bit per entry; the first mark in a bitset word
/// also lists that word. [`Self::end_pool`] sorts the listed words and
/// walks each word's marks in ascending order, appending every marked
/// entry and its count straight onto the design's `entries`/`mults`
/// arrays and clearing what it read. A pool of `d` draws over `w` listed
/// words costs `O(d + w·log w)`: a sparse pool never pays for the `n/64`
/// words it does not touch, and no pool needs a buffer or a sort of its
/// own draws.
pub(crate) struct CsrBuilder {
    /// Draws of each entry in the open pool, one counter per entry.
    counts: Vec<u32>,
    /// Bit `e % 64` of word `e / 64` is set when entry `e` has a draw in
    /// the open pool.
    marks: Vec<u64>,
    /// The words of `marks` with a bit set, in the order first marked.
    marked: Vec<u32>,
    q_offsets: Vec<u64>,
    entries: Vec<u32>,
    mults: Vec<u32>,
}

impl CsrBuilder {
    /// A builder for `m` pools over `n` entries with at most `nnz`
    /// distinct incidences in all (past that the arrays grow).
    pub(crate) fn new(n: usize, m: usize, nnz: usize) -> Self {
        let mut q_offsets = Vec::with_capacity(m + 1);
        q_offsets.push(0);
        let words = n.div_ceil(64);
        Self {
            counts: vec![0; n],
            marks: vec![0; words],
            marked: Vec::with_capacity(words),
            q_offsets,
            entries: Vec::with_capacity(nnz),
            mults: Vec::with_capacity(nnz),
        }
    }

    /// Whether entry `e` has a draw in the open pool.
    #[inline]
    pub(crate) fn contains(&self, e: usize) -> bool {
        self.marks[e / 64] >> (e % 64) & 1 == 1
    }

    /// Count one draw of entry `e < n` into the open pool.
    #[inline]
    pub(crate) fn push(&mut self, e: usize) {
        let word = &mut self.marks[e / 64];
        if *word == 0 {
            self.marked.push((e / 64) as u32);
        }
        *word |= 1 << (e % 64);
        self.counts[e] += 1;
    }

    /// Close the open pool: its distinct entries, ascending, with their
    /// draw counts become the next row.
    pub(crate) fn end_pool(&mut self) {
        self.marked.sort_unstable();
        for &w in &self.marked {
            let w = w as usize;
            let mut bits = std::mem::take(&mut self.marks[w]);
            while bits != 0 {
                let e = w * 64 + bits.trailing_zeros() as usize;
                self.entries.push(e as u32);
                self.mults.push(std::mem::take(&mut self.counts[e]));
                bits &= bits - 1;
            }
        }
        self.marked.clear();
        self.q_offsets.push(self.entries.len() as u64);
    }

    /// Draws in the first pool, 0 without pools: the `Γ` a design built
    /// from pools of varying size reports.
    pub(crate) fn first_pool_draws(&self) -> usize {
        let end = self.q_offsets.get(1).map_or(0, |&end| end as usize);
        self.mults[..end].iter().map(|&c| c as usize).sum()
    }

    /// The design of the closed pools, with `Γ = gamma`.
    pub(crate) fn finish(mut self, gamma: usize) -> CsrDesign {
        self.entries.shrink_to_fit();
        self.mults.shrink_to_fit();
        let n = self.counts.len();
        CsrDesign::assemble(n, gamma, self.q_offsets, self.entries, self.mults)
    }
}

impl PoolingDesign for CsrDesign {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn gamma(&self) -> usize {
        self.gamma
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        let (es, cs) = self.query_row(q);
        for (&e, &c) in es.iter().zip(cs) {
            for _ in 0..c {
                f(e as usize);
            }
        }
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        let (es, cs) = self.query_row(q);
        for (&e, &c) in es.iter().zip(cs) {
            f(e as usize, c);
        }
    }

    fn distinct_len(&self, q: usize) -> usize {
        (self.q_offsets[q + 1] - self.q_offsets[q]) as usize
    }

    fn pool_len(&self, q: usize) -> usize {
        self.pool_lens[q] as usize
    }

    fn as_csr(&self) -> Option<&CsrDesign> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> CsrDesign {
        CsrDesign::sample(50, 20, 25, &SeedSequence::new(42))
    }

    #[test]
    fn multiplicities_sum_to_gamma() {
        let d = small_design();
        for q in 0..d.m() {
            let (_, cs) = d.query_row(q);
            let total: u32 = cs.iter().sum();
            assert_eq!(total as usize, d.gamma(), "query {q}");
        }
    }

    #[test]
    fn rows_are_strictly_ascending() {
        let d = small_design();
        for q in 0..d.m() {
            let (es, _) = d.query_row(q);
            assert!(es.windows(2).all(|w| w[0] < w[1]), "query {q}: {es:?}");
        }
        for i in 0..d.n() {
            let (qs, _) = d.entry_row(i);
            assert!(qs.windows(2).all(|w| w[0] < w[1]), "entry {i}: {qs:?}");
        }
    }

    #[test]
    fn transpose_is_consistent() {
        let d = small_design();
        for q in 0..d.m() {
            let (es, cs) = d.query_row(q);
            for (&e, &c) in es.iter().zip(cs) {
                let (qs, tcs) = d.entry_row(e as usize);
                let pos = qs.binary_search(&(q as u32)).expect("missing transpose edge");
                assert_eq!(tcs[pos], c, "multiplicity mismatch at ({e},{q})");
            }
        }
        let forward_nnz: usize = (0..d.m()).map(|q| d.query_row(q).0.len()).sum();
        let backward_nnz: usize = (0..d.n()).map(|i| d.entry_row(i).0.len()).sum();
        assert_eq!(forward_nnz, backward_nnz);
        assert_eq!(forward_nnz, d.nnz());
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let a = CsrDesign::sample(100, 30, 50, &SeedSequence::new(7));
        let b = CsrDesign::sample(100, 30, 50, &SeedSequence::new(7));
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.mults, b.mults);
        let c = CsrDesign::sample(100, 30, 50, &SeedSequence::new(8));
        assert_ne!(a.entries, c.entries);
    }

    #[test]
    fn from_pools_fig1_example() {
        // Fig. 1 of the paper: n=7, queries with multi-edges; the dashed
        // double edge means an entry drawn twice in the same query.
        let pools = vec![
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 4, 4, 5], // entry 4 twice (multi-edge)
            vec![2, 4, 6],
            vec![4, 5, 6],
        ];
        let d = CsrDesign::from_pools(7, &pools);
        assert_eq!(d.m(), 5);
        let (es, cs) = d.query_row(2);
        assert_eq!(es, &[0, 4, 5]);
        assert_eq!(cs, &[1, 2, 1]);
        assert_eq!(d.distinct_len(2), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pools_rejects_bad_entry() {
        let _ = CsrDesign::from_pools(3, &[vec![0, 3]]);
    }

    #[test]
    fn for_each_draw_respects_multiplicity() {
        let d = CsrDesign::from_pools(5, &[vec![1, 1, 1, 4]]);
        let mut draws = Vec::new();
        d.for_each_draw(0, &mut |e| draws.push(e));
        assert_eq!(draws, vec![1, 1, 1, 4]);
    }

    #[test]
    fn gather_matches_manual_sum() {
        let d = small_design();
        let w: Vec<u64> = (0..d.m() as u64).map(|q| q * q + 1).collect();
        let mut psi = vec![0u64; d.n()];
        let mut dstar = vec![0u64; d.n()];
        d.gather_distinct_into(&w, &mut psi, &mut dstar);
        for i in 0..d.n() {
            let (qs, _) = d.entry_row(i);
            let want: u64 = qs.iter().map(|&q| w[q as usize]).sum();
            assert_eq!(psi[i], want, "entry {i}");
            assert_eq!(dstar[i], qs.len() as u64);
        }
    }

    /// Ψ/Δ* of every path: the index gather, then each popcount arm.
    fn all_sums(d: &CsrDesign, w: &[u64]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let run = |f: &dyn Fn(&mut [u64], &mut [u64])| {
            let (mut psi, mut dstar) = (vec![7u64; d.n()], vec![7u64; d.n()]);
            f(&mut psi, &mut dstar);
            (psi, dstar)
        };
        let mut out = vec![run(&|p, s| d.index_gather_distinct_into(w, p, s))];
        for arm in [PopcountArm::Native, PopcountArm::Portable] {
            out.push(run(&|p, s| d.popcount_distinct_into(w, p, s, arm)));
        }
        out.push(run(&|p, s| d.gather_distinct_into(w, p, s)));
        out
    }

    #[test]
    fn bitmap_rows_mirror_the_transpose() {
        let d = CsrDesign::sample(70, 130, 35, &SeedSequence::new(5));
        assert!(d.has_bitmap());
        assert_eq!(d.words, 3);
        for i in 0..d.n() {
            let row = &d.bits[i * d.words..(i + 1) * d.words];
            let set: Vec<u32> =
                (0..d.m() as u32).filter(|&q| row[q as usize / 64] >> (q % 64) & 1 == 1).collect();
            assert_eq!(set, d.entry_row(i).0, "entry {i}");
        }
    }

    #[test]
    fn popcount_arms_match_the_index_gather() {
        let d = CsrDesign::sample(90, 150, 45, &SeedSequence::new(6));
        let varied: Vec<u64> = (0..d.m() as u64).map(|q| q * q + 1).collect();
        let constant = vec![5u64; d.m()];
        let wide: Vec<u64> = (0..d.m() as u64).map(|q| (q << 33) | (q * 7 + 3)).collect();
        for w in [varied, constant, vec![0; d.m()], wide] {
            let sums = all_sums(&d, &w);
            assert!(sums.iter().all(|s| *s == sums[0]), "weights {:?}", &w[..4]);
        }
    }

    #[test]
    fn wide_weights_over_many_queries_sum_in_several_passes() {
        // 40 mixed planes leave 1024 / 40 = 25 words of planes a pass, so
        // m = 2100 (33 words) takes two passes, the second ending mid-word.
        let d = CsrDesign::sample(40, 2100, 20, &SeedSequence::new(9));
        assert_eq!(d.words, 33);
        let w: Vec<u64> =
            (0..2100u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24).collect();
        assert_eq!(WeightPlanes::of(&w).mixed.count_ones(), 40);
        let sums = all_sums(&d, &w);
        assert!(sums.iter().all(|s| *s == sums[0]));
    }

    #[test]
    fn sparse_designs_keep_no_bitmap_and_still_sum() {
        // Γ = 2 of n = 100 gives distinct density ≈ 0.02 < 1/32.
        let d = CsrDesign::sample(100, 64, 2, &SeedSequence::new(7));
        assert!(!d.has_bitmap());
        let w: Vec<u64> = (0..64).collect();
        let (mut psi, mut dstar) = (vec![0u64; 100], vec![0u64; 100]);
        d.gather_distinct_into(&w, &mut psi, &mut dstar);
        let (mut want_psi, mut want_dstar) = (vec![0u64; 100], vec![0u64; 100]);
        d.index_gather_distinct_into(&w, &mut want_psi, &mut want_dstar);
        assert_eq!((psi, dstar), (want_psi, want_dstar));
    }

    #[test]
    #[should_panic(expected = "no entry bitmap")]
    fn popcount_without_a_bitmap_panics() {
        let d = CsrDesign::sample(100, 64, 2, &SeedSequence::new(7));
        d.popcount_distinct_into(&[0; 64], &mut [0; 100], &mut [0; 100], PopcountArm::Native);
    }

    #[test]
    fn crossover_follows_incidences_per_word() {
        // c = ½ at the served shape: 24 incidences a word allow 30 planes.
        let dense = CsrDesign::sample(2_000, 862, 1_000, &SeedSequence::new(8));
        assert_eq!(dense.popcount_planes, 30);
        // Wider weights than that take the index gather, and agree.
        let w: Vec<u64> =
            (0..862u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24).collect();
        let sums = all_sums(&dense, &w);
        assert!(sums.iter().all(|s| *s == sums[0]));
    }

    #[test]
    fn forward_rows_round_trip_rebuilds_identical_transpose() {
        // The snapshot-reload contract: a design rebuilt from its forward
        // rows matches the original in both orientations, bit for bit.
        let d = small_design();
        let (q_offsets, entries, mults) = (d.q_offsets.clone(), d.entries.clone(), d.mults.clone());
        let rebuilt = CsrDesign::from_rows(d.n(), d.gamma(), q_offsets, entries, mults).unwrap();
        assert_eq!(rebuilt.n(), d.n());
        assert_eq!(rebuilt.m(), d.m());
        assert_eq!(rebuilt.gamma(), d.gamma());
        assert_eq!(rebuilt.nnz(), d.nnz());
        for q in 0..d.m() {
            assert_eq!(rebuilt.query_row(q), d.query_row(q), "query {q}");
        }
        for i in 0..d.n() {
            assert_eq!(rebuilt.entry_row(i), d.entry_row(i), "entry {i}");
        }
        assert!(d.has_bitmap());
        assert_eq!(rebuilt.bits, d.bits, "a reloaded design rebuilds its bitmap");
    }

    #[test]
    fn from_rows_refuses_rows_that_break_an_invariant() {
        let rows = |n, offsets: &[u64], entries: &[u32], mults: &[u32]| {
            CsrDesign::from_rows(n, 2, offsets.to_vec(), entries.to_vec(), mults.to_vec())
        };
        assert!(rows(5, &[0, 2], &[1, 3], &[1, 2]).is_some());
        assert!(rows(5, &[0, 0], &[], &[]).is_some(), "an empty row is fine");
        assert!(rows(0, &[0, 0], &[], &[]).is_none(), "n = 0");
        assert!(rows(5, &[0, 2], &[3, 1], &[1, 1]).is_none(), "unsorted row");
        assert!(rows(5, &[0, 2], &[1, 1], &[1, 1]).is_none(), "repeated entry");
        assert!(rows(5, &[0, 2], &[1, 5], &[1, 1]).is_none(), "entry out of range");
        assert!(rows(5, &[0, 2], &[1, 3], &[1, 0]).is_none(), "zero multiplicity");
        assert!(rows(5, &[0, 2], &[1, 3], &[1]).is_none(), "short mults");
        assert!(rows(5, &[1, 2], &[1, 3], &[1, 1]).is_none(), "offsets start past 0");
        assert!(rows(5, &[0, 1], &[1, 3], &[1, 1]).is_none(), "offsets end before nnz");
        assert!(rows(5, &[0, 2, 1, 2], &[1, 3], &[1, 1]).is_none(), "offsets decrease");
        assert!(rows(5, &[], &[], &[]).is_none(), "no fencepost");
    }

    #[test]
    fn empty_design_m_zero() {
        let d = CsrDesign::sample(10, 0, 5, &SeedSequence::new(1));
        assert_eq!(d.m(), 0);
        assert_eq!(d.nnz(), 0);
        let mut psi = vec![3u64; 10];
        let mut dstar = vec![3u64; 10];
        d.gather_distinct_into(&[], &mut psi, &mut dstar);
        assert!(psi.iter().all(|&x| x == 0));
        assert!(dstar.iter().all(|&x| x == 0));
    }

    #[test]
    fn gamma_zero_yields_empty_pools() {
        let d = CsrDesign::sample(10, 4, 0, &SeedSequence::new(1));
        for q in 0..4 {
            assert_eq!(d.distinct_len(q), 0);
        }
    }

    #[test]
    fn distinct_fraction_matches_expectation() {
        // E[#distinct]/n = 1 − (1−1/n)^Γ ≈ 1 − e^{−1/2} for Γ = n/2.
        let n = 2000;
        let d = CsrDesign::sample(n, 200, n / 2, &SeedSequence::new(99));
        let mean_distinct: f64 =
            (0..d.m()).map(|q| d.distinct_len(q) as f64).sum::<f64>() / d.m() as f64;
        let expect = n as f64 * (1.0 - (-0.5f64).exp());
        let rel = (mean_distinct - expect).abs() / expect;
        assert!(rel < 0.02, "mean distinct {mean_distinct} vs expected {expect}");
    }
}
