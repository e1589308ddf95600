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
//! its distinct incidences as an entry bitmap: entry `i`'s row is `⌈m/64⌉`
//! `u64` words, and bit `q` of it is set when query `q` contains entry `i`.
//! From that density up the bitmap takes no more bytes than the transpose's
//! `u32` query indices; at the paper's `c = ½` it is 12–16× smaller (1.1 MiB
//! against 13.6 MB at n = 10⁴, m = 862), so it stays in L2 while the indices
//! stream from memory. It is built once, at construction, so sampling and
//! snapshot reload both produce it, for every design family; snapshots
//! store the forward rows, never the bitmap, so its layout is this
//! module's alone.
//!
//! The rows are interleaved in groups of `LANES` = 8 entries: group `g`
//! holds entries `8g..8g+7`, and word `w` of lane `l` sits at
//! `bits[(g·words + w)·8 + l]`, so one 512-bit vector holds the same word
//! of eight entries. `n` pads up to a whole group with at most 7 zero
//! rows, whose sums are never written.
//!
//! [`CsrDesign::gather_distinct_into`] then sums by popcount. With `B_i`
//! the row of entry `i` and `Y_b` bit-plane `b` of the query weights,
//! `Ψ_i = Σ_b 2^b · popcount(B_i ∧ Y_b)` and `Δ*_i = popcount(B_i)`. Only
//! the *mixed* planes are counted: a plane in which every weight has the
//! bit clear adds nothing, and one in which every weight has it set adds
//! `2^b · Δ*_i`. Every sum is an exact integer, so the popcount and the
//! index gather over the transpose agree bit for bit. The index gather
//! serves designs without a bitmap, and weights with more mixed planes
//! than the arm's measured crossover (see [`PopcountArm`]).
//!
//! # The popcount kernel
//!
//! Each group's sums depend only on its own rows, so the kernel writes
//! nothing shared. A pass holds the mixed planes of up to `PLANE_WORDS`
//! words of queries on the stack, in runs of planes, each run word-major:
//! word `w` of every plane of the run, then word `w + 1`. It has three
//! instruction arms ([`PopcountArm`]), and each call runs the fastest one
//! the CPU has, read once per call at run time; the build targets
//! baseline x86-64.
//!
//! - The AVX-512 arm loads each of a group's words once, as one vector of
//!   its eight entries. The Δ* lanes add its `VPOPCNTQ`, and each mixed
//!   plane's lanes add the `VPOPCNTQ` of it ANDed with that plane's word,
//!   broadcast. At the end of the group each plane's lanes shift by its
//!   bit and add up, and the group stores its sum and degree lanes. No
//!   load is masked and no sum is added across lanes.
//! - The `popcnt` and portable arms walk a group lane by lane: one run
//!   over the lane's words, one every 8, counts each into Δ* and, ANDed
//!   with each plane's word, into that plane's counter.
//!
//! Each arm counts its planes in runs over a row's words: up to 16 a run
//! on AVX-512 (one counter vector each, in the 32 vector registers), up
//! to 8 on the scalar arms (the 16 general registers). The first run also
//! counts Δ* and holds the planes left over the whole runs, from none (Δ*
//! alone, when no plane is mixed) to a whole run. The loop is
//! monomorphised on the first run's plane count, so its counters are
//! arrays of constant length that stay in registers; every later run is
//! a whole one. So each arm has one loop, at any width: served weights
//! have 0 to 12 mixed planes, one run on AVX-512 and one or two on the
//! scalar arms.
//!
//! ## The visitor
//!
//! [`CsrDesign::gather_distinct_visit`] calls a visitor `visit(i, Ψ_i,
//! Δ*_i)` once per entry, in ascending `i`, when the entry's sums are
//! final: on the last pass, never for a padding lane. A decoder scores,
//! ranks and digests each entry there, so a decode is one pass over the
//! bitmap. The visitor is generic, monomorphised into each arm, and
//! [`CsrDesign::gather_distinct_into`] is the visiting form with a
//! visitor that does nothing, so no second kernel is kept beside it.
//!
//! - The scalar arms visit each lane right after its count.
//! - The AVX-512 arm runs one group behind: during a group's word loop,
//!   lane `w` of the group before it is written and visited at word `w`,
//!   and the lanes a row of fewer than 8 words cannot cover are visited
//!   after the loop; the last group is visited after the last loop. So a
//!   latency-bound visitor, such as a decoder's serial score digest,
//!   runs under the throughput-bound popcounts: on one thread of a 2-vCPU
//!   Xeon VM at `single_large`'s shape, folding a group's 8 lanes right
//!   after that group hid about half of that digest's chain, lane `w` at
//!   word `w` of the next group nearly all of it.
//!
//! ## Threads
//!
//! Past `FANOUT_BYTES` of bitmap (4 MiB, about twice one core's L2)
//! with more than one thread installed, the kernel counts in blocks of
//! 256 entries across the threads, and the visitor runs after the last
//! pass over the finished sums, in one ordered loop. Below it the kernel
//! runs on the calling thread, visiting inside its loop, whatever the
//! thread count: engine workers and Monte-Carlo trials run on one thread
//! anyway, and at the served shapes fanning out measured slower (see
//! `FANOUT_BYTES`). The index gather, which no served weight takes,
//! sums entry-parallel across the installed threads (on the calling
//! thread when one is installed) and visits in one ordered loop after.
//!
//! On one thread of a 2-vCPU Xeon VM, at the served rows of 6, 9 and 14
//! words with 1 to 12 mixed planes, the kernel took 0.39–0.71× the time
//! of the row-major kernel it replaced on the AVX-512 arm, 0.63–0.95× on
//! the `popcnt` arm and 0.89–1.15× on the portable arm (the minimum of 6
//! alternating rounds of 150 calls to
//! [`CsrDesign::popcount_distinct_into`] per build).

use rayon::prelude::*;

use pooled_rng::bounded::FixedBound;
use pooled_rng::SeedSequence;

use crate::PoolingDesign;

/// A design keeps the entry bitmap when `32·nnz ≥ n·m`: from that distinct
/// density up, `n·m/64` words take no more bytes than `nnz` `u32` indices.
const BITMAP_DENSITY_RECIP: usize = 32;

/// Crossover of the AVX-512 arm against the index gather, in mixed weight
/// planes per incidence a bitmap word holds (see
/// [`PopcountArm::crossover`]). At n = 10⁴, m = 862 the arm stayed faster
/// than the gather at every measured width, up to 24 planes, from Γ = n/16
/// (3.7 incidences a word, 0.90× the gather's time at 24 planes) up, and
/// up to 20 planes at Γ = n/31 (1.95 a word; 0.94× at 20, 1.10× at 24).
/// Six planes a word keep every measured width on the winning side: 11
/// planes at n/31, 22 at n/16, and every width up to 64 at `c = ½`.
const AVX512_CROSSOVER: (usize, usize) = (6, 1);

/// Crossover of the scalar arms, `popcnt` and portable, against the index
/// gather (see [`AVX512_CROSSOVER`]): both run the same loop. Measured on
/// the `popcnt` arm: at n = 10⁴, m = 862 it stayed faster up to about 5
/// planes at Γ = n/31 (1.95 incidences a word), 8 at n/16 (3.7), 10 at
/// n/8 (7.3), 16 at n/4 (13.6) and 20 at n/2 (24), where it tied at 24,
/// measured while it counted past 16 planes plane after plane; counting
/// them in runs of 8, its rows at 20 and 24 planes and `c = ½` took
/// 0.70–0.74× that time. One plane a word is the lowest of those ratios;
/// it allows 24 planes at `c = ½`, where the
/// served weights have 0–12. The portable arm serves only targets other
/// than x86-64, where `count_ones` is a native count, and has not been
/// measured there.
const SCALAR_CROSSOVER: (usize, usize) = (1, 1);

/// Incidences per block of the transpose scatter (see
/// [`CsrDesign::assemble`]). A block's transpose rows take 128 KiB, which
/// stay in L2 and in the TLB while every query writes into them; written
/// query by query over the whole array instead, each write touches
/// another page. On one thread of a 2-vCPU Xeon VM this cut the transpose
/// of a design at n = 10⁴, m = 862, c = ½ from about 70 ms to 50 ms;
/// blocks of 4Ki to 32Ki incidences measured alike, and 64Ki and up
/// slower.
const SCATTER_BLOCK: usize = 1 << 14;

/// Words of weight bit-planes one pass of the popcount kernel counts.
/// Weights with `p` mixed planes are counted over `1024 / p` words of
/// queries per pass, held on the stack as plain words, word-major (word
/// `w` of plane `j` at `w·p + j`), so any `m` and any width up to 64
/// planes decode without allocating; every served shape fits in one pass.
const PLANE_WORDS: usize = 1024;

/// Entries per group of the entry bitmap, and 64-bit lanes of a 512-bit
/// vector: word `w` of a group's entries is one vector, lane `l` holding
/// entry `8g + l`'s word (see module docs).
const LANES: usize = 8;

/// Entries per task of the popcount kernel: whole groups, so a task
/// writes only its own entries' sums.
const ENTRY_BLOCK: usize = 256;
const _: () = assert!(ENTRY_BLOCK.is_multiple_of(LANES));

/// Mixed planes the AVX-512 arm counts per run over a group's words: 16
/// counter vectors, beside Δ*'s and the loaded word, in the 32 vector
/// registers.
const AVX512_RUN: usize = 16;

/// Mixed planes the scalar arms count per run over a lane's words: 8
/// counters, beside Δ*'s and the word, in the 16 general registers.
const SCALAR_RUN: usize = 8;

/// Bitmap bytes past which the popcount kernel fans its entry blocks out
/// across the installed threads; below it the kernel runs on the calling
/// thread and visits each entry inside its loop, whatever the thread
/// count. Fanning out pays only once the bitmap no longer fits in one
/// core's L2 (2 MiB on the VM measured): a fanned-out call spawns its
/// threads and then visits every entry in a loop of its own. Measured on
/// a 2-vCPU Xeon VM with the engine's MN decode (kernel, score, selection
/// and score digest) at `c = ½`, 2 threads fanning out against 1, the
/// median of 8 rounds of 60 calls: 3.3× the time at n = 1000, m = 334
/// (47 KiB of bitmap), 1.6× at 281 KiB, 0.98–1.10× at 1.1 to 2 MiB, and
/// 0.8–1.4× at 2.9 and 4 MiB, with neither side faster in every run;
/// then 0.82–0.85× at 5 MiB (n = 30 000, m = 1400) in all three runs,
/// 0.71–0.94× at 9.8 MiB and 0.58–0.70× at 31 MiB (n = 10⁵, m = 2500).
const FANOUT_BYTES: usize = 4 << 20;

/// `$kernel` with the constant `$F` set to `$first`, one of the listed
/// first-run plane counts, and `$F1` to `max($F, 1)`: how a popcount arm
/// is monomorphised over the planes of its first run (see [`first_run`]),
/// so its per-plane counters are arrays of constant length that stay in
/// registers.
macro_rules! by_first_run {
    ($first:expr, [$($f:literal)*], |$F:ident, $F1:ident| $kernel:expr) => {
        match $first {
            $($f => {
                const $F: usize = $f;
                const $F1: usize = if $f == 0 { 1 } else { $f };
                $kernel
            })*
            _ => unreachable!("a first run holds at most one run of planes"),
        }
    };
}

/// The instruction arms of the popcount kernel. Every arm reads the
/// interleaved entry bitmap (see module docs) and gives the same sums;
/// they differ in how many bitmap words one instruction counts.
///
/// [`CsrDesign::gather_distinct_into`] runs [`PopcountArm::best`], read
/// from the CPU once per call, while the weights' mixed planes stay within
/// that arm's measured crossover against the index gather. The build
/// targets baseline x86-64, so the AVX-512 and `popcnt` arms are compiled
/// for their instructions alone and run only where the CPU reports them:
/// [`CsrDesign::popcount_distinct_into`] refuses an arm the CPU lacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopcountArm {
    /// AVX-512 `VPOPCNTQ`: the same word of eight entries per
    /// instruction, on x86-64 CPUs with `avx512f` and `avx512vpopcntdq`.
    Avx512,
    /// The scalar `popcnt` instruction, one word of one entry at a time,
    /// on x86-64 CPUs with `popcnt`.
    Popcnt,
    /// The portable count as the baseline target compiles it: runs on
    /// every CPU, and is the only arm on other targets.
    Portable,
}

impl PopcountArm {
    /// Every arm, fastest first.
    const ALL: [Self; 3] = [Self::Avx512, Self::Popcnt, Self::Portable];

    /// Whether the running CPU has this arm's instructions (detected at
    /// run time).
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "x86_64")]
            Self::Popcnt => std::is_x86_feature_detected!("popcnt"),
            Self::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx512 | Self::Popcnt => false,
        }
    }

    /// The arms the running CPU has, fastest first.
    pub fn available() -> impl Iterator<Item = Self> {
        Self::ALL.into_iter().filter(|arm| arm.is_available())
    }

    /// The fastest arm the running CPU has: the one
    /// [`CsrDesign::gather_distinct_into`] serves.
    pub fn best() -> Self {
        Self::available().next().unwrap_or(Self::Portable)
    }

    /// Crossover of this arm against the index gather, as the ratio
    /// `num / den` of mixed weight bit-planes to incidences per bitmap
    /// word: [`CsrDesign::gather_distinct_into`] counts by popcount while
    /// `planes ≤ num/den · nnz / (n·⌈m/64⌉)`, and takes the index gather
    /// for wider weights. Per entry, the popcount kernel does one word
    /// operation per bitmap word and plane where the gather does one load
    /// per incidence, so the crossover scales with the incidences a bitmap
    /// word holds. The ratios are measured on one thread of a 2-vCPU Xeon
    /// VM (baseline x86-64 build) by `cargo bench -p pooled_bench --bench
    /// popcount_vs_gather`, one for the AVX-512 arm and one for the
    /// scalar arms.
    fn crossover(self) -> (usize, usize) {
        match self {
            Self::Avx512 => AVX512_CROSSOVER,
            Self::Popcnt | Self::Portable => SCALAR_CROSSOVER,
        }
    }

    /// Mixed planes this arm counts per run over a row's words.
    fn run(self) -> usize {
        match self {
            Self::Avx512 => AVX512_RUN,
            Self::Popcnt | Self::Portable => SCALAR_RUN,
        }
    }
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
        };
        design.build_bitmap();
        design
    }

    /// Set the entry bitmap from the transpose when the distinct density
    /// reaches 1/32, in groups of [`LANES`] entries with `n` padded to a
    /// whole group by zero rows (group-parallel; each group is written by
    /// one task).
    fn build_bitmap(&mut self) {
        if self.m == 0 || BITMAP_DENSITY_RECIP * self.nnz() < self.n * self.m {
            return;
        }
        let words = self.m.div_ceil(64);
        let mut bits = vec![0u64; self.n.div_ceil(LANES) * words * LANES];
        bits.par_chunks_mut(words * LANES).enumerate().for_each(|(g, group)| {
            for (l, i) in (g * LANES..self.n.min((g + 1) * LANES)).enumerate() {
                for &q in self.entry_row(i).0 {
                    group[q as usize / 64 * LANES + l] |= 1 << (q % 64);
                }
            }
        });
        self.bits = bits;
        self.words = words;
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

    /// Most mixed weight planes `arm` counts by popcount on this design's
    /// bitmap, which it must keep: the arm's crossover times the
    /// incidences a bitmap word holds, `nnz / (n·⌈m/64⌉)`.
    fn popcount_planes(&self, arm: PopcountArm) -> u32 {
        let (num, den) = arm.crossover();
        (num * self.nnz() / (den * self.n * self.words)).min(64) as u32
    }

    /// Distinct Ψ/Δ* accumulation, entry-parallel and without atomics:
    /// `psi[i] = Σ_{q ∋ i} w[q]` and `dstar[i] = |∂*x_i|`, written into
    /// caller-provided buffers without allocating. By popcount over the
    /// entry bitmap on [`PopcountArm::best`] when the design keeps one and
    /// the weights have no more mixed bit-planes than that arm's crossover
    /// allows on this design (see [`PopcountArm`]), by the index gather
    /// over the transpose otherwise; both give identical sums.
    ///
    /// # Panics
    /// Panics if `w.len() != m` or the outputs are shorter than `n`.
    pub fn gather_distinct_into(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        self.gather_distinct_visit(w, psi, dstar, skip);
    }

    /// [`Self::gather_distinct_into`], calling `visit(i, Ψ_i, Δ*_i)` once
    /// per entry `i < n`, in ascending `i`, as soon as that entry's sums
    /// are final (see "The popcount kernel" in the module docs for where
    /// the call runs).
    ///
    /// # Panics
    /// As [`Self::gather_distinct_into`].
    pub fn gather_distinct_visit<V: FnMut(usize, u64, u64)>(
        &self,
        w: &[u64],
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: V,
    ) {
        self.check_sums_args(w, psi, dstar);
        let planes = WeightPlanes::of(w);
        let arm = PopcountArm::best();
        if self.has_bitmap() && planes.mixed.count_ones() <= self.popcount_planes(arm) {
            self.popcount_sums(w, planes, psi, dstar, arm, visit);
        } else {
            self.index_gather_sums(w, psi, dstar, visit);
        }
    }

    /// [`Self::gather_distinct_into`] by popcount over the entry bitmap at
    /// any weight width, on the chosen instruction arm.
    ///
    /// # Panics
    /// Panics if the design keeps no bitmap ([`Self::has_bitmap`]), if the
    /// running CPU lacks `arm` ([`PopcountArm::is_available`]), or on the
    /// argument checks of [`Self::gather_distinct_into`].
    pub fn popcount_distinct_into(
        &self,
        w: &[u64],
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
    ) {
        self.popcount_distinct_visit(w, psi, dstar, arm, skip);
    }

    /// [`Self::popcount_distinct_into`] with the visitor of
    /// [`Self::gather_distinct_visit`].
    ///
    /// # Panics
    /// As [`Self::popcount_distinct_into`].
    pub fn popcount_distinct_visit<V: FnMut(usize, u64, u64)>(
        &self,
        w: &[u64],
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
        visit: V,
    ) {
        assert!(self.has_bitmap(), "design keeps no entry bitmap");
        self.check_sums_args(w, psi, dstar);
        self.popcount_sums(w, WeightPlanes::of(w), psi, dstar, arm, visit);
    }

    /// [`Self::gather_distinct_into`] by the index gather over the
    /// transpose, whatever the design keeps: the reference the popcount
    /// kernel is tested against.
    ///
    /// # Panics
    /// As [`Self::gather_distinct_into`].
    pub fn index_gather_distinct_into(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        self.check_sums_args(w, psi, dstar);
        self.index_gather_sums(w, psi, dstar, skip);
    }

    fn check_sums_args(&self, w: &[u64], psi: &[u64], dstar: &[u64]) {
        assert_eq!(w.len(), self.m, "weight vector length must equal m");
        assert!(psi.len() >= self.n && dstar.len() >= self.n, "psi/dstar must have length n");
    }

    /// The index gather: entry-parallel across the installed threads,
    /// then visited in one ordered loop.
    fn index_gather_sums<V: FnMut(usize, u64, u64)>(
        &self,
        w: &[u64],
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: V,
    ) {
        let (psi, dstar) = (&mut psi[..self.n], &mut dstar[..self.n]);
        psi.par_iter_mut().zip(dstar.par_iter_mut()).enumerate().for_each(|(i, (p, d))| {
            let (qs, _) = self.entry_row(i);
            *p = qs.iter().map(|&q| w[q as usize]).sum();
            *d = qs.len() as u64;
        });
        visit_each(psi, dstar, visit);
    }

    /// The popcount kernel: per pass, the mixed planes of a run of query
    /// words go on the stack in `arm`'s runs, then the groups count
    /// against them on `arm`: on the calling thread, visiting each entry
    /// on the last pass, or, past [`FANOUT_BYTES`] of bitmap with more
    /// than one thread installed, in blocks across the threads, visited
    /// after the last pass in one ordered loop.
    ///
    /// # Panics
    /// Panics if the running CPU lacks `arm`, so no arm's instructions
    /// run on a CPU without them.
    fn popcount_sums<V: FnMut(usize, u64, u64)>(
        &self,
        w: &[u64],
        planes: WeightPlanes,
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
        mut visit: V,
    ) {
        assert!(arm.is_available(), "popcount arm {arm:?} is not available on this CPU");
        let mut shifts = [0u32; 64];
        let mut count = 0;
        for b in 0..64 {
            if planes.mixed >> b & 1 == 1 {
                shifts[count] = b;
                count += 1;
            }
        }
        let shifts = &shifts[..count];
        let run = arm.run();
        let first_planes = first_run(count, run);
        // Every bitmap word takes `max(count, 1)` plane words: a first run
        // of no planes still holds one, unread (see `PopcountPass::planes`).
        let stride = count.max(1);
        let span = (PLANE_WORDS / stride).min(self.words);
        let fan_out = rayon::current_num_threads() > 1 && self.bits.len() * 8 > FANOUT_BYTES;
        let (psi, dstar) = (&mut psi[..self.n], &mut dstar[..self.n]);
        let mut buf = [0u64; PLANE_WORDS];
        let mut w0 = 0;
        while w0 < self.words {
            let cw = span.min(self.words - w0);
            let plane_words = &mut buf[..stride * cw];
            plane_words.fill(0);
            // Plane `j` of word `w` sits at `base + w·width` of its run.
            let place = |j: usize| {
                if j < first_planes {
                    (j, first_planes.max(1))
                } else {
                    let (r, pos) = ((j - first_planes) / run, (j - first_planes) % run);
                    (cw * first_planes.max(1) + r * cw * run + pos, run)
                }
            };
            let q0 = w0 * 64;
            for (q, &v) in w[q0..(q0 + cw * 64).min(self.m)].iter().enumerate() {
                for (j, &s) in shifts.iter().enumerate() {
                    let (base, width) = place(j);
                    plane_words[base + q / 64 * width] |= (v >> s & 1) << (q % 64);
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
            w0 += cw;
            if fan_out {
                psi.par_chunks_mut(ENTRY_BLOCK)
                    .zip(dstar.par_chunks_mut(ENTRY_BLOCK))
                    .enumerate()
                    .for_each(|(block, (p, d))| {
                        pass.run(block * ENTRY_BLOCK / LANES, p, d, arm, &mut skip)
                    });
            } else if w0 == self.words {
                pass.run(0, psi, dstar, arm, &mut visit);
            } else {
                pass.run(0, psi, dstar, arm, &mut skip);
            }
        }
        if fan_out {
            visit_each(psi, dstar, visit);
        }
    }
}

/// The visitor that does nothing: the sums alone.
fn skip(_: usize, _: u64, _: u64) {}

/// Visit every entry's finished sums in one ordered loop.
pub(crate) fn visit_each(psi: &[u64], dstar: &[u64], mut visit: impl FnMut(usize, u64, u64)) {
    for (i, (&p, &d)) in psi.iter().zip(dstar).enumerate() {
        visit(i, p, d);
    }
}

/// Planes in the first run of `count` mixed planes counted in runs of
/// `run`: all of them up to `run`, else what is left over the whole runs,
/// 1 to `run`. The first run also counts Δ*.
fn first_run(count: usize, run: usize) -> usize {
    if count == 0 {
        0
    } else {
        (count - 1) % run + 1
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
/// bitmap group against the mixed planes of the same words.
struct PopcountPass<'a> {
    bits: &'a [u64],
    words: usize,
    w0: usize,
    cw: usize,
    /// The mixed planes' words in the arm's runs (see
    /// [`PopcountArm::run`]), one run after another, each word-major:
    /// first the first run of `f` planes (see [`first_run`]), word `w` of
    /// its plane `j` at `w·max(f, 1) + j`, then each whole run of `r`
    /// planes, `cw·r` words with word `w` of its plane `j` at `w·r + j`.
    /// Plane `j` of them all is shifted by `shifts[j]`.
    planes: &'a [u64],
    shifts: &'a [u32],
    full: u64,
    /// The first pass writes the sums; later passes add to them.
    first: bool,
}

impl PopcountPass<'_> {
    /// Count the groups `first_group..` into `psi`/`dstar`, [`LANES`] sums
    /// a group and only as many as the outputs hold, on `arm`, which the
    /// running CPU has (checked by [`CsrDesign::popcount_sums`] before any
    /// pass runs), visiting each entry written.
    fn run<V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        arm: PopcountArm,
        visit: &mut V,
    ) {
        match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the running CPU has `avx512f` and `avx512vpopcntdq`:
            // `popcount_sums` asserted `arm.is_available()`.
            PopcountArm::Avx512 => unsafe { self.run_avx512(first_group, psi, dstar, visit) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the running CPU has `popcnt`: `popcount_sums`
            // asserted `arm.is_available()`.
            PopcountArm::Popcnt => unsafe { self.run_popcnt(first_group, psi, dstar, visit) },
            // Other targets refuse the x86-64 arms before any pass runs.
            _ => self.run_scalar(first_group, psi, dstar, visit),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn run_popcnt<V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: &mut V,
    ) {
        self.run_scalar(first_group, psi, dstar, visit);
    }

    /// The scalar kernel body, inlined into each scalar arm so
    /// `count_ones` compiles to that arm's instruction.
    #[inline(always)]
    fn run_scalar<V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: &mut V,
    ) {
        by_first_run!(
            first_run(self.shifts.len(), SCALAR_RUN),
            [0 1 2 3 4 5 6 7 8],
            |F, F1| self.scalar_counted::<F, F1, V>(first_group, psi, dstar, visit)
        );
    }

    /// The scalar loop, for a first run of `F` planes: per lane of a
    /// group, one run over its words counts each into Δ* and, ANDed with
    /// the word of each of the first run's planes, into that plane's
    /// counter; each whole run of [`SCALAR_RUN`] planes after it runs over
    /// the words again. Then the lane is written and visited.
    #[inline(always)]
    fn scalar_counted<const F: usize, const F1: usize, V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: &mut V,
    ) {
        let first = self.first_words::<F1>();
        let runs = self.whole_runs::<SCALAR_RUN>(F, F1);
        let groups = psi.chunks_mut(LANES).zip(dstar.chunks_mut(LANES));
        for (g, (psi, dstar)) in (first_group..).zip(groups) {
            let group = self.group(g);
            for ((p, d), l) in psi.iter_mut().zip(dstar).zip(0..LANES) {
                let (mut degree, mut counts) = (0, [0u64; F]);
                for (x, y) in group.iter().zip(first) {
                    let x = x[l];
                    degree += x.count_ones() as u64;
                    for j in 0..F {
                        counts[j] += (x & y[j]).count_ones() as u64;
                    }
                }
                // Fold each run's counters before the next, so they do
                // not hold registers through it.
                let shifted = |(c, s): (&u64, &u32)| c << s;
                let mut sum = self.full * degree;
                sum += counts.iter().zip(&self.shifts[..F]).map(shifted).sum::<u64>();
                for (run, shifts) in runs.clone() {
                    let mut counts = [0u64; SCALAR_RUN];
                    for (x, y) in group.iter().zip(run) {
                        for j in 0..SCALAR_RUN {
                            counts[j] += (x[l] & y[j]).count_ones() as u64;
                        }
                    }
                    sum += counts.iter().zip(shifts).map(shifted).sum::<u64>();
                }
                let (p, d) = self.write(p, d, sum, degree);
                visit(g * LANES + l, p, d);
            }
        }
    }

    /// The vector kernel: dispatches on the first run's plane count.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn run_avx512<V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: &mut V,
    ) {
        by_first_run!(
            first_run(self.shifts.len(), AVX512_RUN),
            [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16],
            |F, F1| self.avx512_counted::<F, F1, V>(first_group, psi, dstar, visit)
        );
    }

    /// The vector loop, for a first run of `F` planes: each of a group's
    /// `cw` vectors is loaded once; the Δ* lanes add its popcount, and
    /// each of the first run's planes' lanes add the popcount of it ANDed
    /// with the plane's word, broadcast. Each whole run of [`AVX512_RUN`]
    /// planes after it loads the vectors again. The group ends with one
    /// shift per plane and stores its lanes, and the next group's word
    /// loop writes and visits them, lane `w` at word `w` (see module
    /// docs), so the visits run under that group's popcounts.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn avx512_counted<const F: usize, const F1: usize, V: FnMut(usize, u64, u64)>(
        &self,
        first_group: usize,
        psi: &mut [u64],
        dstar: &mut [u64],
        visit: &mut V,
    ) {
        use std::arch::x86_64::*;
        let first = self.first_words::<F1>();
        let runs = self.whole_runs::<AVX512_RUN>(F, F1);
        let mut lag =
            Lag { psi: &mut [], dstar: &mut [], entry: 0, sums: [0; LANES], degrees: [0; LANES] };
        let groups = psi.chunks_mut(LANES).zip(dstar.chunks_mut(LANES));
        for (g, (psi, dstar)) in (first_group..).zip(groups) {
            let mut degree = _mm512_setzero_si512();
            let mut counts = [_mm512_setzero_si512(); F];
            for (w, (x, y)) in self.group(g).iter().zip(first).enumerate() {
                let x = load(x);
                degree = _mm512_add_epi64(degree, _mm512_popcnt_epi64(x));
                for j in 0..F {
                    let both = _mm512_and_si512(x, _mm512_set1_epi64(y[j] as i64));
                    counts[j] = _mm512_add_epi64(counts[j], _mm512_popcnt_epi64(both));
                }
                if w < lag.psi.len() {
                    self.settle(&mut lag, w, visit);
                }
            }
            // Lanes a row shorter than a group could not cover.
            for l in self.cw.min(lag.psi.len())..lag.psi.len() {
                self.settle(&mut lag, l, visit);
            }
            let mut sum = _mm512_setzero_si512();
            for (&c, &s) in counts.iter().zip(&self.shifts[..F]) {
                sum = _mm512_add_epi64(sum, shifted(c, s));
            }
            for (run, shifts) in runs.clone() {
                let mut counts = [_mm512_setzero_si512(); AVX512_RUN];
                for (x, y) in self.group(g).iter().zip(run) {
                    let x = load(x);
                    for j in 0..AVX512_RUN {
                        let both = _mm512_and_si512(x, _mm512_set1_epi64(y[j] as i64));
                        counts[j] = _mm512_add_epi64(counts[j], _mm512_popcnt_epi64(both));
                    }
                }
                for (&c, &s) in counts.iter().zip(shifts) {
                    sum = _mm512_add_epi64(sum, shifted(c, s));
                }
            }
            lag = Lag { psi, dstar, entry: g * LANES, ..lag };
            // SAFETY: each store writes one whole vector, the 8 words of
            // its array.
            unsafe {
                _mm512_storeu_epi64(lag.sums.as_mut_ptr().cast(), sum);
                _mm512_storeu_epi64(lag.degrees.as_mut_ptr().cast(), degree);
            }
        }
        for l in 0..lag.psi.len() {
            self.settle(&mut lag, l, visit);
        }
    }

    /// Write lane `l` of the stored group and visit its entry.
    #[inline(always)]
    fn settle<V: FnMut(usize, u64, u64)>(&self, lag: &mut Lag<'_>, l: usize, visit: &mut V) {
        let degree = lag.degrees[l];
        let sum = self.full * degree + lag.sums[l];
        let (p, d) = self.write(&mut lag.psi[l], &mut lag.dstar[l], sum, degree);
        visit(lag.entry + l, p, d);
    }

    /// The pass's words of group `g`: word `w0 + w` of its [`LANES`]
    /// entries is `group(g)[w]`.
    #[inline(always)]
    fn group(&self, g: usize) -> &[[u64; LANES]] {
        let start = (g * self.words + self.w0) * LANES;
        self.bits[start..start + self.cw * LANES].as_chunks().0
    }

    /// The first run's plane words, `F1 = max(F, 1)` a bitmap word, so
    /// they zip word for word with a group's words even without planes.
    #[inline(always)]
    fn first_words<const F1: usize>(&self) -> &[[u64; F1]] {
        self.planes[..self.cw * F1].as_chunks().0
    }

    /// Each whole run of `R` planes after a first run of `f` planes (held
    /// `f1` a word): its plane words and its planes' shifts.
    #[inline(always)]
    fn whole_runs<const R: usize>(
        &self,
        f: usize,
        f1: usize,
    ) -> impl Iterator<Item = (&[[u64; R]], &[u32])> + Clone {
        let words = self.planes[self.cw * f1..].as_chunks::<R>().0;
        words.chunks_exact(self.cw).zip(self.shifts[f..].chunks_exact(R))
    }

    /// Every arm's write rule: the first pass writes the sums, later
    /// passes add to them. Returns the entry's sums as they now stand.
    #[inline(always)]
    fn write(&self, p: &mut u64, d: &mut u64, sum: u64, degree: u64) -> (u64, u64) {
        if self.first {
            *p = sum;
            *d = degree;
        } else {
            *p += sum;
            *d += degree;
        }
        (*p, *d)
    }
}

/// The AVX-512 arm's stored group: its lanes' sums, degrees and outputs,
/// written and visited during the next group's word loop.
struct Lag<'a> {
    /// The group's outputs: empty before the first group, and only the
    /// lanes below `n`.
    psi: &'a mut [u64],
    dstar: &'a mut [u64],
    /// The entry of lane 0.
    entry: usize,
    sums: [u64; LANES],
    degrees: [u64; LANES],
}

/// One word of a group's [`LANES`] entries as a vector. Inlinable
/// across crates, as the kernels generic over their visitor are
/// instantiated in the decoders' crates.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn load(x: &[u64; LANES]) -> std::arch::x86_64::__m512i {
    // SAFETY: `x` is 8 words, one whole vector.
    unsafe { std::arch::x86_64::_mm512_loadu_epi64(x.as_ptr().cast()) }
}

/// Every lane of `c` shifted left by `s` bits.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn shifted(c: std::arch::x86_64::__m512i, s: u32) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    _mm512_sll_epi64(c, _mm_cvtsi32_si128(s as i32))
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

    /// Ψ/Δ* of every path: the index gather, then each popcount arm the
    /// running CPU has, then the served choice.
    fn all_sums(d: &CsrDesign, w: &[u64]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let run = |f: &dyn Fn(&mut [u64], &mut [u64])| {
            let (mut psi, mut dstar) = (vec![7u64; d.n()], vec![7u64; d.n()]);
            f(&mut psi, &mut dstar);
            (psi, dstar)
        };
        let mut out = vec![run(&|p, s| d.index_gather_distinct_into(w, p, s))];
        for arm in PopcountArm::available() {
            out.push(run(&|p, s| d.popcount_distinct_into(w, p, s, arm)));
        }
        out.push(run(&|p, s| d.gather_distinct_into(w, p, s)));
        out
    }

    #[test]
    fn bitmap_rows_mirror_the_transpose() {
        // n = 70 pads to 9 groups of 8, the last holding 6 entries and 2
        // zero rows.
        let d = CsrDesign::sample(70, 130, 35, &SeedSequence::new(5));
        assert!(d.has_bitmap());
        assert_eq!(d.words, 3);
        assert_eq!(d.bits.len(), 72 * 3);
        let word = |i: usize, w: usize| d.bits[(i / LANES * d.words + w) * LANES + i % LANES];
        for i in 0..d.n() {
            let set: Vec<u32> = (0..d.m() as u32)
                .filter(|&q| word(i, q as usize / 64) >> (q % 64) & 1 == 1)
                .collect();
            assert_eq!(set, d.entry_row(i).0, "entry {i}");
        }
        for i in d.n()..72 {
            assert!((0..d.words).all(|w| word(i, w) == 0), "padding lane {i}");
        }
    }

    #[test]
    fn popcount_arms_match_the_index_gather() {
        // Rows of 3, 8, 9 and 17 words over n = 90: 11 whole groups of 8
        // entries and one of 2.
        for (m, words) in [(150, 3), (512, 8), (513, 9), (1025, 17)] {
            let d = CsrDesign::sample(90, m, 45, &SeedSequence::new(6));
            assert_eq!(d.words, words);
            let varied: Vec<u64> = (0..m as u64).map(|q| q * q + 1).collect();
            let constant = vec![5u64; m];
            let wide: Vec<u64> = (0..m as u64).map(|q| (q << 33) | (q * 7 + 3)).collect();
            for w in [varied, constant, vec![0; m], wide] {
                let sums = all_sums(&d, &w);
                assert!(sums.iter().all(|s| *s == sums[0]), "m {m}, weights {:?}", &w[..4]);
            }
        }
    }

    #[test]
    fn every_arm_writes_exactly_the_entries_at_group_and_block_edges() {
        // n on both sides of a group of 8 and of a 256-entry block; outputs
        // 9 longer than n, so a group's 8-lane write past n would show.
        // Mixed planes: 1, 5, the scalar arms' split at 8 and 9, the
        // monomorphisation bound of 16 and one past it, and 40 (two
        // passes over m = 2100); then none, full planes alone, and 5
        // mixed beside a full one.
        const SENTINEL: u64 = 0xA5A5_A5A5_A5A5_A5A5;
        let m = 2100;
        let hashed: Vec<u64> =
            (0..m as u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let mut weights: Vec<(u32, Vec<u64>)> = [1, 5, 8, 9, 16, 17, 40]
            .into_iter()
            .map(|p| (p, hashed.iter().map(|h| h >> (64 - p)).collect()))
            .collect();
        let five_and_full = weights[1].1.iter().map(|v| v | 1 << 50).collect();
        weights.extend([(0, vec![0; m]), (0, vec![0b1011; m]), (5, five_and_full)]);
        for n in [1, 7, 8, 9, 255, 256, 257] {
            let d = CsrDesign::sample(n, m, n.div_ceil(2), &SeedSequence::new(n as u64));
            assert!(d.has_bitmap(), "n {n}");
            for (planes, w) in &weights {
                assert_eq!(WeightPlanes::of(w).mixed.count_ones(), *planes);
                let (mut want_psi, mut want_dstar) = (vec![0; n], vec![0; n]);
                d.index_gather_distinct_into(w, &mut want_psi, &mut want_dstar);
                for arm in PopcountArm::available() {
                    let (mut psi, mut dstar) = (vec![SENTINEL; n + 9], vec![SENTINEL; n + 9]);
                    d.popcount_distinct_into(w, &mut psi, &mut dstar, arm);
                    let at = format!("n {n}, {planes} planes, {arm:?}");
                    assert_eq!(psi[..n], want_psi, "{at}");
                    assert_eq!(dstar[..n], want_dstar, "{at}");
                    assert!(psi[n..].iter().chain(&dstar[n..]).all(|&x| x == SENTINEL), "{at}");
                }
            }
        }
    }

    /// The visits a kernel call made, `(i, Ψ_i, Δ*_i)` in call order,
    /// and the Ψ and Δ* it wrote.
    type Visits = (Vec<(usize, u64, u64)>, Vec<u64>, Vec<u64>);

    /// The [`Visits`] of a visiting kernel call; outputs start at a
    /// sentinel.
    fn visits(
        n: usize,
        call: impl FnOnce(&mut [u64], &mut [u64], &mut dyn FnMut(usize, u64, u64)),
    ) -> Visits {
        let (mut psi, mut dstar) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        let mut seen = Vec::new();
        call(&mut psi, &mut dstar, &mut |i, p, d| seen.push((i, p, d)));
        (seen, psi, dstar)
    }

    /// The visits the contract asks for: every entry once, ascending, with
    /// its final sums (the index gather's), and none past `n`.
    fn expected_visits(d: &CsrDesign, w: &[u64]) -> Visits {
        let (mut psi, mut dstar) = (vec![0; d.n()], vec![0; d.n()]);
        d.index_gather_distinct_into(w, &mut psi, &mut dstar);
        let seen = (0..d.n()).map(|i| (i, psi[i], dstar[i])).collect();
        (seen, psi, dstar)
    }

    #[test]
    fn every_arm_visits_each_entry_once_in_order_with_its_final_sums() {
        // n on both sides of a group of 8 and of a 256-entry block; rows
        // of 3 words (shorter than a group, so the AVX-512 arm visits
        // lanes after its word loop) and of 10 and 33; mixed planes
        // across the run splits (8, 9, 16, 17) and 40 over 33 words (two
        // passes, visited on the second only); then none, full planes
        // alone, and 5 mixed beside a full one.
        for m in [150, 600, 2100] {
            let hashed: Vec<u64> =
                (0..m as u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let mut weights: Vec<(u32, Vec<u64>)> = [1, 5, 8, 9, 16, 17, 40]
                .into_iter()
                .map(|p| (p, hashed.iter().map(|h| h >> (64 - p)).collect()))
                .collect();
            let five_and_full = weights[1].1.iter().map(|v| v | 1 << 50).collect();
            weights.extend([(0, vec![0; m]), (0, vec![0b1011; m]), (5, five_and_full)]);
            for n in [1, 7, 8, 9, 255, 256, 257] {
                let d = CsrDesign::sample(n, m, n.div_ceil(2), &SeedSequence::new(n as u64));
                assert!(d.has_bitmap(), "n {n}");
                for (planes, w) in &weights {
                    let want = expected_visits(&d, w);
                    for arm in PopcountArm::available() {
                        let got = visits(n, |p, s, v| d.popcount_distinct_visit(w, p, s, arm, v));
                        assert!(got == want, "n {n}, m {m}, {planes} planes, {arm:?}");
                    }
                    let got = visits(n, |p, s, v| d.gather_distinct_visit(w, p, s, v));
                    assert!(got == want, "n {n}, m {m}, {planes} planes, served");
                }
            }
        }
    }

    #[test]
    fn the_index_gather_and_both_thread_counts_visit_alike() {
        // A design too sparse for a bitmap takes the index gather; a dense
        // one below the fan-out size stays on the calling thread whatever
        // the pool; one past it fans out on 2 threads and visits after.
        let sparse = CsrDesign::sample(300, 200, 3, &SeedSequence::new(3));
        let small = CsrDesign::sample(257, 600, 128, &SeedSequence::new(4));
        let large = CsrDesign::sample(2048, 16_400, 72, &SeedSequence::new(5));
        assert!(!sparse.has_bitmap());
        assert!(small.has_bitmap() && small.bits.len() * 8 <= FANOUT_BYTES);
        assert!(large.has_bitmap() && large.bits.len() * 8 > FANOUT_BYTES);
        for d in [&sparse, &small, &large] {
            let w: Vec<u64> = (0..d.m() as u64).map(|q| q * q % 37).collect();
            let want = expected_visits(d, &w);
            for threads in [1, 2] {
                let got = pooled_par::pool::install_with_threads(threads, || {
                    visits(d.n(), |p, s, v| d.gather_distinct_visit(&w, p, s, v))
                });
                assert!(got == want, "n {}, m {}, {threads} threads", d.n(), d.m());
            }
        }
    }

    #[test]
    fn every_arm_runs_where_the_cpu_has_it_and_is_refused_elsewhere() {
        let d = CsrDesign::sample(90, 150, 45, &SeedSequence::new(6));
        let w: Vec<u64> = (0..150).collect();
        assert!(PopcountArm::Portable.is_available());
        for arm in PopcountArm::ALL {
            let run = std::panic::catch_unwind(|| {
                d.popcount_distinct_into(&w, &mut [0; 90], &mut [0; 90], arm);
            });
            assert_eq!(run.is_ok(), arm.is_available(), "{arm:?}");
        }
    }

    #[test]
    fn wide_weights_over_many_queries_sum_in_several_passes() {
        // 40 mixed planes leave 1024 / 40 = 25 words of planes a pass, so
        // m = 2100 (33 words) takes two passes, the second of 8 words
        // ending mid-word.
        let d = CsrDesign::sample(40, 2100, 20, &SeedSequence::new(9));
        assert_eq!(d.words, 33);
        let w: Vec<u64> =
            (0..2100u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24).collect();
        assert_eq!(WeightPlanes::of(&w).mixed.count_ones(), 40);
        // Beside the 40 mixed planes, every weight sets bit 50 (a full
        // plane) or none do.
        for w in [w.clone(), w.iter().map(|v| v | 1 << 50).collect()] {
            let sums = all_sums(&d, &w);
            assert!(sums.iter().all(|s| *s == sums[0]));
        }
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
        d.popcount_distinct_into(&[0; 64], &mut [0; 100], &mut [0; 100], PopcountArm::Portable);
    }

    #[test]
    fn crossover_follows_incidences_per_word() {
        // At the served shape, c = ½ puts 24 incidences in a bitmap word
        // and Γ = n/16 puts 3.7; the AVX-512 arm allows 6 planes a word,
        // the scalar arms 1.
        let dense = CsrDesign::sample(2_000, 862, 1_000, &SeedSequence::new(8));
        let sparse = CsrDesign::sample(2_000, 862, 125, &SeedSequence::new(8));
        for (d, allowed) in [(&dense, [64, 24, 24]), (&sparse, [22, 3, 3])] {
            for (arm, planes) in PopcountArm::ALL.into_iter().zip(allowed) {
                assert_eq!(d.popcount_planes(arm), planes, "{arm:?}");
            }
        }
        // Wider weights than an arm allows take the index gather, and agree.
        let w: Vec<u64> =
            (0..862u64).map(|q| q.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24).collect();
        for d in [&dense, &sparse] {
            let sums = all_sums(d, &w);
            assert!(sums.iter().all(|s| *s == sums[0]));
        }
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
