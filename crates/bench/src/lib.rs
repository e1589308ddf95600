#![warn(missing_docs)]

//! Benchmark crate: all targets live under `benches/`.
//!
//! | Bench | Regenerates |
//! |---|---|
//! | `fig2_points` | Fig. 2 workload: per-trial transition search cells |
//! | `fig3_fig4_points` | Figs. 3–4 workload: one MN trial per (n, θ, m) |
//! | `design_sampling` | CSR materialization vs streaming regeneration |
//! | `popcount_vs_gather` | Ψ/Δ* by popcount over the entry bitmap, on each instruction arm the CPU has, vs the index gather |
//! | `sort_topk` | std full sort vs the decoders' top-k selection on score vectors |
//! | `baselines` | MN vs OMP vs AMP vs peeling wall-clock |
//! | `thread_scaling` | decode throughput at 1/2/4/8 rayon workers |
