//! FIG1: the paper's worked example (Fig. 1).
//!
//! Builds the 7-entry, 5-query bipartite multigraph from the figure,
//! executes the additive queries (reproducing the result vector
//! `(2, 2, 3, 1, 1)`), and walks through the MN decoder's scores.

use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries;
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_design::PoolingDesign;
use pooled_io::render_table;

fn main() {
    let sigma = Signal::from_dense(&[1, 1, 0, 0, 1, 0, 0]);
    // Fig. 1's queries; query a2 contains x2 twice (the dashed multi-edge),
    // and the result vector matches the figure: (2, 2, 3, 1, 1).
    let pools = vec![vec![0, 1, 3], vec![1, 1, 2], vec![0, 1, 4], vec![4, 5], vec![4, 6]];
    let design = CsrDesign::from_pools(7, &pools);
    let y = execute_queries(&design, &sigma);
    println!("signal σ = {:?}  (support {:?})", sigma.dense(), sigma.support());
    println!("query results y = {y:?}  (paper: [2, 2, 3, 1, 1])");
    assert_eq!(y, vec![2, 2, 3, 1, 1], "Fig. 1 result vector mismatch");

    let out = MnDecoder::new(sigma.weight()).decode(&design, &y);
    let rows: Vec<Vec<String>> = (0..design.n())
        .map(|i| {
            vec![
                format!("x{i}"),
                sigma.get(i).to_string(),
                out.psi[i].to_string(),
                out.delta_star[i].to_string(),
                out.scores[i].to_string(),
                out.estimate.get(i).to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["entry", "σ", "Ψ", "Δ*", "2Ψ−kΔ*", "σ̃"], &rows));
    println!(
        "exact recovery: {}",
        if out.estimate == sigma { "yes" } else { "no (m=5 queries is tiny)" }
    );
}
