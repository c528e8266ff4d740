//! Extension experiment: shared-memory parallel blocking (§8 future work).
//!
//! Measures the speedup of parallel blocking-graph weighting over the
//! sequential build on the movies twin, and verifies result identity.

use sper_blocking::{parallel_blocking_graph, BlockingGraph, TokenBlocking, WeightingScheme};
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_eval::report::{fmt_duration, Table};
use std::time::Instant;

fn main() {
    println!("== Extension: parallel blocking / meta-blocking ==\n");
    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(0.25)
        .generate();
    println!("movies twin, |P| = {}\n", data.profiles.len());

    let mut blocks = TokenBlocking::default().build(&data.profiles);
    blocks.sort_by_cardinality();
    let t0 = Instant::now();
    let seq_graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs);
    let seq_time = t0.elapsed();

    let mut table = Table::new(["threads", "edge weighting", "speedup", "edges"]);
    table.add_row([
        "1 (sequential)".to_string(),
        fmt_duration(seq_time),
        "1.00x".to_string(),
        seq_graph.num_edges().to_string(),
    ]);
    for threads in [2, 4, 8] {
        let t0 = Instant::now();
        let par_graph =
            parallel_blocking_graph(&blocks, WeightingScheme::Arcs, threads).expect("threads > 0");
        let time = t0.elapsed();
        assert_eq!(par_graph.num_edges(), seq_graph.num_edges());
        table.add_row([
            threads.to_string(),
            fmt_duration(time),
            format!("{:.2}x", seq_time.as_secs_f64() / time.as_secs_f64()),
            par_graph.num_edges().to_string(),
        ]);
    }
    println!("{}", table.render());
}
