//! The workload seed fully determines each workload's results, and the
//! traced run reproduces the untraced one exactly. The workloads run
//! here at reduced size through the same builders the benchmark uses.

use std::collections::BTreeMap;
use std::sync::Arc;

use flexsnoop_perfbench::trace::LayerClock;
use flexsnoop_perfbench::{
    faulty_cells, paper_cells, ring_cells, run_cell, stats_digest, Cell, CellOutcome, Trace, SEED,
};

fn plain(cells: &[Cell]) -> Vec<CellOutcome> {
    cells.iter().map(|c| run_cell(c, Trace::Off)).collect()
}

fn digest(build: impl Fn(u64) -> Vec<Cell>, seed: u64) -> u64 {
    let cells = build(seed);
    let out = plain(&cells);
    assert!(out.iter().all(|o| o.failure.is_none()));
    stats_digest(&cells, &out)
}

fn assert_seeded(build: impl Fn(u64) -> Vec<Cell>) {
    let a = digest(&build, SEED);
    assert_eq!(a, digest(&build, SEED), "same seed, same results");
    assert_ne!(a, digest(&build, SEED + 1), "another seed, other results");
}

#[test]
fn paper8_is_seeded() {
    assert_seeded(|seed| paper_cells(seed, 40));
}

#[test]
fn ring_is_seeded() {
    assert_seeded(|seed| ring_cells(seed, 1 << 10));
}

#[test]
fn faulty8_is_seeded() {
    assert_seeded(|seed| faulty_cells(seed, 200));
}

#[test]
fn traced_runs_match_untraced() {
    for cells in [
        paper_cells(SEED, 40),
        faulty_cells(SEED, 200),
        ring_cells(SEED, 1 << 10),
    ] {
        let untraced = stats_digest(&cells, &plain(&cells));
        let clock = Arc::new(LayerClock::default());
        let layered: Vec<CellOutcome> = cells
            .iter()
            .map(|c| run_cell(c, Trace::Layers(&clock)))
            .collect();
        assert_eq!(untraced, stats_digest(&cells, &layered));
        assert!(clock.read().next_calls > 0);
        let mut depth = BTreeMap::new();
        let sampled: Vec<CellOutcome> = cells
            .iter()
            .map(|c| run_cell(c, Trace::QueueDepth(&mut depth)))
            .collect();
        assert_eq!(untraced, stats_digest(&cells, &sampled));
        assert!(!depth.is_empty());
    }
}
