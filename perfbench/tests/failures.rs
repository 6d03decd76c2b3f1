//! A cell that breaks the protocol is counted as failed, not fatal.

use flexsnoop::ProtocolMutation;
use flexsnoop_perfbench::{failed_cells, faulty_cells, run_cell, Cell, Trace, SEED};

fn specweb_cell() -> Cell {
    // Lossless SPECweb under Subset with the invariant oracle on.
    let cell = faulty_cells(SEED, 300).remove(0);
    assert!(cell.invariant_checks && cell.faults.is_none());
    cell
}

#[test]
fn mutated_cell_counts_as_failed() {
    let clean = run_cell(&specweb_cell(), Trace::Off);
    assert!(clean.failure.is_none(), "{:?}", clean.failure);

    let mutated = Cell {
        mutation: Some(ProtocolMutation::SkipSupplierDowngrade),
        ..specweb_cell()
    };
    let broken = run_cell(&mutated, Trace::Off);
    let why = broken
        .failure
        .clone()
        .expect("the mutation must fail the cell");
    assert!(
        why.contains("oracle") || why.contains("incoherent"),
        "{why}"
    );

    assert_eq!(failed_cells(&[clean, broken]), 1);
}

#[test]
fn configuration_error_counts_as_failed() {
    let mut cell = specweb_cell();
    cell.limit = 10;
    cell.machine.nodes = 3; // 24 SPECweb cores do not fit 3 nodes × 3 cores.
    let out = run_cell(&cell, Trace::Off);
    assert!(out.failure.as_deref().unwrap_or("").starts_with("config"));
    assert_eq!(failed_cells(&[out]), 1);
}
