//! Machine-wide storage-invariant checks shared by the ring and directory
//! simulators.
//!
//! The paper's Figure 2(b) compatibility matrix bounds what copies of a
//! line may coexist; [`check_line`] verifies one line across a whole
//! machine and names the violated invariant specifically (at most one
//! supplier, at most one dirty copy, pairwise compatibility), so a
//! per-retirement oracle can print an actionable message rather than a
//! generic "states incompatible". [`check_all`] sweeps every resident
//! line — the final-state scan both simulators expose as
//! `validate_coherence`.
//!
//! CMPs whose arrays were never built hold no copies, so every sweep
//! skips them after one pointer test.

use crate::cmp::CmpCaches;
use crate::state::CoherState;
use crate::LineAddr;

/// Checks the Figure 2(b) storage invariants for one line across every
/// CMP of the machine.
///
/// # Errors
///
/// Returns a message naming the first violated invariant:
///
/// * more than one supplier-state (`SG`/`E`/`D`/`T`) copy machine-wide,
/// * more than one dirty (`D`/`T`) copy machine-wide,
/// * any pair of copies incompatible under the Figure 2(b) matrix
///   (which also covers "at most one local master per CMP").
pub fn check_line(cmps: &[CmpCaches], line: LineAddr) -> Result<(), String> {
    // (cmp index, core index, state) for every valid copy. Machines have
    // at most cores-per-CMP × nodes copies; a small stack buffer would be
    // overkill — this path only runs when checks are enabled.
    let copies: Vec<(usize, usize, CoherState)> = cmps
        .iter()
        .enumerate()
        .flat_map(|(n, cmp)| cmp.copies_of(line).map(move |(core, st)| (n, core, st)))
        .collect();
    let suppliers: Vec<_> = copies.iter().filter(|(_, _, s)| s.is_supplier()).collect();
    if suppliers.len() > 1 {
        return Err(format!(
            "{line}: {} supplier-state copies: {}",
            suppliers.len(),
            render_copies(&copies, |s| s.is_supplier())
        ));
    }
    let dirty: Vec<_> = copies.iter().filter(|(_, _, s)| s.is_dirty()).collect();
    if dirty.len() > 1 {
        return Err(format!(
            "{line}: {} dirty copies: {}",
            dirty.len(),
            render_copies(&copies, |s| s.is_dirty())
        ));
    }
    for (i, &(na, ca, a)) in copies.iter().enumerate() {
        for &(nb, cb, b) in &copies[i + 1..] {
            if !a.compatible_with(b, na == nb) {
                return Err(format!(
                    "{line}: {a} at cmp{na}/core{ca} incompatible with {b} at cmp{nb}/core{cb}"
                ));
            }
        }
    }
    Ok(())
}

fn render_copies(
    copies: &[(usize, usize, CoherState)],
    pick: impl Fn(CoherState) -> bool,
) -> String {
    copies
        .iter()
        .filter(|(_, _, s)| pick(*s))
        .map(|(n, c, s)| format!("{s}@cmp{n}/core{c}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Sweeps every resident line of the machine through [`check_line`].
///
/// # Errors
///
/// Returns the first violation found (lines visited in address order so
/// the report is deterministic).
pub fn check_all(cmps: &[CmpCaches]) -> Result<(), String> {
    let mut lines: Vec<LineAddr> = cmps
        .iter()
        .flat_map(|cmp| cmp.l2_lines().map(|(_, line, _)| line))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    for line in lines {
        check_line(cmps, line)?;
    }
    Ok(())
}

/// A canonical snapshot of every resident line: `(line, cmp, core, state)`
/// in sorted order. Two runs that ended in the same storage state produce
/// equal snapshots, so this is the unit the differential harness diffs.
pub fn state_snapshot(cmps: &[CmpCaches]) -> Vec<(LineAddr, usize, usize, CoherState)> {
    let mut snap: Vec<(LineAddr, usize, usize, CoherState)> = cmps
        .iter()
        .enumerate()
        .flat_map(|(n, cmp)| cmp.l2_lines().map(move |(c, line, st)| (line, n, c, st)))
        .collect();
    snap.sort_unstable_by_key(|&(line, n, c, st)| (line, n, c, st as u8));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use crate::cmp::{CmpGeometry, MachineCaches};
    use CoherState::*;

    fn machine() -> MachineCaches {
        MachineCaches::new(
            2,
            CmpGeometry::new(
                2,
                CacheGeometry::from_entries(4, 2),
                CacheGeometry::from_entries(16, 4),
            ),
        )
    }

    #[test]
    fn clean_sharing_passes() {
        let mut m = machine();
        m.fill(0, 0, LineAddr(1), Sg);
        m.fill(0, 1, LineAddr(1), S);
        m.fill(1, 0, LineAddr(1), Sl);
        assert!(check_line(&m, LineAddr(1)).is_ok());
        assert!(check_all(&m).is_ok());
    }

    #[test]
    fn two_suppliers_are_named() {
        let mut m = machine();
        m.fill(0, 0, LineAddr(2), E);
        m.fill(1, 0, LineAddr(2), D);
        let err = check_line(&m, LineAddr(2)).unwrap_err();
        assert!(err.contains("2 supplier-state copies"), "{err}");
        assert!(err.contains("E@cmp0/core0"), "{err}");
        assert!(err.contains("D@cmp1/core0"), "{err}");
    }

    #[test]
    fn two_dirty_copies_are_reported_as_suppliers_first() {
        let mut m = machine();
        m.fill(0, 0, LineAddr(3), D);
        m.fill(1, 0, LineAddr(3), T);
        let err = check_line(&m, LineAddr(3)).unwrap_err();
        // D and T are both supplier states, so the supplier check fires.
        assert!(err.contains("supplier"), "{err}");
    }

    #[test]
    fn incompatible_pair_is_located() {
        let mut m = machine();
        m.fill(0, 0, LineAddr(4), E);
        m.fill(1, 1, LineAddr(4), S);
        let err = check_line(&m, LineAddr(4)).unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
        assert!(err.contains("cmp1/core1"), "{err}");
    }

    #[test]
    fn check_all_finds_the_bad_line_among_good_ones() {
        let mut m = machine();
        m.fill(0, 0, LineAddr(1), Sg);
        m.fill(0, 0, LineAddr(2), E);
        m.fill(1, 0, LineAddr(2), E);
        let err = check_all(&m).unwrap_err();
        assert!(
            err.contains("line2") || err.contains("0x2") || err.contains('2'),
            "{err}"
        );
    }

    #[test]
    fn snapshot_is_canonical() {
        let mut a = machine();
        a.fill(1, 0, LineAddr(9), Sl);
        a.fill(0, 0, LineAddr(5), E);
        let mut b = machine();
        b.fill(0, 0, LineAddr(5), E);
        b.fill(1, 0, LineAddr(9), Sl);
        assert_eq!(state_snapshot(&a), state_snapshot(&b));
        assert_eq!(state_snapshot(&a).len(), 2);
    }
}
