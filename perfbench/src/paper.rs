//! The paper's headline numbers and the `paper_gap_pct` score.
//!
//! The reference values live in `data/paper_headlines.csv`: Figure 8's
//! Superset Agg execution time relative to Lazy per workload group, and
//! Figure 9's energy savings of Agg over Eager and of Con over Agg. The
//! model is checked only against these headline numbers, not against
//! every bar of every figure.

use std::collections::BTreeMap;

use flexsnoop::{Algorithm, GroupAggregator, RunStats, WorkloadGroup};

const HEADLINES_CSV: &str = include_str!("../data/paper_headlines.csv");

/// Figure 8: Superset Agg execution time as a percentage of Lazy's.
pub const AGG_EXEC: &str = "agg_exec_pct_of_lazy";
/// Figure 9: percent less snoop energy for Superset Agg than Eager.
pub const AGG_SAVING: &str = "agg_energy_saving_vs_eager_pct";
/// Figure 9: percent less snoop energy for Superset Con than Agg.
pub const CON_SAVING: &str = "con_energy_saving_vs_agg_pct";

/// One paper value: a point (`low == high`) or a band, in percent.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Figure the value comes from (`fig8`, `fig9`).
    pub figure: String,
    /// Workload group (`SPLASH-2`, `SPECjbb`, `SPECweb`).
    pub group: String,
    /// One of [`AGG_EXEC`], [`AGG_SAVING`], [`CON_SAVING`].
    pub quantity: String,
    /// Lower end of the band.
    pub low: f64,
    /// Upper end of the band.
    pub high: f64,
}

/// Measured headline values keyed by `(group, quantity)`.
pub type Headlines = BTreeMap<(String, String), f64>;

/// The reference values from `data/paper_headlines.csv`.
///
/// # Panics
///
/// Panics if the data file is malformed.
pub fn references() -> Vec<Reference> {
    HEADLINES_CSV
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 5, "bad reference line {line:?}");
            let num = |s: &str| {
                s.parse::<f64>()
                    .unwrap_or_else(|_| panic!("bad number in {line:?}"))
            };
            Reference {
                figure: f[0].to_string(),
                group: f[1].to_string(),
                quantity: f[2].to_string(),
                low: num(f[3]),
                high: num(f[4]),
            }
        })
        .collect()
}

/// Mean distance, in percentage points, from each measured headline to
/// its paper value or band. A value inside a band scores 0.
///
/// # Panics
///
/// Panics if a referenced headline was not measured.
pub fn gap_pct(measured: &Headlines) -> f64 {
    let refs = references();
    let total: f64 = refs
        .iter()
        .map(|r| {
            let key = (r.group.clone(), r.quantity.clone());
            let v = *measured
                .get(&key)
                .unwrap_or_else(|| panic!("headline {key:?} not measured"));
            if v < r.low {
                r.low - v
            } else if v > r.high {
                v - r.high
            } else {
                0.0
            }
        })
        .sum();
    total / refs.len() as f64
}

/// One cell of the paper matrix, reduced to what the headlines need.
#[derive(Debug, Clone, Copy)]
pub struct MatrixCell<'a> {
    /// Workload name (the Lazy baseline is matched on it).
    pub workload: &'a str,
    /// Workload group.
    pub group: WorkloadGroup,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// The cell's statistics.
    pub stats: &'a RunStats,
}

/// The headline values of a paper matrix, aggregated the way the
/// figures are: each workload normalized to its Lazy cell, then the
/// geometric mean per group.
///
/// # Panics
///
/// Panics if a workload has no Lazy cell.
pub fn headlines(cells: &[MatrixCell<'_>]) -> Headlines {
    let per_group = |alg: Algorithm, metric: fn(&RunStats) -> f64| {
        let mut agg = GroupAggregator::new();
        for cell in cells.iter().filter(|c| c.algorithm == alg) {
            let lazy = cells
                .iter()
                .find(|c| c.algorithm == Algorithm::Lazy && c.workload == cell.workload)
                .unwrap_or_else(|| panic!("no Lazy cell for {}", cell.workload));
            agg.record(cell.group, metric(cell.stats) / metric(lazy.stats));
        }
        agg.geomeans()
            .into_iter()
            .collect::<BTreeMap<&'static str, f64>>()
    };
    let exec = per_group(Algorithm::SupersetAgg, RunStats::exec_time);
    let eager = per_group(Algorithm::Eager, RunStats::energy_nj);
    let agg = per_group(Algorithm::SupersetAgg, RunStats::energy_nj);
    let con = per_group(Algorithm::SupersetCon, RunStats::energy_nj);
    let mut out = Headlines::new();
    for (group, e) in &exec {
        let g = group.to_string();
        out.insert((g.clone(), AGG_EXEC.into()), 100.0 * e);
        out.insert(
            (g.clone(), AGG_SAVING.into()),
            100.0 * (1.0 - agg[group] / eager[group]),
        );
        out.insert(
            (g, CON_SAVING.into()),
            100.0 * (1.0 - con[group] / agg[group]),
        );
    }
    out
}
