//! Host-time benchmark of the flexsnoop simulator.
//!
//! The benchmark drives the simulator only through its public API
//! (`WorkloadProfile::streams`, `Simulator::new`/`with_predictors`,
//! `set_fault_plan`, `run_until`, `finalize`, `validate_coherence`,
//! `memory_footprint`, and `flexsnoop_report::generate`/`check`) and
//! times those calls from outside. A workload is a list of [`Cell`]s —
//! one simulator run each — or the smoke report. See `README.md` for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod paper;
pub mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use flexsnoop::{
    energy_model_for, Algorithm, FaultPlan, MachineConfig, PredictorSpec, ProtocolMutation,
    RunStats, Simulator, StallWindow, SupplierPredictor, VecStream, WorkloadGroup, WorkloadProfile,
};
use flexsnoop_engine::{Cycle, Cycles, SplitMix64};
use flexsnoop_workload::{profiles, AccessStream, LineAddr, MemAccess};

use crate::trace::{LayerClock, TimedPredictor, TimedStream};

/// The default workload seed (the seed every paper figure uses).
pub const SEED: u64 = flexsnoop_bench::SEED;

/// Accesses per core of each `paper8` cell.
pub const PAPER_ACCESSES: u64 = 250;
/// Ring size of `ring_1m`.
pub const RING_NODES: usize = 1 << 20;
/// Requester cores of `ring_1m`, spread evenly around the ring.
pub const REQUESTERS: usize = 8;
/// Reads each `ring_1m` requester issues.
pub const RING_READS: u64 = 2;
/// Shared line pool the `ring_1m` requesters read from.
const POOL_LINES: u64 = 32;
/// Accesses per core of each `faulty8` cell.
pub const FAULTY_ACCESSES: u64 = 6_000;
/// Simulated cycles between two queue-depth samples of a traced run.
pub const SLICE: Cycles = Cycles(100_000);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper suite on the 8-node machine under every paper algorithm.
    Paper8,
    /// The `bench --scale` one-million-node point.
    Ring1m,
    /// SPECweb under the Table 3 algorithms, faulty and lossless.
    Faulty8,
    /// `flexsnoop report --smoke` plus its staleness check.
    ReportSmoke,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper8,
        Workload::Ring1m,
        Workload::Faulty8,
        Workload::ReportSmoke,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::Ring1m => "ring_1m",
            Workload::Faulty8 => "faulty8",
            Workload::ReportSmoke => "report_smoke",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulator cells of one pass at full size (empty for the
    /// report, which builds its own).
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::Paper8 => paper_cells(seed, PAPER_ACCESSES),
            Workload::Ring1m => ring_cells(seed, RING_NODES),
            Workload::Faulty8 => faulty_cells(seed, FAULTY_ACCESSES),
            Workload::ReportSmoke => Vec::new(),
        }
    }
}

/// Where a cell's per-core access streams come from.
#[derive(Debug, Clone)]
pub enum Streams {
    /// The synthetic streams of a workload profile.
    Profile(WorkloadProfile),
    /// The `bench --scale` pattern: a few requesters read a small shared
    /// pool, every other core is idle.
    Scale {
        /// Requester cores.
        requesters: usize,
        /// Reads per requester.
        reads: u64,
    },
}

/// One simulator run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `workload/algorithm[/variant]`, for messages.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Workload group.
    pub group: WorkloadGroup,
    /// The machine.
    pub machine: MachineConfig,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The predictor.
    pub predictor: PredictorSpec,
    /// The access streams.
    pub streams: Streams,
    /// Seed of the access streams.
    pub seed: u64,
    /// Accesses per core.
    pub limit: u64,
    /// Fault plan, if the ring is faulty.
    pub faults: Option<FaultPlan>,
    /// Whether the per-retirement invariant oracle runs.
    pub invariant_checks: bool,
    /// A deliberately broken protocol rule (tests only).
    pub mutation: Option<ProtocolMutation>,
}

impl Cell {
    fn on_profile(profile: &WorkloadProfile, algorithm: Algorithm, seed: u64) -> Self {
        Cell {
            label: format!("{}/{algorithm}", profile.name),
            workload: profile.name.clone(),
            group: profile.group,
            machine: MachineConfig::isca2006(profile.cores / 8),
            algorithm,
            predictor: algorithm.default_predictor(),
            streams: Streams::Profile(profile.clone()),
            seed,
            limit: profile.accesses_per_core,
            faults: None,
            invariant_checks: false,
            mutation: None,
        }
    }

    /// Simulated core accesses the cell retires when every core finishes.
    pub fn accesses(&self) -> u64 {
        match &self.streams {
            Streams::Profile(p) => p.cores as u64 * self.limit,
            Streams::Scale { requesters, reads } => *requesters as u64 * reads,
        }
    }
}

/// `paper8`: every paper workload under every paper algorithm on the
/// 8-node machine, workload-major.
pub fn paper_cells(seed: u64, accesses: u64) -> Vec<Cell> {
    profiles::all()
        .into_iter()
        .flat_map(|p| {
            let p = p.with_accesses(accesses);
            Algorithm::PAPER_SET.map(|alg| Cell::on_profile(&p, alg, seed))
        })
        .collect()
}

/// `ring_1m` (at `nodes`): Lazy without a predictor on the scale
/// machine, driven by the scale access pattern.
pub fn ring_cells(seed: u64, nodes: usize) -> Vec<Cell> {
    vec![Cell {
        label: format!("ring{nodes}/Lazy"),
        workload: format!("ring{nodes}"),
        group: WorkloadGroup::Splash2,
        machine: MachineConfig::scale(nodes),
        algorithm: Algorithm::Lazy,
        predictor: PredictorSpec::None,
        streams: Streams::Scale {
            requesters: REQUESTERS,
            reads: RING_READS,
        },
        seed,
        limit: RING_READS,
        faults: None,
        invariant_checks: false,
        mutation: None,
    }]
}

/// The Table 3 algorithms `faulty8` runs.
pub const FAULTY_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Subset,
    Algorithm::SupersetCon,
    Algorithm::SupersetAgg,
    Algorithm::Exact,
];

/// `faulty8`: SPECweb under each Table 3 algorithm, first lossless then
/// under [`faulty_plan`], with recovery and the invariant oracle on.
pub fn faulty_cells(seed: u64, accesses: u64) -> Vec<Cell> {
    let profile = profiles::specweb().with_accesses(accesses);
    FAULTY_ALGORITHMS
        .into_iter()
        .flat_map(|alg| {
            let lossless = Cell {
                label: format!("{}/{alg}/lossless", profile.name),
                invariant_checks: true,
                ..Cell::on_profile(&profile, alg, seed)
            };
            let faulty = Cell {
                label: format!("{}/{alg}/faulty", profile.name),
                faults: Some(faulty_plan(seed)),
                ..lossless.clone()
            };
            [lossless, faulty]
        })
        .collect()
}

/// The report's congested recovery schedule (delays of up to 900 cycles
/// on 45% of crossings, four rolling node stalls) plus 1% drops and 1%
/// duplicates, with its fault stream seeded from `seed`.
pub fn faulty_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::lossless();
    plan.seed = SplitMix64::new(seed ^ 0x0_C026_1257).next_u64();
    plan.delay = 0.45;
    plan.delay_max = Cycles(900);
    plan.drop = 0.01;
    plan.duplicate = 0.01;
    plan.budget = u64::MAX;
    for (i, node) in [1usize, 3, 5, 7].into_iter().enumerate() {
        let from = Cycle::new(2_000 + 9_000 * i as u64);
        plan.stalls.push(StallWindow {
            node,
            from,
            until: from + Cycles(4_000),
        });
    }
    plan
}

/// The scale access pattern on `nodes` single-core nodes: `requesters`
/// cores, evenly spaced from a seeded offset, each read `reads` seeded
/// lines of the shared pool; every other core is idle.
pub fn scale_streams(nodes: usize, requesters: usize, reads: u64, seed: u64) -> Vec<VecStream> {
    assert!(requesters > 0 && nodes >= requesters, "too few nodes");
    let mut rng = SplitMix64::new(seed);
    let stride = nodes / requesters;
    let offset = rng.next_below(stride as u64) as usize;
    let mut streams: Vec<VecStream> = (0..nodes).map(|_| VecStream::new(Vec::new())).collect();
    for i in 0..requesters {
        let accesses = (0..reads)
            .map(|_| MemAccess::read(LineAddr(rng.next_below(POOL_LINES)), Cycles(10)))
            .collect();
        streams[i * stride + offset] = VecStream::new(accesses);
    }
    streams
}

/// What a pass records besides its own timings. The two traced kinds
/// run as separate passes: stopping `run_until` at every slice boundary
/// slows the event loop, which would otherwise land in the layer times.
#[derive(Debug)]
pub enum Trace<'a> {
    /// Nothing: the configuration the end-to-end metrics measure.
    Off,
    /// Time the predictor and stream layers through wrappers.
    Layers(&'a Arc<LayerClock>),
    /// Sample `pending_events()` every [`SLICE`] simulated cycles into a
    /// depth → samples histogram.
    QueueDepth(&'a mut BTreeMap<usize, u64>),
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The statistics, unless the cell failed to configure or panicked.
    pub stats: Option<RunStats>,
    /// Why the cell failed its checks, if it did.
    pub failure: Option<String>,
    /// Seconds building the access streams.
    pub gen_s: f64,
    /// Seconds in `Simulator::new`/`with_predictors`.
    pub new_s: f64,
    /// Seconds of set-up: streams, simulator, fault plan and checks.
    pub setup_s: f64,
    /// Seconds in `run_until` and `finalize`.
    pub run_s: f64,
    /// Estimated model bytes after the run (`memory_footprint`).
    pub footprint_bytes: u64,
    /// Estimated model bytes per node after the run.
    pub bytes_per_node: u64,
}

fn boxed<S: AccessStream + Send + 'static>(
    streams: Vec<S>,
    clock: Option<&Arc<LayerClock>>,
) -> Vec<Box<dyn AccessStream + Send>> {
    streams
        .into_iter()
        .map(|s| match clock {
            Some(c) => Box::new(TimedStream::new(s, c.clone())) as Box<dyn AccessStream + Send>,
            None => Box::new(s) as Box<dyn AccessStream + Send>,
        })
        .collect()
}

/// Builds and configures a cell's simulator; returns it with the
/// stream-generation and construction times.
fn build(cell: &Cell, clock: Option<&Arc<LayerClock>>) -> (Result<Simulator, String>, f64, f64) {
    let t = Instant::now();
    let streams = match &cell.streams {
        Streams::Profile(p) => boxed(p.streams(cell.seed), clock),
        Streams::Scale { requesters, reads } => boxed(
            scale_streams(cell.machine.nodes, *requesters, *reads, cell.seed),
            clock,
        ),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let energy = energy_model_for(&cell.predictor);
    // Wrapping predictors swaps the flat bank for one boxed predictor
    // per node; without a predictor that would only add allocations the
    // untraced run lacks, so that layer stays unwrapped.
    let sim = match clock {
        Some(c) if cell.predictor != PredictorSpec::None => {
            let predictors = (0..cell.machine.nodes)
                .map(|_| {
                    Box::new(TimedPredictor::new(cell.predictor.build(), c.clone()))
                        as Box<dyn SupplierPredictor + Send>
                })
                .collect();
            Simulator::with_predictors(
                cell.machine,
                cell.algorithm,
                predictors,
                energy,
                streams,
                cell.limit,
            )
        }
        _ => Simulator::new(
            cell.machine,
            cell.algorithm,
            cell.predictor,
            energy,
            streams,
            cell.limit,
        ),
    };
    let new_s = t.elapsed().as_secs_f64();
    let sim = sim.map(|mut sim| {
        if let Some(plan) = &cell.faults {
            sim.set_fault_plan(plan.clone());
        }
        if cell.invariant_checks {
            sim.enable_invariant_checks();
        }
        if let Some(m) = cell.mutation {
            sim.inject_mutation(m);
        }
        sim
    });
    (sim, gen_s, new_s)
}

/// Set-up seconds of building (and then dropping) every cell's
/// simulator without running it.
pub fn setup_only(cells: &[Cell]) -> f64 {
    cells
        .iter()
        .map(|cell| {
            let t = Instant::now();
            let sim = build(cell, None).0;
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        })
        .sum()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Why a finished run is wrong, if it is: a core left unfinished, a
/// transaction still in flight, incoherent caches or an oracle violation.
fn check(sim: &Simulator, stats: &RunStats) -> Option<String> {
    if stats.robustness.unfinished_cores > 0 {
        return Some(format!(
            "{} cores unfinished",
            stats.robustness.unfinished_cores
        ));
    }
    if sim.in_flight() > 0 {
        return Some(format!("{} transactions in flight", sim.in_flight()));
    }
    if let Err(e) = sim.validate_coherence() {
        return Some(format!("incoherent: {e}"));
    }
    sim.first_violation()
        .map(|v| format!("{} oracle violations, first: {v}", sim.violations().len()))
}

/// Runs one cell: build, run, check. Configuration errors and panics
/// count as a failed cell.
pub fn run_cell(cell: &Cell, trace: Trace<'_>) -> CellOutcome {
    let clock = match &trace {
        Trace::Layers(clock) => Some(*clock),
        _ => None,
    };
    let t = Instant::now();
    let (sim, gen_s, new_s) = build(cell, clock);
    let setup_s = t.elapsed().as_secs_f64();
    let mut out = CellOutcome {
        stats: None,
        failure: None,
        gen_s,
        new_s,
        setup_s,
        run_s: 0.0,
        footprint_bytes: 0,
        bytes_per_node: 0,
    };
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            out.failure = Some(format!("config: {e}"));
            return out;
        }
    };
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        match trace {
            Trace::QueueDepth(hist) => {
                let mut stop = Cycle::ZERO;
                loop {
                    stop += SLICE;
                    sim.run_until(Some(stop));
                    let depth = sim.pending_events();
                    *hist.entry(depth).or_default() += 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            Trace::Off | Trace::Layers(_) => {
                sim.run_until(None);
            }
        }
        sim.finalize()
    }));
    out.run_s = t.elapsed().as_secs_f64();
    match result {
        Ok(stats) => {
            out.failure = check(&sim, &stats);
            let fp = sim.memory_footprint();
            out.footprint_bytes = fp.total_bytes;
            out.bytes_per_node = fp.bytes_per_node;
            out.stats = Some(stats);
        }
        Err(payload) => out.failure = Some(format!("panicked: {}", panic_message(&*payload))),
    }
    if let Some(f) = &out.failure {
        eprintln!("cell {} failed: {f}", cell.label);
    }
    out
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a's offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A hash of every cell's complete `RunStats`, in cell order. Equal
/// digests mean the simulated results are identical.
pub fn stats_digest(cells: &[Cell], outcomes: &[CellOutcome]) -> u64 {
    cells.iter().zip(outcomes).fold(FNV_BASIS, |h, (cell, o)| {
        let h = fnv1a(cell.label.as_bytes(), h);
        match &o.stats {
            Some(stats) => fnv1a(format!("{stats:?}").as_bytes(), h),
            None => fnv1a(b"no stats", h),
        }
    })
}

/// Cells that failed a check (the result line's `failed`).
pub fn failed_cells(outcomes: &[CellOutcome]) -> usize {
    outcomes.iter().filter(|o| o.failure.is_some()).count()
}

/// The statistics of every cell that produced them, with their cells.
fn with_stats<'a>(
    cells: &'a [Cell],
    outcomes: &'a [CellOutcome],
) -> impl Iterator<Item = (&'a Cell, &'a RunStats)> {
    cells
        .iter()
        .zip(outcomes)
        .filter_map(|(c, o)| o.stats.as_ref().map(|s| (c, s)))
}

/// Mean gap to the paper's headline numbers (percentage points) of a
/// paper matrix.
pub fn paper_gap_pct(cells: &[Cell], outcomes: &[CellOutcome]) -> f64 {
    let matrix: Vec<paper::MatrixCell<'_>> = with_stats(cells, outcomes)
        .map(|(c, s)| paper::MatrixCell {
            workload: &c.workload,
            group: c.group,
            algorithm: c.algorithm,
            stats: s,
        })
        .collect();
    paper::gap_pct(&paper::headlines(&matrix))
}

/// Largest ratio, over algorithms, of faulty to lossless execution
/// cycles (`faulty_cells` pairs each lossless cell with its faulty one).
pub fn exec_inflation(outcomes: &[CellOutcome]) -> f64 {
    let exec = |o: &CellOutcome| o.stats.as_ref().map_or(f64::NAN, RunStats::exec_time);
    outcomes
        .chunks_exact(2)
        .map(|pair| exec(&pair[1]) / exec(&pair[0]))
        .fold(f64::NAN, f64::max)
}

/// Totals of the deterministic per-layer counters over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Simulated core accesses retired.
    pub accesses: u64,
    /// Events dispatched.
    pub events: u64,
    /// Read and write ring transactions.
    pub txns: u64,
    /// Read transactions.
    pub read_txns: u64,
    /// CMP snoops on behalf of reads.
    pub read_snoops: u64,
    /// Reads a remote cache supplied.
    pub cache_supplied: u64,
    /// Read and write ring hops.
    pub ring_hops: u64,
    /// Ring hops of timeout-retried circulations.
    pub retry_hops: u64,
    /// Predictor true positives.
    pub true_positives: u64,
    /// Predictor false positives.
    pub false_positives: u64,
    /// Ring messages dropped by the fault plan.
    pub drops: u64,
    /// Ring messages duplicated by the fault plan.
    pub duplicates: u64,
    /// Requester timeouts.
    pub timeouts: u64,
    /// Retries issued.
    pub retries: u64,
    /// Retries proven unnecessary in hindsight.
    pub spurious_retries: u64,
    /// Deliveries of superseded attempts discarded.
    pub stale_deliveries: u64,
    /// Largest `memory_footprint` total over the cells.
    pub footprint_bytes: u64,
    /// Largest `memory_footprint` bytes per node over the cells.
    pub bytes_per_node: u64,
}

impl Counters {
    /// Sums the counters of a pass.
    pub fn of(cells: &[Cell], outcomes: &[CellOutcome]) -> Self {
        let mut c = Counters::default();
        for (cell, s) in with_stats(cells, outcomes) {
            c.accesses += cell.accesses();
            c.events += s.events;
            c.txns += s.read_txns + s.write_txns;
            c.read_txns += s.read_txns;
            c.read_snoops += s.read_snoops;
            c.cache_supplied += s.reads_cache_supplied;
            c.ring_hops += s.read_ring_hops + s.write_ring_hops;
            c.retry_hops += s.retry_ring_hops;
            c.true_positives += s.accuracy.true_positives;
            c.false_positives += s.accuracy.false_positives;
            c.drops += s.robustness.ring_drops;
            c.duplicates += s.robustness.ring_duplicates;
            c.timeouts += s.robustness.timeouts;
            c.retries += s.robustness.retries;
            c.spurious_retries += s.robustness.spurious_retries;
            c.stale_deliveries += s.robustness.stale_deliveries;
        }
        for o in outcomes {
            c.footprint_bytes = c.footprint_bytes.max(o.footprint_bytes);
            c.bytes_per_node = c.bytes_per_node.max(o.bytes_per_node);
        }
        c
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One smoke-report run.
#[derive(Debug, Clone)]
pub struct ReportOutcome {
    /// Seconds in `generate`.
    pub generate_s: f64,
    /// Seconds in `check`.
    pub check_s: f64,
    /// The staleness check's verdict.
    pub check: Result<(), String>,
    /// Per-section seconds from the report's own summary, by slug.
    pub sections: Vec<(&'static str, f64)>,
    /// Hash of the regenerated `report.md`.
    pub digest: u64,
}

/// The report summary's section labels and the benchmark's slugs.
pub const REPORT_SECTIONS: [(&str, &str); 7] = [
    ("table1", "table1"),
    ("table3", "table3"),
    ("figure matrix (6-9)", "figures"),
    ("figure 10", "fig10"),
    ("figure 11", "fig11"),
    ("recovery sweep", "recovery"),
    ("hierarchy sweep", "hierarchy"),
];

/// Generates the smoke report and checks it against `results_dir`.
pub fn run_report(results_dir: &Path) -> ReportOutcome {
    let opts = flexsnoop_report::ReportOptions::smoke();
    let t = Instant::now();
    let report = flexsnoop_report::generate(&opts);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let check = report.check(results_dir);
    let check_s = t.elapsed().as_secs_f64();
    if let Err(e) = &check {
        eprintln!("report check failed: {e}");
    }
    let sections = REPORT_SECTIONS
        .iter()
        .map(|&(label, slug)| {
            let ms = report
                .summary
                .lines()
                .find_map(|l| l.strip_prefix(label)?.strip_prefix(": "))
                .and_then(|rest| rest.strip_suffix(" ms"))
                .and_then(|n| n.parse::<f64>().ok())
                .unwrap_or(0.0);
            (slug, ms / 1e3)
        })
        .collect();
    ReportOutcome {
        generate_s,
        check_s,
        check,
        sections,
        digest: fnv1a(report.report_md.as_bytes(), FNV_BASIS),
    }
}

/// The set-up the smoke report's figure matrix performs (streams and
/// simulators for every paper cell at smoke scale), timed from outside.
pub fn report_setup_cells() -> Vec<Cell> {
    paper_cells(SEED, flexsnoop_report::ReportScale::smoke().figure_accesses)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank) of a depth histogram.
pub fn quantile(hist: &BTreeMap<usize, u64>, q: f64) -> usize {
    let total: u64 = hist.values().sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (&depth, &n) in hist {
        seen += n;
        if seen >= rank {
            return depth;
        }
    }
    0
}
