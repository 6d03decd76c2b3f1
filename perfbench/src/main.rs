//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload for about `--seconds` seconds, repeating whole
//! passes over its cells, and prints a human-readable summary followed
//! by one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones (host time with
//! tracing off); with `--trace 1` they are the per-layer ones from a
//! traced run: each round pairs an untraced pass with a layer-timed pass
//! and a queue-sampled pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use flexsnoop_perfbench::trace::{LayerClock, LayerTimes};
use flexsnoop_perfbench::{
    exec_inflation, failed_cells, median, paper_gap_pct, quantile, ratio, report_setup_cells,
    run_cell, run_report, setup_only, stats_digest, CellOutcome, Counters, Trace, Workload,
    REPORT_SECTIONS, SEED,
};

const USAGE: &str =
    "usage: perfbench --workload <paper8|ring_1m|faulty8|report_smoke> [--seed N] [--seconds S] [--trace 0|1]";

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics: name, unit. Every one is printed for every
/// workload; one that does not apply to a workload reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("accesses_per_s", "1/s"),
    ("paper_gap_pct", "%"),
    ("exec_inflation", "ratio"),
    ("failed_frac", "fraction"),
    ("workload.gen_s", "s"),
    ("sim.new_s", "s"),
    ("workload.next_s", "s"),
    ("workload.next_calls", "count"),
    ("predictor.s", "s"),
    ("predictor.calls", "count"),
    ("predictor.ns_per_call", "ns"),
    ("predictor.precision", "fraction"),
    ("sim.self_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.queue_depth_p50", "count"),
    ("engine.queue_depth_max", "count"),
    ("mem.bytes_per_node", "B"),
    ("mem.footprint_mb", "MiB"),
    ("mem.snoops_per_read", "count"),
    ("mem.cache_supply_frac", "fraction"),
    ("net.hops_per_txn", "count"),
    ("net.retry_hop_frac", "fraction"),
    ("net.drops", "count"),
    ("net.duplicates", "count"),
    ("recovery.timeouts", "count"),
    ("recovery.retries", "count"),
    ("recovery.spurious_frac", "fraction"),
    ("recovery.stale_deliveries", "count"),
    ("report.generate_s", "s"),
    ("report.check_s", "s"),
    ("report.section_s.table1", "s"),
    ("report.section_s.table3", "s"),
    ("report.section_s.figures", "s"),
    ("report.section_s.fig10", "s"),
    ("report.section_s.fig11", "s"),
    ("report.section_s.recovery", "s"),
    ("report.section_s.hierarchy", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Set-up-only builds of the smoke figure matrix per `report_smoke` run.
/// They all run before the first report, so that the set-up time does
/// not depend on how many reports fit into the run.
const REPORT_SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value"))?
            .as_str();
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs whole passes until another pass as long as the last one would
/// overrun `seconds`; always at least one.
fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(pass());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the JSON line.
    summary: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn line(&mut self, name: &str, value: impl std::fmt::Display, unit: &str) {
        self.summary.push(format!("  {name:<28} {value} {unit}"));
    }

    fn print(&self, metrics: &[(&str, &str)]) {
        for line in &self.summary {
            println!("{line}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The median of `f` over `items`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn sum(outcomes: &[CellOutcome], f: impl Fn(&CellOutcome) -> f64) -> f64 {
    outcomes.iter().map(f).sum()
}

/// The quality metrics that apply to `w`, computed from one pass.
fn quality(
    w: Workload,
    cells: &[flexsnoop_perfbench::Cell],
    pass: &[CellOutcome],
    out: &mut Outcome,
) {
    let clean = failed_cells(pass) == 0;
    if w == Workload::Paper8 && clean {
        out.set("paper_gap_pct", paper_gap_pct(cells, pass));
    }
    if w == Workload::Faulty8 && clean {
        out.set("exec_inflation", exec_inflation(pass));
    }
}

fn sim_untraced(w: Workload, args: &Args) -> Outcome {
    let cells = w.cells(args.seed);
    let passes = timed_passes(args.seconds, || {
        cells
            .iter()
            .map(|c| run_cell(c, Trace::Off))
            .collect::<Vec<_>>()
    });
    let run: Vec<f64> = passes.iter().map(|p| sum(p, |o| o.run_s)).collect();
    let setup: Vec<f64> = passes.iter().map(|p| sum(p, |o| o.setup_s)).collect();
    let digests: Vec<u64> = passes.iter().map(|p| stats_digest(&cells, p)).collect();
    let first = &passes[0];
    let counters = Counters::of(&cells, first);

    let mut out = Outcome::default();
    out.attempted = cells.len() * passes.len();
    out.failed = passes.iter().map(|p| failed_cells(p)).sum();
    out.correct = out.failed == 0 && digests.iter().all(|d| *d == digests[0]);
    let run_s = median(&run);
    out.set("run_s", run_s);
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", peak_rss_mb());
    quality(w, &cells, first, &mut out);

    out.summary.push(format!(
        "workload {} seed {}: {} passes of {} cells (medians over passes)",
        w.name(),
        args.seed,
        passes.len(),
        cells.len()
    ));
    out.line("run_s", out.metrics["run_s"], "s");
    out.summary.push(format!("    per pass: {}", join(&run)));
    out.line("setup_s", out.metrics["setup_s"], "s");
    out.summary.push(format!("    per pass: {}", join(&setup)));
    if w != Workload::Ring1m {
        out.line("accesses_per_s", counters.accesses as f64 / run_s, "1/s");
    }
    out.line("peak_rss_mb", out.metrics["peak_rss_mb"], "MiB");
    for (name, unit) in [("paper_gap_pct", "%"), ("exec_inflation", "ratio")] {
        if let Some(v) = out.metrics.get(name).copied() {
            out.line(name, v, unit);
        }
    }
    out.line(
        "failed_frac",
        ratio(out.failed as u64, out.attempted as u64),
        "fraction",
    );
    out.line("stats_digest", format!("{:016x}", digests[0]), "");
    out
}

/// One round of a traced run over the same cells: an untraced pass, a
/// pass with the layer wrappers and a pass sampling the queue depth.
struct TracedRound {
    plain: Vec<CellOutcome>,
    layered: Vec<CellOutcome>,
    sampled: Vec<CellOutcome>,
    layers: LayerTimes,
    queue_depth: BTreeMap<usize, u64>,
}

fn sim_traced(w: Workload, args: &Args) -> Outcome {
    let cells = w.cells(args.seed);
    let rounds = timed_passes(args.seconds, || {
        let plain = cells.iter().map(|c| run_cell(c, Trace::Off)).collect();
        let clock = Arc::new(LayerClock::default());
        let layered = cells
            .iter()
            .map(|c| run_cell(c, Trace::Layers(&clock)))
            .collect();
        let mut queue_depth = BTreeMap::new();
        let sampled = cells
            .iter()
            .map(|c| run_cell(c, Trace::QueueDepth(&mut queue_depth)))
            .collect();
        TracedRound {
            plain,
            layered,
            sampled,
            layers: clock.read(),
            queue_depth,
        }
    });
    let plain_run: Vec<f64> = rounds.iter().map(|r| sum(&r.plain, |o| o.run_s)).collect();
    let traced_run: Vec<f64> = rounds
        .iter()
        .map(|r| sum(&r.layered, |o| o.run_s))
        .collect();
    let digest = stats_digest(&cells, &rounds[0].plain);
    let identical = rounds.iter().all(|r| {
        [&r.plain, &r.layered, &r.sampled]
            .iter()
            .all(|p| stats_digest(&cells, p) == digest)
    });
    let first = &rounds[0];
    let c = Counters::of(&cells, &first.plain);
    let layer0 = first.layers;
    let mut out = Outcome::default();
    out.attempted = 3 * cells.len() * rounds.len();
    out.failed = rounds
        .iter()
        .map(|r| failed_cells(&r.plain) + failed_cells(&r.layered) + failed_cells(&r.sampled))
        .sum();
    out.correct = out.failed == 0 && identical;
    let run_s = median(&plain_run);
    let pred_s = median_of(&rounds, |r| r.layers.predictor_s);
    let next_s = median_of(&rounds, |r| r.layers.next_s);
    let self_s: Vec<f64> = traced_run
        .iter()
        .zip(&rounds)
        .map(|(t, r)| t - r.layers.predictor_s - r.layers.next_s)
        .collect();
    out.set("accesses_per_s", c.accesses as f64 / run_s);
    out.set(
        "failed_frac",
        ratio(out.failed as u64, out.attempted as u64),
    );
    out.set(
        "workload.gen_s",
        median_of(&rounds, |r| sum(&r.plain, |o| o.gen_s)),
    );
    out.set(
        "sim.new_s",
        median_of(&rounds, |r| sum(&r.plain, |o| o.new_s)),
    );
    out.set("workload.next_s", next_s);
    out.set("workload.next_calls", layer0.next_calls as f64);
    out.set("predictor.s", pred_s);
    out.set("predictor.calls", layer0.predictor_calls as f64);
    if layer0.predictor_calls > 0 {
        out.set(
            "predictor.ns_per_call",
            pred_s * 1e9 / layer0.predictor_calls as f64,
        );
    }
    out.set(
        "predictor.precision",
        ratio(c.true_positives, c.true_positives + c.false_positives),
    );
    out.set("sim.self_s", median(&self_s));
    out.set("engine.events", c.events as f64);
    out.set("engine.events_per_s", c.events as f64 / run_s);
    out.set(
        "engine.queue_depth_p50",
        quantile(&first.queue_depth, 0.5) as f64,
    );
    out.set(
        "engine.queue_depth_max",
        quantile(&first.queue_depth, 1.0) as f64,
    );
    out.set("mem.bytes_per_node", c.bytes_per_node as f64);
    out.set(
        "mem.footprint_mb",
        c.footprint_bytes as f64 / (1024.0 * 1024.0),
    );
    out.set("mem.snoops_per_read", ratio(c.read_snoops, c.read_txns));
    out.set(
        "mem.cache_supply_frac",
        ratio(c.cache_supplied, c.read_txns),
    );
    out.set("net.hops_per_txn", ratio(c.ring_hops, c.txns));
    out.set("net.retry_hop_frac", ratio(c.retry_hops, c.ring_hops));
    out.set("net.drops", c.drops as f64);
    out.set("net.duplicates", c.duplicates as f64);
    out.set("recovery.timeouts", c.timeouts as f64);
    out.set("recovery.retries", c.retries as f64);
    out.set(
        "recovery.spurious_frac",
        ratio(c.spurious_retries, c.retries),
    );
    out.set("recovery.stale_deliveries", c.stale_deliveries as f64);
    out.set("trace.overhead_frac", median(&traced_run) / run_s - 1.0);
    quality(w, &cells, &first.plain, &mut out);

    out.summary.push(format!(
        "workload {} seed {} traced: {} rounds (untraced, layer-timed, queue-sampled passes) of {} cells",
        w.name(),
        args.seed,
        rounds.len(),
        cells.len()
    ));
    if w == Workload::Ring1m {
        out.summary.push(
            "  (predictor layer left unwrapped: no predictor, and wrapping would add one allocation per node)"
                .into(),
        );
    }
    out.summary.push(format!(
        "  stats_digest {digest:016x}, traced passes identical: {identical}"
    ));
    out
}

fn report_untraced(args: &Args) -> Outcome {
    let setup_cells = report_setup_cells();
    let setup: Vec<f64> = (0..REPORT_SETUP_REPS)
        .map(|_| setup_only(&setup_cells))
        .collect();
    let passes = timed_passes(args.seconds, || run_report(Path::new("results")));
    let failed = passes.iter().filter(|r| r.check.is_err()).count();
    let digest = passes[0].digest;
    let mut out = Outcome {
        correct: failed == 0 && passes.iter().all(|r| r.digest == digest),
        attempted: passes.len(),
        failed,
        ..Outcome::default()
    };
    out.set("run_s", median_of(&passes, |r| r.generate_s));
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", peak_rss_mb());
    out.summary.push(format!(
        "workload report_smoke: {} passes (medians over passes; the report pins its own seed {SEED})",
        passes.len()
    ));
    out.line("run_s", out.metrics["run_s"], "s");
    out.line("setup_s", out.metrics["setup_s"], "s");
    out.line("peak_rss_mb", out.metrics["peak_rss_mb"], "MiB");
    out.line(
        "failed_frac",
        ratio(out.failed as u64, out.attempted as u64),
        "fraction",
    );
    out.line("stats_digest", format!("{digest:016x}"), "");
    out
}

fn report_traced(args: &Args) -> Outcome {
    let passes = timed_passes(args.seconds, || run_report(Path::new("results")));
    let failed = passes.iter().filter(|r| r.check.is_err()).count();
    let digest = passes[0].digest;
    let mut out = Outcome {
        correct: failed == 0 && passes.iter().all(|r| r.digest == digest),
        attempted: passes.len(),
        failed,
        ..Outcome::default()
    };
    out.set(
        "failed_frac",
        ratio(out.failed as u64, out.attempted as u64),
    );
    out.set("report.generate_s", median_of(&passes, |r| r.generate_s));
    out.set("report.check_s", median_of(&passes, |r| r.check_s));
    for (i, (_, slug)) in REPORT_SECTIONS.iter().enumerate() {
        out.set(
            &format!("report.section_s.{slug}"),
            median_of(&passes, |r| r.sections[i].1),
        );
    }
    // The report runs inside `generate`; nothing is wrapped, so the
    // traced run is the untraced one.
    out.set("trace.overhead_frac", 0.0);
    out.summary.push(format!(
        "workload report_smoke traced: {} runs, stats_digest {digest:016x}",
        passes.len()
    ));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::ReportSmoke {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        flexsnoop_engine::executor::set_default_threads(threads);
        // `generate` asks git for the commit it ran at; keep git from
        // searching for a repository above the working directory.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
        {
            std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let out = match (args.workload, args.trace) {
        (Workload::ReportSmoke, false) => report_untraced(&args),
        (Workload::ReportSmoke, true) => report_traced(&args),
        (w, false) => sim_untraced(w, &args),
        (w, true) => sim_traced(w, &args),
    };
    if args.trace {
        let mut out = out;
        let lines: Vec<String> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "  {name:<28} {} {unit}",
                    out.metrics.get(name).copied().unwrap_or(0.0)
                )
            })
            .collect();
        out.summary.extend(lines);
        out.print(&PER_LAYER);
    } else {
        out.print(&END_TO_END);
    }
    ExitCode::SUCCESS
}
