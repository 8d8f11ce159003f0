//! One benchmark run: passes over a workload's cells until the time is
//! up, every cell run checked, every host time reduced to the cell's
//! fastest run.
//!
//! A pass runs every cell of the workload once: boot, set-up, measured
//! phase and report under separate timers, and with tracing on also a
//! traced run and the layer re-drives (see [`crate::redrive`]). Two
//! workers run passes side by side, and each figure sums, over the
//! cells, the cell's fastest run on either. The host this was tuned on
//! alternates between quiet stretches and stretches where other tenants
//! slow every cell about 1.8x, on each of its two vCPUs independently; a
//! per-pass median lands in whichever state dominated the run, while
//! each cell's minimum over both workers is what repeats from process to
//! process (see `README.md`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use impulse_core::TierStats;
use impulse_obs::Json;
use impulse_sim::Report;

use crate::cells::{cells_for, Cell, Workload};
use crate::host;
use crate::redrive::{trace_cell, LayerCell, Traced, BELOW, LAYERS};
use crate::run::{check, run_untraced, Reference, SimCounts, Timing, Untraced};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to keep starting cell runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Passes each worker completes however short `Options::seconds` is.
const MIN_PASSES: usize = 3;

/// Workers measuring side by side. Other tenants slow the two vCPUs of
/// the host this was tuned on independently of each other, and each
/// cell's fastest run over both workers picks the quieter one.
const MAX_WORKERS: usize = 2;

/// One named figure. `value` is `None` where the workload gives the
/// figure nothing to measure; `note` then says why.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The figure.
    pub value: Option<f64>,
    /// Why the value is missing.
    pub note: Option<&'static str>,
}

/// Why a re-drive figure is missing.
const NOT_REDRIVEN: &str = "no cell re-drove this layer faithfully";
/// Why a simulated ratio is missing.
const NO_EVENTS: &str = "0/0: the workload never reaches this counter";

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: Option<f64>,
    why_missing: &'static str,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: value.is_none().then_some(why_missing),
    }
}

fn known(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    metric(name, unit, Some(value), "")
}

/// A finished run.
pub struct Outcome {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that panicked, mismatched or broke an invariant.
    pub failed: u64,
    /// What went wrong, one line each, up to a fixed number of lines.
    pub errors: Vec<String>,
    /// Workers that ran side by side.
    pub workers: usize,
    /// Passes completed, summed over the workers.
    pub passes: usize,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Per-cell detail: every pass's timings, and the re-drives when
    /// traced.
    pub cells: Json,
}

fn div(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

#[derive(Default)]
struct Counters {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Error lines kept per run.
const KEPT_ERRORS: usize = 32;

impl Counters {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    fn absorb(&mut self, other: Counters) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(KEPT_ERRORS);
    }
}

/// Everything measured for one cell over the passes.
#[derive(Default)]
struct CellRuns {
    /// The cell's first report, which every later pass must repeat.
    first: Option<String>,
    timings: Vec<Timing>,
    traced: Vec<Traced>,
    /// Report and tier counters of one traced-mode run, for the
    /// simulated counts.
    sim: Option<(Report, TierStats)>,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs one cell untraced and checks it (see [`check`]).
fn run_checked(
    cell: &Cell,
    keep_pre: bool,
    seed: u64,
    reference: &Reference,
    first: Option<&str>,
) -> Result<Untraced, String> {
    let u = catch_unwind(AssertUnwindSafe(|| run_untraced(cell, keep_pre)))
        .map_err(|p| format!("{}: panicked: {}", cell.name, panic_text(&*p)))?;
    check(cell, &u.outcome, seed, reference, first)?;
    Ok(u)
}

/// Runs the workload's seeded cells once at the committed document's
/// seed, untimed, so that they too are compared with the committed
/// reports whatever `--seed` is. At that seed every timed run is
/// compared already.
fn check_at_reference_seed(opts: &Options, reference: &Reference, counters: &mut Counters) {
    let seed = reference.seed();
    if opts.seed == seed {
        return;
    }
    for cell in cells_for(opts.workload, seed).iter().filter(|c| c.seeded) {
        counters.attempted += 1;
        if let Err(e) = run_checked(cell, false, seed, reference, None) {
            counters.fail(format!("at the committed seed: {e}"));
        }
    }
}

/// Runs and checks one cell once, traced too when asked; a panic, a
/// mismatch or a broken invariant is counted and the run dropped.
fn measure(
    cell: &Cell,
    opts: &Options,
    reference: &Reference,
    runs: &mut CellRuns,
    counters: &mut Counters,
) {
    counters.attempted += 1;
    let checked = run_checked(
        cell,
        opts.trace,
        opts.seed,
        reference,
        runs.first.as_deref(),
    );
    let u = match checked {
        Ok(u) => u,
        Err(e) => return counters.fail(e),
    };
    if let Some(pre) = &u.pre {
        let traced = catch_unwind(AssertUnwindSafe(|| trace_cell(cell, pre, &u.post)))
            .unwrap_or_else(|p| {
                Err(format!(
                    "{}: traced run panicked: {}",
                    cell.name,
                    panic_text(&*p)
                ))
            });
        match traced {
            Ok(tr) => runs.traced.push(tr),
            Err(e) => return counters.fail(e),
        }
    }
    runs.timings.push(u.outcome.timing);
    if opts.trace && runs.sim.is_none() {
        runs.sim = Some((u.outcome.report.clone(), u.outcome.tier));
    }
    runs.first.get_or_insert(u.outcome.json);
}

/// One worker's passes over the workload.
#[derive(Default)]
struct Worker {
    runs: Vec<CellRuns>,
    counters: Counters,
    passes: usize,
}

/// Runs passes over the workload's cells until `seconds` after `t0`.
/// Each worker builds its own cells: their set-up closures stay on the
/// thread that made them.
fn work(opts: &Options, reference: &Reference, t0: Instant) -> Worker {
    let cells = cells_for(opts.workload, opts.seed);
    let mut w = Worker {
        runs: cells.iter().map(|_| CellRuns::default()).collect(),
        ..Worker::default()
    };
    // The deadline is checked before every cell, not every pass: the
    // figures take each cell's fastest run, so a cut pass loses nothing,
    // and the run ends within one cell of `seconds`.
    'passes: loop {
        for (cell, runs) in cells.iter().zip(&mut w.runs) {
            if w.passes >= MIN_PASSES && t0.elapsed().as_secs_f64() >= opts.seconds {
                break 'passes;
            }
            measure(cell, opts, reference, runs, &mut w.counters);
        }
        w.passes += 1;
    }
    w
}

/// Runs the benchmark: one worker per CPU, up to two, each running the
/// full pass loop, their runs pooled per cell.
pub fn run(opts: &Options, reference: &Reference) -> Outcome {
    let cells = cells_for(opts.workload, opts.seed);
    let mut counters = Counters::default();
    check_at_reference_seed(opts, reference, &mut counters);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS));
    let t0 = Instant::now();
    let done: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| work(opts, reference, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked outside a cell run"))
            .collect()
    });
    let mut runs: Vec<CellRuns> = cells.iter().map(|_| CellRuns::default()).collect();
    let mut passes = 0;
    for w in done {
        passes += w.passes;
        counters.absorb(w.counters);
        for ((cell, all), mut r) in cells.iter().zip(&mut runs).zip(w.runs) {
            if let (Some(a), Some(b)) = (&all.first, &r.first) {
                if a != b {
                    // Every passing run of this worker repeated its own
                    // first report, so every one of them is wrong.
                    for _ in &r.timings {
                        counters.fail(format!("{}: report differs between workers", cell.name));
                    }
                    continue;
                }
            }
            all.first = all.first.take().or(r.first.take());
            all.timings.append(&mut r.timings);
            all.traced.append(&mut r.traced);
            all.sim = all.sim.take().or(r.sim.take());
        }
    }
    let metrics = if opts.trace {
        per_layer(&runs)
    } else {
        end_to_end(&runs, &counters)
    };
    Outcome {
        attempted: counters.attempted,
        failed: counters.failed,
        errors: counters.errors,
        workers,
        passes,
        metrics,
        cells: cells_json(&cells, &runs),
    }
}

/// The fastest of each timing field over the passes.
fn fastest(ts: &[Timing]) -> Option<Timing> {
    let first = *ts.first()?;
    Some(ts.iter().fold(first, |a, t| Timing {
        boot_ns: a.boot_ns.min(t.boot_ns),
        setup_ns: a.setup_ns.min(t.setup_ns),
        run_ns: a.run_ns.min(t.run_ns),
        report_ns: a.report_ns.min(t.report_ns),
        run_accesses: a.run_accesses,
    }))
}

fn end_to_end(runs: &[CellRuns], counters: &Counters) -> Vec<Metric> {
    let best: Vec<Timing> = runs.iter().filter_map(|r| fastest(&r.timings)).collect();
    let sum = |f: fn(&Timing) -> u64| best.iter().map(f).sum::<u64>() as f64;
    let ok = counters.attempted - counters.failed;
    let no_run = "no cell run passed its checks";
    vec![
        metric(
            "ns_per_access",
            "ns",
            div(sum(|t| t.run_ns), sum(|t| t.run_accesses)),
            no_run,
        ),
        known("wall_s", "s", sum(Timing::wall_ns) / 1e9),
        known("setup_s", "s", sum(|t| t.boot_ns + t.setup_ns) / 1e9),
        metric(
            "peak_rss_mb",
            "MB",
            host::peak_rss_mb(),
            "no VmHWM in /proc/self/status",
        ),
        metric(
            "success_rate",
            "frac",
            div(ok as f64, counters.attempted as f64),
            no_run,
        ),
    ]
}

/// The traced figures of one cell: its fastest traced run and, layer by
/// layer, its fastest re-drive. Counts and fidelity repeat exactly, so
/// they come from the first pass.
fn fastest_traced(trs: &[Traced]) -> Option<Traced> {
    let first = trs.first()?;
    let layers = first
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| LayerCell {
            ns: trs.iter().map(|t| t.layers[i].ns).min().unwrap_or(l.ns),
            ..l.clone()
        })
        .collect();
    Some(Traced {
        run_ns: trs.iter().map(|t| t.run_ns).min()?,
        traced: first.traced,
        layers,
        below: first.below,
    })
}

/// Per-layer sums over a workload's cells.
#[derive(Default)]
struct Totals {
    boot_ns: u64,
    setup_ns: u64,
    run_ns: u64,
    report_ns: u64,
    run_accesses: u64,
    traced_run_ns: u64,
    layers: Vec<LayerCell>,
    /// Untraced run time and accesses of the cells whose memory-system
    /// re-drive was faithful, and the run time its prefix stands for.
    memsys_cells_run_ns: u64,
    memsys_cells_accesses: u64,
    covered_run_ns: f64,
    /// Calls the faithful memory-system re-drives made into each of
    /// [`BELOW`].
    below: [u64; 3],
}

impl Totals {
    fn add(&mut self, t: &Timing, tr: &Traced) {
        self.boot_ns += t.boot_ns;
        self.setup_ns += t.setup_ns;
        self.run_ns += t.run_ns;
        self.report_ns += t.report_ns;
        self.run_accesses += t.run_accesses;
        self.traced_run_ns += tr.run_ns;
        let memsys = &tr.layers[0];
        if memsys.unfaithful.is_none() && t.run_accesses > 0 {
            self.memsys_cells_run_ns += t.run_ns;
            self.memsys_cells_accesses += t.run_accesses;
            self.covered_run_ns += t.run_ns as f64 * memsys.covered as f64 / t.run_accesses as f64;
            for (sum, n) in self.below.iter_mut().zip(tr.below) {
                *sum += n;
            }
        }
        if self.layers.is_empty() {
            self.layers = vec![LayerCell::default(); LAYERS.len()];
        }
        for (sum, l) in self.layers.iter_mut().zip(&tr.layers) {
            sum.calls += l.calls;
            sum.covered += l.covered;
            sum.ns += l.ns;
            sum.real_calls += l.real_calls;
        }
    }

    fn rate(&self, i: usize) -> Option<f64> {
        self.layers
            .get(i)
            .and_then(|l| div(l.ns as f64, l.calls as f64))
    }

    /// Host ns per demand access spent in `BELOW[k]` inside the memory
    /// system: its ns per call times the calls per access that the
    /// faithful memory-system re-drives made into it, so every term is
    /// taken over the same accesses of the same cells.
    fn per_access(&self, k: usize) -> Option<f64> {
        let i = LAYERS.iter().position(|l| *l == BELOW[k])?;
        let memsys_calls = self.layers.first()?.calls as f64;
        Some(self.rate(i)? * div(self.below[k] as f64, memsys_calls)?)
    }

    fn metrics(&self) -> Vec<Metric> {
        let untraced = div(self.run_ns as f64, self.run_accesses as f64);
        let traced = div(self.traced_run_ns as f64, self.run_accesses as f64);
        let memsys = self.rate(0);
        let machine_run = div(
            self.memsys_cells_run_ns as f64,
            self.memsys_cells_accesses as f64,
        );
        let memsys_self = memsys
            .and_then(|m| (0..BELOW.len()).try_fold(m, |left, k| Some(left - self.per_access(k)?)));
        let no_run = "no cell run passed its checks";
        let mut out = vec![
            known("sim.boot_s", "s", self.boot_ns as f64 / 1e9),
            known("workloads.setup_s", "s", self.setup_ns as f64 / 1e9),
            known("sim.run_s", "s", self.run_ns as f64 / 1e9),
            known("sim.report_s", "s", self.report_ns as f64 / 1e9),
            metric("sim.untraced.ns_per_access", "ns", untraced, no_run),
            metric("sim.traced.ns_per_access", "ns", traced, no_run),
            metric(
                "trace.overhead_frac",
                "frac",
                traced.zip(untraced).map(|(t, u)| t / u - 1.0),
                no_run,
            ),
            metric(
                "sim.machine.self_ns_per_access",
                "ns",
                machine_run.zip(memsys).map(|(r, m)| r - m),
                NOT_REDRIVEN,
            ),
            metric(
                "sim.memsys.self_ns_per_access",
                "ns",
                memsys_self,
                NOT_REDRIVEN,
            ),
            metric(
                "unattributed_frac",
                "frac",
                div(self.run_ns as f64 - self.covered_run_ns, self.run_ns as f64),
                no_run,
            ),
        ];
        for (i, name) in LAYERS.iter().enumerate() {
            let l = self.layers.get(i).cloned().unwrap_or_default();
            let rate_name = match *name {
                "sim.memsys" => "sim.memsys.ns_per_access".to_string(),
                "core.mc" => "core.mc.ns_per_line".to_string(),
                _ => format!("{name}.ns_per_call"),
            };
            out.push(metric(rate_name, "ns", self.rate(i), NOT_REDRIVEN));
            out.push(known(format!("{name}.calls"), "count", l.calls as f64));
            out.push(known(
                format!("{name}.redrive_coverage"),
                "frac",
                div(l.covered as f64, l.real_calls as f64).unwrap_or(1.0),
            ));
        }
        out
    }
}

fn per_layer(runs: &[CellRuns]) -> Vec<Metric> {
    let mut totals = Totals::default();
    let mut sim = SimCounts::default();
    for r in runs {
        if let (Some(t), Some(tr)) = (fastest(&r.timings), fastest_traced(&r.traced)) {
            totals.add(&t, &tr);
        }
        if let Some((report, tier)) = &r.sim {
            sim.add(report, tier);
        }
    }
    let mut out = totals.metrics();
    out.extend(
        sim.metrics()
            .into_iter()
            .map(|(name, unit, v)| metric(name, unit, v, NO_EVENTS)),
    );
    out
}

fn layer_json(l: &LayerCell) -> Json {
    let mut j = Json::obj();
    j.set("calls", Json::UInt(l.calls));
    j.set("ns", Json::UInt(l.ns));
    j.set("covered", Json::UInt(l.covered));
    j.set("real_calls", Json::UInt(l.real_calls));
    j.set(
        "unfaithful",
        l.unfaithful.clone().map_or(Json::Null, Json::Str),
    );
    j
}

fn cells_json(cells: &[Cell], runs: &[CellRuns]) -> Json {
    let per_pass = |ts: &[Timing], f: fn(&Timing) -> u64| -> Json {
        Json::Arr(ts.iter().map(|t| Json::UInt(f(t))).collect())
    };
    Json::Arr(
        cells
            .iter()
            .zip(runs)
            .map(|(cell, r)| {
                let mut j = Json::obj();
                j.set("name", Json::Str(cell.name.clone()));
                let accesses = r.timings.first().map_or(0, |t| t.run_accesses);
                j.set("run_accesses", Json::UInt(accesses));
                j.set("boot_ns", per_pass(&r.timings, |t| t.boot_ns));
                j.set("setup_ns", per_pass(&r.timings, |t| t.setup_ns));
                j.set("run_ns", per_pass(&r.timings, |t| t.run_ns));
                j.set("report_ns", per_pass(&r.timings, |t| t.report_ns));
                if let Some(tr) = fastest_traced(&r.traced) {
                    j.set("traced_accesses", Json::UInt(tr.traced));
                    j.set("traced_run_ns", Json::UInt(tr.run_ns));
                    let mut lj = Json::obj();
                    for (name, l) in LAYERS.iter().zip(&tr.layers) {
                        lj.set(name, layer_json(l));
                    }
                    j.set("layers", lj);
                }
                j
            })
            .collect(),
    )
}
