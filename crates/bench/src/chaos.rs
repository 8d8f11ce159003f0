//! Chaos/soak harness: the workload catalog under generated fault
//! schedules.
//!
//! Every case is a (workload × fault-scenario) cell: a fresh
//! [`Machine`] is built with a [`FaultConfig`] derived from the master
//! seed, the workload runs to completion, and the harness collects
//! per-fault-class counts, recovery-cycle attribution, and a list of
//! *invariant violations* — conditions that must never hold on a
//! healthy system, e.g. silent data corruption while ECC is on, or
//! retries exceeding the configured bound. A syscall-misuse probe rides
//! along to check that every typed-error path at the syscall boundary
//! degrades gracefully instead of panicking.
//!
//! This module also holds the one runner frame every chaos suite
//! shares: the [`SUITES`] table (this grid, [`crate::caps_chaos`] and
//! [`crate::tier_chaos`]), one catalog for a single worker pool, and
//! `suite_document`, which builds each suite's document from its case
//! JSON. Because every fault is drawn from a seeded per-site stream and
//! the job runner returns results in submission order, each document
//! (`results/chaos.json` for this grid) is **byte-identical** for a
//! fixed seed at any worker count — that determinism is itself one of
//! the asserted invariants (see the tests).

use std::sync::Arc;

use crate::caps_chaos::caps_faults;
use crate::journal::RunArtifacts;
use crate::runner::SharedJob;
use impulse_fault::{
    BusFaultStats, CapsFaultStats, EccConfig, EccMode, EccStats, FaultConfig, PgTblFaultStats,
    Trigger,
};
use impulse_obs::Json;
use impulse_os::OsError;
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::VRange;
use impulse_workloads::{
    Diagonal, DiagonalVariant, Smvp, SmvpVariant, SparsePattern, TlbStress, TlbVariant,
};

/// Workloads in the chaos catalog — deliberately small instances of the
/// paper's remapping flavors (strided, scatter/gather, superpage) so the
/// full scenario grid stays fast enough for a CI smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// Strided diagonal walk through a remapped alias.
    Diagonal,
    /// Scatter/gather sparse matrix-vector product.
    Smvp,
    /// Superpage sweep over a TLB-hostile working set.
    Superpage,
}

impl ChaosWorkload {
    /// Every workload in the catalog.
    pub const ALL: [ChaosWorkload; 3] = [
        ChaosWorkload::Diagonal,
        ChaosWorkload::Smvp,
        ChaosWorkload::Superpage,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosWorkload::Diagonal => "diagonal",
            ChaosWorkload::Smvp => "smvp-sg",
            ChaosWorkload::Superpage => "superpage",
        }
    }

    /// Sets up and runs the workload on `m`. Setup failures are bugs in
    /// the harness (the catalog is sized to fit `paint_small`), so they
    /// panic rather than count as fault-injection outcomes.
    fn drive(self, m: &mut Machine) {
        match self {
            ChaosWorkload::Diagonal => {
                let d = Diagonal::setup(m, 512, DiagonalVariant::Remapped).expect("diagonal setup");
                d.run(m, 4);
            }
            ChaosWorkload::Smvp => {
                let pattern = Arc::new(SparsePattern::generate(1500, 10, 0xC9A05));
                let w = Smvp::setup(m, pattern, SmvpVariant::ScatterGather).expect("smvp setup");
                w.run(m, 1);
            }
            ChaosWorkload::Superpage => {
                let w = TlbStress::setup(m, 4, 32, TlbVariant::Superpages).expect("tlb setup");
                w.sweep(m, 2);
            }
        }
    }
}

/// One injectable fault class, registered exactly once and consumed in
/// three places: the scenario grid (each class names its dedicated
/// single-class scenarios), the `storm` mixer (each class contributes
/// its storm-mix knobs), and the `results/chaos.json` totals section
/// (each class emits its counter rollup under `key`). Adding a fault
/// class means adding one registry row — the grid, the storm, and the
/// document schema pick it up from here, so they can never drift apart.
pub struct FaultClass {
    /// Stable totals key in `results/chaos.json` (`dram_ecc`, ...).
    pub key: &'static str,
    /// The dedicated single-class scenarios exercising this class.
    pub scenarios: &'static [FaultScenario],
    /// Adds this class's storm-mix knobs to a schedule.
    storm: fn(&mut FaultConfig),
    /// This class's totals rollup: `(key, case path)` pairs summed over
    /// a finished grid by [`rollup`].
    totals: &'static [(&'static str, &'static str)],
}

/// The chaos fault-class registry, in stable document order.
pub const FAULT_CLASSES: [FaultClass; 4] = [
    FaultClass {
        key: "dram_ecc",
        scenarios: &[
            FaultScenario::DramEcc,
            FaultScenario::DramDouble,
            FaultScenario::DramNoEcc,
        ],
        storm: |f| {
            f.dram_flip = Trigger::EveryN {
                every: 11,
                phase: 3,
            };
            f.dram_double_permille = 100;
        },
        totals: &[
            ("corrected", "ecc.corrected"),
            ("detected_double", "ecc.detected_double"),
            ("silent", "ecc.silent"),
            ("recovery_cycles", "ecc.recovery_cycles"),
        ],
    },
    FaultClass {
        key: "bus",
        scenarios: &[FaultScenario::BusTimeout],
        storm: |f| f.bus_timeout = Trigger::Permille(20),
        totals: &[
            ("timeouts", "bus.timeouts"),
            ("retries", "bus.retries"),
            ("recovery_cycles", "bus.recovery_cycles"),
        ],
    },
    FaultClass {
        key: "pgtbl",
        scenarios: &[FaultScenario::PgTbl],
        storm: |f| f.pgtbl_corrupt = Trigger::Permille(10),
        totals: &[
            ("corruptions", "pgtbl.corruptions"),
            ("reloads", "pgtbl.reloads"),
            ("recovery_cycles", "pgtbl.recovery_cycles"),
        ],
    },
    FaultClass {
        key: "caps",
        scenarios: &[FaultScenario::Caps],
        storm: |f| f.caps_corrupt = Trigger::EveryN { every: 3, phase: 1 },
        totals: &[
            ("corruptions", "caps.corruptions"),
            ("reloads", "caps.reloads"),
            ("recovery_cycles", "caps.recovery_cycles"),
            ("unrecoverable", "caps.unrecoverable"),
        ],
    },
];

/// Fault scenarios the grid crosses with each workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScenario {
    /// Fault-free control run: every fault counter must stay zero.
    Control,
    /// Single-bit DRAM flips under SECDED: all corrected, zero
    /// data-diff.
    DramEcc,
    /// DRAM flips with a double-bit fraction under SECDED: doubles are
    /// detected (known corruption), never silent.
    DramDouble,
    /// DRAM flips with ECC disabled: corruption passes silently and the
    /// data signature goes dirty.
    DramNoEcc,
    /// Bus request timeouts with bounded exponential-backoff retry.
    BusTimeout,
    /// MC-TLB/page-table entry corruption with detect-and-reload.
    PgTbl,
    /// Capability-table entry corruption with mirror-reload recovery.
    Caps,
    /// Every fault class at once.
    Storm,
}

impl FaultScenario {
    /// Every scenario in the grid.
    pub const ALL: [FaultScenario; 8] = [
        FaultScenario::Control,
        FaultScenario::DramEcc,
        FaultScenario::DramDouble,
        FaultScenario::DramNoEcc,
        FaultScenario::BusTimeout,
        FaultScenario::PgTbl,
        FaultScenario::Caps,
        FaultScenario::Storm,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Control => "control",
            FaultScenario::DramEcc => "dram-ecc",
            FaultScenario::DramDouble => "dram-double",
            FaultScenario::DramNoEcc => "dram-noecc",
            FaultScenario::BusTimeout => "bus-timeout",
            FaultScenario::PgTbl => "pgtbl-corrupt",
            FaultScenario::Caps => "caps-corrupt",
            FaultScenario::Storm => "storm",
        }
    }

    /// The fault schedule this scenario attaches under `seed`.
    pub fn config(self, seed: u64) -> FaultConfig {
        let base = FaultConfig {
            seed,
            ..FaultConfig::none()
        };
        let flips = Trigger::EveryN { every: 7, phase: 0 };
        match self {
            FaultScenario::Control => base,
            FaultScenario::DramEcc => FaultConfig {
                dram_flip: flips,
                ..base
            },
            FaultScenario::DramDouble => FaultConfig {
                dram_flip: flips,
                dram_double_permille: 250,
                ..base
            },
            FaultScenario::DramNoEcc => FaultConfig {
                dram_flip: flips,
                ecc: EccConfig {
                    mode: EccMode::None,
                    ..EccConfig::default()
                },
                ..base
            },
            FaultScenario::BusTimeout => FaultConfig {
                bus_timeout: Trigger::Permille(50),
                ..base
            },
            FaultScenario::PgTbl => FaultConfig {
                pgtbl_corrupt: Trigger::Permille(20),
                ..base
            },
            FaultScenario::Caps => FaultConfig {
                caps_corrupt: Trigger::EveryN { every: 2, phase: 0 },
                ..base
            },
            FaultScenario::Storm => {
                // Every registered fault class at once: the storm mix is
                // whatever the registry says, never a hand-kept copy.
                let mut f = base;
                for class in &FAULT_CLASSES {
                    (class.storm)(&mut f);
                }
                f
            }
        }
    }

    /// Whether the schedule must leave the visible data byte-identical
    /// to a fault-free run (`corrupt_sig == 0`). True everywhere except
    /// where corruption is *expected*: uncorrectable doubles and
    /// ECC-disabled runs.
    pub fn expects_clean_data(self) -> bool {
        !matches!(
            self,
            FaultScenario::DramDouble | FaultScenario::DramNoEcc | FaultScenario::Storm
        )
    }
}

/// Everything one chaos case produced: identity, cost, per-fault-class
/// counts, and any invariant violations observed in that run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Workload label.
    pub workload: String,
    /// Fault-scenario label.
    pub scenario: String,
    /// Simulated cycles the run took.
    pub cycles: u64,
    /// Instructions the run retired.
    pub instructions: u64,
    /// ECC bookkeeping (corrected / detected / silent / data signature).
    pub ecc: EccStats,
    /// Bus timeout/retry bookkeeping.
    pub bus: BusFaultStats,
    /// MC page-table corruption/reload bookkeeping.
    pub pgtbl: PgTblFaultStats,
    /// Kernel capability-table corruption/reload bookkeeping.
    pub caps: CapsFaultStats,
    /// Shadow accesses that degraded to the non-remapped NACK path.
    pub remap_faults: u64,
    /// Controller-side NACKed reads.
    pub rejected_reads: u64,
    /// Controller-side NACKed writes.
    pub rejected_writes: u64,
    /// Syscalls that returned a typed error (and charged trap cost).
    pub syscall_failures: u64,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
}

/// Collects counters and per-case invariants from a finished machine.
fn collect(
    workload: &'static str,
    scenario: FaultScenario,
    faults: &FaultConfig,
    m: &Machine,
) -> ChaosOutcome {
    let ms = m.memory();
    let stats = ms.stats();
    let mc = ms.mc().stats();
    let ecc = ms.mc().ecc_stats();
    let bus = ms.bus().fault_stats();
    let pgtbl = ms.mc().pgtbl_fault_stats();
    let caps = m.kernel().caps().fault_stats();

    let mut violations = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("{workload}/{}: {what}", scenario.name()));
        }
    };

    // Demand attribution must stay exact under every fault schedule.
    check(
        ms.attribution().total() == stats.load_cycles + stats.store_cycles,
        "attribution total != demand cycles",
    );
    // No silent data corruption while ECC is on.
    if faults.ecc.mode == EccMode::Secded {
        check(ecc.silent == 0, "silent corruption with SECDED enabled");
    }
    if scenario.expects_clean_data() {
        check(ecc.corrupt_sig == 0, "data signature dirty");
    }
    // Retries are bounded by the configured budget.
    check(
        bus.retries <= bus.timeouts * u64::from(faults.bus_max_retries),
        "bus retries exceed the configured bound",
    );
    // Every detected page-table corruption is recovered by a reload.
    check(
        pgtbl.reloads == pgtbl.corruptions,
        "pgtbl corruption without a matching reload",
    );
    // Injected capability-table corruption is shallow: every corruption
    // is either reloaded from the mirror or (never, without a damaged
    // mirror) quarantined as a typed error — nothing slips through.
    check(
        caps.reloads + caps.unrecoverable == caps.corruptions,
        "caps corruption neither reloaded nor quarantined",
    );
    check(
        caps.unrecoverable == 0,
        "mirror-recoverable caps corruption went unrecoverable",
    );
    // A fault-free schedule must observe zero fault activity.
    if faults.is_none() {
        check(
            ecc.corrected + ecc.detected_double + ecc.silent == 0
                && bus.timeouts == 0
                && pgtbl.corruptions == 0
                && caps.corruptions == 0,
            "fault counters nonzero on a fault-free schedule",
        );
    }

    ChaosOutcome {
        workload: workload.to_string(),
        scenario: scenario.name().to_string(),
        cycles: m.now(),
        instructions: m.instructions(),
        ecc,
        bus,
        pgtbl,
        caps,
        remap_faults: stats.remap_faults,
        rejected_reads: mc.rejected_reads,
        rejected_writes: mc.rejected_writes,
        syscall_failures: m.syscall_failures(),
        violations,
    }
}

/// Gives the capability injector validations to corrupt: the catalog
/// workloads grant remappings but never share, retarget, or revoke, so
/// their capability handles are never re-validated — and validation is
/// where corruption is detected and repaired. Scenarios that schedule
/// capability-table corruption run this short grant/share/revoke churn
/// before the workload.
fn caps_preamble(m: &mut Machine) {
    let buf = m
        .alloc_region(2 * PAGE_SIZE, PAGE_SIZE)
        .expect("caps preamble buffer");
    let receiver = m.sys_spawn();
    for _ in 0..8 {
        let g = m.sys_recolor(buf, &[0]).expect("caps preamble grant");
        m.sys_share(&g, receiver).expect("caps preamble share");
        m.sys_revoke(&g).expect("caps preamble revoke");
    }
}

/// Runs one (workload × scenario) cell under `seed`.
pub fn run_case(w: ChaosWorkload, s: FaultScenario, seed: u64) -> ChaosOutcome {
    let faults = s.config(seed);
    let cfg = SystemConfig::paint_small().with_faults(faults.clone());
    let mut m = Machine::new(&cfg);
    if !faults.caps_corrupt.is_never() {
        caps_preamble(&mut m);
    }
    w.drive(&mut m);
    collect(w.name(), s, &faults, &m)
}

/// Syscall-misuse probe: drives every typed-error path at the syscall
/// boundary on a machine with a nearly-empty shadow pool and checks
/// that each misuse returns the documented error — and that the machine
/// keeps working afterwards — instead of panicking.
pub fn run_misuse_probe(seed: u64) -> ChaosOutcome {
    let mut cfg = SystemConfig::paint_small().with_faults(FaultScenario::Control.config(seed));
    cfg.kernel.shadow_span = 2 * PAGE_SIZE;
    let faults = cfg.faults.clone();
    let mut m = Machine::new(&cfg);

    let mut violations = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("misuse-probe: {what}"));
        }
    };

    let a = m.alloc_region(64 * PAGE_SIZE, PAGE_SIZE).expect("alloc");

    // Zero stride is malformed descriptor geometry.
    let r = m.sys_remap_strided(a.start(), 64, 0, 8, 4096);
    check(
        matches!(r, Err(OsError::InvalidArg(_))),
        "zero stride not rejected as InvalidArg",
    );

    // A gather index one past the end of a 128-element target. The
    // target range is sized exactly (allocation is page-granular).
    let x = m.alloc_region(128 * 8, 128).expect("alloc x");
    let col = m.alloc_region(3 * 4, 128).expect("alloc col");
    let target = VRange::new(x.start(), 128 * 8);
    let r = m.sys_remap_gather(target, 8, Arc::new(vec![0, 5, 128]), col, 4);
    check(
        matches!(
            r,
            Err(OsError::IndexOutOfBounds {
                index: 128,
                limit: 128
            })
        ),
        "OOB gather index not rejected as IndexOutOfBounds",
    );

    // A dense alias larger than the 2-page shadow pool.
    let r = m.sys_remap_strided(a.start(), 8, 8, 2048, PAGE_SIZE);
    check(
        matches!(r, Err(OsError::ShadowExhausted { .. })),
        "oversized alias not rejected as ShadowExhausted",
    );

    // The machine degrades, not dies: failed syscalls charged trap cost
    // and the remap machinery still works within the remaining pool.
    check(
        m.syscall_failures() == 3,
        "failed syscalls not counted as 3",
    );
    m.load(a.start());
    let r = m.sys_remap_strided(a.start(), 8, 8, 16, 4096);
    check(r.is_ok(), "well-formed remap fails after recovered misuse");
    if let Ok(g) = r {
        m.load(g.alias.start());
    }

    let mut out = collect("misuse-probe", FaultScenario::Control, &faults, &m);
    out.violations.extend(violations);
    out
}

/// The full chaos grid: every workload × every fault scenario, plus the
/// syscall-misuse probe — in a deterministic submission order, each
/// paired with its stable case id (`<workload>/<scenario>`) and
/// returning the case's JSON.
pub(crate) fn chaos_jobs(seed: u64) -> Vec<(String, SharedJob<Json>)> {
    let mut jobs: Vec<(String, SharedJob<Json>)> = Vec::new();
    for w in ChaosWorkload::ALL {
        for s in FaultScenario::ALL {
            jobs.push((
                format!("{}/{}", w.name(), s.name()),
                Arc::new(move || case_json(&run_case(w, s, seed))),
            ));
        }
    }
    jobs.push((
        "misuse-probe".into(),
        Arc::new(move || case_json(&run_misuse_probe(seed))),
    ));
    jobs
}

/// Invariants only visible across the whole grid: recovery costs
/// cycles, so no fault scenario that actually paid recovery cycles may
/// beat its fault-free control, and the ECC schedule must actually have
/// fired on every workload. `None` if a case lacks a field read here
/// (a case's own fields are read before its control is looked up).
fn cross_case_violations(cases: &[Json]) -> Option<Vec<String>> {
    let at = |c: &Json, path: &str| path_sum(std::slice::from_ref(c), path);
    let control_name = Json::Str(FaultScenario::Control.name().into());
    let mut v = Vec::new();
    for c in cases {
        let (w, s) = (c.get("workload")?.as_str()?, c.get("scenario")?.as_str()?);
        let (cycles, corrected) = (at(c, "cycles")?, at(c, "ecc.corrected")?);
        let recovery = at(
            c,
            "ecc.recovery_cycles+bus.recovery_cycles+pgtbl.recovery_cycles",
        )?;
        let same_workload = |o: &&Json| o.get("workload") == c.get("workload");
        let Some(control) = cases
            .iter()
            .filter(same_workload)
            .find(|o| o.get("scenario") == Some(&control_name))
        else {
            v.push(format!("{w}: no fault-free control run"));
            continue;
        };
        let control = at(control, "cycles")?;
        if recovery > 0 && cycles < control {
            v.push(format!(
                "{w}/{s}: paid {recovery} recovery cycles yet beat its control ({cycles} < {control})"
            ));
        }
        if s == FaultScenario::DramEcc.name() && corrected == 0 {
            v.push(format!("{w}/{s}: ECC schedule never fired"));
        }
    }
    Some(v)
}

/// JSON for one chaos case — the only definition of its format.
fn case_json(o: &ChaosOutcome) -> Json {
    let mut c = Json::obj();
    c.set("workload", Json::Str(o.workload.clone()));
    c.set("scenario", Json::Str(o.scenario.clone()));
    c.set("cycles", Json::UInt(o.cycles));
    c.set("instructions", Json::UInt(o.instructions));

    let mut ecc = Json::obj();
    ecc.set("corrected", Json::UInt(o.ecc.corrected));
    ecc.set("detected_double", Json::UInt(o.ecc.detected_double));
    ecc.set("silent", Json::UInt(o.ecc.silent));
    ecc.set("corrupt_sig", Json::UInt(o.ecc.corrupt_sig));
    ecc.set("recovery_cycles", Json::UInt(o.ecc.recovery_cycles));
    c.set("ecc", ecc);

    let mut bus = Json::obj();
    bus.set("timeouts", Json::UInt(o.bus.timeouts));
    bus.set("retries", Json::UInt(o.bus.retries));
    bus.set("recovery_cycles", Json::UInt(o.bus.recovery_cycles));
    c.set("bus", bus);

    let mut pgtbl = Json::obj();
    pgtbl.set("corruptions", Json::UInt(o.pgtbl.corruptions));
    pgtbl.set("reloads", Json::UInt(o.pgtbl.reloads));
    pgtbl.set("recovery_cycles", Json::UInt(o.pgtbl.recovery_cycles));
    c.set("pgtbl", pgtbl);

    c.set("caps", caps_faults(&o.caps));

    c.set("remap_faults", Json::UInt(o.remap_faults));
    c.set("rejected_reads", Json::UInt(o.rejected_reads));
    c.set("rejected_writes", Json::UInt(o.rejected_writes));
    c.set("syscall_failures", Json::UInt(o.syscall_failures));
    c.set(
        "violations",
        Json::Arr(o.violations.iter().cloned().map(Json::Str).collect()),
    );
    c
}

/// `chaos.json` totals: each registered fault class's rollup in registry
/// order — the document schema and the storm mix share one source of
/// truth — then the degradation counters.
fn totals(cases: &[Json]) -> Option<Json> {
    let mut totals = Json::obj();
    for class in &FAULT_CLASSES {
        totals.set(class.key, rollup(cases, class.totals)?);
    }
    let degrade = rollup(
        cases,
        &[
            ("remap_faults", "remap_faults"),
            ("rejected_reads", "rejected_reads"),
            ("rejected_writes", "rejected_writes"),
            ("syscall_failures", "syscall_failures"),
        ],
    )?;
    totals.set("degrade", degrade);
    Some(totals)
}

/// One chaos suite, a row of [`SUITES`]: what differs between suites
/// that share the runner, the journal and the document frame.
pub struct Suite {
    /// Suite name, the prefix of its journal ids (`<suite>/<case>`).
    name: &'static str,
    /// Schema identifier of the suite's document.
    schema: &'static str,
    /// Document file name under the runner's output directory.
    pub file: &'static str,
    /// Every case with its case id, in submission order; each job
    /// returns the case's JSON.
    jobs: fn(u64) -> Vec<(String, SharedJob<Json>)>,
    /// The document's `totals`; `None` if a case lacks a field.
    totals: fn(&[Json]) -> Option<Json>,
    /// Cross-case invariants, if the suite has any.
    cross: Option<CrossCheck>,
}

/// A cross-case invariant check: the violations it finds, or `None` if
/// a case lacks a field it reads.
type CrossCheck = fn(&[Json]) -> Option<Vec<String>>;

/// The chaos suites, in run and report order: this fault-schedule grid,
/// the capability contention suite and the hybrid-tier suite.
pub const SUITES: [Suite; 3] = [
    Suite {
        name: "base",
        schema: "impulse-chaos-v1",
        file: "chaos.json",
        jobs: chaos_jobs,
        totals,
        cross: Some(cross_case_violations),
    },
    Suite {
        name: "caps",
        schema: "impulse-caps-chaos-v1",
        file: "chaos_caps.json",
        jobs: crate::caps_chaos::caps_chaos_jobs,
        totals: crate::caps_chaos::totals,
        cross: None,
    },
    Suite {
        name: "tier",
        schema: "impulse-tier-chaos-v1",
        file: "chaos_tier.json",
        jobs: crate::tier_chaos::tier_chaos_jobs,
        totals: crate::tier_chaos::totals,
        cross: None,
    },
];

/// Sums the unsigned field at a dotted `path` (`"ecc.corrected"`) over
/// `cases`; a `+`-joined path sums several fields. `None` if a case
/// lacks one.
pub(crate) fn path_sum(cases: &[Json], path: &str) -> Option<u64> {
    let mut total = 0u64;
    for c in cases {
        for p in path.split('+') {
            let v = p.split('.').try_fold(c, |v, key| v.get(key))?.as_u64()?;
            total = total.checked_add(v)?;
        }
    }
    Some(total)
}

/// An object with the [`path_sum`] over `cases` of each `(key, path)`.
pub(crate) fn rollup(cases: &[Json], fields: &[(&str, &str)]) -> Option<Json> {
    let mut o = Json::obj();
    for (key, path) in fields {
        o.set(key, Json::UInt(path_sum(cases, path)?));
    }
    Some(o)
}

/// Builds a suite's document from its case JSON: schema, seed, the
/// cases as given, totals, and the violations (per case, then
/// cross-case); `ok` is true iff there are none. `None` if a case lacks
/// a field the frame reads.
pub(crate) fn suite_document(suite: &Suite, seed: u64, cases: &[Json]) -> Option<Json> {
    let mut violations = Vec::new();
    for c in cases {
        let Json::Arr(items) = c.get("violations")? else {
            return None;
        };
        for v in items {
            violations.push(Json::Str(v.as_str()?.to_string()));
        }
    }
    if let Some(cross) = suite.cross {
        violations.extend(cross(cases)?.into_iter().map(Json::Str));
    }
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(suite.schema.into()));
    doc.set("seed", Json::UInt(seed));
    doc.set("cases", Json::Arr(cases.to_vec()));
    doc.set("totals", (suite.totals)(cases)?);
    let ok = violations.is_empty();
    doc.set("violations", Json::Arr(violations));
    doc.set("ok", Json::Bool(ok));
    Some(doc)
}

/// Every suite's jobs as one catalog, journal ids `<suite>/<case>`.
pub fn catalog(seed: u64) -> Vec<(String, SharedJob<Json>)> {
    let ids = |s: &'static Suite| {
        (s.jobs)(seed)
            .into_iter()
            .map(move |(id, job)| (format!("{}/{id}", s.name), job))
    };
    SUITES.iter().flat_map(ids).collect()
}

/// What the journal keeps of a finished case: its JSON (no CSV row).
pub fn artifacts(case: &Json) -> RunArtifacts {
    RunArtifacts {
        csv: String::new(),
        json: case.clone(),
    }
}

/// One suite's share of a finished run: its document, and the cases
/// left out of it as `(journal id, error)`.
pub struct SuiteRun {
    /// The suite's row in [`SUITES`].
    pub suite: &'static Suite,
    /// The suite's document.
    pub doc: Json,
    /// Cases that failed to run, or journaled cases that failed to decode.
    pub failures: Vec<(String, String)>,
}

/// Splits a [`catalog`] run's outcomes, as
/// [`run_resumable`](crate::journal::run_resumable) returns them, into
/// one document per suite. Journaled and fresh cases look the same
/// here, so a resumed run writes the same bytes. A case that failed to
/// run is left out, and so is a journaled case the frame cannot read
/// together with the cases before it (a missing field, or a total that
/// would overflow).
pub fn documents(seed: u64, outcomes: &[(String, Result<RunArtifacts, String>)]) -> Vec<SuiteRun> {
    let split = |suite: &'static Suite| {
        let mut doc = suite_document(suite, seed, &[]).expect("an empty suite has a document");
        let (mut cases, mut failures) = (Vec::new(), Vec::new());
        for (id, res) in outcomes
            .iter()
            .filter(|(id, _)| id.split('/').next() == Some(suite.name))
        {
            match res {
                Ok(a) => {
                    cases.push(a.json.clone());
                    match suite_document(suite, seed, &cases) {
                        Some(d) => doc = d,
                        None => {
                            cases.pop();
                            failures.push((id.clone(), "journaled case failed to decode".into()));
                        }
                    }
                }
                Err(e) => failures.push((id.clone(), e.clone())),
            }
        }
        SuiteRun {
            suite,
            doc,
            failures,
        }
    };
    SUITES.iter().map(split).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn ecc_scenario_corrects_all_singles_with_zero_data_diff() {
        let o = run_case(ChaosWorkload::Diagonal, FaultScenario::DramEcc, 1999);
        assert!(o.ecc.corrected > 0, "schedule fired");
        assert_eq!(o.ecc.detected_double, 0);
        assert_eq!(o.ecc.silent, 0);
        assert_eq!(o.ecc.corrupt_sig, 0, "corrected data is byte-identical");
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn no_ecc_scenario_shows_tracked_silent_corruption() {
        let o = run_case(ChaosWorkload::Smvp, FaultScenario::DramNoEcc, 7);
        assert!(o.ecc.silent > 0);
        assert_ne!(o.ecc.corrupt_sig, 0, "corruption leaves a signature");
        assert_eq!(o.ecc.recovery_cycles, 0, "no ECC, no datapath penalty");
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn caps_scenario_recovers_every_corruption() {
        for w in ChaosWorkload::ALL {
            let o = run_case(w, FaultScenario::Caps, 1999);
            assert!(o.violations.is_empty(), "{:?}", o.violations);
            assert!(
                o.caps.corruptions > 0,
                "the caps preamble must give the injector validations to hit"
            );
            assert_eq!(o.caps.reloads, o.caps.corruptions);
            assert_eq!(o.caps.unrecoverable, 0);
            assert_eq!(o.ecc.corrupt_sig, 0, "caps faults never touch data");
        }
    }

    #[test]
    fn storm_keeps_every_bound() {
        for w in ChaosWorkload::ALL {
            let o = run_case(w, FaultScenario::Storm, 0xC4A05);
            assert!(o.violations.is_empty(), "{:?}", o.violations);
        }
    }

    #[test]
    fn misuse_probe_reports_typed_errors_and_recovers() {
        let o = run_misuse_probe(1999);
        assert_eq!(o.syscall_failures, 3);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn registry_covers_grid_storm_and_document() {
        // Every registered class contributes knobs to the storm mix...
        let quiet = FaultConfig::none();
        for class in &FAULT_CLASSES {
            let mut f = FaultConfig::none();
            (class.storm)(&mut f);
            assert!(
                format!("{f:?}") != format!("{quiet:?}"),
                "{} contributes nothing to the storm",
                class.key
            );
            // ...names at least one dedicated scenario in the grid...
            assert!(
                !class.scenarios.is_empty(),
                "{} has no dedicated scenario",
                class.key
            );
            for s in class.scenarios {
                assert!(FaultScenario::ALL.contains(s), "{} not in grid", s.name());
            }
        }
        // ...and owns a totals section in the emitted document.
        let doc = suite_document(&SUITES[0], 1, &[]).expect("empty grid");
        let totals = doc.get("totals").expect("totals section");
        for class in &FAULT_CLASSES {
            let section = totals.get(class.key);
            assert!(section.is_some(), "totals missing `{}`", class.key);
            for (key, _) in class.totals {
                assert_eq!(section.and_then(|t| t.get(key)), Some(&Json::UInt(0)));
            }
        }
    }

    #[test]
    fn every_suite_is_deterministic_across_worker_counts() {
        let run = |workers| {
            let (ids, jobs): (Vec<_>, Vec<_>) = catalog(1999).into_iter().unzip();
            let cases =
                runner::run_ordered(jobs.into_iter().map(|j| move || j()).collect(), workers);
            let outcomes: Vec<_> = ids
                .into_iter()
                .zip(&cases)
                .map(|(id, c)| (id, Ok(artifacts(c))))
                .collect();
            documents(1999, &outcomes)
                .iter()
                .map(|r| format!("{:#}\n", r.doc))
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel, "documents must not depend on workers");
        for (suite, doc) in SUITES.iter().zip(&serial) {
            assert!(doc.contains(suite.schema));
            assert!(
                doc.contains("\"ok\": true"),
                "{} is violation-free",
                suite.name
            );
        }
    }
}
