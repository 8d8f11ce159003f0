//! Untraced cell runs, their correctness checks, and the simulated
//! counts summed over a workload.

use std::collections::HashMap;
use std::time::Instant;

use impulse_core::TierStats;
use impulse_obs::{Json, Stage};
use impulse_sim::{Machine, Report};

use crate::cells::Cell;

/// Host time of one cell's phases, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// `Machine::new`.
    pub boot_ns: u64,
    /// `<Workload>::setup` (plus the catalog's post-setup stats reset).
    pub setup_ns: u64,
    /// The measured phase.
    pub run_ns: u64,
    /// `Machine::report` plus its JSON serialisation.
    pub report_ns: u64,
    /// Demand accesses the measured phase issued.
    pub run_accesses: u64,
}

impl Timing {
    /// Boot, setup, run and report together.
    pub fn wall_ns(&self) -> u64 {
        self.boot_ns + self.setup_ns + self.run_ns + self.report_ns
    }
}

/// What one untraced cell run produced.
pub struct Outcome {
    /// Host time per phase.
    pub timing: Timing,
    /// The simulated report.
    pub report: Report,
    /// The report's JSON text.
    pub json: String,
    /// Tier-engine counters (not part of the report).
    pub tier: TierStats,
}

/// An untraced run, optionally keeping a clone of the post-setup
/// machine for the layer re-drives.
pub struct Untraced {
    /// The run's timings and report.
    pub outcome: Outcome,
    /// The machine between setup and the measured phase.
    pub pre: Option<Machine>,
    /// The machine after the measured phase.
    pub post: Machine,
}

/// Demand accesses issued so far in the machine's epoch.
pub fn accesses(m: &Machine) -> u64 {
    let s = m.memory().stats();
    s.loads + s.stores
}

fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Boots, sets up, runs and reports one cell with tracing off. The
/// post-setup clone (when `keep_pre`) is taken outside every timed span.
pub fn run_untraced(cell: &Cell, keep_pre: bool) -> Untraced {
    let t0 = Instant::now();
    let mut m = Machine::new(&cell.cfg);
    let t1 = Instant::now();
    let mut phase = cell.setup(&mut m);
    let t2 = Instant::now();
    let pre = keep_pre.then(|| m.clone());
    let before = accesses(&m);
    let t3 = Instant::now();
    phase(&mut m);
    let t4 = Instant::now();
    let report = m.report(cell.name.clone());
    let json = report.to_json().to_string();
    let t5 = Instant::now();
    let timing = Timing {
        boot_ns: ns(t0, t1),
        setup_ns: ns(t1, t2),
        run_ns: ns(t3, t4),
        report_ns: ns(t4, t5),
        run_accesses: accesses(&m) - before,
    };
    let tier = m.memory().mc().tier_stats();
    Untraced {
        outcome: Outcome {
            timing,
            report,
            json,
            tier,
        },
        pre,
        post: m,
    }
}

/// Every simulated count of a report, as one comparable string. Leaves
/// out the observability counters (`mc.flight.*`), which exist only
/// when recording is on, so a traced and an untraced run compare equal
/// exactly when their simulations agree.
pub fn sim_signature(r: &Report) -> String {
    let attr: Vec<u64> = r.attr.entries().map(|(_, c)| c).collect();
    format!(
        "{} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.cycles,
        r.instructions,
        r.syscall_cycles,
        r.mem,
        r.l1,
        r.l2,
        r.tlb,
        r.bus,
        r.dram,
        r.mc,
        r.pf,
        r.desc,
        r.pgtbl,
        attr
    )
}

/// The committed catalog results (`results/run_all.json`) the cells are
/// checked against.
pub struct Reference {
    seed: u64,
    reports: HashMap<String, String>,
}

fn normalize(text: &str) -> Result<String, String> {
    Json::parse(text).map(|j| j.to_string())
}

impl Reference {
    /// Loads and normalises the committed results document.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is missing or malformed.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: no seed"))?;
        let mut reports = HashMap::new();
        for r in doc.get("reports").and_then(Json::items).unwrap_or(&[]) {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: report without a name"))?;
            reports.insert(name.to_string(), r.to_string());
        }
        Ok(Self { seed, reports })
    }

    /// Whether the committed document holds a report named `name`.
    pub fn has(&self, name: &str) -> bool {
        self.reports.contains_key(name)
    }

    /// The seed the committed document was made with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The committed report a cell must reproduce at `seed`: every cell
    /// at the document's own seed, and the cells whose inputs ignore the
    /// seed at any seed.
    fn expected(&self, cell: &Cell, seed: u64) -> Option<&str> {
        if cell.seeded && seed != self.seed {
            return None;
        }
        self.reports.get(&cell.name).map(String::as_str)
    }
}

/// Checks one cell run: attribution stages sum to the demand cycles,
/// the report equals the committed one where the seed allows, and it
/// equals the first pass's report (`first`) byte for byte.
///
/// # Errors
///
/// Returns what was wrong.
pub fn check(
    cell: &Cell,
    out: &Outcome,
    seed: u64,
    reference: &Reference,
    first: Option<&str>,
) -> Result<(), String> {
    let r = &out.report;
    let demand = r.mem.load_cycles + r.mem.store_cycles;
    if r.attr.total() != demand {
        return Err(format!(
            "{}: attribution sums to {} but demand cycles are {demand}",
            cell.name,
            r.attr.total()
        ));
    }
    if let Some(want) = reference.expected(cell, seed) {
        if normalize(&out.json)? != want {
            return Err(format!(
                "{}: report differs from results/run_all.json",
                cell.name
            ));
        }
    }
    if let Some(first) = first {
        if first != out.json {
            return Err(format!("{}: report differs from the first pass", cell.name));
        }
    }
    Ok(())
}

/// Simulated counts summed over a workload's cells. They repeat
/// exactly from run to run; only a model change moves them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    accesses: u64,
    cycles: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    tlb: (u64, u64),
    mc_line_reads: u64,
    mc_shadow_reads: u64,
    desc_buffer: (u64, u64),
    pf_useful: (u64, u64),
    pgtbl: (u64, u64),
    dram_accesses: u64,
    dram_rows: (u64, u64),
    dram_bank_wait: u64,
    tier_hits: (u64, u64),
    tier_writebacks: u64,
    tier_fill_hits: (u64, u64),
    tier_flat_scm: (u64, u64),
    attr: [u64; 8],
}

/// `num / den`, or `None` when the workload never reaches the counter.
fn ratio((num, den): (u64, u64)) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

impl SimCounts {
    /// Adds one cell's report and tier counters.
    pub fn add(&mut self, r: &Report, tier: &TierStats) {
        self.accesses += r.mem.loads + r.mem.stores;
        self.cycles += r.cycles;
        self.l1.0 += r.l1.load_hits;
        self.l1.1 += r.l1.loads;
        self.l2.0 += r.l2.load_hits;
        self.l2.1 += r.l2.loads;
        self.tlb.0 += r.tlb.hits;
        self.tlb.1 += r.tlb.lookups;
        self.mc_line_reads += r.mc.line_reads;
        self.mc_shadow_reads += r.mc.shadow_line_reads;
        self.desc_buffer.0 += r.desc.buffer_hits;
        self.desc_buffer.1 += r.desc.reads;
        self.pf_useful.0 += r.pf.hits;
        self.pf_useful.1 += r.pf.issued;
        self.pgtbl.0 += r.pgtbl.tlb_hits;
        self.pgtbl.1 += r.pgtbl.lookups;
        self.dram_accesses += r.dram.reads + r.dram.writes;
        self.dram_rows.0 += r.dram.row_hits;
        self.dram_rows.1 += r.dram.row_hits + r.dram.row_misses;
        self.dram_bank_wait += r.dram.bank_wait;
        self.tier_hits.0 += tier.dram_hits;
        self.tier_hits.1 += tier.dram_hits + tier.dram_misses;
        self.tier_writebacks += tier.writebacks;
        self.tier_fill_hits.0 += tier.fill_hits;
        self.tier_fill_hits.1 += tier.fill_hits + tier.fill_loads;
        self.tier_flat_scm.0 += tier.flat_scm;
        self.tier_flat_scm.1 += tier.flat_dram + tier.flat_scm;
        for (slot, stage) in self.attr.iter_mut().zip(Stage::ALL) {
            *slot += r.attr.get(stage);
        }
    }

    /// The counts as `(metric name, unit, value)` triples; a ratio over
    /// no events is `None`.
    pub fn metrics(&self) -> Vec<(String, &'static str, Option<f64>)> {
        let mut out = vec![
            (
                "sim.accesses".to_string(),
                "count",
                Some(self.accesses as f64),
            ),
            ("sim.cycles".to_string(), "cycles", Some(self.cycles as f64)),
            ("cache.l1.hit_ratio".to_string(), "frac", ratio(self.l1)),
            ("cache.l2.hit_ratio".to_string(), "frac", ratio(self.l2)),
            ("cache.tlb.hit_ratio".to_string(), "frac", ratio(self.tlb)),
            (
                "core.mc.line_reads".to_string(),
                "count",
                Some(self.mc_line_reads as f64),
            ),
            (
                "core.mc.shadow_reads".to_string(),
                "count",
                Some(self.mc_shadow_reads as f64),
            ),
            (
                "core.mc.reads".to_string(),
                "count",
                Some((self.mc_line_reads + self.mc_shadow_reads) as f64),
            ),
            (
                "core.desc.buffer_hit_ratio".to_string(),
                "frac",
                ratio(self.desc_buffer),
            ),
            (
                "core.pf.useful_ratio".to_string(),
                "frac",
                ratio(self.pf_useful),
            ),
            (
                "core.pgtbl.hit_ratio".to_string(),
                "frac",
                ratio(self.pgtbl),
            ),
            (
                "dram.accesses".to_string(),
                "count",
                Some(self.dram_accesses as f64),
            ),
            (
                "dram.row_hit_ratio".to_string(),
                "frac",
                ratio(self.dram_rows),
            ),
            (
                "dram.bank_wait_cycles".to_string(),
                "cycles",
                Some(self.dram_bank_wait as f64),
            ),
            (
                "core.tier.dram_hit_ratio".to_string(),
                "frac",
                ratio(self.tier_hits),
            ),
            (
                "core.tier.writebacks".to_string(),
                "count",
                Some(self.tier_writebacks as f64),
            ),
            (
                "core.tier.fill_hit_ratio".to_string(),
                "frac",
                ratio(self.tier_fill_hits),
            ),
            (
                "core.tier.flat_scm_frac".to_string(),
                "frac",
                ratio(self.tier_flat_scm),
            ),
        ];
        let total: u64 = self.attr.iter().sum();
        for (stage, &cycles) in Stage::ALL.iter().zip(&self.attr) {
            out.push((
                format!("sim.attr.{}_frac", stage.name()),
                "frac",
                ratio((cycles, total)),
            ));
        }
        out
    }
}
