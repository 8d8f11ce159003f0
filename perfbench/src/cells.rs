//! The 28 `run_all` catalog cells, split into a setup step and a
//! measured phase, and grouped into the benchmark's four workloads.
//!
//! Every cell is built from the public `impulse-workloads` API with the
//! parameters the catalog in `crates/bench/src/experiments.rs` uses. The
//! catalog's drive closures run setup and the measured phase as one
//! call; here [`Cell::setup`] returns the measured phase as a separate
//! closure so the two can be timed apart. Whether the split cells match
//! the catalog is checked at run time: their reports must equal the
//! committed `results/run_all.json` entries.

use std::sync::Arc;

use impulse_sim::{Machine, SystemConfig};
use impulse_types::TierPolicy;
use impulse_workloads::{
    ChannelFilter, DbScan, DbVariant, Diagonal, DiagonalVariant, IpcGather, IpcVariant, Lu,
    LuVariant, MediaVariant, Mmp, MmpParams, MmpVariant, Smvp, SmvpVariant, SparsePattern,
    TlbStress, TlbVariant, Transpose, TransposeVariant,
};

/// The default input seed (equal to the catalog's `DEFAULT_SEED`).
pub const DEFAULT_SEED: u64 = 0x00c9_a15e;

/// The benchmark's workloads: disjoint subsets of the catalog that
/// between them use every cell once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CPU loop, L1 and per-access accounting; almost nothing reaches
    /// the controller.
    L1Dense,
    /// Impulse-remapped cells: shadow reads, AddrCalc, PgTbl, descriptor
    /// buffers and gather merge.
    McGather,
    /// The conventional counterparts: plain line reads, L2 and TLB
    /// misses, OS page tables; no gathers.
    MissStream,
    /// The hybrid DRAM/SCM cells: tier engine, SCM timing, writebacks.
    TierScm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::L1Dense,
        Workload::McGather,
        Workload::MissStream,
        Workload::TierScm,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::L1Dense => "l1-dense",
            Workload::McGather => "mc-gather",
            Workload::MissStream => "miss-stream",
            Workload::TierScm => "tier-scm",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A cell's measured phase, returned by its setup.
pub type Phase = Box<dyn FnMut(&mut Machine)>;

type Setup = Box<dyn Fn(&mut Machine) -> Phase>;

/// One catalog cell.
pub struct Cell {
    /// The catalog name (`table1/...`, `tier/...`).
    pub name: String,
    /// The configuration the machine boots from.
    pub cfg: SystemConfig,
    /// The workload this cell belongs to.
    pub workload: Workload,
    /// Whether the cell's inputs depend on the seed.
    pub seeded: bool,
    /// Whether the catalog resets statistics between setup and run.
    reset_after_setup: bool,
    setup: Setup,
}

impl Cell {
    fn new(
        name: String,
        cfg: SystemConfig,
        workload: Workload,
        reset_after_setup: bool,
        setup: impl Fn(&mut Machine) -> Phase + 'static,
    ) -> Self {
        Self {
            name,
            cfg,
            workload,
            seeded: false,
            reset_after_setup,
            setup: Box::new(setup),
        }
    }

    fn seeded(mut self) -> Self {
        self.seeded = true;
        self
    }

    /// Sets the workload up on a freshly booted machine (resetting the
    /// statistics where the catalog does) and returns the measured phase.
    pub fn setup(&self, m: &mut Machine) -> Phase {
        let phase = (self.setup)(m);
        if self.reset_after_setup {
            m.reset_stats();
        }
        phase
    }
}

/// Every catalog cell, in the catalog's order. `seed` feeds the table-1
/// sparse pattern directly and the database scan's key salt via XOR,
/// as in the catalog.
pub fn all_cells(seed: u64) -> Vec<Cell> {
    use Workload::*;
    let mut out = Vec::new();

    let pattern = Arc::new(SparsePattern::generate(14_000, 24, seed));
    for (variant, mc_pf, l1_pf) in [
        (SmvpVariant::Conventional, false, false),
        (SmvpVariant::Conventional, true, true),
        (SmvpVariant::ScatterGather, false, false),
        (SmvpVariant::ScatterGather, true, false),
        (SmvpVariant::ScatterGather, true, true),
        (SmvpVariant::Recolored, false, false),
        (SmvpVariant::Recolored, true, true),
    ] {
        let pattern = pattern.clone();
        let workload = if variant == SmvpVariant::Conventional {
            MissStream
        } else {
            McGather
        };
        out.push(
            Cell::new(
                format!("table1/{}/mc={mc_pf}/l1={l1_pf}", variant.name()),
                SystemConfig::paint().with_prefetch(mc_pf, l1_pf),
                workload,
                false,
                move |m| {
                    let w = Smvp::setup(m, pattern.clone(), variant).expect("smvp");
                    Box::new(move |m| w.run(m, 1))
                },
            )
            .seeded(),
        );
    }

    for variant in MmpVariant::ALL {
        out.push(Cell::new(
            format!("table2/{}", variant.name()),
            SystemConfig::paint(),
            L1Dense,
            false,
            move |m| {
                let mut w = Mmp::setup(m, MmpParams { n: 192, tile: 32 }, variant).expect("mmp");
                Box::new(move |m| w.run(m).expect("mmp run"))
            },
        ));
    }

    for variant in [LuVariant::Conventional, LuVariant::TileRemap] {
        out.push(Cell::new(
            format!("lu/{}", variant.name()),
            SystemConfig::paint(),
            L1Dense,
            false,
            move |m| {
                let mut w = Lu::setup(m, 128, 32, variant).expect("lu");
                Box::new(move |m| w.run(m).expect("lu run"))
            },
        ));
    }

    for (variant, workload) in [
        (DiagonalVariant::Conventional, MissStream),
        (DiagonalVariant::Remapped, McGather),
    ] {
        out.push(Cell::new(
            format!("fig1/{}", variant.name()),
            SystemConfig::paint(),
            workload,
            true,
            move |m| {
                let d = Diagonal::setup(m, 2048, variant).expect("diag");
                Box::new(move |m| d.run(m, 4))
            },
        ));
    }

    for (variant, workload) in [
        (TransposeVariant::Conventional, MissStream),
        (TransposeVariant::Remapped, McGather),
    ] {
        out.push(Cell::new(
            format!("transpose/{}", variant.name()),
            SystemConfig::paint(),
            workload,
            true,
            move |m| {
                let w = Transpose::setup(m, 512, variant).expect("transpose");
                Box::new(move |m| w.column_reduce(m))
            },
        ));
    }

    for (variant, workload) in [
        (TlbVariant::BasePages, MissStream),
        (TlbVariant::Superpages, McGather),
    ] {
        out.push(Cell::new(
            format!("superpage/{}", variant.name()),
            SystemConfig::paint(),
            workload,
            true,
            move |m| {
                let w = TlbStress::setup(m, 8, 64, variant).expect("tlb");
                Box::new(move |m| w.sweep(m, 8))
            },
        ));
    }

    for (variant, workload) in [
        (DbVariant::Conventional, MissStream),
        (DbVariant::ImpulseGather, McGather),
    ] {
        out.push(
            Cell::new(
                format!("dbscan/{}", variant.name()),
                SystemConfig::paint().with_prefetch(true, false),
                workload,
                true,
                move |m| {
                    let w =
                        DbScan::setup(m, 1 << 18, 64, 1 << 16, seed ^ 0xdb, variant).expect("db");
                    Box::new(move |m| w.fetch(m))
                },
            )
            .seeded(),
        );
    }

    for (variant, workload) in [
        (MediaVariant::Conventional, MissStream),
        (MediaVariant::ChannelRemap, McGather),
    ] {
        out.push(Cell::new(
            format!("media/{}", variant.name()),
            SystemConfig::paint().with_prefetch(true, false),
            workload,
            true,
            move |m| {
                let w = ChannelFilter::setup(m, 1 << 20, 3, variant).expect("media");
                Box::new(move |m| w.filter(m))
            },
        ));
    }

    for (variant, workload) in [
        (IpcVariant::SoftwareGather, L1Dense),
        (IpcVariant::ImpulseGather, McGather),
    ] {
        out.push(Cell::new(
            format!("ipc/{}", variant.name()),
            SystemConfig::paint(),
            workload,
            true,
            move |m| {
                let w = IpcGather::setup(m, 8, 4096, 64, variant).expect("ipc");
                Box::new(move |m| {
                    for _ in 0..64 {
                        w.send(m);
                    }
                })
            },
        ));
    }

    for policy in TierPolicy::ALL {
        out.push(Cell::new(
            format!("tier/{}/transpose", policy.name()),
            SystemConfig::paint_small().with_tier(policy),
            TierScm,
            true,
            move |m| {
                let w = Transpose::setup(m, 512, TransposeVariant::Remapped).expect("transpose");
                Box::new(move |m| w.column_reduce(m))
            },
        ));
    }
    out.push(
        Cell::new(
            "tier/cache/dbscan-gather".to_string(),
            SystemConfig::paint_small()
                .with_prefetch(true, false)
                .with_tier(TierPolicy::Cache),
            TierScm,
            true,
            move |m| {
                let w = DbScan::setup(
                    m,
                    1 << 18,
                    64,
                    1 << 16,
                    seed ^ 0xdb,
                    DbVariant::ImpulseGather,
                )
                .expect("db");
                Box::new(move |m| w.fetch(m))
            },
        )
        .seeded(),
    );

    out
}

/// The cells of one workload, in catalog order.
pub fn cells_for(workload: Workload, seed: u64) -> Vec<Cell> {
    all_cells(seed)
        .into_iter()
        .filter(|c| c.workload == workload)
        .collect()
}
