//! The traced run and the layer re-drives.
//!
//! A traced run attaches a bounded [`Tracer`] to the measured phase and
//! turns on the controller's flight recorder. The captured streams are
//! then fed, through each layer's public functions, into clones of the
//! components as they stood after setup, and each layer is timed from
//! outside:
//!
//! | layer          | called                              | fidelity rule                          |
//! |----------------|-------------------------------------|----------------------------------------|
//! | `sim.memsys`   | `MemorySystem::load` / `store`      | every completion equals `at + latency` |
//! | `cache.l1`     | `Cache::access`                     | hit/miss counts equal the memsys run's |
//! | `cache.tlb`    | `Tlb::lookup` / `insert`            | TLB counters equal the memsys run's    |
//! | `os.translate` | `Kernel::translate`                 | every bus address equals the trace's   |
//! | `core.mc`      | `MemController::read_line` / `write_line` | controller, prefetch, descriptor, page-table, tier and DRAM counters equal the real run's |
//! | `dram`         | `Dram::access` on direct lines      | DRAM counters equal the real run's     |
//!
//! A layer that breaks its rule on a cell (for instance because the
//! measured phase issues remap system calls the stream does not carry)
//! contributes nothing for that cell, and the reason is kept. The L1 and
//! TLB are checked against the memory system re-drive's own L1 and TLB,
//! which went through exactly the real sequence whenever the memory
//! system re-drive was faithful; so they need a faithful memory system.

use std::hint::black_box;
use std::time::Instant;

use impulse_core::{FlightEvent, HitClass, MemController};
use impulse_sim::{Machine, MemorySystem, TraceEvent, Tracer};
use impulse_types::{AccessKind, MAddr, PAddr};

use crate::cells::Cell;
use crate::run::{accesses, sim_signature};

/// Demand accesses the tracer keeps per cell (a prefix of the measured
/// phase; 40 bytes each).
pub const TRACE_CAPACITY: usize = 1 << 21;

/// Controller transactions the flight ring keeps per cell.
pub const FLIGHT_CAPACITY: usize = 1 << 20;

/// The re-driven layers, in reporting order.
pub const LAYERS: [&str; 6] = [
    "sim.memsys",
    "cache.l1",
    "cache.tlb",
    "os.translate",
    "core.mc",
    "dram",
];

/// The layers the memory system calls into, in the order of
/// [`Traced::below`].
pub const BELOW: [&str; 3] = ["cache.l1", "cache.tlb", "core.mc"];

/// One layer's re-drive over one cell.
#[derive(Clone, Debug, Default)]
pub struct LayerCell {
    /// Calls made into the layer (0 when the re-drive was not faithful).
    pub calls: u64,
    /// The part of `real_calls` the re-drive reproduced.
    pub covered: u64,
    /// Host nanoseconds those calls took.
    pub ns: u64,
    /// Calls the real measured phase made at this layer's boundary (the
    /// coverage denominator).
    pub real_calls: u64,
    /// Why the layer reports nothing for this cell.
    pub unfaithful: Option<String>,
}

/// What a traced run of one cell produced.
pub struct Traced {
    /// Host nanoseconds of the traced measured phase.
    pub run_ns: u64,
    /// Accesses captured by the tracer.
    pub traced: u64,
    /// One entry per [`LAYERS`] element.
    pub layers: Vec<LayerCell>,
    /// Calls the memory-system re-drive made into each of [`BELOW`]
    /// (zeros when it was not faithful).
    pub below: [u64; 3],
}

fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn faithful(calls: u64, covered: u64, ns: u64, real_calls: u64) -> LayerCell {
    LayerCell {
        calls,
        covered,
        ns,
        real_calls,
        unfaithful: None,
    }
}

fn unfaithful(real_calls: u64, why: String) -> LayerCell {
    LayerCell {
        real_calls,
        unfaithful: Some(why),
        ..LayerCell::default()
    }
}

/// Runs `cell` traced and re-drives every layer. `pre` is the untraced
/// machine after setup and `post` the same machine after its measured
/// phase; the traced run must reproduce `post`'s report exactly.
///
/// # Errors
///
/// Returns a message when the traced run's simulated counts differ from
/// the untraced run's.
pub fn trace_cell(cell: &Cell, pre: &Machine, post: &Machine) -> Result<Traced, String> {
    let mut m = Machine::new(&cell.cfg.clone().with_flight(FLIGHT_CAPACITY));
    let mut phase = cell.setup(&mut m);
    let flight_before = m.memory().mc().flight().map_or(0, |f| f.recorded());
    let before = accesses(&m);
    m.attach_tracer(Tracer::new(TRACE_CAPACITY));
    let t = Instant::now();
    phase(&mut m);
    let run_ns = since(t);
    let tracer = m.take_tracer().expect("tracer attached above");
    let run_accesses = accesses(&m) - before;
    let report = m.report(cell.name.clone());
    if sim_signature(&report) != sim_signature(&post.report(cell.name.clone())) {
        return Err(format!(
            "{}: traced run differs from the untraced run",
            cell.name
        ));
    }
    let flight = m.memory().mc().flight().expect("flight recording on");
    let measured = usize::try_from(flight.recorded() - flight_before).unwrap_or(usize::MAX);
    let ring = flight.events();
    let mc_events = (measured <= ring.len()).then(|| &ring[ring.len() - measured..]);

    let events = tracer.events();
    let kernel = pre.kernel();
    let spans: Vec<(u64, u64)> = events
        .iter()
        .map(|e| kernel.tlb_span(e.vaddr.page_number()))
        .collect();
    let (memsys, ms_after) = redrive_memsys(pre, events, &spans, run_accesses);
    let below = ms_after
        .as_ref()
        .map_or([0; 3], |after| calls_below(pre.memory(), after));
    let layers = vec![
        memsys,
        redrive_l1(pre, ms_after.as_ref(), events, run_accesses),
        redrive_tlb(pre, ms_after.as_ref(), events, &spans, run_accesses),
        redrive_translate(pre, events, run_accesses),
        redrive_mc(pre, post, mc_events, measured),
        redrive_dram(pre, post, mc_events),
    ];
    Ok(Traced {
        run_ns,
        traced: events.len() as u64,
        layers,
        below,
    })
}

/// Calls a memory system made into each of [`BELOW`] between `before`
/// and `after`.
fn calls_below(before: &MemorySystem, after: &MemorySystem) -> [u64; 3] {
    let l1 = |m: &MemorySystem| m.l1().stats().loads + m.l1().stats().stores;
    let tlb = |m: &MemorySystem| m.tlb().stats().lookups + m.tlb().stats().inserts;
    let mc = |m: &MemorySystem| {
        let s = m.mc().stats();
        s.line_reads
            + s.line_writes
            + s.shadow_line_reads
            + s.shadow_line_writes
            + s.rejected_reads
            + s.rejected_writes
    };
    [
        l1(after) - l1(before),
        tlb(after) - tlb(before),
        mc(after) - mc(before),
    ]
}

fn redrive_memsys(
    pre: &Machine,
    events: &[TraceEvent],
    spans: &[(u64, u64)],
    real: u64,
) -> (LayerCell, Option<MemorySystem>) {
    let mut ms = pre.memory().clone();
    let mut wrong = 0u64;
    let t = Instant::now();
    for (e, &span) in events.iter().zip(spans) {
        let done = match e.kind {
            AccessKind::Load => ms.load(e.vaddr, e.paddr, span, e.at),
            AccessKind::Store => ms.store(e.vaddr, e.paddr, span, e.at),
        };
        wrong += u64::from(done != e.at + e.latency);
    }
    let ns = since(t);
    if wrong > 0 {
        let why = format!("{wrong} of {} completions differ", events.len());
        return (unfaithful(real, why), None);
    }
    (
        faithful(events.len() as u64, events.len() as u64, ns, real),
        Some(ms),
    )
}

fn redrive_l1(
    pre: &Machine,
    reference: Option<&MemorySystem>,
    events: &[TraceEvent],
    real: u64,
) -> LayerCell {
    let Some(reference) = reference else {
        return unfaithful(real, "no faithful memory-system reference".into());
    };
    let mut l1 = pre.memory().l1().clone();
    let t = Instant::now();
    for e in events {
        black_box(l1.access(e.vaddr, e.paddr, e.kind));
    }
    let ns = since(t);
    let (got, want) = (l1.stats(), reference.l1().stats());
    let key = |s: impulse_cache::CacheStats| (s.loads, s.load_hits, s.stores, s.store_hits);
    if key(got) != key(want) {
        return unfaithful(
            real,
            format!("hits/misses {:?} != {:?}", key(got), key(want)),
        );
    }
    faithful(events.len() as u64, events.len() as u64, ns, real)
}

fn redrive_tlb(
    pre: &Machine,
    reference: Option<&MemorySystem>,
    events: &[TraceEvent],
    spans: &[(u64, u64)],
    real: u64,
) -> LayerCell {
    let Some(reference) = reference else {
        return unfaithful(real, "no faithful memory-system reference".into());
    };
    let mut tlb = pre.memory().tlb().clone();
    let before = tlb.stats();
    let t = Instant::now();
    for (e, &(base, span)) in events.iter().zip(spans) {
        if !tlb.lookup(e.vaddr.page_number()) {
            tlb.insert(base, span);
        }
    }
    let ns = since(t);
    let (got, want) = (tlb.stats(), reference.tlb().stats());
    if got != want {
        return unfaithful(real, format!("counters {got:?} != {want:?}"));
    }
    let calls = (got.lookups - before.lookups) + (got.inserts - before.inserts);
    faithful(calls, events.len() as u64, ns, real)
}

fn redrive_translate(pre: &Machine, events: &[TraceEvent], real: u64) -> LayerCell {
    let kernel = pre.kernel();
    let mut wrong = 0u64;
    let t = Instant::now();
    for e in events {
        wrong += u64::from(kernel.translate(e.vaddr).ok() != Some(e.paddr));
    }
    let ns = since(t);
    if wrong > 0 {
        let why = format!("{wrong} of {} translations differ", events.len());
        return unfaithful(real, why);
    }
    faithful(events.len() as u64, events.len() as u64, ns, real)
}

fn mc_signature(mc: &MemController) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        mc.stats(),
        mc.prefetch_stats(),
        mc.desc_stats(),
        mc.pgtbl_stats(),
        mc.tier_stats(),
        mc.dram().stats()
    )
}

fn redrive_mc(
    pre: &Machine,
    post: &Machine,
    events: Option<&[FlightEvent]>,
    real: usize,
) -> LayerCell {
    let real = real as u64;
    let Some(events) = events else {
        return unfaithful(real, "flight ring overflowed".into());
    };
    let mut mc = pre.memory().mc().clone();
    let t = Instant::now();
    for e in events {
        let p = PAddr::new(e.line);
        black_box(match e.class {
            HitClass::StoreDirect | HitClass::StoreShadow | HitClass::NackWrite => {
                mc.write_line(p, e.cycle)
            }
            _ => mc.read_line(p, e.cycle),
        });
    }
    let ns = since(t);
    if mc_signature(&mc) != mc_signature(post.memory().mc()) {
        return unfaithful(real, "controller counters differ".into());
    }
    faithful(events.len() as u64, events.len() as u64, ns, real)
}

fn redrive_dram(pre: &Machine, post: &Machine, events: Option<&[FlightEvent]>) -> LayerCell {
    let want = post.memory().mc().dram().stats();
    let start = pre.memory().mc().dram().stats();
    let real = (want.reads + want.writes) - (start.reads + start.writes);
    let Some(events) = events else {
        return unfaithful(real, "flight ring overflowed".into());
    };
    let cfg = post.memory().mc().config();
    let (line_bytes, overhead) = (cfg.line_bytes, cfg.t_overhead);
    let calls: Vec<(MAddr, AccessKind, u64)> = events
        .iter()
        .filter_map(|e| {
            let kind = match e.class {
                HitClass::DirectDram => AccessKind::Load,
                HitClass::StoreDirect => AccessKind::Store,
                _ => return None,
            };
            Some((MAddr::new(e.line), kind, e.cycle + overhead))
        })
        .collect();
    let mut dram = pre.memory().mc().dram().clone();
    let t = Instant::now();
    for &(addr, kind, at) in &calls {
        black_box(dram.access(addr, kind, line_bytes, at));
    }
    let ns = since(t);
    if dram.stats() != want {
        return unfaithful(
            real,
            "controller traffic other than direct lines reaches DRAM".into(),
        );
    }
    faithful(calls.len() as u64, calls.len() as u64, ns, real)
}
