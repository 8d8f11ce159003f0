//! Randomized property tests over the core data structures.
//!
//! These were originally written against an external property-testing
//! framework; the workspace is built fully offline, so they now run on a
//! small in-file harness: a seeded splitmix64 generator drives `CASES`
//! random instances of each property, and a failing case prints the seed
//! so it can be replayed by fixing `BASE_SEED`.

use std::collections::HashMap;
use std::sync::Arc;

use impulse::cache::{
    Cache, CacheConfig, Indexing, Outcome, Replacement, Tlb, TlbConfig, TlbStats,
};
use impulse::core::{McError, PgTbl, PgTblConfig, PgTblStats, RemapFn, Segment};
use impulse::dram::{Dram, DramConfig, SchedulePolicy, Scheduler};
use impulse::fault::{FaultPlan, PgTblInjector, Trigger};
use impulse::os::{AllocPolicy, PhysMem};
use impulse::types::geom::{PAGE_SHIFT, PAGE_SIZE};
use impulse::types::snap::{SnapReader, SnapWriter};
use impulse::types::{AccessKind, Cycle, MAddr, PAddr, PvAddr, VAddr};

/// Cases per property.
const CASES: u64 = 64;
/// Change to replay a reported failure seed.
const BASE_SEED: u64 = 0x0049_6d70_756c_7365; // "Impulse"

/// Deterministic splitmix64 generator for test inputs.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi` exclusive).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + ((self.u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A vector of `range(min_len..max_len)` elements drawn from `f`.
    fn vec<T>(&mut self, min_len: u64, max_len: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(min_len, max_len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Runs `prop` for [`CASES`] seeded generators, printing the failing seed.
fn check(name: &str, prop: impl Fn(&mut Gen)) {
    for case in 0..CASES {
        let seed = BASE_SEED ^ (case.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut Gen::new(seed))));
        if let Err(e) = result {
            eprintln!("property '{name}' failed on case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

// ---------------------------------------------------------------- remap

/// Every remapping's segments exactly tile the requested byte range, and
/// each segment's start agrees with `pv_of` at that offset.
#[test]
fn strided_segments_tile_the_request() {
    check("strided_segments_tile_the_request", |g| {
        let object = 1u64 << g.range(3, 10); // 8..512-byte objects
        let stride = object + g.range(0, 4096);
        let soffset = g.range(0, 65536);
        let len = g.range(1, 1024);
        let f = RemapFn::strided(PvAddr::new(0x10_0000), object, stride);
        let mut segs = Vec::new();
        f.segments(soffset, len, &mut segs);

        let total: u64 = segs.iter().map(|s| s.bytes).sum();
        assert_eq!(total, len);

        let mut off = soffset;
        for seg in &segs {
            assert_eq!(seg.pv, f.pv_of(off));
            // A segment never crosses an object boundary.
            assert!(off % object + seg.bytes <= object);
            off += seg.bytes;
        }
    });
}

/// Gather segments follow the indirection vector element-by-element.
#[test]
fn gather_segments_follow_indices() {
    check("gather_segments_follow_indices", |g| {
        let indices = g.vec(1, 200, |g| g.range(0, 10_000));
        let elem = 1u64 << g.range(2, 7); // 4..64-byte elements
        let n = indices.len();
        let start = (g.range(0, 100) as usize).min(n - 1);
        let idx = Arc::new(indices.clone());
        let f = RemapFn::gather(PvAddr::new(0), elem, idx, PvAddr::new(1 << 30), 4);

        let count = (n - start).min(16);
        let mut segs = Vec::new();
        f.segments(start as u64 * elem, count as u64 * elem, &mut segs);
        assert_eq!(segs.len(), count);
        for (k, seg) in segs.iter().enumerate() {
            assert_eq!(seg.bytes, elem);
            assert_eq!(seg.pv.raw(), indices[start + k] * elem);
        }
    });
}

/// Direct mapping is a pure offset.
#[test]
fn direct_is_offset() {
    check("direct_is_offset", |g| {
        let base = g.range(0, 1 << 40);
        let off = g.range(0, 1 << 20);
        let f = RemapFn::direct(PvAddr::new(base));
        assert_eq!(f.pv_of(off).raw(), base + off);
        let mut segs = Vec::new();
        f.segments(off, 128, &mut segs);
        assert_eq!(
            &segs[..],
            &[Segment {
                pv: PvAddr::new(base + off),
                bytes: 128
            }]
        );
    });
}

// ---------------------------------------------------------------- cache

/// After any access sequence: a just-loaded line is always present, and
/// the number of valid lines never exceeds capacity.
#[test]
fn cache_presence_and_capacity() {
    check("cache_presence_and_capacity", |g| {
        let ways = g.range(1, 4);
        let ops = g.vec(1, 300, |g| (g.range(0, 64), g.bool()));
        let mut c = Cache::new(CacheConfig {
            name: "prop",
            size: 32 * ways * 4,
            line: 32,
            ways,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        });
        let capacity = (c.config().sets() * ways) as usize;
        for (slot, is_store) in ops {
            let addr = slot * 32;
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            c.access(VAddr::new(addr), PAddr::new(addr), kind);
            assert!(c.probe(VAddr::new(addr), PAddr::new(addr)));
            assert!(c.valid_lines() <= capacity);
        }
    });
}

/// Write-back integrity: every line stored to is eventually either still
/// cached (dirty) or was reported as a writeback/flush — dirty data is
/// never silently dropped.
#[test]
fn dirty_lines_are_never_lost() {
    check("dirty_lines_are_never_lost", |g| {
        let ops = g.vec(1, 200, |g| g.range(0, 32));
        let mut c = Cache::new(CacheConfig {
            name: "wb",
            size: 256, // 8 lines, direct-mapped: lots of evictions
            line: 32,
            ways: 1,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        });
        use std::collections::HashSet;
        let mut dirty: HashSet<u64> = HashSet::new();
        for slot in ops {
            let addr = slot * 32;
            match c.access(VAddr::new(addr), PAddr::new(addr), AccessKind::Store) {
                Outcome::Miss {
                    writeback: Some(wb),
                } => {
                    assert!(
                        dirty.remove(&wb.raw()),
                        "writeback of a line never dirtied: {wb:?}"
                    );
                }
                Outcome::Miss { writeback: None } | Outcome::Hit => {}
                Outcome::Bypass => unreachable!("write-allocate never bypasses"),
            }
            dirty.insert(addr);
        }
        // Whatever is still dirty must be flushable, exactly once each.
        for addr in dirty {
            let out = c.flush_line(VAddr::new(addr), PAddr::new(addr));
            assert_eq!(out, impulse::cache::FlushOutcome::Dirty);
        }
    });
}

/// TLB: a working set no larger than the TLB never misses twice.
#[test]
fn tlb_small_working_set_converges() {
    check("tlb_small_working_set_converges", |g| {
        let pages = g.vec(1, 64, |g| g.range(0, 64));
        let mut t = Tlb::new(TlbConfig { entries: 64 });
        for &p in &pages {
            if !t.lookup(p) {
                t.insert(p, 1);
            }
        }
        // Second pass: everything hits.
        for &p in &pages {
            assert!(t.lookup(p), "page {p} missed on the second pass");
        }
    });
}

/// The CPU TLB written the obvious way: a slot list of
/// `(base page, span, referenced)` searched linearly. A refill takes the
/// first invalid slot, else the first unreferenced one, else clears
/// every reference bit and takes slot 0 (NRU).
struct RefTlb {
    slots: Vec<Option<(u64, u64, bool)>>,
    stats: TlbStats,
}

impl RefTlb {
    fn new(entries: usize) -> Self {
        Self {
            slots: vec![None; entries],
            stats: TlbStats::default(),
        }
    }

    fn covering(&self, vpage: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.is_some_and(|(base, span, _)| vpage >= base && vpage < base + span))
    }

    fn lookup(&mut self, vpage: u64) -> bool {
        self.stats.lookups += 1;
        let Some(i) = self.covering(vpage) else {
            return false;
        };
        if let Some(entry) = &mut self.slots[i] {
            entry.2 = true;
        }
        self.stats.hits += 1;
        true
    }

    fn insert(&mut self, base: u64, span: u64) {
        self.stats.inserts += 1;
        let victim = match self.slots.iter().position(Option::is_none) {
            Some(i) => i,
            None => match self.slots.iter().position(|s| s.is_some_and(|e| !e.2)) {
                Some(i) => i,
                None => {
                    for (_, _, referenced) in self.slots.iter_mut().flatten() {
                        *referenced = false;
                    }
                    0
                }
            },
        };
        if self.slots[victim].is_some() {
            self.stats.evictions += 1;
        }
        self.slots[victim] = Some((base, span, true));
    }

    fn flush_page(&mut self, vpage: u64) -> bool {
        self.covering(vpage).map(|i| self.slots[i] = None).is_some()
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }
}

/// One step of a generated CPU TLB stream.
#[derive(Clone, Copy, Debug)]
enum TlbOp {
    Access(u64),
    FlushPage(u64),
    Flush,
}

/// A page → `(base page, span)` map over `pages` pages in which aligned
/// runs of 2–16 pages share one superpage entry, the way the kernel
/// reports a superpage's span for every page in it.
fn tlb_spans(g: &mut Gen, pages: u64) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    while (spans.len() as u64) < pages {
        let page = spans.len() as u64;
        let span = 1u64 << g.range(1, 5);
        let span = if g.range(0, 4) == 0 && page.is_multiple_of(span) && page + span <= pages {
            span
        } else {
            1
        };
        spans.extend((0..span).map(|_| (page, span)));
    }
    spans
}

/// A stream over a page universe a few times the TLB size, so hits,
/// NRU evictions and shootdowns of resident (super)pages all occur.
fn tlb_ops(g: &mut Gen, entries: u64, pages: u64) -> Vec<TlbOp> {
    (0..g.range(200, 800))
        .map(|_| match g.range(0, 100) {
            0..=87 => {
                // Skew toward low pages so a working set stays resident.
                let hi = if g.bool() { entries + 1 } else { pages };
                TlbOp::Access(g.range(0, hi))
            }
            88..=97 => TlbOp::FlushPage(g.range(0, pages)),
            _ => TlbOp::Flush,
        })
        .collect()
}

fn tlb_image(t: &Tlb) -> Vec<u8> {
    let mut w = SnapWriter::new();
    t.snap_save(&mut w);
    w.finish()
}

/// `Tlb` makes exactly the linear reference's NRU decisions under the
/// memory system's traffic shape (a lookup, then an insert of the page's
/// span only on a miss), with shootdowns and full flushes mixed in.
/// Midway a snapshot is restored into a fresh TLB that then runs the
/// rest of the stream alongside the original.
#[test]
fn tlb_matches_linear_nru_reference() {
    check("tlb_matches_linear_nru_reference", |g| {
        for entries in [1u64, 2, 4, 16, 120] {
            let cfg = TlbConfig {
                entries: entries as usize,
            };
            let spans = tlb_spans(g, 3 * entries + 16);
            let ops = tlb_ops(g, entries, spans.len() as u64);
            let mut model = RefTlb::new(cfg.entries);
            let mut tlbs = vec![Tlb::new(cfg)];
            let mid = ops.len() / 2;
            for (i, &op) in ops.iter().enumerate() {
                if i == mid {
                    let image = tlb_image(&tlbs[0]);
                    let mut restored = Tlb::new(cfg);
                    let mut r = SnapReader::new(&image);
                    restored.snap_load(&mut r).unwrap();
                    r.finish().unwrap();
                    assert_eq!(tlb_image(&restored), image, "snapshot round trip");
                    tlbs.push(restored);
                }
                let want = match op {
                    TlbOp::Access(p) => {
                        let hit = model.lookup(p);
                        if !hit {
                            let (base, span) = spans[p as usize];
                            model.insert(base, span);
                        }
                        hit
                    }
                    TlbOp::FlushPage(p) => model.flush_page(p),
                    TlbOp::Flush => {
                        model.flush();
                        false
                    }
                };
                for (k, t) in tlbs.iter_mut().enumerate() {
                    let got = match op {
                        TlbOp::Access(p) => {
                            let hit = t.lookup(p);
                            if !hit {
                                let (base, span) = spans[p as usize];
                                t.insert(base, span);
                            }
                            hit
                        }
                        TlbOp::FlushPage(p) => t.flush_page(p),
                        TlbOp::Flush => {
                            t.flush();
                            false
                        }
                    };
                    assert_eq!(got, want, "tlb {entries}, op {i} {op:?}, copy {k}");
                    assert_eq!(t.stats(), model.stats, "tlb {entries}, op {i}, copy {k}");
                    let valid = model.slots.iter().flatten().count();
                    assert_eq!(t.valid_entries(), valid, "tlb {entries}, op {i}, copy {k}");
                }
            }
        }
    });
}

// ---------------------------------------------------------------- dram

/// All scheduling policies serve every request, and reordering never
/// changes how many bytes move.
#[test]
fn schedulers_serve_everything() {
    check("schedulers_serve_everything", |g| {
        let addrs = g.vec(1, 64, |g| g.range(0, 1 << 20));
        let now = g.range(0, 10_000);
        let reqs: Vec<MAddr> = addrs.iter().map(|&a| MAddr::new(a & !7)).collect();
        let mut row_hits = Vec::new();
        for policy in SchedulePolicy::ALL {
            let mut dram = Dram::new(DramConfig::default());
            let out = Scheduler::new(policy).run_batch(&mut dram, &reqs, AccessKind::Load, 8, now);
            assert_eq!(out.completions.len(), reqs.len());
            assert!(out.completions.iter().all(|&c| c > now));
            assert_eq!(out.done, *out.completions.iter().max().unwrap());
            assert_eq!(dram.stats().bytes, reqs.len() as u64 * 8);
            row_hits.push(dram.stats().row_hits);
            // The controller's done-only issue agrees with the full batch.
            let sized: Vec<(MAddr, u64)> = reqs.iter().map(|&a| (a, 8)).collect();
            let mut fresh = Dram::new(DramConfig::default());
            let done =
                Scheduler::new(policy).run_batch_done(&mut fresh, &sized, AccessKind::Load, now);
            assert_eq!(done, out.done, "{}", policy.name());
            assert_eq!(fresh.stats(), dram.stats(), "{}", policy.name());
        }
        // Grouping by (bank, row) minimizes row transitions on a cold
        // DRAM, so open-row-first never sees fewer hits than in-order,
        // and bank-parallel preserves the grouping.
        assert!(
            row_hits[1] >= row_hits[0],
            "open-row-first hits {} < in-order hits {}",
            row_hits[1],
            row_hits[0]
        );
        assert_eq!(row_hits[2], row_hits[1]);
    });
}

/// DRAM timing is causal: completions never precede issue, and a busy
/// bank only delays, never rewinds.
#[test]
fn dram_is_causal() {
    check("dram_is_causal", |g| {
        let addrs = g.vec(1, 100, |g| g.range(0, 1 << 18));
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0;
        for a in addrs {
            let done = dram.access(MAddr::new(a & !7), AccessKind::Load, 8, now);
            assert!(done > now);
            now = done;
        }
        let s = dram.stats();
        assert_eq!(s.row_hits + s.row_misses, s.reads);
    });
}

// ---------------------------------------------------------------- pgtbl

/// The controller page table written the obvious way: the MC-TLB is a
/// list of `(pv page, stamp)` searched linearly, refilled at the end
/// while it has room and otherwise at the minimum stamp (LRU).
struct RefPgTbl {
    cfg: PgTblConfig,
    map: HashMap<u64, MAddr>,
    tlb: Vec<(u64, u64)>,
    tick: u64,
    stats: PgTblStats,
    faults: Option<PgTblInjector>,
}

impl RefPgTbl {
    fn new(cfg: PgTblConfig, faults: Option<PgTblInjector>) -> Self {
        Self {
            cfg,
            map: HashMap::new(),
            tlb: Vec::new(),
            tick: 0,
            stats: PgTblStats::default(),
            faults,
        }
    }

    fn apply(
        &mut self,
        op: PtOp,
        dram: &mut Dram,
        now: Cycle,
    ) -> Option<Result<(MAddr, Cycle), McError>> {
        match op {
            PtOp::Translate(pv) => return Some(self.translate(pv, dram, now)),
            PtOp::Map(page, frame) => {
                self.map.insert(page, frame);
            }
            PtOp::Unmap(page) => {
                self.map.remove(&page);
                self.tlb.retain(|&(p, _)| p != page);
            }
            PtOp::Flush => self.tlb.clear(),
        }
        None
    }

    fn translate(
        &mut self,
        pv: PvAddr,
        dram: &mut Dram,
        now: Cycle,
    ) -> Result<(MAddr, Cycle), McError> {
        self.stats.lookups += 1;
        let page = pv.raw() >> PAGE_SHIFT;
        // A corrupted cached entry is dropped and walked again.
        let corrupt = self.faults.as_mut().is_some_and(|f| f.corrupts(now));
        let reload = corrupt && self.tlb.iter().any(|&(p, _)| p == page);
        if reload {
            self.faults.as_mut().unwrap().note_corruption();
            self.tlb.retain(|&(p, _)| p != page);
        }
        let frame = *self.map.get(&page).ok_or(McError::PvUnmapped(page))?;
        let maddr = frame.add(pv.page_offset());
        self.tick += 1;
        if let Some(entry) = self.tlb.iter_mut().find(|(p, _)| *p == page) {
            entry.1 = self.tick;
            self.stats.tlb_hits += 1;
            return Ok((maddr, now));
        }
        self.stats.walks += 1;
        let entry_addr = self
            .cfg
            .table_base
            .add((page % (1 << 17)) * self.cfg.walk_bytes);
        let ready = dram.access(entry_addr, AccessKind::Load, self.cfg.walk_bytes, now);
        if reload {
            self.faults.as_mut().unwrap().note_reload(ready - now);
        }
        if self.tlb.len() < self.cfg.tlb_entries {
            self.tlb.push((page, self.tick));
        } else {
            let victim = (0..self.tlb.len()).min_by_key(|&i| self.tlb[i].1).unwrap();
            self.tlb[victim] = (page, self.tick);
        }
        Ok((maddr, ready))
    }
}

/// One step of a generated page-table stream.
#[derive(Clone, Copy, Debug)]
enum PtOp {
    Translate(PvAddr),
    Map(u64, MAddr),
    Unmap(u64),
    Flush,
}

/// A stream over a page universe a few times the TLB size, so hits,
/// LRU evictions, remaps of resident pages and unmapped lookups all
/// occur.
fn pt_ops(g: &mut Gen, tlb_entries: u64) -> Vec<PtOp> {
    let pages = 2 * tlb_entries + 3;
    let mut ops: Vec<PtOp> = (0..pages)
        .map(|p| PtOp::Map(p, MAddr::new(g.range(0, 1 << 16) * PAGE_SIZE)))
        .collect();
    ops.extend((0..g.range(200, 600)).map(|_| match g.range(0, 100) {
        0..=79 => {
            // Skew toward low pages so a working set stays resident.
            let hi = if g.bool() { tlb_entries + 1 } else { pages + 1 };
            PtOp::Translate(PvAddr::new(
                g.range(0, hi) * PAGE_SIZE + g.range(0, PAGE_SIZE),
            ))
        }
        80..=91 => PtOp::Map(
            g.range(0, pages + 1),
            MAddr::new(g.range(0, 1 << 16) * PAGE_SIZE),
        ),
        92..=97 => PtOp::Unmap(g.range(0, pages + 1)),
        _ => PtOp::Flush,
    }));
    ops
}

/// A page table and the DRAM its walks read.
struct PtRig {
    pt: PgTbl,
    dram: Dram,
}

impl PtRig {
    fn apply(&mut self, op: PtOp, now: Cycle) -> Option<Result<(MAddr, Cycle), McError>> {
        match op {
            PtOp::Translate(pv) => return Some(self.pt.translate(pv, &mut self.dram, now)),
            PtOp::Map(p, f) => self.pt.map_page(p, f),
            PtOp::Unmap(p) => self.pt.unmap_page(p),
            PtOp::Flush => self.pt.flush_tlb(),
        }
        None
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.pt.snap_save(&mut w);
        self.dram.snap_save(&mut w);
        w.finish()
    }
}

/// Drives `PgTbl` and [`RefPgTbl`] with one generated stream and checks
/// every translation, the statistics and the DRAM traffic agree. Midway
/// a snapshot is restored into a fresh table that then runs the rest of
/// the stream alongside the original.
fn pgtbl_matches_reference(g: &mut Gen, fault_trigger: Option<Trigger>) {
    for tlb_entries in [1u64, 2, 4, 64] {
        let cfg = PgTblConfig {
            tlb_entries: tlb_entries as usize,
            ..PgTblConfig::default()
        };
        let plan_seed = g.u64();
        let injector = || fault_trigger.map(|t| PgTblInjector::new(FaultPlan::new(t, plan_seed)));
        let fresh = || {
            let mut pt = PgTbl::new(cfg);
            if let Some(inj) = injector() {
                pt.set_fault_injector(inj);
            }
            PtRig {
                pt,
                dram: Dram::new(DramConfig::default()),
            }
        };
        let mut model = RefPgTbl::new(cfg, injector());
        let mut model_dram = Dram::new(DramConfig::default());
        let mut rigs = vec![fresh()];
        let ops = pt_ops(g, tlb_entries);
        let mid = ops.len() / 2;
        let mut now: Cycle = 0;
        for (i, &op) in ops.iter().enumerate() {
            if i == mid {
                let image = rigs[0].snapshot();
                let mut restored = fresh();
                let mut r = SnapReader::new(&image);
                restored.pt.snap_load(&mut r).unwrap();
                restored.dram.snap_load(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(restored.snapshot(), image, "snapshot round trip");
                rigs.push(restored);
            }
            let want = model.apply(op, &mut model_dram, now);
            let model_faults = model
                .faults
                .as_ref()
                .map(PgTblInjector::stats)
                .unwrap_or_default();
            for (k, rig) in rigs.iter_mut().enumerate() {
                let got = rig.apply(op, now);
                assert_eq!(got, want, "tlb {tlb_entries}, op {i} {op:?}, copy {k}");
                assert_eq!(
                    rig.pt.stats(),
                    model.stats,
                    "tlb {tlb_entries}, op {i}, copy {k}"
                );
                assert_eq!(rig.pt.fault_stats(), model_faults, "op {i}, copy {k}");
                assert_eq!(
                    rig.dram.stats(),
                    model_dram.stats(),
                    "tlb {tlb_entries}, op {i}, copy {k}"
                );
            }
            if let Some(Ok((_, ready))) = want {
                now = if g.bool() {
                    ready
                } else {
                    now + g.range(0, 40)
                };
            }
        }
    }
}

/// The single-probe MC-TLB makes exactly the reference's LRU decisions.
#[test]
fn pgtbl_matches_linear_lru_reference() {
    check("pgtbl_matches_linear_lru_reference", |g| {
        pgtbl_matches_reference(g, None)
    });
}

/// The same, with cached entries corrupted and reloaded along the way.
#[test]
fn pgtbl_matches_reference_under_corruption() {
    check("pgtbl_matches_reference_under_corruption", |g| {
        let trigger = if g.bool() {
            Trigger::Permille(g.range(50, 400) as u32)
        } else {
            Trigger::EveryN {
                every: g.range(1, 8),
                phase: g.range(0, 8),
            }
        };
        pgtbl_matches_reference(g, Some(trigger));
    });
}

// --------------------------------------------------------------- machine

/// Whole-machine robustness: arbitrary interleavings of loads, stores,
/// computes, and remap system calls never panic, keep the load-ratio
/// identity, and stay deterministic.
#[test]
fn machine_survives_random_programs() {
    check("machine_survives_random_programs", |g| {
        use impulse::sim::{Machine, SystemConfig};

        let ops = g.vec(1, 150, |g| (g.range(0, 6) as u8, g.range(0, 4096)));
        let run = |ops: &[(u8, u64)]| {
            let mut m = Machine::new(&SystemConfig::paint_small());
            let data = m.alloc_region(64 * 1024, 8).unwrap();
            let mut grant = None;
            for &(op, arg) in ops {
                let off = (arg * 8) % (64 * 1024);
                match op {
                    0 | 1 => m.load(data.start().add(off)),
                    2 => m.store(data.start().add(off)),
                    3 => m.compute(arg % 16 + 1),
                    4 => {
                        if grant.is_none() {
                            let colors = [(arg % 32), (arg.wrapping_add(7) % 32)];
                            grant = m.sys_recolor(data, &colors).ok();
                        } else if let Some(g) = grant.take() {
                            m.sys_release(&g).unwrap();
                        }
                    }
                    _ => {
                        if let Some(g) = &grant {
                            m.load(g.alias.start().add(off));
                        } else {
                            m.flush_region(data);
                        }
                    }
                }
            }
            m.report("fuzz")
        };
        let a = run(&ops);
        let b = run(&ops);
        assert_eq!(a.cycles, b.cycles, "determinism");
        assert_eq!(
            a.mem.l1_load_hits + a.mem.l2_load_hits + a.mem.mem_loads,
            a.mem.loads,
            "every load is served at exactly one level"
        );
        assert!(
            a.mem.load_cycles >= a.mem.loads,
            "loads cost at least a cycle"
        );
    });
}

/// Randomized strided remaps through the whole machine resolve to the
/// same DRAM words as direct MMU accesses.
#[test]
fn machine_strided_remap_is_address_preserving() {
    check("machine_strided_remap_is_address_preserving", |g| {
        use impulse::sim::{Machine, SystemConfig};
        use impulse::types::MAddr;

        let object = 1u64 << g.range(3, 9);
        let stride = object * g.range(1, 6) + object; // ≥ object, varied
        let count = g.range(2, 40);
        let probes = g.vec(1, 20, |g| (g.range(0, 40), g.range(0, 512)));
        let mut m = Machine::new(&SystemConfig::paint_small());
        let span = (count - 1) * stride + object;
        let base = m.alloc_region(span, 128).unwrap();
        let grant = m
            .sys_remap_strided(base.start(), object, stride, count, 4096)
            .unwrap();

        for (obj, within) in probes {
            let obj = obj % count;
            let within = within % object;
            let alias_v = grant.alias.start().add(obj * object + within);
            let p = m.translate(alias_v);
            let via = m
                .memory()
                .mc()
                .resolve_shadow(p)
                .expect("alias must resolve");
            let direct = MAddr::new(m.translate(base.start().add(obj * stride + within)).raw());
            assert_eq!(via, direct);
        }
    });
}

/// Multi-descriptor dispatch: several descriptors with different remap
/// kinds coexist; every probe resolves per the *matching* descriptor's
/// arithmetic.
#[test]
fn controller_dispatches_across_descriptors() {
    check("controller_dispatches_across_descriptors", |g| {
        use impulse::core::{McConfig, MemController, RemapFn};
        use impulse::dram::{Dram, DramConfig};
        use impulse::types::{MAddr, PAddr, PRange, PvAddr};

        let probes = g.vec(1, 40, |g| (g.range(0, 3) as usize, g.range(0, 2048)));
        let stride_extra = g.range(1, 64);
        let seed = g.range(1, 1000);

        let dram = Dram::new(DramConfig {
            capacity: 1 << 24,
            ..DramConfig::default()
        });
        let mut mc = MemController::new(dram, McConfig::default());
        let shadow = mc.shadow_base();

        // Identity page table over the first 8 MB.
        for page in 0..2048u64 {
            mc.map_page(page, MAddr::new(page << 12));
        }

        // Descriptor 0: direct at pv 1 MB.
        let r0 = PRange::new(shadow, 1 << 16);
        mc.claim_descriptor(r0, RemapFn::direct(PvAddr::new(1 << 20)))
            .unwrap();
        // Descriptor 1: strided 8-byte objects.
        let stride = 8 + 8 * stride_extra;
        let r1 = PRange::new(shadow.add(1 << 16), 1 << 14);
        mc.claim_descriptor(r1, RemapFn::strided(PvAddr::new(2 << 20), 8, stride))
            .unwrap();
        // Descriptor 2: gather over 4096 elements.
        let indices: Vec<u64> = (0..4096u64).map(|i| (i * seed) % 4096).collect();
        let r2 = PRange::new(shadow.add(1 << 17), 4096 * 8);
        mc.claim_descriptor(
            r2,
            RemapFn::gather(
                PvAddr::new(4 << 20),
                8,
                std::sync::Arc::new(indices.clone()),
                PvAddr::new(6 << 20),
                4,
            ),
        )
        .unwrap();

        for (which, off) in probes {
            let off8 = off * 8 % (1 << 14);
            let (addr, expect) = match which {
                0 => (r0.start().add(off8), (1u64 << 20) + off8),
                1 => (r1.start().add(off8), (2u64 << 20) + (off8 / 8) * stride),
                _ => (
                    r2.start().add(off8),
                    (4u64 << 20) + indices[(off8 / 8) as usize] * 8,
                ),
            };
            let got = mc.resolve_shadow(addr).expect("must resolve");
            assert_eq!(got, MAddr::new(expect), "descriptor {which} offset {off8}");
            assert!(
                mc.resolve_shadow(PAddr::new(addr.raw() + (1 << 30)))
                    .is_none(),
                "far-away shadow addresses match nothing"
            );
        }
    });
}

// ----------------------------------------------------------------- types

/// Range block iteration covers the range exactly, with aligned steps.
#[test]
fn range_blocks_cover() {
    check("range_blocks_cover", |g| {
        use impulse::types::{VAddr, VRange};
        let start = g.range(0, 1 << 30);
        let len = g.range(1, 1 << 16);
        let step = 1u64 << g.range(3, 10);
        let r = VRange::new(VAddr::new(start), len);
        let blocks: Vec<VAddr> = r.blocks(step).collect();
        assert!(!blocks.is_empty());
        assert!(blocks[0].raw() <= start);
        assert!(blocks.last().unwrap().raw() < start + len);
        for w in blocks.windows(2) {
            assert_eq!(w[1].raw() - w[0].raw(), step);
        }
        for b in &blocks {
            assert!(b.is_aligned(step));
        }
        // Every byte of the range falls inside some block.
        assert!(blocks.last().unwrap().raw() + step >= start + len);
    });
}

/// Alignment helpers are idempotent and ordered.
#[test]
fn alignment_laws() {
    check("alignment_laws", |g| {
        use impulse::types::geom::{round_down, round_up};
        let x = g.range(0, 1 << 40);
        let a = 1u64 << g.range(0, 16);
        let up = round_up(x, a);
        let down = round_down(x, a);
        assert!(down <= x && x <= up);
        assert_eq!(round_up(up, a), up);
        assert_eq!(round_down(down, a), down);
        assert!(up - down < 2 * a);
    });
}

// ---------------------------------------------------------------- phys

/// Frames are handed out uniquely, under either policy.
#[test]
fn frames_are_unique() {
    check("frames_are_unique", |g| {
        let seed = g.range(0, 1000);
        let n = g.range(1, 64);
        for policy in [AllocPolicy::Sequential, AllocPolicy::Random(seed)] {
            let mut p = PhysMem::new(64 * PAGE_SIZE, 0, policy);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let f = p.alloc().unwrap();
                assert!(f.raw().is_multiple_of(PAGE_SIZE));
                assert!(seen.insert(f.raw()), "duplicate frame");
            }
        }
    });
}

/// Free then re-alloc cycles never lose or duplicate frames.
#[test]
fn alloc_free_cycles() {
    check("alloc_free_cycles", |g| {
        let ops = g.vec(1, 200, |g| g.bool());
        let mut p = PhysMem::new(16 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        let mut held: Vec<MAddr> = Vec::new();
        for do_alloc in ops {
            if do_alloc {
                if let Ok(f) = p.alloc() {
                    assert!(!held.contains(&f));
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                p.free(f);
            }
            assert_eq!(p.allocated_frames(), held.len() as u64);
        }
    });
}
