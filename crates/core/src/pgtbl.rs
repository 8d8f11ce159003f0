//! The controller page table (PgTbl): pseudo-virtual → physical, with an
//! on-chip TLB backed by main memory.
//!
//! The OS downloads page-grained mappings for every remapped data
//! structure (step 4 of the remapping protocol in Section 2.1). At access
//! time the controller's AddrCalc produces pseudo-virtual addresses; this
//! unit translates them to real DRAM addresses. Translations that miss the
//! on-chip TLB cost a DRAM read of the memory-resident table.

use impulse_dram::Dram;
use impulse_fault::{PgTblFaultStats, PgTblInjector};
use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::geom::{PAGE_SHIFT, PAGE_SIZE};
use impulse_types::snap::{SnapError, SnapReader, SnapWriter};
use impulse_types::{AccessKind, Cycle, FxHashMap, MAddr, PvAddr};

use crate::controller::McError;

/// Snapshot section tag for [`PgTbl`] (`"PGTB"`).
const TAG_PGTBL: u32 = 0x5047_5442;

/// Configuration of the controller page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PgTblConfig {
    /// On-chip TLB entries.
    pub tlb_entries: usize,
    /// DRAM location of the memory-resident table (for walk reads).
    pub table_base: MAddr,
    /// Bytes read per walk.
    pub walk_bytes: u64,
}

impl Default for PgTblConfig {
    fn default() -> Self {
        Self {
            tlb_entries: 64,
            // Park the table in the top megabyte of a 1 GB DRAM; the OS
            // model reserves this region.
            table_base: MAddr::new((1 << 30) - (1 << 20)),
            walk_bytes: 8,
        }
    }
}

/// Statistics for the controller page table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PgTblStats {
    /// Translations requested.
    pub lookups: u64,
    /// Translations served by the on-chip TLB.
    pub tlb_hits: u64,
    /// Walk reads issued to DRAM.
    pub walks: u64,
}

/// "No slot": a mapping not resident in the TLB, or the end of the LRU
/// list.
const NIL: u32 = u32::MAX;
/// Page tag of a free TLB slot (pv pages are at most 52 bits).
const FREE: u64 = u64::MAX;

/// One installed mapping and where its translation sits in the TLB.
#[derive(Clone, Copy, Debug)]
struct Mapping {
    frame: MAddr,
    /// TLB slot holding this page, or [`NIL`] when not resident.
    slot: u32,
}

/// Controller page table with an on-chip TLB.
///
/// The TLB is fully associative with LRU replacement. Each mapping
/// carries its TLB slot, so a translation is one hash probe; LRU order
/// is an intrusive doubly-linked list over the slots. The list holds
/// every slot: free slots form its head end, then resident pages from
/// least to most recently used. A miss therefore always refills `head`
/// — a free slot while one exists, else the LRU victim. Which slot a
/// page occupies is unobservable; only the list order is.
#[derive(Clone, Debug)]
pub struct PgTbl {
    cfg: PgTblConfig,
    map: FxHashMap<u64, Mapping>,
    /// pv page held by each TLB slot ([`FREE`] when empty).
    pages: Vec<u64>,
    /// LRU links per slot, toward `head` (`prev`) and `tail` (`next`).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Next slot to refill: free, or the least recently used.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    stats: PgTblStats,
    /// Optional deterministic corruption of cached entries.
    faults: Option<PgTblInjector>,
}

impl PgTbl {
    /// Builds an empty controller page table. A zero-entry TLB request
    /// is clamped to one entry (the hardware minimum) rather than
    /// rejected.
    pub fn new(cfg: PgTblConfig) -> Self {
        let cfg = PgTblConfig {
            tlb_entries: cfg.tlb_entries.max(1),
            ..cfg
        };
        let n = cfg.tlb_entries;
        let mut pt = Self {
            cfg,
            map: FxHashMap::default(),
            pages: vec![FREE; n],
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: NIL,
            tail: NIL,
            stats: PgTblStats::default(),
            faults: None,
        };
        pt.reset_tlb();
        pt
    }

    /// Attaches a deterministic MC-TLB/page-table corruption injector.
    /// Corrupted cached entries are detected at use (parity) and
    /// recovered by re-walking the backing memory-resident table.
    pub fn set_fault_injector(&mut self, injector: PgTblInjector) {
        self.faults = Some(injector);
    }

    /// Corruption/reload counters (zeros when no injector is attached).
    pub fn fault_stats(&self) -> PgTblFaultStats {
        self.faults
            .as_ref()
            .map(PgTblInjector::stats)
            .unwrap_or_default()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PgTblStats {
        self.stats
    }

    /// Resets statistics (mappings and cached translations are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PgTblStats::default();
    }

    /// Empties every TLB slot and links them in index order. Mappings
    /// must already have their slots cleared.
    fn reset_tlb(&mut self) {
        let n = self.pages.len() as u32;
        self.pages.fill(FREE);
        for s in 0..n {
            self.prev[s as usize] = s.checked_sub(1).unwrap_or(NIL);
            self.next[s as usize] = if s + 1 < n { s + 1 } else { NIL };
        }
        self.head = 0;
        self.tail = n - 1;
    }

    fn unlink(&mut self, s: u32) {
        let (p, n) = (self.prev[s as usize], self.next[s as usize]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    // The list always holds every slot, so once `s` is known not to be
    // the tail (head), unlinking it leaves a tail (head) to relink to.

    /// Marks slot `s` most recently used.
    #[inline]
    fn touch(&mut self, s: u32) {
        if s == self.tail {
            return;
        }
        self.unlink(s);
        self.prev[s as usize] = self.tail;
        self.next[s as usize] = NIL;
        self.next[self.tail as usize] = s;
        self.tail = s;
    }

    /// Empties slot `s` and moves it to the head, refilled next.
    fn free_slot(&mut self, s: u32) {
        self.pages[s as usize] = FREE;
        if s == self.head {
            return;
        }
        self.unlink(s);
        self.prev[s as usize] = NIL;
        self.next[s as usize] = self.head;
        self.prev[self.head as usize] = s;
        self.head = s;
    }

    /// Installs (or replaces) the mapping for one pseudo-virtual page.
    /// A replaced mapping keeps its TLB residency; the next hit serves
    /// the new frame.
    ///
    /// `frame` must be page-aligned; the OS allocator only produces
    /// aligned frames, so this is an internal invariant (debug-checked).
    pub fn map_page(&mut self, pv_page: u64, frame: MAddr) {
        debug_assert!(
            frame.raw().is_multiple_of(PAGE_SIZE),
            "page frames must be page-aligned: {frame:?}"
        );
        self.map
            .entry(pv_page)
            .and_modify(|m| m.frame = frame)
            .or_insert(Mapping { frame, slot: NIL });
    }

    /// Removes the mapping for a pseudo-virtual page and drops any cached
    /// translation.
    pub fn unmap_page(&mut self, pv_page: u64) {
        if let Some(Mapping { slot, .. }) = self.map.remove(&pv_page) {
            if slot != NIL {
                self.free_slot(slot);
            }
        }
    }

    /// Number of installed page mappings.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Whether a pseudo-virtual address has a mapping installed.
    pub fn is_mapped(&self, pv: PvAddr) -> bool {
        self.map.contains_key(&(pv.raw() >> PAGE_SHIFT))
    }

    /// Resolves a pseudo-virtual address to its DRAM address without
    /// timing or statistics effects (for inspection and testing).
    pub fn resolve(&self, pv: PvAddr) -> Option<MAddr> {
        self.map
            .get(&(pv.raw() >> PAGE_SHIFT))
            .map(|m| m.frame.add(pv.page_offset()))
    }

    /// Translates a pseudo-virtual address; returns the DRAM address and
    /// the cycle at which the translation is available (TLB misses pay a
    /// DRAM walk).
    ///
    /// Returns [`McError::PvUnmapped`] if the page was never mapped —
    /// the OS must download mappings before the CPU touches the
    /// corresponding shadow addresses.
    pub fn translate(
        &mut self,
        pv: PvAddr,
        dram: &mut Dram,
        now: Cycle,
    ) -> Result<(MAddr, Cycle), McError> {
        self.stats.lookups += 1;
        let pv_page = pv.raw() >> PAGE_SHIFT;
        // The injector is consulted once per translation, hit or not.
        let corrupt = self.faults.as_mut().is_some_and(|f| f.corrupts(now));

        let Some(entry) = self.map.get_mut(&pv_page) else {
            return Err(McError::PvUnmapped(pv_page));
        };
        let maddr = entry.frame.add(pv.page_offset());
        let resident = entry.slot;
        if resident != NIL && !corrupt {
            self.stats.tlb_hits += 1;
            self.touch(resident);
            return Ok((maddr, now));
        }
        let reloading_corrupt_entry = resident != NIL;
        let slot = if reloading_corrupt_entry {
            // Fault injection flipped bits in the cached copy of this
            // entry. The parity check detects it at use; the entry is
            // discarded and reloaded in place from the memory-resident
            // table (the authoritative copy), charging the walk as
            // recovery.
            if let Some(f) = &mut self.faults {
                f.note_corruption();
            }
            resident
        } else {
            // TLB miss: refill `head`, evicting its page if it holds one.
            let slot = self.head;
            entry.slot = slot;
            let victim = std::mem::replace(&mut self.pages[slot as usize], pv_page);
            if victim != FREE {
                if let Some(m) = self.map.get_mut(&victim) {
                    m.slot = NIL;
                }
            }
            slot
        };
        self.touch(slot);

        // Read the memory-resident table entry.
        self.stats.walks += 1;
        let entry_addr = self
            .cfg
            .table_base
            .add((pv_page % (1 << 17)) * self.cfg.walk_bytes);
        let ready = dram.access(entry_addr, AccessKind::Load, self.cfg.walk_bytes, now);
        if reloading_corrupt_entry {
            if let Some(f) = &mut self.faults {
                f.note_reload(ready - now);
            }
        }
        Ok((maddr, ready))
    }

    /// Drops all cached translations (mappings stay installed).
    pub fn flush_tlb(&mut self) {
        for &p in &self.pages {
            if let Some(m) = self.map.get_mut(&p) {
                m.slot = NIL;
            }
        }
        self.reset_tlb();
    }

    /// Serializes installed mappings (sorted by page for determinism),
    /// the TLB's resident pages from least to most recently used,
    /// statistics, and any fault-injector dynamic state.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_PGTBL);
        let mut pages: Vec<(u64, u64)> =
            self.map.iter().map(|(&p, m)| (p, m.frame.raw())).collect();
        pages.sort_unstable();
        w.usize(pages.len());
        for (p, m) in pages {
            w.u64(p);
            w.u64(m);
        }
        let mut lru = Vec::new();
        let mut s = self.head;
        while s != NIL {
            if self.pages[s as usize] != FREE {
                lru.push(self.pages[s as usize]);
            }
            s = self.next[s as usize];
        }
        w.usize(lru.len());
        for p in lru {
            w.u64(p);
        }
        w.u64(self.stats.lookups);
        w.u64(self.stats.tlb_hits);
        w.u64(self.stats.walks);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.snap_save(w);
        }
    }

    /// Restores the state saved by [`PgTbl::snap_save`] into a page table
    /// freshly built from the same configuration.
    pub fn snap_load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(TAG_PGTBL)?;
        let n = r.usize()?;
        self.map.clear();
        for _ in 0..n {
            let p = r.u64()?;
            let frame = MAddr::new(r.u64()?);
            self.map.insert(p, Mapping { frame, slot: NIL });
        }
        let resident = r.usize()?;
        if resident > self.cfg.tlb_entries {
            return Err(SnapError::Geometry("MC-TLB entry count"));
        }
        self.reset_tlb();
        // Refill in LRU order: each page takes the head slot and moves
        // to the tail, rebuilding the list exactly.
        for _ in 0..resident {
            let p = r.u64()?;
            let slot = self.head;
            match self.map.get_mut(&p) {
                Some(m) if m.slot == NIL => m.slot = slot,
                _ => return Err(SnapError::Geometry("MC-TLB entry without a mapping")),
            }
            self.pages[slot as usize] = p;
            self.touch(slot);
        }
        self.stats.lookups = r.u64()?;
        self.stats.tlb_hits = r.u64()?;
        self.stats.walks = r.u64()?;
        let had_faults = r.bool()?;
        match (&mut self.faults, had_faults) {
            (Some(f), true) => f.snap_load(r)?,
            (None, false) => {}
            _ => return Err(SnapError::Geometry("pgtbl fault injector presence")),
        }
        Ok(())
    }
}

impl Observe for PgTbl {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("pgtbl.lookups", self.stats.lookups);
        m.counter("pgtbl.tlb_hits", self.stats.tlb_hits);
        m.counter("pgtbl.walks", self.stats.walks);
        let hit_ratio = if self.stats.lookups == 0 {
            0.0
        } else {
            self.stats.tlb_hits as f64 / self.stats.lookups as f64
        };
        m.gauge("pgtbl.tlb_hit_ratio", hit_ratio);
        if self.faults.is_some() {
            let f = self.fault_stats();
            m.counter("pgtbl.fault.corruptions", f.corruptions);
            m.counter("pgtbl.fault.reloads", f.reloads);
            m.counter("pgtbl.fault.recovery_cycles", f.recovery_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_dram::DramConfig;

    fn setup() -> (PgTbl, Dram) {
        let cfg = PgTblConfig {
            tlb_entries: 2,
            table_base: MAddr::new(0x1000_0000),
            walk_bytes: 8,
        };
        (PgTbl::new(cfg), Dram::new(DramConfig::default()))
    }

    #[test]
    fn translate_applies_page_offset() {
        let (mut pt, mut dram) = setup();
        pt.map_page(5, MAddr::new(0x8000));
        let (m, _) = pt
            .translate(PvAddr::new(5 * PAGE_SIZE + 0x123), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0x8123));
    }

    #[test]
    fn first_translation_walks_then_hits() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        let (_, t1) = pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert!(t1 > 0, "miss should pay a walk");
        let (_, t2) = pt
            .translate(PvAddr::new(PAGE_SIZE + 8), &mut dram, t1)
            .unwrap();
        assert_eq!(t2, t1, "hit should be free");
        assert_eq!(pt.stats().walks, 1);
        assert_eq!(pt.stats().tlb_hits, 1);
    }

    #[test]
    fn lru_eviction_in_tiny_tlb() {
        let (mut pt, mut dram) = setup();
        for p in 0..3 {
            pt.map_page(p, MAddr::new(p * PAGE_SIZE));
        }
        pt.translate(PvAddr::new(0), &mut dram, 0).unwrap(); // walk 0
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap(); // walk 1
        pt.translate(PvAddr::new(2 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk 2, evict 0
        pt.translate(PvAddr::new(0), &mut dram, 0).unwrap(); // walk again
        assert_eq!(pt.stats().walks, 4);
    }

    #[test]
    fn unmap_page_forgets_translation() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.unmap_page(1);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn flush_tlb_forces_rewalk() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.flush_tlb();
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert_eq!(pt.stats().walks, 2);
    }

    #[test]
    fn remap_while_tlb_resident_serves_new_frame() {
        // Replacing a resident page's mapping keeps its TLB slot; the
        // hit must serve the new frame, not the old one.
        let (mut pt, mut dram) = setup();
        pt.map_page(3, MAddr::new(0x8000));
        pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk
        pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // hit
        pt.map_page(3, MAddr::new(0xa000));
        let (m, _) = pt
            .translate(PvAddr::new(3 * PAGE_SIZE + 4), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0xa004));
    }

    #[test]
    fn unmap_frees_its_slot_and_spares_others() {
        // unmap_page frees page 1's slot; page 2 keeps its own slot
        // and still hits, and the freed slot takes the next miss.
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0x1000));
        pt.map_page(2, MAddr::new(0x2000));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.translate(PvAddr::new(2 * PAGE_SIZE), &mut dram, 0)
            .unwrap();
        pt.unmap_page(1);
        let (m, _) = pt
            .translate(PvAddr::new(2 * PAGE_SIZE + 8), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0x2008));
        assert_eq!(pt.stats().walks, 2, "page 2 is still TLB-resident");
        pt.map_page(3, MAddr::new(0x3000));
        pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk into the freed slot, no eviction
        pt.translate(PvAddr::new(2 * PAGE_SIZE), &mut dram, 0)
            .unwrap();
        assert_eq!(pt.stats().walks, 3, "page 2 survived page 3's refill");
    }

    #[test]
    fn repeated_hits_are_free_and_counted() {
        let (mut pt, mut dram) = setup();
        pt.map_page(9, MAddr::new(0x9000));
        pt.translate(PvAddr::new(9 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk
        for i in 0..10u64 {
            let (m, ready) = pt
                .translate(PvAddr::new(9 * PAGE_SIZE + i), &mut dram, 5)
                .unwrap();
            assert_eq!(m, MAddr::new(0x9000 + i));
            assert_eq!(ready, 5, "TLB hits are free");
        }
        assert_eq!(pt.stats().lookups, 11);
        assert_eq!(pt.stats().tlb_hits, 10);
        assert_eq!(pt.stats().walks, 1);
    }

    #[test]
    fn unmapped_page_is_a_typed_error() {
        let (mut pt, mut dram) = setup();
        assert_eq!(
            pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0),
            Err(McError::PvUnmapped(3))
        );
        // The failed lookup is counted but caches nothing.
        assert_eq!(pt.stats().lookups, 1);
        assert_eq!(pt.stats().walks, 0);
    }

    #[test]
    fn corrupted_tlb_entry_is_detected_and_reloaded() {
        use impulse_fault::{FaultPlan, PgTblInjector, Trigger};
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0x1000));
        // Fire on every translation; only cached entries can corrupt.
        pt.set_fault_injector(PgTblInjector::new(FaultPlan::new(
            Trigger::EveryN { every: 1, phase: 0 },
            7,
        )));
        // First translation: nothing cached yet, ordinary walk.
        let (_, t1) = pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert_eq!(pt.fault_stats().corruptions, 0);
        // Second: the cached entry is corrupted, detected, and reloaded
        // from the backing table — correct frame, walk charged.
        let (m, t2) = pt
            .translate(PvAddr::new(PAGE_SIZE + 8), &mut dram, t1)
            .unwrap();
        assert_eq!(m, MAddr::new(0x1008), "reload restores the true frame");
        assert!(t2 > t1, "recovery pays a walk");
        let f = pt.fault_stats();
        assert_eq!(f.corruptions, 1);
        assert_eq!(f.reloads, 1);
        assert_eq!(f.recovery_cycles, t2 - t1);
        assert_eq!(pt.stats().walks, 2);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    #[cfg(debug_assertions)]
    fn misaligned_frame_rejected() {
        let (mut pt, _) = setup();
        pt.map_page(0, MAddr::new(12));
    }
}
