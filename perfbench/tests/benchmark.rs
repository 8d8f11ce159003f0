//! The benchmark's own checks: its metric names, its partition of the
//! catalog, the metrics `BENCHMARK.json` declares, and the repeatability
//! of simulated counts.

use std::collections::HashSet;

use impulse_bench::experiments::catalog_entries;
use impulse_obs::Json;
use impulse_perfbench::bench::{self, Metric, Options};
use impulse_perfbench::cells::{all_cells, cells_for, Workload, DEFAULT_SEED};
use impulse_perfbench::run::{check, run_untraced, sim_signature, Reference};

/// The held-out seed recorded in `README.md`.
const HELD_OUT_SEED: u64 = 0x5eed_0b57;

fn reference() -> Reference {
    Reference::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/run_all.json"
    ))
    .expect("committed catalog results")
}

fn quick(workload: Workload, seed: u64, trace: bool) -> bench::Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
    };
    bench::run(&opts, &reference())
}

fn well_formed(s: &str, extra: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn assert_well_formed(metrics: &[Metric]) {
    let mut seen = HashSet::new();
    for m in metrics {
        assert!(well_formed(&m.name, "_.-"), "bad metric name {:?}", m.name);
        assert!(
            well_formed(m.unit, "_/%.-"),
            "{} has bad unit {:?}",
            m.name,
            m.unit
        );
        assert!(seen.insert(m.name.clone()), "{} reported twice", m.name);
    }
}

#[test]
fn metric_names_match_the_pattern_and_carry_units() {
    assert_well_formed(&quick(Workload::TierScm, DEFAULT_SEED, false).metrics);
    assert_well_formed(&quick(Workload::TierScm, DEFAULT_SEED, true).metrics);
}

#[test]
fn the_workloads_use_every_catalog_cell_exactly_once() {
    let catalog: Vec<String> = catalog_entries(DEFAULT_SEED)
        .iter()
        .map(|e| e.name().to_string())
        .collect();
    assert_eq!(catalog.len(), 28);
    let mut used = Vec::new();
    for w in Workload::ALL {
        let cells = cells_for(w, DEFAULT_SEED);
        assert!(!cells.is_empty(), "{} has no cells", w.name());
        used.extend(cells.into_iter().map(|c| c.name));
    }
    used.sort();
    let mut want = catalog.clone();
    want.sort();
    assert_eq!(used, want, "the workloads must partition the catalog");
    let order: Vec<String> = all_cells(DEFAULT_SEED)
        .into_iter()
        .map(|c| c.name)
        .collect();
    assert_eq!(order, catalog, "cells follow the catalog order");
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::items)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let out = quick(Workload::TierScm, DEFAULT_SEED, trace);
        let list = doc.get(key).and_then(Json::items).expect(key);
        if !trace {
            // Untraced, the program reports the end-to-end metrics only.
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = list
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str))
                .collect();
            assert_eq!(names, declared);
        }
        for m in list {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            let got = out
                .metrics
                .iter()
                .find(|x| x.name == name)
                .unwrap_or_else(|| panic!("{key} metric {name} is not reported"));
            assert_eq!(got.unit, unit, "{name}");
            assert!(got.value.is_some(), "{name} has no value");
        }
    }
}

#[test]
fn two_quick_runs_give_identical_simulated_counts() {
    // Everything but host time: counts, ratios and re-drive coverage.
    let count_names = |o: &bench::Outcome| -> Vec<(String, Option<f64>)> {
        o.metrics
            .iter()
            .filter(|m| !matches!(m.unit, "s" | "ns"))
            .filter(|m| !matches!(m.name.as_str(), "unattributed_frac" | "trace.overhead_frac"))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    let a = quick(Workload::TierScm, DEFAULT_SEED, true);
    let b = quick(Workload::TierScm, DEFAULT_SEED, true);
    assert_eq!(a.failed, 0, "{:?}", a.errors);
    assert!(count_names(&a).iter().any(|(n, _)| n == "sim.cycles"));
    assert_eq!(count_names(&a), count_names(&b));
    for cell in cells_for(Workload::TierScm, DEFAULT_SEED) {
        let x = run_untraced(&cell, false).outcome.report;
        let y = run_untraced(&cell, false).outcome.report;
        assert_eq!(sim_signature(&x), sim_signature(&y), "{}", cell.name);
    }
}

#[test]
fn the_correctness_check_passes_at_the_held_out_seed() {
    let reference = reference();
    for w in [Workload::TierScm, Workload::MissStream] {
        for cell in cells_for(w, HELD_OUT_SEED) {
            let out = run_untraced(&cell, false).outcome;
            check(&cell, &out, HELD_OUT_SEED, &reference, None).expect("held-out seed");
        }
    }
}

#[test]
fn seeded_cells_are_checked_at_the_committed_seed_too() {
    // At another seed the seeded cells' reports cannot be compared, so a
    // run also checks them once at the committed document's seed.
    let out = quick(Workload::TierScm, HELD_OUT_SEED, false);
    let cells = cells_for(Workload::TierScm, HELD_OUT_SEED);
    let seeded = cells.iter().filter(|c| c.seeded).count();
    assert!(seeded > 0);
    assert_eq!(out.failed, 0, "{:?}", out.errors);
    assert_eq!(out.attempted as usize, out.passes * cells.len() + seeded);
    let same_seed = quick(Workload::TierScm, DEFAULT_SEED, false);
    assert_eq!(same_seed.attempted as usize, same_seed.passes * cells.len());
}

#[test]
fn a_wrong_report_is_caught() {
    let reference = reference();
    let cell = cells_for(Workload::TierScm, DEFAULT_SEED)
        .into_iter()
        .next()
        .expect("tier cells");
    let mut out = run_untraced(&cell, false).outcome;
    check(&cell, &out, DEFAULT_SEED, &reference, None).expect("the real report passes");
    out.report.cycles += 1;
    out.json = out.report.to_json().to_string();
    assert!(check(&cell, &out, DEFAULT_SEED, &reference, None).is_err());
}
