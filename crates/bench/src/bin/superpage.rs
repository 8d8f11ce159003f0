//! The superpage experiment (Section 6, recapping Swanson et al.,
//! ISCA '98): Impulse's direct remapping welds non-contiguous physical
//! pages into contiguous shadow superpages, cutting TLB misses. The
//! original paper reported 5–20% improvements on SPECint95 workloads.
//!
//! Overrides: `regions=`, `pages=`, `rounds=`. Any other argument is
//! rejected with exit code 2.

use std::process::ExitCode;

use impulse_bench::runner;
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{TlbStress, TlbVariant};

fn run(regions: u64, pages: u64, rounds: u64, variant: TlbVariant) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let w = TlbStress::setup(&mut m, regions, pages, variant).expect("setup");
    m.reset_stats();
    w.sweep(&mut m, rounds);
    m.report(variant.name())
}

/// Base pages + the *online* promotion policy: the OS notices the TLB
/// thrash and rebuilds the regions as superpages mid-run ("dynamically
/// build superpages", Section 6).
fn run_auto(regions: u64, pages: u64, rounds: u64, threshold: u64) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let w = TlbStress::setup(&mut m, regions, pages, TlbVariant::BasePages).expect("setup");
    m.enable_auto_promotion(threshold);
    m.reset_stats();
    w.sweep(&mut m, rounds);
    m.report("online promotion")
}

const USAGE: &str = "usage: superpage [--paper] [regions=N] [pages=N] [rounds=N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let keys = ["--paper", "regions=", "pages=", "rounds="];
    if let Err(code) = runner::parse_args(&args, &keys, USAGE, 0) {
        return code;
    }
    let paper = args.iter().any(|a| a == "--paper");
    let wanted = [
        ("regions", 8),
        ("pages", if paper { 256 } else { 64 }),
        ("rounds", 64),
    ];
    let [regions, pages, rounds] = match runner::u64s_from_args(&args, wanted, USAGE) {
        Ok(v) => v,
        Err(code) => return code,
    };

    let base = run(regions, pages, rounds, TlbVariant::BasePages);
    let sp = run(regions, pages, rounds, TlbVariant::Superpages);
    let auto = run_auto(regions, pages, rounds, 32);

    println!("\n================================================================");
    println!(
        "Superpages via shadow remapping — {regions} regions × {pages} pages, {rounds} sweeps"
    );
    println!(
        "(working set {} pages vs. a 120-entry TLB)",
        regions * pages
    );
    println!("================================================================");
    println!(
        "{:<26}{:>16}{:>20}{:>20}",
        "", "base pages", "impulse superpgs", "online promotion"
    );
    println!(
        "{:<26}{:>16}{:>20}{:>20}",
        "cycles", base.cycles, sp.cycles, auto.cycles
    );
    println!(
        "{:<26}{:>16}{:>20}{:>20}",
        "TLB miss penalties", base.mem.tlb_penalties, sp.mem.tlb_penalties, auto.mem.tlb_penalties
    );
    println!(
        "{:<26}{:>15.1}%{:>19.1}%{:>19.1}%",
        "TLB hit ratio",
        100.0 * base.tlb.hit_ratio(),
        100.0 * sp.tlb.hit_ratio(),
        100.0 * auto.tlb.hit_ratio()
    );
    println!(
        "\nspeedup: {:.2}x manual, {:.2}x online   (paper reports 5–20% on\n\
         SPECint95; this microbenchmark isolates the TLB effect, so the gain\n\
         is larger — and the online policy pays its one-time promotion cost\n\
         [flushes + page downloads] out of the same budget)",
        base.cycles as f64 / sp.cycles as f64,
        base.cycles as f64 / auto.cycles as f64
    );
    ExitCode::SUCCESS
}
