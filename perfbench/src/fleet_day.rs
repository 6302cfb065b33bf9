//! `fleet_day`: bring up a best-fit fleet over a sampled inventory and run
//! one diurnal day with a device kill at the 21:00 peak.
//!
//! This is the only workload where placement, tailoring as a fit check,
//! the migration matrix and the tick loop do the work; it never reaches
//! the host drivers or the clocked simulations.

use crate::measure::{median, rounds_for, timed, Outcome, Reference};
use harmonia::fleet::inventory::device_speed;
use harmonia::fleet::placement::{migration_matrix, place};
use harmonia::fleet::{
    standard_catalog, CampaignReport, DeviceState, DiurnalTraffic, FleetController, FleetSpec,
    Inventory, PlacementPolicy, RoleClass,
};
use harmonia::hw::device::catalog;
use harmonia::shell::MemoryDemand;
use std::time::Duration;

/// Fleet size: the `fleet` binary's default.
pub const DEVICES: usize = 2048;

/// The device kill lands on the diurnal peak, 21:00.
pub const KILL_TICK: u32 = harmonia_bench::fleet::KILL_TICK;

fn spec(seed: u64) -> FleetSpec {
    FleetSpec::new(DEVICES, seed, PlacementPolicy::BestFit)
}

/// One simulated day: bring-up and tick-loop times, each with the
/// reference sample taken just before it, and the outcome.
pub struct Day {
    pub bringup_s: f64,
    pub bringup_ref: f64,
    pub run_s: f64,
    pub run_ref: f64,
    pub report: CampaignReport,
    pub rendered: String,
    pub device_ticks: u64,
}

/// Brings a fleet up, kills the first assigned device at the peak and runs
/// the day, checking the outcome against `peaks` (per-role peak demand).
pub fn day(seed: u64, peaks: &[u64], reference: &mut Reference, out: &mut Outcome) -> Day {
    let bringup_ref = reference.sample();
    let (fleet, bringup_s) = timed(|| FleetController::new(spec(seed)));
    let mut fleet = fleet.expect("best-fit placement of the sampled fleet must be feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    let run_ref = reference.sample();
    let (report, run_s) = timed(|| fleet.run());
    check(&fleet, &report, victim, peaks, out);
    out.attempted += report.accounting.injected;
    out.failed += report
        .accounting
        .injected
        .saturating_sub(report.accounting.executed);
    Day {
        bringup_s,
        bringup_ref,
        run_s,
        run_ref,
        device_ticks: DEVICES as u64 * u64::from(report.total_ticks),
        rendered: report.render(),
        report,
    }
}

/// Peak per-tick command demand of each role over the day, taken from the
/// generated schedule by the benchmark itself.
pub fn peaks(seed: u64, roles: &[RoleClass]) -> Vec<u64> {
    let s = spec(seed);
    let schedule = DiurnalTraffic::new(s.users, seed).schedule(s.ticks, roles);
    (0..roles.len())
        .map(|r| schedule.iter().map(|t| t.per_role[r]).max().unwrap_or(0))
        .collect()
}

fn check(
    fleet: &FleetController,
    report: &CampaignReport,
    victim: u32,
    peaks: &[u64],
    out: &mut Outcome,
) {
    let acc = report.accounting;
    if acc.injected != acc.executed || acc.pending != 0 {
        out.violation(format!(
            "fleet: injected {} != executed {} (pending {}) after the drain",
            acc.injected, acc.executed, acc.pending
        ));
    }
    let roles = fleet.roles();
    for d in &fleet.inventory().devices {
        let Some(r) = d.role else { continue };
        let hw = catalog::device(d.model);
        if roles[r].name == "retrieval" && !hw.has_hbm() {
            out.violation(format!(
                "fleet: retrieval replica on device {} ({:?}) without HBM",
                d.index, d.model
            ));
        }
        if matches!(roles[r].spec.memory(), Some(MemoryDemand::Ddr { .. })) && !hw.has_ddr() {
            out.violation(format!(
                "fleet: DDR-backed role {} on DRAM-less device {} ({:?})",
                roles[r].name, d.index, d.model
            ));
        }
    }
    for (r, role) in roles.iter().enumerate() {
        let covered: u128 = fleet
            .assignments()
            .iter()
            .filter(|a| a.role == r)
            .map(|a| {
                let speed = device_speed(fleet.inventory().devices[a.device as usize].model);
                u128::from(role.capacity_per_tick(speed)) * u128::from(role.target_util_ppm())
            })
            .sum();
        if covered < u128::from(peaks[r]) * 1_000_000 {
            out.violation(format!(
                "fleet: role {} claims {covered} ppm-cmds/tick below its peak {} cmds/tick",
                role.name, peaks[r]
            ));
        }
    }
    let dead = &fleet.inventory().devices[victim as usize];
    if acc.migrated == 0 || dead.state != DeviceState::Down || dead.queued() != 0 {
        out.violation(format!(
            "fleet: killed device {victim} not drained (migrated {}, state {:?}, queued {})",
            acc.migrated,
            dead.state,
            dead.queued()
        ));
    }
}

/// The untraced workload: forces the process-global migration matrix
/// during set-up, then runs whole days until `budget` has elapsed.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let roles = standard_catalog();
    let matrix_ref = reference.sample();
    let (_, matrix_s) = timed(|| migration_matrix(&roles));
    let peaks = peaks(seed, &roles);
    let (mut bringups, mut rates) = (Vec::new(), Vec::new());
    let (mut raw_bringups, mut raw_runs) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    rounds_for(budget, || {
        let d = day(seed, &peaks, &mut reference, &mut out);
        bringups.push(Reference::scale_time(d.bringup_s, d.bringup_ref));
        rates.push(Reference::scale_rate(
            d.device_ticks as f64 / d.run_s,
            d.run_ref,
        ));
        raw_bringups.push(d.bringup_s);
        raw_runs.push(d.run_s);
        same_as_first(&mut first, d.rendered, &mut out);
    });
    eprintln!(
        "fleet_day: {} days; raw: matrix {:.3} s, bring-up median {:.3} s, day median {:.3} s",
        rates.len(),
        matrix_s,
        median(&raw_bringups),
        median(&raw_runs),
    );
    let matrix = Reference::scale_time(matrix_s, matrix_ref);
    out.metric("setup_s", matrix + median(&bringups), "s");
    out.metric("ops_per_s", median(&rates), "op/s");
    out
}

/// Every repeated day must render byte-identically to the first.
fn same_as_first(first: &mut Option<String>, rendered: String, out: &mut Outcome) {
    match first {
        None => *first = Some(rendered),
        Some(f) if *f != rendered => out.violation("fleet: a repeated day rendered differently"),
        Some(_) => {}
    }
}

/// The traced pass: times each bring-up step through the fleet crate's
/// public functions, then the day itself.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let roles = standard_catalog();
    let (_, matrix_s) = timed(|| migration_matrix(&roles));
    let peaks = peaks(seed, &roles);
    let s = spec(seed);
    let (mut sample, mut schedule, mut placing, mut runs, mut tick_ns, mut rates) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut first: Option<String> = None;
    let mut last: Option<CampaignReport> = None;
    rounds_for(budget, || {
        let (inventory, t) = timed(|| Inventory::sample(s.devices, seed));
        sample.push(t);
        let (generated, t) = timed(|| {
            let sched = DiurnalTraffic::new(s.users, seed).schedule(s.ticks, &roles);
            DiurnalTraffic::peak_per_role(&sched, &roles)
        });
        schedule.push(t);
        if generated != peaks {
            out.violation("fleet: the traffic generator's peaks differ from the schedule's maxima");
        }
        let (placed, t) = timed(|| {
            place(
                PlacementPolicy::BestFit,
                &inventory,
                &roles,
                &generated,
                seed,
            )
        });
        placing.push(t);
        if placed.is_err() {
            out.violation("fleet: best-fit placement failed");
        }
        let d = day(seed, &peaks, &mut reference, &mut out);
        runs.push(d.run_s);
        rates.push(Reference::scale_rate(
            d.device_ticks as f64 / d.run_s,
            d.run_ref,
        ));
        tick_ns.push(d.run_s * 1e9 / d.device_ticks as f64);
        same_as_first(&mut first, d.rendered.clone(), &mut out);
        last = Some(d.report);
    });
    let fits_us = fits_us(&roles);
    let report = last.expect("at least one traced day");
    let acc = report.accounting;
    out.metric("fleet.inventory_sample_ms", median(&sample) * 1e3, "ms");
    out.metric("fleet.traffic_schedule_ms", median(&schedule) * 1e3, "ms");
    out.metric("fleet.place_ms", median(&placing) * 1e3, "ms");
    out.metric("fleet.fits_us", fits_us, "us");
    out.metric("fleet.migration_matrix_ms", matrix_s * 1e3, "ms");
    out.metric("fleet.run_ms", median(&runs) * 1e3, "ms");
    out.metric("fleet.device_tick_ns", median(&tick_ns), "ns");
    out.metric(
        "fleet.device_ticks",
        (DEVICES as u64 * u64::from(report.total_ticks)) as f64,
        "count",
    );
    out.metric("fleet.cmds_injected", acc.injected as f64, "count");
    out.metric("fleet.cmds_executed", acc.executed as f64, "count");
    out.metric("fleet.cmds_migrated", acc.migrated as f64, "count");
    out.metric("fleet.replicas", report.replicas as f64, "count");
    out.metric(
        "fleet.drain_ticks",
        f64::from(report.total_ticks - report.traffic_ticks),
        "count",
    );
    out.metric(
        "fleet.rebalance_ticks",
        f64::from(report.rebalance_ticks),
        "count",
    );
    out.metric("trace.fleet_ops_per_s", median(&rates), "op/s");
    out
}

/// One `RoleClass::fits` call, in µs: every role against every model,
/// repeated, median of the repeats.
fn fits_us(roles: &[RoleClass]) -> f64 {
    const REPEATS: usize = 9;
    const PASSES: usize = 8;
    let models = harmonia::hw::DeviceId::ALL;
    let per_call: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (fits, t) = timed(|| {
                let mut fits = 0usize;
                for _ in 0..PASSES {
                    for role in roles {
                        for &m in &models {
                            fits += usize::from(std::hint::black_box(role).fits(m));
                        }
                    }
                }
                fits
            });
            std::hint::black_box(fits);
            t * 1e6 / (PASSES * roles.len() * models.len()) as f64
        })
        .collect();
    median(&per_call)
}
