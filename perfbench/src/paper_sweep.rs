//! `paper_sweep`: `harmonia_bench::all_tables()` back to back.
//!
//! The datapath and CDC simulations, the DRAM/HBM models, tailoring and
//! the wrappers do the work here; the command path is reached only through
//! the Figure 13 / Table 4 counts, and the fleet never. The sweep's inputs
//! are the paper's fixed configurations, so the seed does not change them.

use crate::measure::{median, rounds_for, timed, Outcome, Reference};
use harmonia::hw::ip::MacIp;
use harmonia::hw::Vendor;
use harmonia::metrics::Table;
use harmonia_bench as bench;
use std::time::Duration;

type Generator = fn() -> Vec<Table>;

/// The generators `all_tables` fans out, in its order, with the names the
/// traced pass reports them under.
const GENERATORS: [(&str, Generator); 12] = [
    ("fig03", bench::fig03::generate),
    ("fig10", bench::fig10::generate),
    ("fig11", bench::fig11::generate),
    ("fig12", bench::fig12::generate),
    ("fig13", bench::fig13::generate),
    ("fig14", bench::fig14::generate),
    ("fig15", bench::fig15::generate),
    ("fig16", bench::fig16::generate),
    ("fig17", bench::fig17::generate),
    ("fig18", bench::fig18::generate),
    ("tables", bench::tables::generate),
    ("ablation", bench::ablation::generate),
];

fn render(tables: &[Table]) -> Vec<String> {
    tables.iter().map(Table::to_string).collect()
}

/// Data rows of a rendered table (below the dashed rule), as whitespace
/// tokens.
fn rows(rendered: &str) -> Vec<Vec<&str>> {
    rendered
        .lines()
        .skip_while(|l| !l.starts_with('-'))
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// Property checks on one rendering of the sweep; returns the number of
/// tables that fail one, with a note per failure.
fn properties(rendered: &[String], out: &mut Outcome) -> u64 {
    let mut failed = 0;
    let mut seen = [false; 3];
    for table in rendered {
        let title = table.lines().next().unwrap_or_default();
        let mut bad = |what: String| {
            failed += 1;
            out.violation(format!("paper_sweep: {what}"));
        };
        if title.contains("cycle-simulated datapath vs analytic") {
            seen[0] = true;
            for row in rows(table) {
                let (Some(pkt), Some(sim)) = (
                    row.first().and_then(|v| v.parse::<u32>().ok()),
                    row.get(2).and_then(|v| v.parse::<f64>().ok()),
                ) else {
                    bad(format!("unparsable datapath row {row:?}"));
                    break;
                };
                let analytic = MacIp::new(Vendor::Xilinx, 100).throughput_gbps(pkt);
                if (sim - analytic).abs() > 0.01 * analytic {
                    bad(format!(
                        "{pkt} B datapath simulates {sim} Gbps, analytic {analytic:.2}"
                    ));
                    break;
                }
            }
        } else if title.contains("Figure 13") || title.contains("Table 4") {
            seen[if title.contains("Figure 13") { 1 } else { 2 }] = true;
            // The last three columns: register ops, commands, reduction.
            for row in rows(table) {
                let n = row.len();
                let counts =
                    (n >= 3).then(|| (row[n - 3].parse::<u64>(), row[n - 2].parse::<u64>()));
                match counts {
                    Some((Ok(regs), Ok(cmds))) if cmds < regs => {}
                    _ => {
                        bad(format!(
                            "{title}: row {row:?} does not need fewer commands than register ops"
                        ));
                        break;
                    }
                }
            }
        }
    }
    if seen != [true; 3] {
        out.violation(format!(
            "paper_sweep: missing checked tables (datapath, fig13, table4) = {seen:?}"
        ));
        failed += 1;
    }
    failed
}

/// Counts this sweep's tables and those that fail a check: a property on
/// the reference sweep, byte-identity with it on every repeat.
fn account(reference: &[String], bad_reference: u64, sweep: &[String], out: &mut Outcome) {
    out.attempted += sweep.len() as u64;
    let differing = if sweep.len() == reference.len() {
        sweep.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
    } else {
        sweep.len() as u64
    };
    if differing > 0 {
        out.violation(format!(
            "paper_sweep: {differing} tables differ from the first sweep"
        ));
    }
    out.failed += (bad_reference + differing).min(sweep.len() as u64);
}

/// The untraced workload: the first (cold) sweep is set-up; the timed
/// sweeps repeat until `budget` has elapsed.
pub fn run(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = Reference::new();
    let cold_ref = speed.sample();
    let (cold, setup_s) = timed(bench::all_tables);
    let reference = render(&cold);
    let bad_reference = properties(&reference, &mut out);
    let (mut rates, mut times) = (Vec::new(), Vec::new());
    rounds_for(budget, || {
        let sweep_ref = speed.sample();
        let (tables, t) = timed(bench::all_tables);
        rates.push(Reference::scale_rate(1.0 / t, sweep_ref));
        times.push(t);
        account(&reference, bad_reference, &render(&tables), &mut out);
    });
    eprintln!(
        "paper_sweep: {} sweeps of {} tables; raw: cold {:.1} ms, median {:.2} ms",
        times.len(),
        reference.len(),
        setup_s * 1e3,
        median(&times) * 1e3
    );
    out.metric("setup_s", Reference::scale_time(setup_s, cold_ref), "s");
    out.metric("ops_per_s", median(&rates), "op/s");
    out
}

/// The traced pass: the same fan-out as `all_tables`, with a span around
/// each generator call.
pub fn traced(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let reference = render(&bench::all_tables());
    let bad_reference = properties(&reference, &mut out);
    let mut per_gen: Vec<Vec<f64>> = vec![Vec::new(); GENERATORS.len()];
    let mut speed = Reference::new();
    let mut rates = Vec::new();
    rounds_for(budget, || {
        let sweep_ref = speed.sample();
        let (timed_tables, t) =
            timed(|| harmonia::sim::exec::par_map(GENERATORS.to_vec(), |(_, g)| timed(g)));
        rates.push(Reference::scale_rate(1.0 / t, sweep_ref));
        let mut tables = Vec::new();
        for (i, (t, dt)) in timed_tables.into_iter().enumerate() {
            per_gen[i].push(dt);
            tables.extend(t);
        }
        account(&reference, bad_reference, &render(&tables), &mut out);
    });
    for ((name, _), times) in GENERATORS.iter().zip(&per_gen) {
        out.metric(format!("bench.{name}_ms"), median(times) * 1e3, "ms");
    }
    out.metric("trace.sweep_ops_per_s", median(&rates), "op/s");
    out
}
