//! The Harmonia benchmark: five seeded workloads, each in one process.
//!
//! ```text
//! perfbench --workload fleet_day|cmd_serial|cmd_batched|cmd_tenant|paper_sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload for `S` seconds and
//! prints the end-to-end metrics. With `--trace 1` it runs the traced
//! passes of the fleet day, the command stream and the sweep (a span
//! around each call into a layer's public functions) and the layer probes,
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! Run it through `run.py`, which builds it and clears the environment:
//! the library reads `HARMONIA_*` knobs, so the binary refuses to run with
//! any of them set except an explicit `HARMONIA_THREADS`.

mod cmd_stream;
mod fleet_day;
mod layers;
mod measure;
mod paper_sweep;

use cmd_stream::Path;
use measure::Outcome;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 5] = [
    "fleet_day",
    "cmd_serial",
    "cmd_batched",
    "cmd_tenant",
    "paper_sweep",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Refuses a stray knob and returns the explicit worker-thread count.
fn clean_environment() -> Result<usize, String> {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            (k.starts_with("HARMONIA_") || k.starts_with("TESTKIT_")) && k != "HARMONIA_THREADS"
        })
        .collect();
    if !stray.is_empty() {
        return Err(format!(
            "unset {stray:?}: they change what the library does"
        ));
    }
    let threads: usize = std::env::var("HARMONIA_THREADS")
        .map_err(|_| "set HARMONIA_THREADS explicitly".to_string())?
        .parse()
        .map_err(|e| format!("HARMONIA_THREADS: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if threads == 0 || threads > nproc {
        return Err(format!(
            "HARMONIA_THREADS={threads} must be within 1..={nproc}"
        ));
    }
    Ok(threads)
}

fn main() -> ExitCode {
    let (args, threads) = match parse_args().and_then(|a| clean_environment().map(|t| (a, t))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} (nproc {}) engine={} \
         HARMONIA_*/TESTKIT_* other than HARMONIA_THREADS: none",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        std::thread::available_parallelism().map_or(1, usize::from),
        harmonia::sim::Engine::from_env(),
    );
    let budget = Duration::from_secs(args.seconds);
    let mut out = if args.trace {
        traced(args.seed, budget)
    } else {
        let mut out = match args.workload.as_str() {
            "fleet_day" => fleet_day::run(args.seed, budget),
            "cmd_serial" => cmd_stream::run(Path::Serial, args.seed, budget),
            "cmd_batched" => cmd_stream::run(Path::Batched, args.seed, budget),
            "cmd_tenant" => cmd_stream::run(Path::Tenant, args.seed, budget),
            _ => paper_sweep::run(budget),
        };
        match measure::peak_rss_mib() {
            Some(mib) => out.metric("peak_rss_mb", mib, "MiB"),
            None => out.violation("peak RSS is not readable from /proc/self/status"),
        }
        out
    };
    for v in out.violations.iter().take(20) {
        eprintln!("perfbench: VIOLATION {v}");
    }
    out.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    println!("{}", out.json());
    ExitCode::SUCCESS
}

/// The traced run: the traced passes of the fleet day, the command stream
/// (all three drivers) and the sweep, each given a quarter of the budget,
/// then the layer probes. The per-layer set is the same whichever workload
/// is named.
fn traced(seed: u64, budget: Duration) -> Outcome {
    let share = budget / 4;
    let mut out = fleet_day::traced(seed, share);
    out.absorb(cmd_stream::traced(seed, share));
    out.absorb(paper_sweep::traced(share));
    out.metrics.extend(cmd_stream::cmd_layer(seed));
    out.metrics.extend(layers::run(seed));
    out
}
