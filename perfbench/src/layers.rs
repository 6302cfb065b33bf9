//! Per-call probes of the layers below the workloads: the simulation
//! kernel (`sim`), the memory models (`hw`), tailoring and the clocked
//! shell simulations (`shell`) and the migration diff (`host`).
//!
//! Each probe times a fixed amount of work through the layer's public
//! functions, repeats it, and reports the median per call.

use crate::measure::{median, timed, Metric, Rng};
use harmonia::fleet::standard_catalog;
use harmonia::host::migration_report;
use harmonia::hw::device::catalog;
use harmonia::hw::ip::{DramModel, DramTiming, MacIp, MemOp};
use harmonia::hw::{DeviceId, Vendor};
use harmonia::shell::{DatapathSim, ParamCdc, TailoredShell, UnifiedShell};
use harmonia::sim::{
    AsyncFifo, ClockDomain, Engine, EventQueue, Freq, LogHistogram, MultiClock, Picos, Pipeline,
};
use std::hint::black_box;

const REPEATS: usize = 5;

/// Median over [`REPEATS`] of `work`'s time divided by the call count it
/// returns, scaled to `unit_per_s` (1e9 for ns, 1e6 for µs).
fn per_call(unit_per_s: f64, mut work: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (calls, t) = timed(&mut work);
            t * unit_per_s / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// MAC-to-role ingress at 100G into a 322.265 MHz × 512-bit role domain,
/// the configuration the paper's datapath validation uses.
fn datapath() -> DatapathSim {
    DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::khz(322_265), 512)
}

pub fn run(seed: u64) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut rng = Rng::new(seed ^ 0x6c61_7965_7273);

    // sim
    let values: Vec<u64> = (0..1_000_000)
        .map(|_| rng.next() >> (rng.below(48) + 8))
        .collect();
    m.push(Metric::new(
        "sim.histo_record_ns",
        per_call(1e9, || {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            black_box(&h);
            values.len() as u64
        }),
        "ns",
    ));
    let window: Picos = 1_000_000_000; // 1 ms
    m.push(Metric::new(
        "sim.multiclock_edge_ns",
        per_call(1e9, || {
            let mut mc = MultiClock::new();
            mc.add(ClockDomain::new(Freq::khz(322_265)));
            mc.add(ClockDomain::new(Freq::mhz(250)));
            let mut edges = 0;
            for edge in mc.edges_until(window) {
                black_box(edge);
                edges += 1;
            }
            edges
        }),
        "ns",
    ));
    m.push(Metric::new(
        "sim.async_fifo_ns",
        per_call(1e9, || {
            const EDGES: u64 = 1_000_000;
            let mut fifo = AsyncFifo::new(64);
            let mut moved = 0u64;
            for i in 0..EDGES {
                fifo.on_write_edge();
                let _ = fifo.try_push(i);
                fifo.on_read_edge();
                moved += u64::from(fifo.try_pop().is_some());
            }
            black_box(moved);
            EDGES
        }),
        "ns",
    ));
    m.push(Metric::new(
        "sim.pipeline_ns",
        per_call(1e9, || {
            const CYCLES: u64 = 1_000_000;
            let mut pipe = Pipeline::new(16);
            let mut out = 0u64;
            for c in 0..CYCLES {
                pipe.push(c, c).expect("one push per cycle");
                out += pipe.pop(c).unwrap_or(0);
            }
            black_box(out);
            CYCLES
        }),
        "ns",
    ));
    // Wakes a few clock periods ahead, as the event engine schedules them.
    let offsets: Vec<Picos> = (0..1_000_000).map(|_| rng.below(20_000)).collect();
    m.push(Metric::new(
        "sim.event_queue_ns",
        per_call(1e9, || {
            let mut q = EventQueue::new();
            let mut popped = 0u64;
            for (i, &off) in offsets.iter().enumerate() {
                q.schedule(q.now() + off, (i % 4) as u32, i);
                if i % 4 == 3 {
                    while q.pop().is_some() {
                        popped += 1;
                    }
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            popped
        }),
        "ns",
    ));

    // hw
    let addrs: Vec<u64> = (0..1_000_000).map(|_| rng.next() & 0xFFFF_FFC0).collect();
    for (name, timing) in [
        ("hw.dram_access_ns", DramTiming::ddr4_2400()),
        ("hw.hbm_access_ns", DramTiming::hbm2_channel()),
    ] {
        m.push(Metric::new(
            name,
            per_call(1e9, || {
                let mut dram = DramModel::new(timing);
                let mut t = 0;
                for (i, &a) in addrs.iter().enumerate() {
                    let op = if i % 3 == 0 {
                        MemOp::write(a, 64)
                    } else {
                        MemOp::read(a, 64)
                    };
                    t = dram.access(t, op);
                }
                black_box(t);
                addrs.len() as u64
            }),
            "ns",
        ));
    }

    // shell
    let roles = standard_catalog();
    let unified: Vec<UnifiedShell> = DeviceId::ALL
        .iter()
        .map(|&d| UnifiedShell::for_device(&catalog::device(d)))
        .collect();
    m.push(Metric::new(
        "shell.tailor_us",
        per_call(1e6, || {
            let mut calls = 0;
            for _ in 0..4 {
                for u in &unified {
                    for r in &roles {
                        black_box(TailoredShell::tailor(u, &r.spec).is_ok());
                        calls += 1;
                    }
                }
            }
            calls
        }),
        "us",
    ));
    // Per edge of the simulated window, as the cycle engine walks it: the
    // event engine's figure divides by the same count, so the two compare
    // directly however many edges the event engine skips.
    let sim = datapath();
    let edges = sim.run_with(64, 20_000, Engine::Cycle).edges_visited;
    for (name, bytes, count, engine) in [
        ("shell.datapath_64b_ns_per_edge", 64, 20_000, Engine::Cycle),
        (
            "shell.datapath_1500b_ns_per_edge",
            1500,
            2_000,
            Engine::Cycle,
        ),
        (
            "shell.datapath_event_ns_per_edge",
            64,
            20_000,
            Engine::Event,
        ),
    ] {
        let per_edge = per_call(1e9, || {
            let report = sim.run_with(bytes, count, engine);
            match engine {
                Engine::Cycle => report.edges_visited,
                Engine::Event => edges,
            }
        });
        m.push(Metric::new(name, per_edge, "ns"));
    }
    m.push(Metric::new("shell.datapath_edges", edges as f64, "count"));
    let (rbb, user) = (Freq::khz(322_265), Freq::mhz(350));
    let cdc = ParamCdc::new(rbb, 512, user, 512, 64);
    m.push(Metric::new(
        "shell.cdc_ns_per_edge",
        per_call(1e9, || {
            black_box(cdc.simulate_with(window, Engine::Cycle));
            ClockDomain::new(rbb).cycles_in(window) + ClockDomain::new(user).cycles_in(window)
        }),
        "ns",
    ));

    // host
    let devices: Vec<_> = DeviceId::ALL.iter().map(|&d| catalog::device(d)).collect();
    m.push(Metric::new(
        "host.migration_report_us",
        per_call(1e6, || {
            let mut calls = 0;
            for from in &devices {
                for to in &devices {
                    for r in &roles {
                        black_box(migration_report(from, &r.spec, to, &r.spec).is_ok());
                        calls += 1;
                    }
                }
            }
            calls
        }),
        "us",
    ));
    m
}
