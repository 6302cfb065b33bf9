//! The command-stream workloads `cmd_serial`, `cmd_batched` and
//! `cmd_tenant`: one seeded, closed-loop stream of the host interactions of
//! Table 4, sent from one host to one simulated Device A through the serial
//! `CommandDriver`, the `BatchedCommandDriver` or the `TenantHostDriver`,
//! under a seeded low-rate drop / corrupt / lost-interrupt fault plan.
//!
//! The stream repeats one cycle of interactions taken from the repository's
//! own host code (see [`stream`]). A cycle is sent as three closed-loop
//! groups: the host sends the next group only when every command of the
//! previous one has completed. A command that depends on an earlier one (a
//! write after a reset, a read after a write) is always in a later group,
//! so every read has exactly one correct answer whichever order a driver
//! completes a group in; a dropped command that is retried completes after
//! the rest of its group.

use crate::measure::{self, median, rounds_for, timed, Metric, Outcome, Reference, Rng};
use harmonia::cmd::queue::SqDescriptor;
use harmonia::cmd::{
    CommandCode, CommandPacket, CompletionQueue, SrcId, SubmissionQueue, UnifiedControlKernel,
};
use harmonia::host::batch::{CmdResult, CmdSpec};
use harmonia::host::cmd_driver::{command_script, IssuedCommand};
use harmonia::host::{
    BatchedCommandDriver, CommandDriver, DmaEngine, DriverReport, RetryPolicy, TenantHostDriver,
};
use harmonia::hw::device::{catalog, FpgaDevice};
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::resource::ResourceUsage;
use harmonia::shell::pr::{MultiTenantRegion, TenantRole};
use harmonia::shell::sched::{TenantPolicy, TenantScheduler, DEFAULT_TENANT_SLICE_PS};
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia::sim::{FaultInjector, FaultPlan, FaultRates};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Cycles per stream: 64 000 commands.
pub const CYCLES: usize = 4_000;
/// The batched driver's doorbell batch: above every group's size, so each
/// group goes out on one doorbell.
pub const BATCH: usize = 16;
/// Submission/completion ring depth of the batched driver.
pub const RING_DEPTH: usize = 64;
/// WFQ weights of the four tenants (slice budgets 64, 128, 192, 256).
pub const TENANT_WEIGHTS: [u64; 4] = [1, 2, 3, 4];
/// Cycles enqueued per closed-loop tenant step, their groups dealt
/// round-robin: 160 commands per tenant, above the two lightest tenants'
/// slice budgets.
pub const TENANT_STEP_CYCLES: usize = 40;
/// Per-consult probability of each of CmdDrop, CmdCorrupt and IrqLost.
pub const FAULT_RATE: f64 = 0.001;
/// Set-ups timed per round; the round runs on the last. The first after a
/// pass finds the caches cold and takes up to twice as long as the rest;
/// the median over all of them is the steadier figure.
const SETUPS_PER_ROUND: usize = 5;
/// Flow-table entries a `TableWrite` index is drawn from.
const TABLE_ENTRIES: u64 = 1024;

/// One of the three host drivers, and the workload that runs the stream
/// through it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    Serial,
    Batched,
    Tenant,
}

impl Path {
    pub const ALL: [Path; 3] = [Path::Serial, Path::Batched, Path::Tenant];

    pub fn name(self) -> &'static str {
        match self {
            Path::Serial => "serial",
            Path::Batched => "batched",
            Path::Tenant => "tenant",
        }
    }

    /// Salts the run's seed into a fault plan of this driver's own.
    fn salt(self) -> u64 {
        match self {
            Path::Serial => 0x5e71a1,
            Path::Batched => 0xba7c4ed,
            Path::Tenant => 0x7e4a47,
        }
    }
}

/// What the benchmark's own model says a response must carry.
#[derive(Clone, Copy)]
enum Expect {
    /// A reset or a write: no payload.
    Empty,
    /// A register read: the value the model holds.
    Value(u32),
    /// Init, stats and health responses: the same payload every time the
    /// same module is asked (nothing in the stream changes them).
    Stable,
}

struct Cmd {
    spec: CmdSpec,
    expect: Expect,
}

/// One registered module: its kernel address, its readable and writable
/// registers with their reset values, and the flow-table registers a
/// `TableWrite` writes (empty where the module has none).
struct Module {
    rbb: u8,
    inst: u8,
    rw: Vec<(u32, u32)>,
    table: Vec<u32>,
}

impl Module {
    /// Registers a `ModuleStatusWrite` may target: every read-write
    /// register but the flow-table ones, which a `TableWrite` in the same
    /// group writes.
    fn config(&self) -> Vec<u32> {
        self.rw
            .iter()
            .map(|&(addr, _)| addr)
            .filter(|addr| !self.table.contains(addr))
            .collect()
    }
}

/// Device A and the Table 4 shell (one network, one DDR, one host module).
/// Building it is the program's part of set-up.
struct Rig {
    device: FpgaDevice,
    shell: TailoredShell,
}

impl Rig {
    fn new() -> Rig {
        let device = catalog::device_a();
        let role = RoleSpec::builder("cmd-stream")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .queues(192)
            .build();
        let shell = TailoredShell::tailor(&UnifiedShell::for_device(&device), &role)
            .expect("the Table 4 role tailors onto Device A");
        Rig { device, shell }
    }

    fn kernel(&self) -> UnifiedControlKernel {
        let mut k = UnifiedControlKernel::new(64);
        k.attach_shell(self.shell.rbbs().iter().map(|r| r.as_ref()));
        k
    }

    fn engine(&self) -> DmaEngine {
        let (gen, lanes) = self.device.pcie().expect("Device A has a PCIe link");
        DmaEngine::new(PcieDmaIp::new(self.device.vendor(), gen, lanes))
    }
}

/// The seeded stream: [`CYCLES`] cycles of the interactions the
/// repository's host code issues, each cycle 16 commands on the Table 4
/// shell:
///
/// - bring-up, the command sequence `host::cmd_driver::command_script`
///   gives per module (Table 4's network-initialization and host-config
///   rows, 5 and 4 commands, plus the memory module's 2);
/// - one monitoring pass as `CommandDriver::read_all_stats` sends it, a
///   `StatsRead` per module and one `HealthRead` (Table 4's monitoring
///   row, 4 commands);
/// - one `HealthRead` poll, the command the repository's command-path,
///   tenancy, metrics and trace benches send.
///
/// The seed draws the register each `ModuleStatusWrite` and
/// `ModuleStatusRead` targets, the values written, the flow-table entry,
/// and the order of the commands within each group. One cycle's groups:
/// resets and inits; writes and table writes; read-backs, the monitoring
/// pass and the poll.
pub struct Stream {
    modules: Vec<Module>,
    script: Vec<IssuedCommand>,
    seed: u64,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let rig = Rig::new();
        Stream {
            modules: modules(&rig.shell),
            script: command_script(&rig.shell),
            seed,
        }
    }

    /// Commands in the whole stream.
    pub fn len(&self) -> usize {
        CYCLES * (self.script.len() + self.modules.len() + 2)
    }

    /// Generates the stream afresh from the seed, one cycle of three
    /// closed-loop groups at a time; every call yields the same commands.
    /// A pass so holds one cycle of the stream, never all of it.
    fn cycles(&self) -> Cycles<'_> {
        let resets: BTreeMap<(usize, u32), u32> = self
            .modules
            .iter()
            .enumerate()
            .flat_map(|(m, module)| {
                module
                    .rw
                    .iter()
                    .map(move |&(addr, reset)| ((m, addr), reset))
            })
            .collect();
        Cycles {
            stream: self,
            rng: Rng::new(self.seed ^ 0x636d_645f_7374_7265),
            index: self
                .modules
                .iter()
                .enumerate()
                .map(|(i, m)| ((m.rbb, m.inst), i))
                .collect(),
            model: resets.clone(),
            resets,
            left: CYCLES,
        }
    }

    /// The stream's packets, tagged as a driver would tag them.
    pub fn packets(&self) -> Vec<CommandPacket> {
        self.cycles()
            .flatten()
            .flatten()
            .enumerate()
            .map(|(i, c)| {
                let (rbb, inst, code, data) = c.spec;
                CommandPacket::new(SrcId::Application, rbb, inst, code)
                    .with_data(data)
                    .with_idempotency_tag(i as u32)
            })
            .collect()
    }
}

/// Modules numbered per RBB kind, as the kernel numbers them on attach.
/// Read-write registers are found by probing a copy of each register file;
/// monitor counters are left out so stats reads stay stable.
fn modules(shell: &TailoredShell) -> Vec<Module> {
    let mut per_kind: BTreeMap<u8, u8> = BTreeMap::new();
    shell
        .rbbs()
        .iter()
        .map(|rbb| {
            let id = rbb.kind().id();
            let n = per_kind.entry(id).or_insert(0);
            let inst = *n;
            *n += 1;
            let file = rbb.register_file();
            let rw = file
                .iter()
                .filter(|(_, name)| !name.starts_with("mon_"))
                .filter_map(|(addr, _)| {
                    let mut probe = file.clone();
                    let reset = probe.read(addr).ok()?;
                    probe.write(addr, !reset).ok()?;
                    Some((addr, reset))
                })
                .collect();
            let table = [
                "table_addr",
                "table_wdata_lo",
                "table_wdata_hi",
                "table_cmd",
            ]
            .iter()
            .filter_map(|name| file.addr_of(name))
            .collect();
            Module {
                rbb: id,
                inst,
                rw,
                table,
            }
        })
        .collect()
}

/// The stream's generator: the seeded draws and the benchmark's register
/// model, which a read's expected value comes from.
struct Cycles<'a> {
    stream: &'a Stream,
    rng: Rng,
    index: BTreeMap<(u8, u8), usize>,
    resets: BTreeMap<(usize, u32), u32>,
    model: BTreeMap<(usize, u32), u32>,
    left: usize,
}

impl Iterator for Cycles<'_> {
    type Item = [Vec<Cmd>; 3];

    fn next(&mut self) -> Option<[Vec<Cmd>; 3]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let Cycles {
            stream,
            rng,
            index,
            resets,
            model,
            ..
        } = self;
        let mut stages: [Vec<Cmd>; 3] = Default::default();
        for issued in &stream.script {
            let m = index[&(issued.rbb_id, issued.instance_id)];
            let module = &stream.modules[m];
            let code = CommandCode::from_u16(issued.code);
            let target = (module.rbb, module.inst);
            let (stage, data, expect) = match code {
                CommandCode::ModuleReset => {
                    for (key, value) in model.iter_mut().filter(|(key, _)| key.0 == m) {
                        *value = resets[key];
                    }
                    (0, Vec::new(), Expect::Empty)
                }
                CommandCode::ModuleInit => (0, Vec::new(), Expect::Stable),
                CommandCode::ModuleStatusWrite => {
                    let config = module.config();
                    assert!(
                        !config.is_empty(),
                        "module {target:?} has a config register"
                    );
                    let addr = config[rng.below(config.len() as u64) as usize];
                    let value = rng.next() as u32;
                    model.insert((m, addr), value);
                    (1, vec![addr, value], Expect::Empty)
                }
                CommandCode::TableWrite => {
                    assert_eq!(module.table.len(), 4, "module {target:?} has a flow table");
                    let data = vec![
                        rng.below(TABLE_ENTRIES) as u32,
                        rng.next() as u32,
                        rng.next() as u32,
                    ];
                    for (&addr, value) in module.table.iter().zip(data.iter().copied().chain([1])) {
                        if let Some(v) = model.get_mut(&(m, addr)) {
                            *v = value;
                        }
                    }
                    (1, data, Expect::Empty)
                }
                CommandCode::ModuleStatusRead => {
                    let (addr, _) = module.rw[rng.below(module.rw.len() as u64) as usize];
                    (2, vec![addr], Expect::Value(model[&(m, addr)]))
                }
                other => panic!("command_script issued {other}, which the stream does not model"),
            };
            stages[stage].push(Cmd {
                spec: (module.rbb, module.inst, code, data),
                expect,
            });
        }
        for module in &stream.modules {
            stages[2].push(Cmd {
                spec: (module.rbb, module.inst, CommandCode::StatsRead, Vec::new()),
                expect: Expect::Stable,
            });
        }
        for _ in 0..2 {
            stages[2].push(Cmd {
                spec: (0, 0, CommandCode::HealthRead, Vec::new()),
                expect: Expect::Stable,
            });
        }
        for stage in &mut stages {
            assert!(stage.len() <= BATCH, "a group fits one doorbell");
            for i in (1..stage.len()).rev() {
                stage.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        Some(stages)
    }
}

fn faults(seed: u64, path: Path) -> FaultInjector {
    let rates = FaultRates {
        cmd_drop: FAULT_RATE,
        cmd_corrupt: FAULT_RATE,
        irq_lost: FAULT_RATE,
        ecc: 0.0,
    };
    FaultPlan::new()
        .with_rates(seed ^ path.salt(), rates)
        .injector()
}

/// A driver set up for one pass of the stream.
enum Driver {
    Serial(CommandDriver),
    Batched(BatchedCommandDriver),
    Tenant(TenantHostDriver),
}

/// The program's set-up, all of it timed as `setup_s`: Device A, tailoring
/// the Table 4 shell, attaching it to a fresh kernel, and the driver with
/// its retry policy and fault plan (for the tenant path also the PR region
/// and the WFQ scheduler with its four tenants).
fn set_up(path: Path, seed: u64) -> Driver {
    let rig = Rig::new();
    match path {
        Path::Serial => {
            let mut d = CommandDriver::new(rig.engine(), rig.kernel());
            d.set_policy(RetryPolicy::default());
            d.set_fault_injector(faults(seed, path));
            Driver::Serial(d)
        }
        Path::Batched => {
            let mut d =
                BatchedCommandDriver::with_depth(rig.engine(), rig.kernel(), BATCH, RING_DEPTH);
            d.set_policy(RetryPolicy::default());
            d.set_fault_injector(faults(seed, path));
            Driver::Batched(d)
        }
        Path::Tenant => {
            let region = MultiTenantRegion::partition(&rig.shell, rig.device.capacity(), 1, 1024);
            let mut sched = TenantScheduler::new(
                region,
                0,
                TenantPolicy::WeightedFair,
                DEFAULT_TENANT_SLICE_PS,
            )
            .expect("slot 0 of a fresh region is free");
            let logic = ResourceUsage::new(50_000, 80_000, 100, 20, 100);
            for (i, &w) in TENANT_WEIGHTS.iter().enumerate() {
                sched
                    .register(TenantRole::new(format!("t{i}"), logic, 8), w)
                    .expect("four small tenants fit the region");
            }
            let mut d = TenantHostDriver::new(sched, rig.engine(), rig.kernel());
            d.set_fault_injector(faults(seed, path));
            Driver::Tenant(d)
        }
    }
}

/// Checks responses against the stream's expectations.
#[derive(Default)]
struct Checker {
    stable: BTreeMap<(u16, u8, u8), Vec<u32>>,
    checked: usize,
    mismatches: u64,
    first: Option<String>,
}

impl Checker {
    /// Checks one group's results, in the group's order; an error is a
    /// failed operation.
    fn group(&mut self, path: Path, cmds: &[Cmd], results: &[CmdResult], out: &mut Outcome) {
        for (cmd, r) in cmds.iter().zip(results) {
            match r {
                Ok(resp) => self.check(path, cmd, &resp.data),
                Err(_) => out.failed += 1,
            }
            self.checked += 1;
        }
    }

    fn check(&mut self, path: Path, cmd: &Cmd, data: &[u32]) {
        let (rbb, inst, code, _) = &cmd.spec;
        let ok = match cmd.expect {
            Expect::Empty => data.is_empty(),
            Expect::Value(v) => data == [v],
            Expect::Stable => {
                let seen = self
                    .stable
                    .entry((code.to_u16(), *rbb, *inst))
                    .or_insert_with(|| data.to_vec());
                seen.as_slice() == data
            }
        };
        if !ok {
            self.mismatches += 1;
            let i = self.checked;
            self.first.get_or_insert_with(|| {
                format!(
                    "cmd_{}: command {i} ({code} to rbb {rbb} inst {inst}) returned {data:?}",
                    path.name()
                )
            });
        }
    }

    fn report(self, out: &mut Outcome) {
        if let Some(first) = self.first {
            out.violation(format!(
                "{first} ({} mismatching responses)",
                self.mismatches
            ));
        }
    }
}

fn acked_once(path: Path, n: usize, report: &DriverReport, acked: &[u32], out: &mut Outcome) {
    let distinct: BTreeSet<u32> = acked.iter().copied().collect();
    if report.issued != n as u64
        || report.acked != n as u64
        || acked.len() != n
        || distinct.len() != n
    {
        out.violation(format!(
            "cmd_{}: {n} commands, issued {}, acked {}, ack log {} ({} distinct)",
            path.name(),
            report.issued,
            report.acked,
            acked.len(),
            distinct.len()
        ));
    }
}

/// The simulated outcome of one pass: identical in every pass of a run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Counts {
    sim_ps: u64,
    retries: u64,
    timeouts: u64,
    nacks: u64,
    executed: u64,
    replays: u64,
    doorbells: u64,
    interrupts: u64,
    tenant_switches: u64,
    quota_exhausted: u64,
}

/// Runs the whole stream through a driver set up for it, one closed-loop
/// group (or tenant step) at a time, and checks every response. Returns
/// the host seconds spent in the driver's calls and the simulated counts.
/// Each group is generated and its commands copied before its timed
/// section, and checked after it; with `spans`, each call into the driver is timed too.
fn pass(
    driver: &mut Driver,
    stream: &Stream,
    mut spans: Option<&mut Vec<f64>>,
    out: &mut Outcome,
) -> (f64, Counts) {
    let n = stream.len();
    let mut host = Duration::ZERO;
    match driver {
        Driver::Serial(d) => {
            let path = Path::Serial;
            let mut check = Checker::default();
            let mut results = Vec::with_capacity(BATCH);
            for group in stream.cycles().flatten() {
                let specs = group.iter().map(|c| c.spec.clone()).collect::<Vec<_>>();
                results.clear();
                let start = Instant::now();
                for (rbb, inst, code, data) in specs {
                    match spans.as_deref_mut() {
                        None => results.push(d.cmd_raw_resilient(rbb, inst, code, data)),
                        Some(s) => {
                            let t = Instant::now();
                            results.push(d.cmd_raw_resilient(rbb, inst, code, data));
                            s.push(t.elapsed().as_nanos() as f64);
                        }
                    }
                }
                host += start.elapsed();
                check.group(path, &group, &results, out);
            }
            check.report(out);
            acked_once(path, n, d.report(), d.acked_log(), out);
            let r = d.report();
            let counts = Counts {
                sim_ps: d.clock_ps(),
                retries: r.retries,
                timeouts: r.timeouts,
                nacks: r.nacks,
                executed: d.kernel().commands_executed(),
                replays: d.kernel().replays(),
                ..Counts::default()
            };
            (host.as_secs_f64(), counts)
        }
        Driver::Batched(d) => {
            let path = Path::Batched;
            let mut check = Checker::default();
            for group in stream.cycles().flatten() {
                let specs = group.iter().map(|c| c.spec.clone()).collect::<Vec<_>>();
                let size = specs.len();
                let start = Instant::now();
                let results = d.submit(specs);
                let took = start.elapsed();
                host += took;
                if let Some(s) = spans.as_deref_mut() {
                    s.push(took.as_nanos() as f64 / size as f64);
                }
                check.group(path, &group, &results, out);
            }
            check.report(out);
            acked_once(path, n, d.report(), d.acked_log(), out);
            let r = d.report();
            let counts = Counts {
                sim_ps: d.clock_ps(),
                retries: r.retries,
                timeouts: r.timeouts,
                nacks: r.nacks,
                executed: d.inner().kernel().commands_executed(),
                replays: d.inner().kernel().replays(),
                doorbells: d.inner().engine_ref().doorbells(),
                interrupts: d.irq_report().interrupts,
                ..Counts::default()
            };
            (host.as_secs_f64(), counts)
        }
        Driver::Tenant(d) => tenant_pass(d, stream, spans, out),
    }
}

/// The tenant path: each step deals the groups of
/// [`TENANT_STEP_CYCLES`] cycles round-robin to the four tenants, then runs WFQ slices until every
/// tenant has drained. The driver returns no payloads, so the check is
/// per-tenant accounting.
fn tenant_pass(
    d: &mut TenantHostDriver,
    stream: &Stream,
    mut spans: Option<&mut Vec<f64>>,
    out: &mut Outcome,
) -> (f64, Counts) {
    let tenants = TENANT_WEIGHTS.len();
    let mut host = Duration::ZERO;
    let mut enqueued = [0u64; 4];
    let mut cycles = stream.cycles().peekable();
    while cycles.peek().is_some() {
        let mut per: Vec<Vec<CmdSpec>> = vec![Vec::new(); tenants];
        let step = cycles.by_ref().take(TENANT_STEP_CYCLES).flatten();
        for (g, group) in step.enumerate() {
            per[g % tenants].extend(group.into_iter().map(|c| c.spec));
        }
        let start = Instant::now();
        for (t, cmds) in per.into_iter().enumerate() {
            enqueued[t] += cmds.len() as u64;
            d.enqueue(t, cmds);
        }
        match spans.as_deref_mut() {
            None => {
                d.run(u64::MAX);
            }
            Some(s) => loop {
                let t = Instant::now();
                if d.run(1) == 0 {
                    break;
                }
                s.push(t.elapsed().as_nanos() as f64 / 1e3);
            },
        }
        host += start.elapsed();
    }
    let (mut timeouts, mut nacks) = (0, 0);
    for (t, &want) in enqueued.iter().enumerate() {
        let s = d.stats(t);
        timeouts += s.timeouts;
        nacks += s.nacks;
        out.failed += want.saturating_sub(s.completed);
        if s.completed != want || s.errors != 0 {
            out.violation(format!(
                "cmd_tenant: tenant {t} enqueued {want}, completed {}, errors {}",
                s.completed, s.errors
            ));
        }
    }
    if !d.idle() {
        out.violation("cmd_tenant: backlog left after the last step");
    }
    let counts = Counts {
        sim_ps: d.clock_ps(),
        timeouts,
        nacks,
        tenant_switches: d.scheduler().switches(),
        quota_exhausted: d.quota_hits(),
        ..Counts::default()
    };
    (host.as_secs_f64(), counts)
}

/// Every pass repeats the same operations, so its simulated outcome must
/// repeat exactly.
fn same_counts(path: Path, first: &mut Option<Counts>, counts: Counts, out: &mut Outcome) {
    match first {
        None => *first = Some(counts),
        Some(f) if *f != counts => out.violation(format!(
            "cmd_{}: pass counts {counts:?} differ from {f:?}",
            path.name()
        )),
        Some(_) => {}
    }
}

/// One untraced workload: rounds of (set up the driver
/// [`SETUPS_PER_ROUND`] times, run the stream through the last) until
/// `budget` has elapsed. `setup_s` is the median set-up.
pub fn run(path: Path, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(seed);
    let n = stream.len() as f64;
    let mut reference = Reference::new();
    let resident = measure::rss_mib().unwrap_or(f64::NAN);
    let (mut setups, mut raw_setups, mut rates, mut raw) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    rounds_for(budget, || {
        let setup_ref = reference.sample();
        let mut driver = None;
        for _ in 0..SETUPS_PER_ROUND {
            let (d, setup_s) = timed(|| set_up(path, seed));
            setups.push(Reference::scale_time(setup_s, setup_ref));
            raw_setups.push(setup_s);
            driver = Some(d);
        }
        let mut driver = driver.expect("at least one set-up");
        let round_ref = reference.sample();
        let (host_s, counts) = pass(&mut driver, &stream, None, &mut out);
        out.attempted += stream.len() as u64;
        rates.push(Reference::scale_rate(n / host_s, round_ref));
        raw.push(n / host_s);
        same_counts(path, &mut first, counts, &mut out);
    });
    let c = first.expect("at least one round");
    if path == Path::Batched {
        // Batching must pay off in simulated time: one serial pass over the
        // same stream, untimed and outside the operation count.
        let mut serial = set_up(Path::Serial, seed);
        let mut check = Outcome::default();
        let (_, s) = pass(&mut serial, &stream, None, &mut check);
        out.violations.extend(check.violations);
        if check.failed > 0 || c.sim_ps >= s.sim_ps {
            out.violation(format!(
                "cmd_batched: batched simulated time {} ps is not below serial {} ps \
                 ({} serial commands failed)",
                c.sim_ps, s.sim_ps, check.failed
            ));
        }
    }
    eprintln!(
        "cmd_{}: {} rounds of {} commands; raw host {:.0} cmd/s; simulated {:.0} cmd/s; \
         raw set-up {:.1} us; resident before the first set-up {:.2} MiB",
        path.name(),
        rates.len(),
        stream.len(),
        median(&raw),
        n / (c.sim_ps as f64 * 1e-12),
        median(&raw_setups) * 1e6,
        resident,
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&rates), "op/s");
    out
}

/// The traced pass: rounds of the stream through all three drivers, with
/// per-call spans around each driver's public entry point, plus the
/// simulated counts.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(seed);
    let n = stream.len() as f64;
    let mut spans: [Vec<f64>; 3] = Default::default();
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut first: [Option<Counts>; 3] = Default::default();
    let mut reference = Reference::new();
    rounds_for(budget, || {
        for (i, path) in Path::ALL.into_iter().enumerate() {
            let mut driver = set_up(path, seed);
            let round_ref = reference.sample();
            let (host_s, counts) = pass(&mut driver, &stream, Some(&mut spans[i]), &mut out);
            out.attempted += stream.len() as u64;
            rates[i].push(Reference::scale_rate(n / host_s, round_ref));
            same_counts(path, &mut first[i], counts, &mut out);
        }
    });
    let [s, b, t] = first.map(|c| c.expect("at least one round"));
    out.metrics.extend([
        Metric::new("host.serial_cmd_ns", median(&spans[0]), "ns"),
        Metric::new("host.batched_ns_per_cmd", median(&spans[1]), "ns"),
        Metric::new("host.tenant_slice_us", median(&spans[2]), "us"),
        Metric::new("host.retries", (s.retries + b.retries) as f64, "count"),
        Metric::new(
            "host.timeouts",
            (s.timeouts + b.timeouts + t.timeouts) as f64,
            "count",
        ),
        Metric::new("host.doorbells", b.doorbells as f64, "count"),
        Metric::new("host.interrupts", b.interrupts as f64, "count"),
        Metric::new("host.serial_sim_ps", s.sim_ps as f64, "ps"),
        Metric::new("host.batched_sim_ps", b.sim_ps as f64, "ps"),
        Metric::new("host.tenant_sim_ps", t.sim_ps as f64, "ps"),
        Metric::new("cmd.executed", (s.executed + b.executed) as f64, "count"),
        Metric::new("cmd.replays", (s.replays + b.replays) as f64, "count"),
        Metric::new("cmd.nacks", (s.nacks + b.nacks + t.nacks) as f64, "count"),
        Metric::new("shell.tenant_switches", t.tenant_switches as f64, "count"),
        Metric::new("shell.quota_exhausted", t.quota_exhausted as f64, "count"),
        Metric::new("trace.serial_ops_per_s", median(&rates[0]), "op/s"),
        Metric::new("trace.batched_ops_per_s", median(&rates[1]), "op/s"),
        Metric::new("trace.tenant_ops_per_s", median(&rates[2]), "op/s"),
    ]);
    out
}

/// The command layer without a host: encode, decode, kernel execution
/// (`submit` + `step`) and the SQ/CQ doorbell path, per command, in ns.
pub fn cmd_layer(seed: u64) -> Vec<Metric> {
    const REPEATS: usize = 5;
    let stream = Stream::new(seed);
    let rig = Rig::new();
    let packets = stream.packets();
    let mut groups = Vec::new();
    for group in stream.cycles().flatten() {
        let start = groups.last().map_or(0, |g: &std::ops::Range<usize>| g.end);
        groups.push(start..start + group.len());
    }
    let n = packets.len() as f64;
    let (mut encode, mut decode, mut exec, mut doorbell) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (bytes, t) = timed(|| {
            packets
                .iter()
                .map(CommandPacket::encode)
                .collect::<Vec<_>>()
        });
        encode.push(t * 1e9 / n);
        let (decoded, t) = timed(|| {
            bytes
                .iter()
                .map(|b| CommandPacket::decode(b))
                .collect::<Vec<_>>()
        });
        decode.push(t * 1e9 / n);
        assert!(decoded.iter().all(Result::is_ok), "clean packets decode");

        let mut kernel = rig.kernel();
        let (ok, t) = timed(|| {
            packets
                .iter()
                .all(|p| kernel.submit(p.clone()).is_ok() && matches!(kernel.step(), Ok(Some(_))))
        });
        assert!(ok, "every stream command executes on a fault-free kernel");
        exec.push(t * 1e9 / n);

        let mut kernel = rig.kernel();
        let mut sq = SubmissionQueue::new(RING_DEPTH);
        let mut cq = CompletionQueue::new(RING_DEPTH);
        let (done, t) = timed(|| {
            let mut done = 0usize;
            for group in &groups {
                for (p, b) in packets[group.clone()].iter().zip(&bytes[group.clone()]) {
                    let tag = p.idempotency_key().unwrap_or(0);
                    sq.push(SqDescriptor {
                        tag,
                        bytes: b.clone(),
                    })
                    .expect("ring has room for a group");
                }
                kernel.ring_doorbell(&mut sq, &mut cq, BATCH, SrcId::Application);
                while cq.pop().is_some() {
                    done += 1;
                }
            }
            done
        });
        assert_eq!(done, packets.len(), "every descriptor completes");
        doorbell.push(t * 1e9 / n);
    }
    vec![
        Metric::new("cmd.encode_ns", median(&encode), "ns"),
        Metric::new("cmd.decode_ns", median(&decode), "ns"),
        Metric::new("cmd.kernel_exec_ns", median(&exec), "ns"),
        Metric::new("cmd.doorbell_ns_per_desc", median(&doorbell), "ns"),
    ]
}
