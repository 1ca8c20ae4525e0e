//! pm2-benchmark: one two-clock, four-workload benchmark of PM2-RS.
//!
//! ```text
//! pm2-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! pm2-benchmark run|trace --workload <name> [--seed <u64>] [--seconds <n>] [--smoke]
//! pm2-benchmark probe
//! ```
//!
//! `--trace 0` (`run`) repeats the workload at its frozen size with
//! tracing off until `--seconds` have passed (at least three reps) and
//! prints the end-to-end metrics. `--trace 1` (`trace`) makes the per-layer
//! numbers: counts from a full-size run, the wall-time drift over
//! `Sim::run_for` slices, spans from a traced tenth-size run and the layer
//! probes. The last line of standard output is the result object the
//! driver reads; a failed check makes the exit code non-zero.
//!
//! Two clocks: `virt_*` is simulated time on the modelled Myri-10G 8-core
//! testbed, bit-identical per seed; `host_*` and `setup_s` are wall time of
//! the simulator on this machine. The model is validated against the paper
//! in shape only (EXPERIMENTS.md), so no error figure is reported.

mod counts;
mod gen;
mod heap;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use counts::Counts;
use gen::{Plan, Workload, SMOKE_SHRINK};
use report::{Clock, Metric};
use stats::{median, quartiles, ratio, tail, Tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;
use workloads::Built;

use pm2_sim::{SimDuration, SimTime};

/// Virtual-time wedge guard: every workload ends within 100 ms.
const DEADLINE: SimTime = SimTime::from_secs(600);
/// Fewest timed reps a median is taken over.
const MIN_REPS: usize = 3;
/// The traced run and the warm-up use a tenth of the frozen size.
const TENTH: usize = 10;
/// `Sim::run_for` slices the drift measurement cuts a run into.
const SLICES: u64 = 100;
/// Untraced/traced pairs the tracing overhead is a median over.
const OVERHEAD_PAIRS: usize = 3;
/// The traced run divides every probe's op count by this (3 reps each).
const TRACE_PROBE_SHRINK: u64 = 10;

const USAGE: &str = "usage: pm2-benchmark [run|trace|probe] --workload \
<overlap_2n|ring_1024|incast_lossy|coll_rma_step> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke]";

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    Trace,
    Probe,
}

struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

impl Args {
    /// `--smoke` is a pre-push check of outputs and determinism, not a
    /// measurement: sizes divided by [`SMOKE_SHRINK`], no warm-up rep, one
    /// rep, one overhead pair.
    fn shrink(&self) -> usize {
        if self.smoke {
            SMOKE_SHRINK
        } else {
            1
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 1,
        seconds: 20.0,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => args.mode = Mode::Run,
        Some("trace") => args.mode = Mode::Trace,
        Some("probe") => args.mode = Mode::Probe,
        _ => {}
    }
    if matches!(
        it.peek().map(|s| s.as_str()),
        Some("run" | "trace" | "probe")
    ) {
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}\n{USAGE}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds out of range\n{USAGE}"));
                }
            }
            "--trace" => {
                args.mode = match value()?.as_str() {
                    "0" => Mode::Run,
                    "1" => Mode::Trace,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.mode != Mode::Probe && args.workload.is_none() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::Probe => {
            for p in probes::PROBES {
                let m = Metric::new(p.name, p.unit, Clock::Host, probes::measure(p, 1, 5));
                report::print_metrics("probe", &[m]);
            }
            return ExitCode::SUCCESS;
        }
        Mode::Run => run_mode(&args),
        Mode::Trace => trace_mode(&args),
    };
    if outcome.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one benchmark invocation reports.
struct Outcome {
    /// Text-line prefix: `metric` (end to end) or `layer`.
    kind: &'static str,
    info: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed structural checks.
    errors: Vec<String>,
}

impl Outcome {
    /// Prints the text report and, last, the result line; returns whether
    /// every check passed and no op failed.
    fn print(&self) -> bool {
        for line in &self.info {
            println!("info {line}");
        }
        report::print_metrics(self.kind, &self.metrics);
        for e in &self.errors {
            println!("check FAILED: {e}");
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        println!(
            "{}",
            report::result_line(correct, self.attempted, self.failed, &self.metrics)
        );
        correct
    }
}

// ---- driving one simulation -------------------------------------------------

/// Wall time, event count and queue occupancy of one `Sim::run_for` slice.
struct Slice {
    wall_ns: u64,
    events: u64,
    queue_keys: usize,
}

/// A finished simulation with what the benchmark measured around it.
struct Run {
    plan: Rc<Plan>,
    built: Built,
    /// Wall seconds from process-side workload generation to the moment
    /// the simulation was ready to start.
    setup_s: f64,
    /// Wall seconds of the simulation itself.
    wall_s: f64,
    slices: Vec<Slice>,
    errors: Vec<String>,
}

enum Drive {
    /// One `Sim::run_bounded` call: how end-to-end runs are timed.
    Bounded,
    /// Fixed `Sim::run_for` slices timed from outside, optionally with
    /// pm2-obs recording.
    Sliced { slice: SimDuration, obs: bool },
}

/// Generates `workload` at `shrink`, builds its cluster, runs it to
/// quiescence and checks the outputs.
fn execute(workload: Workload, seed: u64, shrink: usize, drive: Drive) -> Run {
    let t_setup = Instant::now();
    let plan = Rc::new(Plan::generate(workload, seed, shrink));
    let built = workloads::build(&plan, seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let sim = built.cluster.sim().clone();
    let mut slices = Vec::new();
    let mut errors = Vec::new();
    let t_run = Instant::now();
    match drive {
        Drive::Bounded => {
            if sim.run_bounded(DEADLINE).is_err() {
                errors.push(format!("still busy at the {DEADLINE} wedge guard"));
            }
        }
        Drive::Sliced { slice, obs } => {
            if obs {
                // Large enough that nothing is evicted: dropped() stays 0.
                sim.obs().set_capacity(1 << 28);
                sim.obs().set_enabled(true);
            }
            loop {
                let (t0, e0) = (Instant::now(), sim.executed_events());
                sim.run_for(slice);
                slices.push(Slice {
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    events: sim.executed_events() - e0,
                    queue_keys: sim.event_queue_keys(),
                });
                if sim.pending_events() == 0 {
                    break;
                }
                if sim.now() > DEADLINE {
                    errors.push(format!("still busy at the {DEADLINE} wedge guard"));
                    break;
                }
            }
        }
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    errors.extend(workloads::structural_checks(&built, &plan));
    Run {
        plan,
        built,
        setup_s,
        wall_s,
        slices,
        errors,
    }
}

/// Everything about a run that must repeat bit for bit per seed.
#[derive(Debug, Clone, PartialEq)]
struct Virt {
    workload_hash: u64,
    ops: u64,
    attempted: u64,
    failed: u64,
    makespan_ns: u64,
    comm_ns: u64,
    life_ns: u64,
    lat: Tail,
    late: Tail,
    flush: Tail,
    events: u64,
    polls: u64,
    live_tasks: usize,
}

impl Virt {
    fn of(run: &Run) -> Virt {
        let t = run.built.tally.borrow();
        let sim = run.built.cluster.sim();
        Virt {
            workload_hash: run.plan.hash(),
            ops: run.plan.ops(),
            attempted: t.attempted,
            failed: t.failed.min(t.attempted),
            makespan_ns: t.last_finish_ns,
            comm_ns: t.comm_ns,
            life_ns: t.life_ns,
            lat: tail(&t.lat_ns),
            late: tail(&t.late_ns),
            flush: tail(&t.flush_ns),
            events: sim.executed_events(),
            polls: sim.polls(),
            live_tasks: sim.live_tasks(),
        }
    }

    fn makespan_us(&self) -> f64 {
        self.makespan_ns as f64 / 1e3
    }
}

/// `VmHWM` of this process in MiB. Printed for reference only: on the
/// small workloads it moved between 6 and 25 MiB from seed to seed with
/// glibc's trim and mmap thresholds, so the bounded memory metric is the
/// exact peak of live heap bytes instead (see [`heap`]).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn header(args: &Args, workload: Workload, v: &Virt) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        format!(
            "workload {} (op = {}), seed {}, size 1/{}, host cores {}",
            workload.name(),
            workload.op_unit(),
            args.seed,
            args.shrink(),
            cores
        ),
        format!("workload_hash {:#018x}", v.workload_hash),
        format!(
            "ops {} attempted {} failed {} latency_samples {} events {} live_tasks_end {}",
            v.ops, v.attempted, v.failed, v.lat.count, v.events, v.live_tasks
        ),
    ]
}

/// Warm-up rep at a tenth of the size: fills the allocator and the caches.
/// Not reported; returns its check failures.
fn warm_up(args: &Args, workload: Workload) -> Vec<String> {
    if args.smoke {
        return Vec::new();
    }
    execute(workload, args.seed, args.shrink() * TENTH, Drive::Bounded).errors
}

// ---- --trace 0: the end-to-end run -----------------------------------------

fn run_mode(args: &Args) -> Outcome {
    let t_proc = Instant::now();
    let workload = args.workload.expect("checked by parse_args");
    let mut errors = warm_up(args, workload);

    let mut virt: Option<Virt> = None;
    let (mut setups, mut rates, mut heaps) = (Vec::new(), Vec::new(), Vec::new());
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    while rates.len() < min_reps || t_proc.elapsed().as_secs_f64() < args.seconds {
        let heap_mark = heap::mark();
        let run = execute(workload, args.seed, args.shrink(), Drive::Bounded);
        heaps.push(heap::peak_since(heap_mark) as f64 / f64::from(1 << 20));
        let v = Virt::of(&run);
        setups.push(run.setup_s);
        rates.push(v.ops as f64 / run.wall_s);
        errors.extend(run.errors);
        match &virt {
            None => virt = Some(v),
            Some(first) if *first != v => {
                errors.push(format!(
                    "rep {} is not bit-identical to rep 1 on the virtual clock",
                    rates.len()
                ));
            }
            Some(_) => {}
        }
    }
    let v = virt.expect("at least one rep");
    // The best rep, not the median: other tenants of the machine only ever
    // slow a rep down, sometimes most reps of a run, so the fastest rep is
    // the best estimate of the undisturbed speed and repeats best. Median
    // and quartiles are printed beside it.
    let rate_best = rates.iter().copied().fold(0.0, f64::max);
    let (rate_q1, rate_med, rate_q3) = quartiles(&rates);
    let metrics = vec![
        Metric::new("setup_s", "s", Clock::Host, median(&setups)),
        Metric::new("host_ops_per_s", "op/s", Clock::Host, rate_best),
        Metric::new("host_peak_heap_mib", "MiB", Clock::Count, median(&heaps)),
        Metric::new("virt_makespan_us", "us", Clock::Virt, v.makespan_us()),
        Metric::new("virt_op_p50_us", "us", Clock::Virt, v.lat.p50 / 1e3),
        Metric::new("virt_op_p95_us", "us", Clock::Virt, v.lat.p95 / 1e3),
        Metric::new(
            "virt_exposed_comm_frac",
            "ratio",
            Clock::Virt,
            ratio(v.comm_ns as f64, v.life_ns as f64),
        ),
    ];
    let mut info = header(args, workload, &v);
    info.push(format!(
        "host_ops_per_s reps {} q1 {} median {} q3 {}",
        rates.len(),
        report::num(rate_q1),
        report::num(rate_med),
        report::num(rate_q3)
    ));
    info.push(format!(
        "host_ops_per_s per rep: {}",
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    info.push(format!("vm_hwm_mib {}", report::num(peak_rss_mib())));
    let reps = rates.len() as u64;
    Outcome {
        kind: "metric",
        info,
        metrics,
        attempted: v.attempted * reps,
        failed: v.failed * reps,
        errors,
    }
}

// ---- --trace 1: the per-layer run --------------------------------------------

/// Mean wall ns per event over `slices`.
fn ns_per_event(slices: &[&Slice]) -> f64 {
    let (wall, events) = slices
        .iter()
        .fold((0u64, 0u64), |(w, e), s| (w + s.wall_ns, e + s.events));
    ratio(wall as f64, events as f64)
}

fn get(c: &Counts, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0.0)
}

fn stage_tail(stages: &spans::Stages, stage: &str) -> Tail {
    stages.get(stage).map_or_else(Tail::default, |s| tail(s))
}

fn trace_mode(args: &Args) -> Outcome {
    let workload = args.workload.expect("checked by parse_args");
    let mut errors = Vec::new();

    // 1. Counts: a full-size run, tracing off.
    errors.extend(warm_up(args, workload));
    let full = execute(workload, args.seed, args.shrink(), Drive::Bounded);
    let v = Virt::of(&full);
    let c = counts::snapshot(&full.built);
    let ranks = full.built.cluster.ranks();
    let build_ns = full.built.build_ns;
    let payload_bytes = full.plan.payload_bytes();
    let full_wall_s = full.wall_s;
    errors.extend(full.errors);
    drop(full.built);

    // 2. Drift: the same run again in fixed virtual-time slices.
    let slice = SimDuration::from_nanos((v.makespan_ns / SLICES).max(1));
    let sliced = execute(
        workload,
        args.seed,
        args.shrink(),
        Drive::Sliced { slice, obs: false },
    );
    if Virt::of(&sliced) != v {
        errors.push("the sliced run is not bit-identical to the bounded run".into());
    }
    errors.extend(sliced.errors);
    drop(sliced.built);
    let busy: Vec<&Slice> = sliced.slices.iter().filter(|s| s.events > 0).collect();
    let tenth = (busy.len() / 10).max(1).min(busy.len());
    let (first, last) = (&busy[..tenth], &busy[busy.len() - tenth..]);
    let drift = ratio(ns_per_event(last), ns_per_event(first));
    let queue_keys_max = sliced
        .slices
        .iter()
        .map(|s| s.queue_keys)
        .max()
        .unwrap_or(0);

    // 3. Spans and the price of tracing: tenth-size pairs, obs off then on.
    let tenth_shrink = args.shrink() * TENTH;
    let tenth_slice = SimDuration::from_nanos((v.makespan_ns / TENTH as u64 / SLICES).max(1_000));
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_run = None;
    for _ in 0..if args.smoke { 1 } else { OVERHEAD_PAIRS } {
        for obs in [false, true] {
            let mut run = execute(
                workload,
                args.seed,
                tenth_shrink,
                Drive::Sliced {
                    slice: tenth_slice,
                    obs,
                },
            );
            errors.append(&mut run.errors);
            if obs {
                traced_s.push(run.wall_s);
                traced_run = Some(run);
            } else {
                plain_s.push(run.wall_s);
            }
        }
    }
    let traced_run = traced_run.expect("at least one traced run");
    let obs = traced_run.built.cluster.sim().obs();
    let events = obs.events();
    let dropped = obs.dropped();
    if dropped != 0 {
        errors.push(format!("pm2-obs dropped {dropped} events"));
    }
    let stages = spans::fold(&events);
    let t_conform = Instant::now();
    let conform = pm2_model::check_trace(&events, &pm2_model::ConformCfg::default());
    let conform_s = t_conform.elapsed().as_secs_f64();
    let traced_counts = counts::snapshot(&traced_run.built);
    let traced_ops = traced_run.plan.ops();
    drop(traced_run.built);

    // 4. Probes, shrunk to fit the run.
    let probe_metrics: Vec<Metric> = probes::PROBES
        .iter()
        .map(|p| {
            let ns = probes::measure(p, TRACE_PROBE_SHRINK * args.shrink() as u64, 3);
            Metric::new(p.name, p.unit, Clock::Host, ns)
        })
        .collect();

    // ---- the per-layer table ------------------------------------------------
    let ops = v.ops as f64;
    let msgs = get(&c, "nm.sends");
    let progress = get(&c, "pioman.inline_progress")
        + get(&c, "pioman.hook_progress")
        + get(&c, "pioman.tasklet_progress")
        + get(&c, "pioman.thread_progress");
    let post = stage_tail(&stages, "eager.post_to_submit");
    let count =
        |name: &str, unit: &'static str, value: f64| Metric::new(name, unit, Clock::Count, value);
    let virt =
        |name: &str, unit: &'static str, value: f64| Metric::new(name, unit, Clock::Virt, value);
    let host =
        |name: &str, unit: &'static str, value: f64| Metric::new(name, unit, Clock::Host, value);
    let mut layer = vec![
        count("sim.events_per_op", "1/op", v.events as f64 / ops),
        count("sim.polls_per_op", "1/op", v.polls as f64 / ops),
        count(
            "sim.events_per_virt_us",
            "1/us",
            ratio(v.events as f64, v.makespan_us()),
        ),
        host(
            "sim.host_ns_per_event",
            "ns",
            ratio(full_wall_s * 1e9, v.events as f64),
        ),
        count("sim.live_tasks_end", "count", v.live_tasks as f64),
        count("sim.queue_keys_max", "count", queue_keys_max as f64),
        host("sim.drift_ratio", "ratio", drift),
        count(
            "marcel.dispatches_per_op",
            "1/op",
            get(&c, "sched.dispatches") / ops,
        ),
        count(
            "marcel.tasklet_runs_per_op",
            "1/op",
            get(&c, "sched.tasklet_runs") / ops,
        ),
        count(
            "marcel.hook_sweeps_per_op",
            "1/op",
            get(&c, "sched.hook_sweeps") / ops,
        ),
        count(
            "marcel.pop_local_frac",
            "ratio",
            ratio(
                get(&c, "sched.pop_core") + get(&c, "sched.pop_local_socket"),
                get(&c, "sched.dispatches"),
            ),
        ),
        count(
            "pioman.offload_frac",
            "ratio",
            ratio(progress - get(&c, "pioman.inline_progress"), progress),
        ),
        count("pioman.progress_per_op", "1/op", progress / ops),
        count(
            "pioman.blocking_wakeups_per_op",
            "1/op",
            get(&c, "pioman.blocking_wakeups") / ops,
        ),
        count(
            "pioman.lock_contentions_per_op",
            "1/op",
            get(&c, "pioman.lock_contentions") / ops,
        ),
        count(
            "pioman.productive_frac",
            "ratio",
            ratio(
                get(&c, "nm.net_progress") + get(&c, "nm.shm_progress"),
                progress,
            ),
        ),
        count(
            "pioman.hook_useful_frac",
            "ratio",
            ratio(
                get(&c, "pioman.hook_progress"),
                get(&c, "sched.hook_sweeps"),
            ),
        ),
        virt("pioman.post_to_submit_ns_p50", "ns", post.p50),
        virt("pioman.post_to_submit_ns_p99", "ns", post.p99),
        count(
            "fabric.frames_per_op",
            "1/op",
            get(&c, "nic.tx_frames") / ops,
        ),
        count(
            "fabric.wire_bytes_per_payload_byte",
            "ratio",
            ratio(get(&c, "nic.tx_bytes"), payload_bytes as f64),
        ),
        count(
            "fabric.fault_dropped_frac",
            "ratio",
            ratio(get(&c, "nic.faults_dropped"), get(&c, "nic.tx_frames")),
        ),
        count(
            "fabric.reg_hit_frac",
            "ratio",
            ratio(
                get(&c, "reg.hits"),
                get(&c, "reg.hits") + get(&c, "reg.misses"),
            ),
        ),
        virt(
            "fabric.submit_to_deliver_ns_p50",
            "ns",
            stage_tail(&stages, "eager.submit_to_deliver").p50,
        ),
        count(
            "newmad.match_probes_per_msg",
            "1/msg",
            ratio(get(&c, "nm.match_probes"), msgs),
        ),
        count(
            "newmad.unexpected_frac",
            "ratio",
            ratio(get(&c, "nm.unexpected"), msgs),
        ),
        count(
            "newmad.rdv_frac",
            "ratio",
            ratio(get(&c, "nm.rdv_started"), msgs),
        ),
        count(
            "newmad.retransmits_per_msg",
            "1/msg",
            ratio(get(&c, "nm.retransmits"), msgs),
        ),
        count(
            "newmad.acks_per_msg",
            "1/msg",
            ratio(get(&c, "nm.acks_sent"), msgs),
        ),
        count(
            "newmad.dup_suppressed_per_msg",
            "1/msg",
            ratio(get(&c, "nm.dup_suppressed"), msgs),
        ),
        virt(
            "newmad.deliver_to_complete_ns_p50",
            "ns",
            stage_tail(&stages, "eager.deliver_to_complete").p50,
        ),
        virt(
            "newmad.rdv_handshake_ns_p50",
            "ns",
            stage_tail(&stages, "rdv.handshake").p50,
        ),
        virt(
            "newmad.rdv_dma_ns_p50",
            "ns",
            stage_tail(&stages, "rdv.dma").p50,
        ),
        count("coll.steps_per_op", "1/op", get(&c, "coll.steps") / ops),
        count("coll.chunks_per_op", "1/op", get(&c, "coll.chunks") / ops),
        virt(
            "coll.overlap_frac",
            "ratio",
            ratio(get(&c, "coll.overlap_ns"), v.life_ns as f64),
        ),
        count(
            "rma.frames_per_op",
            "1/op",
            (get(&c, "nm.rma_puts")
                + get(&c, "nm.rma_gets")
                + get(&c, "nm.rma_accs")
                + get(&c, "nm.rma_acks_tx"))
                / ops,
        ),
        virt("rma.flush_wait_ns_p50", "ns", v.flush.p50),
        host(
            "mpi.build_ns_per_rank",
            "ns",
            build_ns as f64 / ranks as f64,
        ),
        virt("app.op_p99_us", "us", v.lat.p99 / 1e3),
        virt("app.op_p999_us", "us", v.lat.p999 / 1e3),
        virt("app.gen_lateness_ns_p50", "ns", v.late.p50),
        virt("app.gen_lateness_ns_p99", "ns", v.late.p99),
        host(
            "obs.overhead_frac",
            "ratio",
            ratio(median(&traced_s), median(&plain_s)) - 1.0,
        ),
        count(
            "obs.events_per_op",
            "1/op",
            events.len() as f64 / traced_ops as f64,
        ),
        count("obs.dropped", "count", dropped as f64),
        host(
            "model.probe.conform_events_per_s",
            "1/s",
            ratio(events.len() as f64, conform_s),
        ),
    ];
    layer.extend(probe_metrics);

    let mut info = header(args, workload, &v);
    info.push(format!(
        "conformance {} over {} events ({} errors)",
        if conform.conformant() {
            "PERMITTED"
        } else {
            "VIOLATIONS"
        },
        events.len(),
        conform.errors.len()
    ));
    if let Err(e) = write_trace_file(
        workload,
        args,
        &v,
        &layer,
        &stages,
        &c,
        &traced_counts,
        &sliced.slices,
        &conform,
    ) {
        errors.push(format!("trace file: {e}"));
    }
    Outcome {
        kind: "layer",
        info,
        metrics: layer,
        attempted: v.attempted,
        failed: v.failed,
        errors,
    }
}

/// Writes `benchmark/out/trace_<workload>.json`: the per-layer table, the
/// span table (count/p50/p99 per stage, eager and rendezvous apart, split
/// by submission site), every counter, and the per-slice wall series.
#[allow(clippy::too_many_arguments)]
fn write_trace_file(
    workload: Workload,
    args: &Args,
    v: &Virt,
    layer: &[Metric],
    stages: &spans::Stages,
    full_counts: &Counts,
    traced_counts: &Counts,
    slices: &[Slice],
    conform: &pm2_model::ConformReport,
) -> std::io::Result<()> {
    let counters = |c: &Counts| report::object(c.iter().map(|(k, v)| (k, report::num(*v))));
    let span_table = report::object(stages.iter().map(|(stage, samples)| {
        let t = tail(samples);
        (
            stage,
            report::object([
                ("count", t.count.to_string()),
                ("p50_ns", report::num(t.p50)),
                ("p99_ns", report::num(t.p99)),
            ]),
        )
    }));
    let slice_series = report::array(slices.iter().map(|s| {
        report::object([
            ("wall_ns", s.wall_ns.to_string()),
            ("events", s.events.to_string()),
            ("queue_keys", s.queue_keys.to_string()),
        ])
    }));
    let rule_fires: BTreeMap<&str, String> = conform
        .rule_fires
        .iter()
        .map(|(rule, n)| (*rule, n.to_string()))
        .collect();
    let doc = report::object([
        ("schema", report::string("pm2-benchmark-trace/v1")),
        ("workload", report::string(workload.name())),
        ("seed", args.seed.to_string()),
        ("shrink", args.shrink().to_string()),
        (
            "workload_hash",
            report::string(&format!("{:#018x}", v.workload_hash)),
        ),
        ("ops", v.ops.to_string()),
        ("per_layer", report::metrics_object(layer)),
        ("spans_traced_tenth", span_table),
        ("counters_full_run", counters(full_counts)),
        ("counters_traced_tenth", counters(traced_counts)),
        ("slices_full_run", slice_series),
        (
            "conformance",
            report::object([
                ("conformant", conform.conformant().to_string()),
                ("errors", conform.errors.len().to_string()),
                (
                    "first_errors",
                    report::array(conform.errors.iter().take(5).map(|e| report::string(e))),
                ),
                ("rule_fires", report::object(rule_fires)),
            ]),
        ),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace_{}.json", workload.name())),
        doc + "\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_flags_and_the_subcommands_select_the_same_modes() {
        let a = parse_args(&argv("--workload ring_1024 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert!(a.mode == Mode::Trace && a.workload == Some(Workload::Ring1024));
        assert!(a.seed == 7 && a.seconds == 3.0 && !a.smoke);
        let b = parse_args(&argv("trace --workload ring_1024 --smoke")).unwrap();
        assert!(b.mode == Mode::Trace && b.smoke && b.seed == 1);
        assert!(parse_args(&argv("probe")).unwrap().mode == Mode::Probe);
        assert!(parse_args(&argv("run")).is_err(), "a workload is required");
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload ring_1024 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ring_1024 --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload ring_1024 --seed")).is_err());
    }

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("unit present")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    /// The contract between this binary and the driver: `--trace 0` prints
    /// exactly the `end_to_end` metrics of BENCHMARK.json and `--trace 1`
    /// exactly its `per_layer` metrics, names and units alike, and a clean
    /// run reports itself correct.
    #[test]
    fn benchmark_json_lists_exactly_what_the_two_modes_print() {
        let json = include_str!("../../BENCHMARK.json");
        for (mode, key) in [(Mode::Run, "end_to_end"), (Mode::Trace, "per_layer")] {
            let args = Args {
                mode,
                workload: Some(Workload::Overlap2n),
                seed: 1,
                seconds: 0.0,
                smoke: true,
            };
            let outcome = if mode == Mode::Run {
                run_mode(&args)
            } else {
                trace_mode(&args)
            };
            assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, section(json, key), "{key}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
