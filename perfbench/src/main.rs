//! End-to-end benchmark of the NewtOS stack with a per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc|bulk|churn|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run boots fresh stacks, drives one workload in a closed loop from
//! the remote peer for `--seconds`, verifies every response, and prints one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  Every layer is measured from outside the
//! stack: timed calls into its public API, its stats snapshots, and its
//! threads' `/proc` scheduler counters.  See `README.md` beside this file.

mod counters;
mod load;
mod sampler;
mod stats;

use std::time::{Duration, Instant};

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_kernel::rs::{FaultAction, ServiceStatus};
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::Component;

use counters::Counters;
use load::{Completion, Load};
use sampler::{Sampler, LAYERS};
use stats::{interquartile_mean, longest_gaps, median, Samples};

/// Fresh stacks booted per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Source port of the set-up probe connection.
const SETUP_PORT: u16 = 9_000;
/// First source port of keep-alive slots.
const KEEPALIVE_PORT: u16 = 10_000;
/// The measured window is cut into slices of this length.  CPU per request
/// is averaged over the middle half of the slices, so a stalled second
/// moves it less than a mean over the window.  The traced run traces every
/// other slice, so the tracing overhead is measured on the same stack in the
/// same run.
const SLICE: Duration = Duration::from_secs(1);
/// Sampling period of threads and counters inside a traced slice.
const TRACE_PERIOD: Duration = Duration::from_millis(10);
/// Share of the host's CPU time the hypervisor may steal in a slice before
/// the slice is left out of the end-to-end metrics.
const STEAL_LIMIT: f64 = 0.02;
/// Per-thread CPU must add up to process CPU within this share.
const CPU_CLOSURE: f64 = 0.10;
/// Bound on each warm-up, quiesce and drain phase.
const PHASE_LIMIT: Duration = Duration::from_secs(30);
/// Bound on the measured phase, which recover runs past `--seconds` until
/// its fault schedule is done.
const MEASURE_LIMIT: Duration = Duration::from_secs(100);
/// Verified responses recover needs after its last fault before it stops.
const POST_FAULT_RESPONSES: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Rpc,
    Bulk,
    Churn,
    Recover,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Rpc => "rpc",
            Workload::Bulk => "bulk",
            Workload::Churn => "churn",
            Workload::Recover => "recover",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [
            Workload::Rpc,
            Workload::Bulk,
            Workload::Churn,
            Workload::Recover,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// Object every request fetches.  Bulk keeps 1 MiB: about 18 TSO
    /// super-segments per response, enough to show TCP's retransmissions.
    fn path(self) -> &'static str {
        match self {
            Workload::Bulk => "/bytes/1048576",
            _ => "/bytes/64",
        }
    }

    /// Concurrent slots.  Bulk uses one connection: two push its tail into
    /// retransmission timeouts.
    fn slots(self) -> usize {
        match self {
            Workload::Bulk => 1,
            _ => 2,
        }
    }

    /// Responses discarded before measuring.  Bulk's first ~100 responses
    /// run slower than the rest.
    fn warmup(self) -> usize {
        match self {
            Workload::Bulk => 100,
            _ => 500,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload rpc|bulk|churn|recover is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: the seeded source of fault offsets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Components recover crashes, each once, in this order and at these
/// measured-response counts plus a seeded offset below [`FAULT_JITTER`].
/// TCP is left out: its crash resets connections by design.
const FAULTS: [(&str, Component, usize); 3] = [
    ("driver", Component::Driver(0), 1_000),
    ("pf", Component::PacketFilter, 3_000),
    ("ip", Component::Ip, 5_000),
];
const FAULT_JITTER: u64 = 500;

/// The common configuration: split stack with one shard, TSO, GRO and the
/// packet filter on, a gigabit link with 100 µs one-way delay, and virtual
/// time running at real time.
fn stack_config() -> StackConfig {
    StackConfig::newtos()
        .link(LinkConfig::gigabit())
        .clock_speedup(1.0)
}

/// Timed stages of one boot, in µs.
#[derive(Debug, Clone, Copy)]
struct Setup {
    stack_start_us: f64,
    httpd_spawn_us: f64,
    first_response_us: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        (self.stack_start_us + self.httpd_spawn_us + self.first_response_us) / 1e6
    }
}

/// Boots a stack and its HTTP server and fetches one verified response on
/// a fresh connection.
fn boot() -> Result<(NewtStack, Httpd, Setup), String> {
    let t0 = Instant::now();
    let stack = NewtStack::start(stack_config());
    let t1 = Instant::now();
    let httpd = Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default())
        .map_err(|e| format!("httpd: {e:?}"))?;
    let t2 = Instant::now();
    let first = {
        let mut probe = Load::new(stack.peer(0), "/bytes/64", 1, false, SETUP_PORT);
        let done = probe.run_until(PHASE_LIMIT, |l| !l.completions.is_empty());
        probe.close();
        match (done, probe.verify_failures) {
            (true, 0) => probe.completions[0].at,
            _ => return Err("setup: no verified first response".to_string()),
        }
    };
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let setup = Setup {
        stack_start_us: us(t0, t1),
        httpd_spawn_us: us(t1, t2),
        first_response_us: us(t2, first),
    };
    Ok((stack, httpd, setup))
}

/// One injected fault.
#[derive(Debug)]
struct Fault {
    name: &'static str,
    component: Component,
    injected: Instant,
    /// Responses completed before the injection.
    completed_before: usize,
    restarts_before: u32,
    /// Time from injection until the component runs again.
    restart: Option<Duration>,
}

/// What the measured phase produced.
#[derive(Debug)]
struct Window {
    t0: Instant,
    end: Instant,
    completions: Vec<Completion>,
    connections_opened: u64,
    unfinished: usize,
    counters: Counters,
    usage: sampler::Report,
    faults: Vec<Fault>,
    /// Cumulative figures at the end of each whole slice.
    slice_marks: Vec<Slice>,
    /// CPU time the hypervisor stole during the window, in ms.
    steal_ms: u64,
}

fn measure(
    stack: &NewtStack,
    httpd: &Httpd,
    load: &mut Load,
    args: &Args,
) -> Result<Window, String> {
    let workload = args.workload;
    if !load.run_until(PHASE_LIMIT, |l| l.completions.len() >= workload.warmup()) {
        return Err("warm-up did not finish".to_string());
    }
    // Start from a quiet stack so every counter window holds whole requests.
    load.issuing = false;
    if !load.run_until(PHASE_LIMIT, |l| l.in_flight() == 0) {
        return Err("warm-up did not drain".to_string());
    }

    let mut schedule: Vec<(&'static str, Component, usize)> = Vec::new();
    if workload == Workload::Recover {
        let mut rng = args.seed;
        for (name, component, at) in FAULTS {
            schedule.push((
                name,
                component,
                at + (splitmix(&mut rng) % FAULT_JITTER) as usize,
            ));
        }
    }
    let first = load.completions.len();
    let opened_before = load.connections_opened;
    let mut counters = Counters::start(counters::read(stack, httpd));
    let mut sampler = Sampler::start();
    let steal_before = sampler::steal_ms();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    let mut faults: Vec<Fault> = Vec::new();
    let mut next_sample = t0;
    let mut slice_marks = Vec::new();
    load.issuing = true;
    loop {
        let now = Instant::now();
        let slice = ((now - t0).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if slice > slice_marks.len() && slice_marks.len() < args.seconds as usize {
            let report = sampler.report();
            slice_marks.push(Slice {
                completions: (load.completions.len() - first) as u64,
                server_cpu_ns: report.server_cpu_ns(),
                harness_cpu_ns: report.harness_cpu_ns(),
                steal_ms: sampler::steal_ms() - steal_before,
            });
        }
        if args.trace && slice % 2 == 1 && now >= next_sample {
            sampler.sample();
            counters.observe(counters::read(stack, httpd));
            next_sample = now + TRACE_PERIOD;
        }
        let measured = load.completions.len() - first;
        if let Some(&(name, component, _)) = schedule
            .get(faults.len())
            .filter(|(_, _, at)| measured >= *at)
        {
            // Keep the dying incarnation's work before it goes.
            sampler.sample();
            counters.observe(counters::read(stack, httpd));
            let restarts_before = stack.restart_count(component);
            let injected = Instant::now();
            if !stack.inject_fault(component, FaultAction::Crash) {
                return Err(format!("no component {name} to crash"));
            }
            faults.push(Fault {
                name,
                component,
                injected,
                completed_before: load.completions.len(),
                restarts_before,
                restart: None,
            });
        }
        for fault in faults.iter_mut().filter(|f| f.restart.is_none()) {
            if stack.restart_count(fault.component) > fault.restarts_before
                && stack.component_status(fault.component) == Some(ServiceStatus::Running)
            {
                fault.restart = Some(now - fault.injected);
            }
        }
        let schedule_done = faults.len() == schedule.len()
            && faults.iter().all(|f| f.restart.is_some())
            && faults.last().is_none_or(|f| {
                load.completions.len() - f.completed_before >= POST_FAULT_RESPONSES
            });
        if now >= deadline && schedule_done {
            break;
        }
        if now - t0 > MEASURE_LIMIT {
            return Err("fault schedule did not finish in time".to_string());
        }
        load.pass();
    }
    load.issuing = false;
    load.run_until(PHASE_LIMIT, |l| l.in_flight() == 0);
    let end = Instant::now();
    counters.observe(counters::read(stack, httpd));
    let usage = sampler.report();
    let steal_ms = sampler::steal_ms() - steal_before;
    let completions = load.completions[first..].to_vec();
    Ok(Window {
        t0,
        end,
        completions,
        connections_opened: load.connections_opened - opened_before,
        unfinished: load.in_flight(),
        counters,
        usage,
        faults,
        slice_marks,
        steal_ms,
    })
}

/// Figures of one slice of the measured window: responses completed, CPU
/// of the stack servers and of the harness (ns), and CPU time the
/// hypervisor stole (ms).
#[derive(Debug, Clone, Copy, Default)]
struct Slice {
    completions: u64,
    server_cpu_ns: u64,
    harness_cpu_ns: u64,
    steal_ms: u64,
}

impl Slice {
    fn since(self, before: Slice) -> Slice {
        Slice {
            completions: self.completions - before.completions,
            server_cpu_ns: self.server_cpu_ns.saturating_sub(before.server_cpu_ns),
            harness_cpu_ns: self.harness_cpu_ns.saturating_sub(before.harness_cpu_ns),
            steal_ms: self.steal_ms.saturating_sub(before.steal_ms),
        }
    }
}

/// Splits the window into its whole slices.
fn slices(w: &Window) -> Vec<Slice> {
    let mut before = Slice::default();
    w.slice_marks
        .iter()
        .map(|&mark| {
            let slice = mark.since(before);
            before = mark;
            slice
        })
        .collect()
}

/// Index of the slice a response completed in; responses of the final
/// drain lie past the last whole slice.
fn slice_of(w: &Window, c: &Completion) -> Option<usize> {
    let index = ((c.at - w.t0).as_secs_f64() / SLICE.as_secs_f64()) as usize;
    (index < w.slice_marks.len()).then_some(index)
}

/// Which slices the end-to-end metrics use.  A slice in which the
/// hypervisor stole more than [`STEAL_LIMIT`] of the host's CPU time
/// measures the host, not the stack, and is left out, unless that would
/// leave fewer than half of the slices.
/// `capacity_ms` is the CPU time all cores offer in one slice.
fn usable(slices: &[Slice], capacity_ms: f64) -> Vec<bool> {
    let clean: Vec<bool> = slices
        .iter()
        .map(|s| s.steal_ms as f64 <= STEAL_LIMIT * capacity_ms)
        .collect();
    if clean.iter().filter(|&&c| c).count() * 2 >= slices.len() {
        clean
    } else {
        vec![true; slices.len()]
    }
}

/// Median completion rate of the even (untraced) and the odd (traced)
/// slices.
fn parity_rates(slices: &[Slice]) -> (f64, f64) {
    let rate = |parity: usize| {
        let rates: Vec<f64> = slices
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|s| s.completions as f64 / SLICE.as_secs_f64())
            .collect();
        median_or_zero(&rates)
    };
    (rate(0), rate(1))
}

/// A named value with its unit and what it was computed from.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    basis: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    basis: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        basis: basis.into(),
    }
}

/// Median of the values, or 0 when there are none.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    failed_checks: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Everything a finished run hands to the metric code.
struct Finished {
    setups: Vec<Setup>,
    window: Window,
    verify_failures: u64,
    abandoned: u64,
    restart_counts: Vec<u32>,
    /// Connection set-up times of the whole run, warm-up included, so the
    /// keep-alive workloads report the connects they made.
    connect_us: Vec<f64>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut booted = None;
    for i in 0..SETUP_REPEATS {
        let (stack, httpd, setup) = boot()?;
        setups.push(setup);
        if i + 1 == SETUP_REPEATS {
            booted = Some((stack, httpd));
        } else {
            httpd.stop();
            stack.shutdown();
        }
    }
    let (stack, httpd) = booted.expect("at least one boot");
    let workload = args.workload;
    let churn = workload == Workload::Churn;
    let first_port = if churn {
        load::churn_first_port(args.seed)
    } else {
        KEEPALIVE_PORT
    };
    let mut load = Load::new(
        stack.peer(0),
        workload.path(),
        workload.slots(),
        churn,
        first_port,
    );
    let window = measure(&stack, &httpd, &mut load, args)?;
    load.close();
    let finished = Finished {
        setups,
        restart_counts: window
            .faults
            .iter()
            .map(|f| stack.restart_count(f.component))
            .collect(),
        window,
        verify_failures: load.verify_failures,
        abandoned: load.abandoned,
        connect_us: load
            .completions
            .iter()
            .filter_map(|c| c.connect_us)
            .collect(),
    };
    drop(load);
    httpd.stop();
    stack.shutdown();
    Ok(evaluate(args, &finished))
}

fn evaluate(args: &Args, f: &Finished) -> Outcome {
    let w = &f.window;
    let elapsed = (w.end - w.t0).as_secs_f64();
    let latencies = Samples::new(w.completions.iter().map(|c| c.latency_us).collect());
    let completion_s: Vec<f64> = w
        .completions
        .iter()
        .map(|c| (c.at - w.t0).as_secs_f64())
        .collect();
    let injections: Vec<f64> = w
        .faults
        .iter()
        .map(|f| (f.injected - w.t0).as_secs_f64())
        .collect();
    let gaps_ms: Vec<f64> = longest_gaps(&completion_s, &injections, elapsed)
        .into_iter()
        .map(|g| g * 1e3)
        .collect();
    let usage = &w.usage;
    let thread_share = usage.thread_cpu_ns() as f64 / usage.process_cpu_ns.max(1) as f64;

    let mut failed_checks = Vec::new();
    let mut check = |ok: bool, name: &str| {
        if !ok {
            failed_checks.push(name.to_string());
        }
    };
    check(f.verify_failures == 0, "verify: every response byte-exact");
    check(f.abandoned == 0, "reconnects: no request abandoned");
    check(
        w.unfinished == 0,
        "unfinished: every request done after the drain",
    );
    check(
        latencies.percentile(0.90).is_some(),
        "samples: p90 needs 100 latency samples",
    );
    check(
        w.counters.get("httpd.requests") >= w.completions.len() as u64,
        "httpd.requests >= completions",
    );
    check(
        (thread_share - 1.0).abs() <= CPU_CLOSURE,
        "cpu_closure: thread CPU within 10% of process CPU",
    );
    if args.workload == Workload::Churn {
        check(
            w.counters.get("tcp.connections_established") == w.connections_opened,
            "tcp.connections_established == connections opened",
        );
    }
    if args.workload == Workload::Recover {
        check(
            w.faults.len() == FAULTS.len() && f.restart_counts.iter().all(|&r| r == 1),
            "rs.restart_count == 1 per crashed component",
        );
    }

    println!(
        "# {} seed={} seconds={} trace={} responses={} window_s={:.3} threads={} nproc={} \
         thread_cpu/process_cpu={:.4} host_steal_ms={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        latencies.len(),
        elapsed,
        usage.threads,
        nproc(),
        thread_share,
        w.steal_ms,
    );
    let slices = slices(w);
    let metrics = if args.trace {
        layer_metrics(f, latencies.len(), &gaps_ms, &slices)
    } else {
        end_to_end_metrics(f, &gaps_ms, &slices)
    };
    Outcome {
        metrics,
        failed_checks,
        attempted: 0,
        failed: 0,
    }
    .counted(f)
}

/// The untraced run's metrics, over the slices [`usable`] keeps.
fn end_to_end_metrics(f: &Finished, gaps_ms: &[f64], slices: &[Slice]) -> Vec<Metric> {
    let w = &f.window;
    let used = usable(slices, nproc() as f64 * SLICE.as_secs_f64() * 1e3);
    let used_slices = used.iter().filter(|&&u| u).count();
    let used_s = used_slices as f64 * SLICE.as_secs_f64();
    let kept = |c: &Completion| slice_of(w, c).is_some_and(|i| used[i]);
    let completions: Vec<&Completion> = w.completions.iter().filter(|c| kept(c)).collect();
    let n = completions.len() as f64;
    let latencies = Samples::new(completions.iter().map(|c| c.latency_us).collect());
    let window = format!(
        "{n} responses in {used_slices} of {} 1-s slices",
        slices.len()
    );
    let samples = format!("n={}", latencies.len());
    let mut m = Vec::new();
    m.push(metric("rps", n / used_s, "1/s", &window));
    let p50 = latencies.percentile(0.50).unwrap_or(0.0);
    m.push(metric("p50_us", p50, "us", &samples));
    let p90 = latencies.percentile(0.90).unwrap_or(0.0);
    m.push(metric("p90_us", p90, "us", &samples));
    // Not an end-to-end metric: host CPU steal moves it by tens of
    // percent between runs of the same code.
    match latencies.percentile(0.99) {
        Some(p99) => println!("# p99_us {p99:.4} us, {samples}, not gated"),
        None => println!("# p99_us refused: {samples}, fewer than 10 beyond it"),
    }
    let body_bits: f64 = completions.iter().map(|c| c.body_bytes as f64 * 8.0).sum();
    m.push(metric(
        "goodput_mbit_s",
        body_bits / used_s / 1e6,
        "Mbit/s",
        &window,
    ));
    let used_slices: Vec<&Slice> = slices
        .iter()
        .zip(&used)
        .filter(|(_, &u)| u)
        .map(|(s, _)| s)
        .collect();
    let basis = format!("interquartile mean of {} 1-s slices", used_slices.len());
    // Raw CPU time per request drifts by 10-20% between sets of runs with
    // the host's load; the harness's CPU drifts with it, so the ratio holds.
    let per_req: Vec<f64> = used_slices
        .iter()
        .map(|s| s.server_cpu_ns as f64 / 1e3 / s.completions.max(1) as f64)
        .collect();
    println!(
        "# server_cpu_us_per_req {:.4} us, {basis}, not gated",
        interquartile_mean(&per_req)
    );
    let ratio: Vec<f64> = used_slices
        .iter()
        .map(|s| s.server_cpu_ns as f64 / s.harness_cpu_ns.max(1) as f64)
        .collect();
    m.push(metric(
        "server_cpu_vs_harness",
        interquartile_mean(&ratio),
        "ratio",
        basis,
    ));
    let setup_s: Vec<f64> = f.setups.iter().map(Setup::total_s).collect();
    let basis = format!("median of {} boots", setup_s.len());
    m.push(metric("setup_s", median(&setup_s), "s", basis));
    let rss = sampler::peak_rss_kb() as f64 / 1024.0;
    m.push(metric("peak_rss_mb", rss, "MB", "VmHWM"));
    if w.faults.is_empty() {
        let gaps: Vec<f64> = w
            .completions
            .windows(2)
            .filter(|p| kept(&p[1]))
            .map(|p| (p[1].at - p[0].at).as_secs_f64() * 1e3)
            .collect();
        let basis = format!("p90 completion gap, n={}", gaps.len());
        let p90_gap = Samples::new(gaps).percentile(0.90).unwrap_or(0.0);
        m.push(metric("outage_ms", p90_gap, "ms", basis));
    } else {
        let basis = format!("sum of the longest gap after {} faults", gaps_ms.len());
        m.push(metric("outage_ms", gaps_ms.iter().sum(), "ms", basis));
    }
    m
}

/// Per-layer metrics read from one stack counter: the metric, the counter,
/// and whether it is divided by the window's responses.
const COUNTER_METRICS: [(&str, &str, bool); 20] = [
    ("channels.msgs_per_req", "channels.msgs", true),
    (
        "channels.full_rejections",
        "channels.full_rejections",
        false,
    ),
    ("tcp.segments_out_per_req", "tcp.segments_out", true),
    ("tcp.retransmits_per_req", "tcp.retransmits", true),
    ("tcp.fast_retransmits_per_req", "tcp.fast_retransmits", true),
    ("tcp.pure_acks_per_req", "tcp.pure_acks", true),
    (
        "tcp.connections_established",
        "tcp.connections_established",
        false,
    ),
    ("tcp.rsts_out", "tcp.rsts_out", false),
    ("ip.packets_in_per_req", "ip.packets_in", true),
    ("ip.packets_out_per_req", "ip.packets_out", true),
    ("driver.tx_failures", "driver.tx_failures", false),
    ("driver.rx_dropped", "driver.rx_dropped", false),
    ("driver.rx_coalesced_per_req", "driver.rx_coalesced", true),
    ("driver.resets_for_ip", "driver.resets_for_ip", false),
    ("nic.tx_frames_per_req", "nic.tx_frames", true),
    ("nic.tso_frames_per_req", "nic.tso_frames", true),
    ("link.drops", "link.drops", false),
    ("peer.out_of_order_per_req", "peer.out_of_order", true),
    ("httpd.ring_ops_per_req", "httpd.ring_ops", true),
    ("httpd.ring_cqes_per_req", "httpd.ring_cqes", true),
];

/// The traced run's metrics.
fn layer_metrics(f: &Finished, responses: usize, gaps_ms: &[f64], slices: &[Slice]) -> Vec<Metric> {
    let w = &f.window;
    let n = responses as f64;
    let per = format!("per {responses} responses");
    let mut m = Vec::new();
    for layer in LAYERS {
        let u = w.usage.layer(layer);
        m.push(metric(
            format!("{layer}.cpu_us_per_req"),
            u.cpu_ns as f64 / 1e3 / n,
            "us",
            &per,
        ));
        m.push(metric(
            format!("{layer}.runq_us_per_req"),
            u.runq_ns as f64 / 1e3 / n,
            "us",
            &per,
        ));
        m.push(metric(
            format!("{layer}.sleeps_per_req"),
            u.sleeps as f64 / n,
            "count/req",
            &per,
        ));
    }
    let exited = w.usage.exited.cpu_ns as f64 / 1e3 / n;
    m.push(metric(
        "exited.cpu_us_per_req",
        exited,
        "us",
        "threads that exited, in their layers too",
    ));
    for (name, counter, per_response) in COUNTER_METRICS {
        let value = w.counters.get(counter) as f64;
        m.push(if per_response {
            metric(name, value / n, "count/req", &per)
        } else {
            metric(name, value, "count", "window")
        });
    }
    let body_bytes: f64 = w.completions.iter().map(|c| c.body_bytes as f64).sum();
    let useful = body_bytes / (w.counters.get("nic.tx_bytes") as f64).max(1.0);
    m.push(metric(
        "nic.useful_byte_ratio",
        useful,
        "ratio",
        "verified body bytes / NIC tx bytes",
    ));
    let restarts: u32 = f.restart_counts.iter().sum();
    m.push(metric(
        "rs.restarts",
        f64::from(restarts),
        "count",
        "window",
    ));
    for (name, _, _) in FAULTS {
        let fault = w.faults.iter().position(|f| f.name == name);
        let restart_us = fault
            .and_then(|i| w.faults[i].restart)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        let outage_ms = fault.map_or(0.0, |i| gaps_ms[i]);
        let basis = if fault.is_some() {
            "one crash"
        } else {
            "no crash"
        };
        m.push(metric(
            format!("rs.restart_us.{name}"),
            restart_us,
            "us",
            basis,
        ));
        m.push(metric(
            format!("rs.outage_ms.{name}"),
            outage_ms,
            "ms",
            basis,
        ));
    }
    let boots = format!("median of {} boots", f.setups.len());
    let setup_span =
        |span: fn(&Setup) -> f64| median(&f.setups.iter().map(span).collect::<Vec<_>>());
    m.push(metric(
        "span.stack_start_us",
        setup_span(|s| s.stack_start_us),
        "us",
        &boots,
    ));
    m.push(metric(
        "span.httpd_spawn_us",
        setup_span(|s| s.httpd_spawn_us),
        "us",
        &boots,
    ));
    m.push(metric(
        "span.first_response_us",
        setup_span(|s| s.first_response_us),
        "us",
        &boots,
    ));
    let connects = format!("median of {} connects", f.connect_us.len());
    m.push(metric(
        "span.connect_us",
        median_or_zero(&f.connect_us),
        "us",
        connects,
    ));
    let ttfb: Vec<f64> = w.completions.iter().map(|c| c.ttfb_us).collect();
    let transfer: Vec<f64> = w.completions.iter().map(|c| c.transfer_us).collect();
    m.push(metric(
        "span.ttfb_us",
        median_or_zero(&ttfb),
        "us",
        format!("median, {per}"),
    ));
    m.push(metric(
        "span.transfer_us",
        median_or_zero(&transfer),
        "us",
        format!("median, {per}"),
    ));
    let (untraced, traced) = parity_rates(slices);
    let basis = format!("median rps of traced / untraced 1-s slices: {traced:.1} / {untraced:.1}");
    m.push(metric(
        "trace.rps_ratio",
        traced / untraced.max(1e-9),
        "ratio",
        basis,
    ));
    m
}

impl Outcome {
    /// Fills in attempts and failures: verify failures, abandoned requests
    /// and requests still unfinished after the drain all count as failed.
    fn counted(mut self, f: &Finished) -> Self {
        self.failed = f.verify_failures + f.abandoned + f.window.unfinished as u64;
        self.attempted = f.window.completions.len() as u64 + self.failed;
        self
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        println!(
            "# {:<28} {:>14.4} {:<9} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    for check in &outcome.failed_checks {
        eprintln!("perfbench: check failed: {check}");
    }
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed_checks.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !outcome.failed_checks.is_empty() {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_slices_are_left_out_unless_most_are() {
        let slice = |steal_ms| Slice {
            steal_ms,
            ..Slice::default()
        };
        // 2% of 2000 ms is 40 ms.
        let slices = [slice(0), slice(100), slice(40), slice(3)];
        assert_eq!(usable(&slices, 2000.0), vec![true, false, true, true]);
        let stolen = [slice(0), slice(100), slice(41), slice(300)];
        assert_eq!(usable(&stolen, 2000.0), vec![true; 4]);
    }

    #[test]
    fn fault_schedule_follows_the_seed() {
        let offsets = |seed: u64| {
            let mut state = seed;
            [0; 3].map(|_| splitmix(&mut state) % FAULT_JITTER)
        };
        assert_eq!(offsets(7), offsets(7));
        assert_ne!(offsets(7), offsets(8));
        assert!(offsets(7).iter().all(|&o| o < FAULT_JITTER));
    }
}
