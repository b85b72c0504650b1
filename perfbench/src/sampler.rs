//! Per-thread CPU, run-queue wait and sleep counts, read from outside the
//! stack through `/proc/self/task/<tid>/{comm,schedstat,status}`.
//!
//! Every server of the stack runs on its own named thread, so the thread
//! name is the layer.  A thread that exits between two samples (a server
//! killed by an injected crash) keeps the totals of its last sample in an
//! `exited` bucket, so its work still counts.

use std::collections::{BTreeMap, HashMap};
use std::fs;

/// Layers a thread can belong to, in report order.  `driver` ... `rs` are
/// the stack (plus the HTTP server); `peer` and `loadgen` are the harness.
/// Threads of no layer count as `other`.
pub const LAYERS: [&str; 10] = [
    "driver", "ip", "pf", "tcp", "udp", "syscall", "httpd", "rs", "peer", "loadgen",
];

/// Layers whose CPU counts as server CPU: the stack and the HTTP server,
/// not the simulated peer, the load generator or unknown threads.
const SERVER_LAYERS: [&str; 8] = ["driver", "ip", "pf", "tcp", "udp", "syscall", "httpd", "rs"];

/// Layers of the harness: the simulated remote peer and the load loop.
const HARNESS_LAYERS: [&str; 2] = ["peer", "loadgen"];

/// Maps a thread name (as the kernel truncates it, 15 bytes) to its layer.
fn layer_of(comm: &str, is_main: bool) -> &'static str {
    if is_main {
        return "loadgen";
    }
    let Some(rest) = comm.strip_prefix("newtos-") else {
        return "other";
    };
    const PREFIXES: [(&str, &str); 9] = [
        ("e1000", "driver"),
        ("ip", "ip"),
        ("pf", "pf"),
        ("tcp", "tcp"),
        ("udp", "udp"),
        ("syscall", "syscall"),
        ("httpd", "httpd"),
        ("rs-", "rs"),
        ("remote-p", "peer"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| rest.starts_with(prefix))
        .map_or("other", |&(_, layer)| layer)
}

/// Scheduler counters of one thread (or a sum of threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Time on a CPU, in nanoseconds.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, in nanoseconds.
    pub runq_ns: u64,
    /// Voluntary context switches: the thread slept.
    pub sleeps: u64,
}

impl Usage {
    fn add(&mut self, other: Usage) {
        self.cpu_ns += other.cpu_ns;
        self.runq_ns += other.runq_ns;
        self.sleeps += other.sleeps;
    }

    fn since(self, base: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(base.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(base.runq_ns),
            sleeps: self.sleeps.saturating_sub(base.sleeps),
        }
    }
}

/// Parses `schedstat`: run time and run-queue wait, both in nanoseconds.
fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// Parses `voluntary_ctxt_switches` out of a `status` file.
fn parse_voluntary_switches(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Parses user plus system time, in clock ticks, out of `/proc/self/stat`.
fn parse_process_ticks(stat: &str) -> Option<u64> {
    // The name field may hold spaces; the fixed fields follow its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `USER_HZ`, the unit of times in `/proc/stat` and `/proc/<pid>/stat`.
const TICK_NS: u64 = 10_000_000;

/// CPU time of the whole process, exited threads included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_process_ticks(&stat).expect("parse /proc/self/stat") * TICK_NS
}

/// Parses the time the hypervisor stole from all CPUs, in clock ticks, out
/// of `/proc/stat`.
fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Time the hypervisor stole from this host's CPUs so far, in ms.  Runs
/// that lose more than a few percent to it show longer tails.
pub fn steal_ms() -> u64 {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_steal_ticks(&stat).unwrap_or(0) * TICK_NS / 1_000_000
}

/// Peak resident set size of the process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[derive(Debug, Clone)]
struct ThreadStat {
    layer: &'static str,
    usage: Usage,
}

/// Reads every live thread of this process.  A thread that exits while it
/// is being read is skipped.
fn read_threads() -> HashMap<u32, ThreadStat> {
    let main = std::process::id();
    let mut out = HashMap::new();
    let dir = fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let read = |name: &str| fs::read_to_string(path.join(name)).ok();
        let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let (Some((cpu_ns, runq_ns)), Some(sleeps)) =
            (parse_schedstat(&sched), parse_voluntary_switches(&status))
        else {
            continue;
        };
        out.insert(
            tid,
            ThreadStat {
                layer: layer_of(comm.trim_end(), tid == main),
                usage: Usage {
                    cpu_ns,
                    runq_ns,
                    sleeps,
                },
            },
        );
    }
    out
}

/// Totals over a measured window.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Usage per layer, exited threads included.
    pub layers: BTreeMap<&'static str, Usage>,
    /// The part of `layers` that came from threads that exited in the
    /// window.
    pub exited: Usage,
    /// Live threads at the end of the window.
    pub threads: usize,
    /// Process CPU over the window (`/proc/self/stat`), in nanoseconds.
    pub process_cpu_ns: u64,
}

impl Report {
    /// CPU of the stack servers and the HTTP server, in nanoseconds.
    pub fn server_cpu_ns(&self) -> u64 {
        SERVER_LAYERS.iter().map(|l| self.layer(l).cpu_ns).sum()
    }

    /// CPU of the harness threads, in nanoseconds.
    pub fn harness_cpu_ns(&self) -> u64 {
        HARNESS_LAYERS.iter().map(|l| self.layer(l).cpu_ns).sum()
    }

    /// CPU summed over every thread, in nanoseconds.
    pub fn thread_cpu_ns(&self) -> u64 {
        self.layers.values().map(|u| u.cpu_ns).sum()
    }

    /// Usage of one layer (zero when no thread of it ran).
    pub fn layer(&self, layer: &str) -> Usage {
        self.layers.get(layer).copied().unwrap_or_default()
    }
}

/// Samples the process's threads over one window.
#[derive(Debug)]
pub struct Sampler {
    base: HashMap<u32, ThreadStat>,
    last: HashMap<u32, ThreadStat>,
    exited: Vec<ThreadStat>,
    process_base: u64,
}

impl Sampler {
    /// Opens the window: every live thread's counters become its baseline.
    /// Threads born later start from zero.
    pub fn start() -> Self {
        let base = read_threads();
        Sampler {
            last: base.clone(),
            base,
            exited: Vec::new(),
            process_base: process_cpu_ns(),
        }
    }

    /// Takes a sample.  Threads gone since the previous sample move to the
    /// exited bucket with what they had done by then.  Call it just before
    /// killing a thread, and periodically if threads may die unannounced.
    pub fn sample(&mut self) {
        self.absorb(read_threads());
    }

    fn absorb(&mut self, now: HashMap<u32, ThreadStat>) {
        for (tid, stat) in self.last.drain() {
            // A reused tid shows up with a different name or smaller totals.
            let same = now
                .get(&tid)
                .is_some_and(|n| n.layer == stat.layer && n.usage.cpu_ns >= stat.usage.cpu_ns);
            if !same {
                let base = self.base.remove(&tid).map(|b| b.usage).unwrap_or_default();
                self.exited.push(ThreadStat {
                    layer: stat.layer,
                    usage: stat.usage.since(base),
                });
            }
        }
        self.last = now;
    }

    /// Samples and sums the window so far up per layer.
    pub fn report(&mut self) -> Report {
        let now = read_threads();
        let process_cpu_ns = process_cpu_ns();
        self.report_with(now, process_cpu_ns)
    }

    fn report_with(&mut self, now: HashMap<u32, ThreadStat>, process_cpu_ns: u64) -> Report {
        self.absorb(now);
        let process_cpu_ns = process_cpu_ns.saturating_sub(self.process_base);
        let mut report = Report {
            threads: self.last.len(),
            process_cpu_ns,
            ..Report::default()
        };
        for stat in &self.exited {
            report.layers.entry(stat.layer).or_default().add(stat.usage);
            report.exited.add(stat.usage);
        }
        for (tid, stat) in &self.last {
            let base = self.base.get(tid).map(|b| b.usage).unwrap_or_default();
            report
                .layers
                .entry(stat.layer)
                .or_default()
                .add(stat.usage.since(base));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_layers() {
        let cases = [
            ("newtos-e1000.0", "driver"),
            ("newtos-ip", "ip"),
            ("newtos-ip.1", "ip"),
            ("newtos-pf", "pf"),
            ("newtos-tcp.0", "tcp"),
            ("newtos-udp", "udp"),
            ("newtos-syscall", "syscall"),
            ("newtos-httpd", "httpd"),
            ("newtos-rs-watch", "rs"),
            ("newtos-remote-p", "peer"),
            ("worker", "other"),
        ];
        for (comm, layer) in cases {
            assert_eq!(layer_of(comm, false), layer, "{comm}");
        }
        assert_eq!(layer_of("newt-perfbench", true), "loadgen");
    }

    #[test]
    fn parses_proc_files() {
        assert_eq!(
            parse_schedstat("2858713 41000 17\n"),
            Some((2_858_713, 41_000))
        );
        assert_eq!(parse_schedstat("garbage"), None);
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t123\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_voluntary_switches(status), Some(123));
        assert_eq!(parse_voluntary_switches("Name:\tx\n"), None);
        let stat = "30315 (a b) c) R 30270 30315 30270 0 -1 4194304 82 0 0 0 7 5 0 0 20 0 1";
        assert_eq!(parse_process_ticks(stat), Some(12));
        let proc_stat =
            "cpu  514082 0 172041 3495696 597 0 2349 96721 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(proc_stat), Some(96721));
    }

    #[test]
    fn an_exited_thread_keeps_its_work() {
        let busy = |layer, cpu_ns| ThreadStat {
            layer,
            usage: Usage {
                cpu_ns,
                runq_ns: 1,
                sleeps: 2,
            },
        };
        let mut sampler = Sampler {
            base: HashMap::from([(1, busy("ip", 100)), (2, busy("tcp", 50))]),
            last: HashMap::from([(1, busy("ip", 400)), (2, busy("tcp", 80))]),
            exited: Vec::new(),
            process_base: 0,
        };
        // Thread 1 died; its tid came back as a new driver thread.
        let now = || HashMap::from([(1, busy("driver", 10)), (2, busy("tcp", 90))]);
        sampler.absorb(now());
        assert_eq!(sampler.exited.len(), 1);
        assert_eq!(sampler.exited[0].layer, "ip");
        assert_eq!(sampler.exited[0].usage.cpu_ns, 300);
        assert_eq!(sampler.exited[0].usage.sleeps, 0);
        let report = sampler.report_with(now(), 0);
        assert_eq!(report.layer("ip").cpu_ns, 300);
        assert_eq!(report.layer("driver").cpu_ns, 10);
        assert_eq!(report.layer("tcp").cpu_ns, 40);
        assert_eq!(report.exited.cpu_ns, 300);
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn live_sampler_sees_this_thread() {
        let mut sampler = Sampler::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let report = sampler.report();
        assert!(report.threads >= 1);
        assert!(report.thread_cpu_ns() > 0, "{x}");
    }
}
