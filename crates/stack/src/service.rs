//! The one service abstraction every stack server implements, and the one
//! body that runs a group of them under the reincarnation server.
//!
//! Each server — TCP, UDP, IP, the packet filter, SYSCALL and its ring-pump
//! replicas, the drivers — is a single-threaded event loop with the same
//! contract: poll for work, publish its counters, and hand its hot state
//! over on a live update.  `serve` is that contract's only driver.  It
//! runs one service alone on its thread (the split stack) or a group of
//! them on one thread (the combined `inet` server of the single-server
//! baselines), which is all a topology chooses.

use std::time::Duration;

use parking_lot::Mutex;

use newt_kernel::rs::ServiceRuntime;

use crate::builder::Telemetry;

/// One isolated, single-threaded stack server.
pub trait Service {
    /// Runs one iteration of the event loop; returns the amount of work done
    /// (0 means the core may idle).
    fn poll(&mut self) -> usize;

    /// Serializes the hot state of this incarnation for a live-update
    /// hand-over: the snapshot's version tag and its encoded payload.
    fn export_state(&mut self) -> (u32, Vec<u8>);

    /// Writes this server's counters into its slot of the stack telemetry.
    fn publish(&self, telemetry: &mut Telemetry);
}

/// Runs `members` on the calling service thread until the reincarnation
/// server stops it or asks for a live update.
///
/// Every member's counters are published once at start-up and then only
/// after rounds that did work, so idle spins never touch the shared
/// telemetry lock.  A lone service hands its state over on a live update; a
/// group has no single state to hand over, so its live update degrades to a
/// crash-style restart.  A non-zero `message_cost` is spun once per unit of
/// work, emulating the kernel traps and context switches every message
/// costs in a synchronous single-core multiserver.
pub(crate) fn serve(
    rt: &ServiceRuntime,
    members: &mut [Box<dyn Service>],
    telemetry: &Mutex<Telemetry>,
    message_cost: Duration,
) {
    let publish = |members: &[Box<dyn Service>]| {
        let mut telemetry = telemetry.lock();
        for member in members {
            member.publish(&mut telemetry);
        }
    };
    publish(members);
    let exit = run_loop(rt, || {
        let work: usize = members.iter_mut().map(|member| member.poll()).sum();
        if work > 0 {
            publish(members);
            if !message_cost.is_zero() {
                spin_for(message_cost * work as u32);
            }
        }
        work
    });
    if let (LoopExit::Update, [lone]) = (exit, members) {
        let (version, payload) = lone.export_state();
        rt.hand_over(version, payload);
    }
}

/// Why a service loop returned: a plain stop (shutdown or forced restart),
/// or a live-update request after the quiesce completed — the caller should
/// export its state and hand it to the reincarnation server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopExit {
    Stop,
    Update,
}

/// The standard service loop: poll, heartbeat, idle briefly when there is no
/// work, exit when asked to stop or to hand over for a live update.
///
/// On a live-update request the loop *quiesces* before returning: it runs a
/// few more poll rounds to drain the fabric batches already parked in the
/// SPSC queues down to a message boundary.  The drain is bounded — under
/// load peers keep producing, and their later sends simply park in the
/// queues until the replacement re-acquires them — so the service gap stays
/// bounded too.
fn run_loop<F: FnMut() -> usize>(rt: &ServiceRuntime, mut poll: F) -> LoopExit {
    let mut idle_rounds = 0u32;
    loop {
        // A live update sets both flags; check the update intent first.
        if rt.update_requested() {
            for _ in 0..QUIESCE_ROUNDS {
                rt.heartbeat();
                if poll() == 0 {
                    break;
                }
            }
            return LoopExit::Update;
        }
        if rt.should_stop() {
            return LoopExit::Stop;
        }
        rt.heartbeat();
        let work = poll();
        if work == 0 {
            idle_rounds = idle_rounds.saturating_add(1);
            if idle_rounds > 16 {
                // The MWAIT-style idle: sleep briefly instead of burning the
                // core.  Wake-up latency is bounded by this sleep.
                std::thread::sleep(Duration::from_micros(200));
            } else {
                std::thread::yield_now();
            }
        } else {
            idle_rounds = 0;
        }
    }
}

/// Upper bound on extra poll rounds spent quiescing before a live-update
/// hand-over.
const QUIESCE_ROUNDS: usize = 32;

/// Spins for approximately `duration` (used to emulate kernel-IPC costs).
fn spin_for(duration: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;

    use newt_kernel::clock::SimClock;
    use newt_kernel::rs::{ReincarnationServer, ServiceConfig, StartMode};

    /// What the serve body did to a fake service, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        /// An incarnation started in this mode.
        Start(StartMode),
        /// A poll round that reported this much work.
        Poll(usize),
        Publish,
        Export,
    }

    type Log = Arc<Mutex<Vec<Event>>>;

    /// A service that replays a work script and then idles, logging every
    /// call the serve body makes.
    struct Fake(std::vec::IntoIter<usize>, Log);

    impl Service for Fake {
        fn poll(&mut self) -> usize {
            let work = self.0.next().unwrap_or(0);
            self.1.lock().push(Event::Poll(work));
            work
        }

        fn export_state(&mut self) -> (u32, Vec<u8>) {
            self.1.lock().push(Event::Export);
            (1, Vec::new())
        }

        fn publish(&self, _telemetry: &mut Telemetry) {
            self.1.lock().push(Event::Publish);
        }
    }

    /// Runs a group of `members` fakes replaying `script` as one service of
    /// a reincarnation server, optionally live-updates it once the script
    /// is done, and returns the event log after shutdown.
    fn run(members: usize, script: &[usize], live_update: bool) -> Vec<Event> {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let log = Log::default();
        let (body_log, script) = (Arc::clone(&log), script.to_vec());
        let rounds = script.len() + 2;
        let telemetry = Mutex::new(Telemetry::default());
        let endpoint = rs.register(ServiceConfig::new("fake"), move |rt| {
            body_log.lock().push(Event::Start(rt.start_mode()));
            let mut group: Vec<Box<dyn Service>> = (0..members)
                .map(|_| Box::new(Fake(script.clone().into_iter(), Arc::clone(&body_log))) as _)
                .collect();
            serve(&rt, &mut group, &telemetry, Duration::ZERO);
        });
        // Waits until the latest incarnation has polled `rounds` rounds.
        let polled = || {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let log = log.lock();
                let since_start = log
                    .iter()
                    .rev()
                    .take_while(|e| !matches!(e, Event::Start(_)));
                if since_start.filter(|e| matches!(e, Event::Poll(_))).count() >= rounds * members {
                    return;
                }
                drop(log);
                assert!(std::time::Instant::now() < deadline, "service never polled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        polled();
        if live_update {
            assert!(rs.live_update(endpoint));
            polled();
        }
        rs.shutdown();
        let events = log.lock().clone();
        events
    }

    fn count(events: &[Event], event: Event) -> usize {
        events.iter().filter(|&&e| e == event).count()
    }

    #[test]
    fn a_lone_service_hands_over_exactly_once_on_live_update() {
        let log = run(1, &[], true);
        assert_eq!(count(&log, Event::Export), 1, "{log:?}");
        assert_eq!(count(&log, Event::Start(StartMode::LiveUpdate)), 1);
    }

    #[test]
    fn a_group_never_hands_over_and_restarts_crash_style() {
        let log = run(2, &[], true);
        assert_eq!(count(&log, Event::Export), 0, "{log:?}");
        assert_eq!(count(&log, Event::Start(StartMode::Restart)), 1);
    }

    #[test]
    fn publish_runs_at_start_up_and_then_only_after_working_rounds() {
        let log = run(1, &[0, 3, 0, 0, 2, 0, 1], false);
        assert_eq!(log[..2], [Event::Start(StartMode::Fresh), Event::Publish]);
        // After the start-up publish, a publish follows every poll that did
        // work and nothing else.
        let rounds = &log[2..];
        for (i, event) in rounds.iter().enumerate() {
            let worked = matches!(event, Event::Poll(work) if *work > 0);
            let published = rounds.get(i + 1) == Some(&Event::Publish);
            assert!(worked == published || *event == Event::Publish, "{log:?}");
        }
        assert_eq!(count(rounds, Event::Publish), 3, "{log:?}");
    }
}
