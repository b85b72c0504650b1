//! Closed-loop HTTP load on the remote peer's client flows.
//!
//! Each slot waits for its response before it sends the next request, so
//! a slower stack receives less load.  Keep-alive slots reuse one
//! connection; churn slots open a connection per request and reset it
//! once the response is verified.  Every response body is compared byte
//! for byte with the body the server must send.

use std::time::{Duration, Instant};

use newt_apps::http::{body_for_path, request_bytes, ResponseReader};
use newt_net::peer::{ClientStatus, RemotePeer};
use newt_stack::builder::StackConfig;

/// Port the HTTP server listens on.
const HTTP_PORT: u16 = 80;
/// Sleep of the load loop after a pass in which no slot made progress,
/// the same as `newt_apps::loadgen` uses.
const IDLE_SLEEP: Duration = Duration::from_micros(300);
/// A connect or a request outstanding this long is abandoned and retried on
/// a new connection.  Far above the 1.8 s NIC reset an IP crash causes.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// Source ports cycle through this range.
const PORTS: std::ops::Range<u16> = 20_000..60_000;

/// One verified response.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When the response was verified.
    pub at: Instant,
    /// Request latency: from sending the request (keep-alive) or from
    /// opening the connection (churn) to the verified response, in µs.
    pub latency_us: f64,
    /// Connection set-up time, on the first request of a connection, in µs.
    pub connect_us: Option<f64>,
    /// From sending the request to the first response byte, in µs.
    pub ttfb_us: f64,
    /// From the first to the last response byte, in µs.
    pub transfer_us: f64,
    /// Verified body bytes.
    pub body_bytes: usize,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// No connection: a drained churn slot, or a closed load.
    Idle,
    Connecting,
    /// Connected, no request outstanding.
    Ready,
    Waiting {
        sent: Instant,
        first_byte: Option<Instant>,
    },
}

#[derive(Debug)]
struct Slot {
    port: u16,
    phase: Phase,
    reader: ResponseReader,
    opened: Instant,
    connect_us: Option<f64>,
}

/// Closed-loop load of a fixed number of slots against one peer.
#[derive(Debug)]
pub struct Load<'a> {
    peer: &'a RemotePeer,
    request: Vec<u8>,
    expected: Vec<u8>,
    churn: bool,
    slots: Vec<Slot>,
    next_port: u16,
    /// Whether slots start new requests; cleared to drain.
    pub issuing: bool,
    /// Every verified response, in completion order.
    pub completions: Vec<Completion>,
    /// Responses whose status or body was wrong.
    pub verify_failures: u64,
    /// Requests abandoned and retried on a new connection.
    pub abandoned: u64,
    /// Connections opened.
    pub connections_opened: u64,
}

impl<'a> Load<'a> {
    /// Starts `slots` slots fetching `path`, with source ports from
    /// `first_port` on.  Every slot connects at once.
    pub fn new(
        peer: &'a RemotePeer,
        path: &str,
        slots: usize,
        churn: bool,
        first_port: u16,
    ) -> Self {
        let mut load = Load {
            peer,
            request: request_bytes(path),
            expected: body_for_path(path).expect("benchmark path must be servable"),
            churn,
            slots: Vec::new(),
            next_port: first_port,
            issuing: true,
            completions: Vec::new(),
            verify_failures: 0,
            abandoned: 0,
            connections_opened: 0,
        };
        for _ in 0..slots {
            let opened = Instant::now();
            let port = load.open();
            load.slots.push(Slot {
                port,
                phase: Phase::Connecting,
                reader: ResponseReader::new(),
                opened,
                connect_us: None,
            });
        }
        load
    }

    fn open(&mut self) -> u16 {
        let port = self.next_port;
        self.next_port = if port + 1 >= PORTS.end {
            PORTS.start
        } else {
            port + 1
        };
        self.connections_opened += 1;
        self.peer
            .client_connect(port, StackConfig::local_addr(0), HTTP_PORT);
        port
    }

    /// Slots with a request still in flight.  A churn request starts with
    /// its connect, so a connected churn slot still owes its request.
    pub fn in_flight(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| match s.phase {
                Phase::Waiting { .. } | Phase::Connecting => true,
                Phase::Ready => self.churn,
                Phase::Idle => false,
            })
            .count()
    }

    /// Drives every slot one step; sleeps briefly when none progressed.
    pub fn pass(&mut self) {
        let mut progress = false;
        for i in 0..self.slots.len() {
            progress |= self.step(i);
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }

    /// Runs passes until `done` holds or `limit` has passed; returns
    /// whether `done` held.
    pub fn run_until(&mut self, limit: Duration, mut done: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !done(self) {
            if Instant::now() >= deadline {
                return false;
            }
            self.pass();
        }
        true
    }

    /// Resets every connection.
    pub fn close(&mut self) {
        for slot in &mut self.slots {
            self.peer.client_close(slot.port);
            slot.phase = Phase::Idle;
        }
    }

    fn step(&mut self, i: usize) -> bool {
        let now = Instant::now();
        let slot = &mut self.slots[i];
        let status = self.peer.client_status(slot.port);
        let abandon = match (slot.phase, status) {
            (Phase::Idle, _) => {
                if self.churn && self.issuing {
                    self.reopen(i);
                    return true;
                }
                return false;
            }
            (Phase::Connecting, Some(ClientStatus::Established)) => {
                slot.connect_us = Some(micros(now - slot.opened));
                slot.phase = Phase::Ready;
                return true;
            }
            (Phase::Ready, Some(ClientStatus::Established)) => {
                if !self.issuing && !self.churn {
                    return false;
                }
                self.peer.client_send(slot.port, &self.request);
                slot.phase = Phase::Waiting {
                    sent: now,
                    first_byte: None,
                };
                return true;
            }
            (Phase::Waiting { sent, first_byte }, Some(ClientStatus::Established)) => {
                let data = self.peer.client_take(slot.port);
                if data.is_empty() {
                    now - sent > RESPONSE_TIMEOUT
                } else {
                    let first_byte = first_byte.unwrap_or(now);
                    slot.reader.push(&data);
                    let Some((status, body)) = slot.reader.pop_response() else {
                        slot.phase = Phase::Waiting {
                            sent,
                            first_byte: Some(first_byte),
                        };
                        return true;
                    };
                    let done = Instant::now();
                    if status == 200 && body == self.expected {
                        let start = if self.churn { slot.opened } else { sent };
                        self.completions.push(Completion {
                            at: done,
                            latency_us: micros(done - start),
                            connect_us: slot.connect_us.take(),
                            ttfb_us: micros(first_byte - sent),
                            transfer_us: micros(done - first_byte),
                            body_bytes: body.len(),
                        });
                    } else {
                        self.verify_failures += 1;
                    }
                    slot.phase = Phase::Ready;
                    if self.churn {
                        self.peer.client_close(slot.port);
                        slot.phase = Phase::Idle;
                        if self.issuing {
                            self.reopen(i);
                        }
                    }
                    return true;
                }
            }
            (Phase::Connecting, Some(ClientStatus::Resolving | ClientStatus::Connecting)) => {
                now - slot.opened > RESPONSE_TIMEOUT
            }
            _ => true,
        };
        if abandon {
            self.abandoned += 1;
            self.peer.client_close(self.slots[i].port);
            self.reopen(i);
        }
        abandon
    }

    fn reopen(&mut self, i: usize) {
        let opened = Instant::now();
        let port = self.open();
        let slot = &mut self.slots[i];
        slot.port = port;
        slot.phase = Phase::Connecting;
        slot.reader = ResponseReader::new();
        slot.opened = opened;
        slot.connect_us = None;
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// First source port of a churn run: the seed spreads runs over the
/// port range.
pub fn churn_first_port(seed: u64) -> u16 {
    PORTS.start + (seed % u64::from(PORTS.end - PORTS.start)) as u16
}
