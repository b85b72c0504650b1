//! The stack's own counters, read through its public stats snapshots and
//! summed over a window.
//!
//! A restarted server publishes counters that start again from zero, so a
//! counter that goes down is taken as a reset: what it shows afterwards is
//! all new work.  Read the counters just before injecting a fault so the
//! work of the dying incarnation is kept.

use newt_apps::httpd::Httpd;
use newt_net::link::LinkSide;
use newt_stack::builder::NewtStack;

/// Counter names, in [`read`] order.
pub const NAMES: [&str; 22] = [
    "channels.msgs",
    "channels.full_rejections",
    "tcp.segments_out",
    "tcp.retransmits",
    "tcp.fast_retransmits",
    "tcp.pure_acks",
    "tcp.connections_established",
    "tcp.rsts_out",
    "ip.packets_in",
    "ip.packets_out",
    "driver.tx_failures",
    "driver.rx_dropped",
    "driver.rx_coalesced",
    "driver.resets_for_ip",
    "nic.tx_frames",
    "nic.tso_frames",
    "nic.tx_bytes",
    "link.drops",
    "peer.out_of_order",
    "httpd.ring_ops",
    "httpd.ring_cqes",
    "httpd.requests",
];

const N: usize = NAMES.len();

/// Reads every counter of a one-NIC stack and its HTTP server.
pub fn read(stack: &NewtStack, httpd: &Httpd) -> [u64; N] {
    let t = stack.telemetry();
    let nic = stack.nic_stats(0);
    let link = stack.link(0);
    let peer = stack.peer(0).stats();
    let http = httpd.stats();
    let tcp = |f: fn(&newt_stack::tcp::TcpStats) -> u64| t.tcp_shards.iter().map(f).sum::<u64>();
    let ip = |f: fn(&newt_stack::ip::IpStats) -> u64| t.ip_shards.iter().map(f).sum::<u64>();
    let drv = |f: fn(&newt_stack::driver::DriverStats) -> u64| t.drivers.iter().map(f).sum::<u64>();
    [
        t.fabric_messages_total(),
        t.fabric_shards.iter().map(|f| f.full_rejections).sum(),
        t.segments_out_total(),
        tcp(|s| s.retransmissions),
        tcp(|s| s.fast_retransmits),
        t.pure_acks_out_total(),
        tcp(|s| s.connections_established),
        tcp(|s| s.rsts_out),
        ip(|s| s.packets_in),
        ip(|s| s.packets_out),
        drv(|s| s.tx_failures),
        drv(|s| s.rx_dropped),
        drv(|s| s.rx_coalesced),
        drv(|s| s.resets_for_ip),
        nic.tx_frames,
        nic.tso_frames,
        nic.tx_bytes,
        link.stats_from(LinkSide::A).drops + link.stats_from(LinkSide::B).drops,
        peer.tcp_out_of_order,
        http.ring_ops,
        http.ring_cqes,
        http.requests,
    ]
}

/// Counter totals over a window.
#[derive(Debug, Clone)]
pub struct Counters {
    last: [u64; N],
    total: [u64; N],
}

impl Counters {
    /// Opens the window at the current readings.
    pub fn start(now: [u64; N]) -> Self {
        Counters {
            last: now,
            total: [0; N],
        }
    }

    /// Adds the work done since the previous reading.
    pub fn observe(&mut self, now: [u64; N]) {
        for ((total, last), value) in self.total.iter_mut().zip(self.last.iter_mut()).zip(now) {
            *total += if value >= *last { value - *last } else { value };
            *last = value;
        }
    }

    /// Total of a counter named in [`NAMES`].
    pub fn get(&self, name: &str) -> u64 {
        let index = NAMES
            .iter()
            .position(|n| *n == name)
            .expect("known counter");
        self.total[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counter_that_drops_was_reset() {
        let mut reading = [0u64; N];
        reading[0] = 100;
        let mut counters = Counters::start(reading);
        reading[0] = 150;
        counters.observe(reading);
        // The server restarted and has done 20 more since.
        reading[0] = 20;
        counters.observe(reading);
        reading[0] = 25;
        counters.observe(reading);
        assert_eq!(counters.get("channels.msgs"), 75);
        assert_eq!(counters.get("tcp.rsts_out"), 0);
    }
}
