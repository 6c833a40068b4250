//! Connection configuration.

use netsim::SimDuration;

/// Default wire size of a data segment (Ethernet MTU).
pub const DEFAULT_MSS_BYTES: u32 = 1_500;

/// Wire size of a pure ACK.
pub const DEFAULT_ACK_BYTES: u32 = 40;

/// Receiver application read model: the app drains `pkts` packets from the
/// in-order receive buffer every `interval`. A slow reader fills the buffer
/// and shrinks the advertised window — down to zero, exercising the sender's
/// persist/window-probe machinery. `FlowConfig::app_read` defaults to `None`
/// (the app consumes instantly, the pre-existing behaviour).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppRead {
    /// Time between application reads.
    pub interval: SimDuration,
    /// Packets consumed per read.
    pub pkts: u64,
}

/// Configuration of one (MP)TCP connection.
///
/// Build with [`FlowConfig::new`] and chain setters:
///
/// ```
/// use transport::FlowConfig;
/// use netsim::SimDuration;
///
/// let cfg = FlowConfig::new(1)
///     .transfer_bytes(16 * 1024 * 1024)
///     .min_rto(SimDuration::from_millis(50));
/// assert_eq!(cfg.total_pkts, Some(11185));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FlowConfig {
    /// Connection identifier carried in every segment.
    pub conn_id: u64,
    /// Data segment wire size in bytes.
    pub mss_bytes: u32,
    /// Number of MSS-sized packets to transfer; `None` = long-lived flow.
    pub total_pkts: Option<u64>,
    /// Receive buffer (connection-level reordering window), in packets.
    /// The paper's ns-2 wireless scenario uses the 64 KB default ≈ 44 pkts.
    pub rcv_buf_pkts: u64,
    /// RTO floor (Linux default 200 ms; datacenter experiments lower it).
    pub min_rto: SimDuration,
    /// Telemetry sampling interval.
    pub sample_every: SimDuration,
    /// Receiver application read model; `None` = the application consumes
    /// delivered data instantly (never a receive-buffer limit beyond
    /// reassembly).
    pub app_read: Option<AppRead>,
    /// Declare a subflow *dead* after this many consecutive RTO backoffs
    /// without forward progress: its stranded data is reinjected onto live
    /// subflows, the scheduler skips it, and low-rate probes watch for
    /// revival (restored in slow start). `None` disables failover. The
    /// default, 6, needs roughly `63 × RTO` of total silence — only true
    /// path failures qualify.
    pub dead_after_backoffs: Option<u32>,
}

impl FlowConfig {
    /// A long-lived flow with Linux-like defaults.
    pub fn new(conn_id: u64) -> Self {
        FlowConfig {
            conn_id,
            mss_bytes: DEFAULT_MSS_BYTES,
            total_pkts: None,
            rcv_buf_pkts: 256,
            min_rto: SimDuration::from_millis(200),
            sample_every: SimDuration::from_millis(10),
            app_read: None,
            dead_after_backoffs: Some(6),
        }
    }

    /// Sets a finite transfer size in bytes (rounded up to whole packets).
    pub fn transfer_bytes(mut self, bytes: u64) -> Self {
        let mss = u64::from(self.mss_bytes);
        self.total_pkts = Some(bytes.div_ceil(mss));
        self
    }

    /// Sets a finite transfer size in packets.
    pub fn transfer_pkts(mut self, pkts: u64) -> Self {
        self.total_pkts = Some(pkts);
        self
    }

    /// Sets the receive buffer in packets.
    pub fn rcv_buf_pkts(mut self, pkts: u64) -> Self {
        self.rcv_buf_pkts = pkts;
        self
    }

    /// Sets the receive buffer from a byte size (e.g. the 64 KB ns-2
    /// default).
    pub fn rcv_buf_bytes(mut self, bytes: u64) -> Self {
        self.rcv_buf_pkts = (bytes / u64::from(self.mss_bytes)).max(2);
        self
    }

    /// Sets the RTO floor.
    pub fn min_rto(mut self, rto: SimDuration) -> Self {
        self.min_rto = rto;
        self
    }

    /// Sets the telemetry sampling interval.
    pub fn sample_every(mut self, interval: SimDuration) -> Self {
        self.sample_every = interval;
        self
    }

    /// Models a rate-limited receiving application: drain `pkts` packets
    /// from the receive buffer every `interval`.
    pub fn app_read(mut self, interval: SimDuration, pkts: u64) -> Self {
        assert!(pkts > 0, "app read must consume at least one packet");
        assert!(!interval.is_zero(), "app read interval must be positive");
        self.app_read = Some(AppRead { interval, pkts });
        self
    }

    /// Sets the consecutive-RTO-backoff threshold for declaring a subflow
    /// dead (`None` disables dead-subflow failover).
    pub fn dead_after_backoffs(mut self, k: Option<u32>) -> Self {
        self.dead_after_backoffs = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_bytes_rounds_up() {
        let cfg = FlowConfig::new(0).transfer_bytes(1);
        assert_eq!(cfg.total_pkts, Some(1));
        let cfg = FlowConfig::new(0).transfer_bytes(3001);
        assert_eq!(cfg.total_pkts, Some(3));
    }

    #[test]
    fn rcv_buf_bytes_converts_to_packets() {
        let cfg = FlowConfig::new(0).rcv_buf_bytes(64 * 1024);
        assert_eq!(cfg.rcv_buf_pkts, 43);
    }

    #[test]
    fn defaults_are_long_lived() {
        let cfg = FlowConfig::new(3);
        assert_eq!(cfg.total_pkts, None);
        assert_eq!(cfg.conn_id, 3);
        assert_eq!(cfg.mss_bytes, DEFAULT_MSS_BYTES);
    }
}
