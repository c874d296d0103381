//! The bottleneck link: a drop-tail queue served at a configurable rate,
//! with propagation delay and iid random loss.

use crate::units::{BitsPerSec, Bytes};
use crate::{Time, MS, MTU_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The adversary-controlled link knobs (Table 1 of the paper constrains
/// these to bandwidth 6–24 Mbit/s, latency 15–60 ms, loss 0–10 %).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Bottleneck bandwidth in Mbit/s.
    pub bandwidth_mbps: f64,
    /// One-way propagation delay in milliseconds (RTT is twice this plus
    /// queueing and serialization).
    pub latency_ms: f64,
    /// Probability that a packet is dropped at link ingress, `[0, 1]`.
    pub loss_rate: f64,
}

impl LinkParams {
    pub fn new(bandwidth_mbps: f64, latency_ms: f64, loss_rate: f64) -> Self {
        let p = LinkParams { bandwidth_mbps, latency_ms, loss_rate };
        p.validate();
        p
    }

    /// Result-typed construction: reject non-finite or out-of-range values
    /// at the boundary instead of panicking deep inside the event loop.
    pub fn try_new(bandwidth_mbps: f64, latency_ms: f64, loss_rate: f64) -> Result<Self, String> {
        let p = LinkParams { bandwidth_mbps, latency_ms, loss_rate };
        p.try_validate()?;
        Ok(p)
    }

    /// Fallible [`LinkParams::validate`] for callers that handle bad input
    /// (config files, adversary action decoding, CLI knobs).
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.bandwidth_mbps.is_finite() {
            return Err(format!("bandwidth must be finite: {}", self.bandwidth_mbps));
        }
        if self.bandwidth_mbps <= 0.0 {
            return Err(format!("bandwidth must be positive: {}", self.bandwidth_mbps));
        }
        if !self.latency_ms.is_finite() {
            return Err(format!("latency must be finite: {}", self.latency_ms));
        }
        if self.latency_ms < 0.0 {
            return Err(format!("latency must be non-negative: {}", self.latency_ms));
        }
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(format!("loss outside [0,1]: {}", self.loss_rate));
        }
        Ok(())
    }

    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Bottleneck bandwidth as a typed rate.
    pub fn bandwidth(&self) -> BitsPerSec {
        BitsPerSec::from_mbps(self.bandwidth_mbps)
    }

    /// Serialization time of `bytes` at this bandwidth.
    pub fn serialization_time(&self, bytes: usize) -> Time {
        self.bandwidth().time_to_send(Bytes::new(bytes as u64)).get()
    }

    /// One-way propagation delay as [`Time`].
    pub fn propagation(&self) -> Time {
        (self.latency_ms * MS as f64).round() as Time
    }

    /// Bandwidth·delay product in bytes (using RTT = 2 × latency).
    pub fn bdp_bytes(&self) -> f64 {
        self.bandwidth_mbps * 1e6 / 8.0 * (2.0 * self.latency_ms / 1000.0)
    }
}

/// A packet in flight through the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Owning flow (0 for the single-flow legacy API).
    pub flow: u64,
    pub seq: u64,
    pub size_bytes: usize,
    /// When the sender transmitted it.
    pub sent_at: Time,
    /// Receiver's cumulative delivered-byte count when this packet was
    /// sent — the basis of BBR-style delivery-rate samples.
    pub delivered_at_send: u64,
    /// Congestion Experienced mark set by an ECN-capable queue discipline;
    /// echoed to the sender on the ACK.
    pub ecn: bool,
}

/// The drop-tail bottleneck queue.
#[derive(Debug)]
pub struct Queue {
    packets: VecDeque<Packet>,
    bytes: usize,
    /// Capacity in bytes; arrivals beyond it are dropped (drop-tail).
    pub capacity_bytes: usize,
    /// Monotone counters for diagnostics.
    pub total_enqueued: u64,
    pub total_dropped_overflow: u64,
}

impl Queue {
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes >= MTU_BYTES, "queue must hold at least one packet");
        Queue {
            packets: VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            total_enqueued: 0,
            total_dropped_overflow: 0,
        }
    }

    /// Try to enqueue; returns false (and counts a drop) when full.
    pub fn push(&mut self, p: Packet) -> bool {
        if self.bytes + p.size_bytes > self.capacity_bytes {
            self.total_dropped_overflow += 1;
            return false;
        }
        self.bytes += p.size_bytes;
        self.packets.push_back(p);
        self.total_enqueued += 1;
        true
    }

    pub fn pop(&mut self) -> Option<Packet> {
        let p = self.packets.pop_front()?;
        self.bytes -= p.size_bytes;
        Some(p)
    }

    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        Packet { flow: 0, seq, size_bytes: MTU_BYTES, sent_at: 0, delivered_at_send: 0, ecn: false }
    }

    #[test]
    fn serialization_time_scales() {
        let p = LinkParams::new(12.0, 20.0, 0.0);
        // 1500 B = 12 000 bits at 12 Mbit/s = 1 ms
        assert_eq!(p.serialization_time(1500), MS);
        let p2 = LinkParams::new(24.0, 20.0, 0.0);
        assert_eq!(p2.serialization_time(1500), MS / 2);
    }

    #[test]
    fn bdp_computation() {
        let p = LinkParams::new(12.0, 20.0, 0.0);
        // 12 Mbit/s × 40 ms RTT = 480 kbit = 60 kB
        assert!((p.bdp_bytes() - 60_000.0).abs() < 1e-6);
    }

    #[test]
    fn queue_drop_tail() {
        let mut q = Queue::new(3 * MTU_BYTES);
        assert!(q.push(pkt(1)));
        assert!(q.push(pkt(2)));
        assert!(q.push(pkt(3)));
        assert!(!q.push(pkt(4)), "fourth packet must overflow");
        assert_eq!(q.total_dropped_overflow, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().seq, 1, "FIFO order");
        assert!(q.push(pkt(4)), "space after a pop");
    }

    #[test]
    fn queue_byte_accounting() {
        let mut q = Queue::new(10 * MTU_BYTES);
        q.push(pkt(1));
        q.push(pkt(2));
        assert_eq!(q.bytes(), 2 * MTU_BYTES);
        q.pop();
        assert_eq!(q.bytes(), MTU_BYTES);
    }

    #[test]
    #[should_panic(expected = "loss outside")]
    fn params_validated() {
        LinkParams::new(10.0, 10.0, 1.5);
    }

    #[test]
    fn try_new_rejects_bad_values() {
        assert!(LinkParams::try_new(12.0, 20.0, 0.0).is_ok());
        assert!(LinkParams::try_new(0.0, 20.0, 0.0).is_err(), "zero bandwidth");
        assert!(LinkParams::try_new(-3.0, 20.0, 0.0).is_err(), "negative bandwidth");
        assert!(LinkParams::try_new(f64::NAN, 20.0, 0.0).is_err(), "NaN bandwidth");
        assert!(LinkParams::try_new(f64::INFINITY, 20.0, 0.0).is_err(), "infinite bandwidth");
        assert!(LinkParams::try_new(12.0, -1.0, 0.0).is_err(), "negative latency");
        assert!(LinkParams::try_new(12.0, f64::INFINITY, 0.0).is_err(), "infinite latency");
        assert!(LinkParams::try_new(12.0, 20.0, 1.5).is_err(), "loss > 1");
        assert!(LinkParams::try_new(12.0, 20.0, f64::NAN).is_err(), "NaN loss");
        let err = LinkParams::try_new(12.0, 20.0, 2.0).unwrap_err();
        assert!(err.contains("loss outside"), "{err}");
    }

    #[test]
    fn typed_bandwidth_matches_raw_field() {
        let p = LinkParams::new(17.5, 20.0, 0.0);
        assert_eq!(p.bandwidth().bps(), 17.5 * 1e6);
    }
}
