//! The multi-flow engine: N senders sharing one bottleneck.
//!
//! Each flow owns its congestion controller, its sequence space, its loss
//! RNG and its RTO machinery; the bottleneck (queue + serializer + qdisc)
//! is shared. Determinism contract (DESIGN.md §16):
//!
//! * Events are keyed `(time, flow key, per-flow event seq)` in a
//!   [`FlowEventQueue`] — tie-breaks never depend on global insertion
//!   order, so results are invariant under flow-registration order.
//! * Flow `k`'s loss RNG is seeded `cfg.seed ^ k·φ64` (flow 0 gets
//!   exactly `cfg.seed`, preserving legacy draws); the qdisc has its own
//!   stream, so RED randomization cannot shift any flow's loss draws.
//! * With one flow and the [`DropTail`] qdisc the
//!   engine replays the legacy `FlowSim` trajectories bit-for-bit — the
//!   handlers below are line-by-line transcriptions of `reference.rs`
//!   with flow state indirected and the outstanding set in a seq-indexed
//!   window (the reference keeps a `BTreeMap`) that yields the same
//!   packets in the same order; keep them in sync.
//!
//! Observability: the engine counts `netsim.events` (events handled),
//! `netsim.drops` (bottleneck drops: overflow + AQM early drops) and
//! `netsim.ecn_marks`, flushed to `telemetry` once per [`MultiFlowSim::run_for`]
//! under a `netsim.run` span. Fault points `netsim.event` (per event pop:
//! panic/stall) and `netsim.enqueue` (per admission: corrupt = forced
//! drop, stall) let chaos schedules reach the simulator.

use crate::event::{EventKind, FlowEventQueue};
use crate::link::{LinkParams, Packet, Queue};
use crate::qdisc::{DropTail, QDisc, Verdict};
use crate::sim::{AckEvent, CongestionControl, IntervalStats, SimConfig};
use crate::units::{BitsPerSec, Bytes, Nanosecs};
use crate::window::Window;
use crate::{to_secs, Time, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Golden-ratio mixing constant for per-flow RNG streams (flow 0 maps to
/// the bare seed, preserving the legacy single-flow loss sequence).
const FLOW_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Separate stream for qdisc randomness (RED drop draws).
const QDISC_SEED_MIX: u64 = 0xA076_1D64_78BD_642F;

#[derive(Debug, Default, Clone, Copy)]
struct Accumulators {
    delivered_bytes: u64,
    packets_delivered: u64,
    packets_sent: u64,
    lost_random: u64,
    lost_overflow: u64,
    rtt_sum_s: f64,
    rtt_samples: u64,
    sojourn_sum_s: f64,
    sojourn_samples: u64,
}

/// One sender: congestion controller plus all per-flow transport state.
struct FlowState {
    key: u64,
    cc: Box<dyn CongestionControl>,
    rng: StdRng,
    /// Monotone per-flow event counter — the heap tie-break key.
    event_seq: u64,

    next_seq: u64,
    /// Sent and not yet acked or declared lost, by seq.
    outstanding: Window,
    inflight_bytes: usize,
    delivered_bytes: u64,
    acked_bytes: u64,
    next_send_time: Time,
    send_scheduled: bool,
    srtt_s: f64,
    last_progress: Time,
    rto_armed_at: Time,
    /// FIFO return path per flow: ACKs never overtake each other.
    last_ack_arrival: Time,

    acc: Accumulators,
}

impl FlowState {
    fn new(key: u64, cc: Box<dyn CongestionControl>, rng: StdRng) -> FlowState {
        FlowState {
            key,
            cc,
            rng,
            event_seq: 0,
            next_seq: 0,
            outstanding: Window::default(),
            inflight_bytes: 0,
            delivered_bytes: 0,
            acked_bytes: 0,
            next_send_time: 0,
            send_scheduled: false,
            srtt_s: 0.0,
            last_progress: 0,
            rto_armed_at: 0,
            last_ack_arrival: 0,
            acc: Accumulators::default(),
        }
    }
}

/// N flows crossing one bottleneck with a pluggable queue discipline.
pub struct MultiFlowSim {
    now: Time,
    events: FlowEventQueue,
    params: LinkParams,
    queue: Queue,
    serving: Option<Packet>,
    qdisc: Box<dyn QDisc>,
    qdisc_rng: StdRng,
    cfg: SimConfig,
    /// Sorted by key; events are dispatched via binary search.
    flows: Vec<FlowState>,

    // monotone counters (telemetry flushes per-run deltas)
    total_events: u64,
    total_drops: u64,
    total_ecn_marks: u64,
}

impl MultiFlowSim {
    /// A drop-tail bottleneck — the legacy discipline.
    pub fn new(params: LinkParams, cfg: SimConfig) -> Self {
        Self::with_qdisc(params, cfg, Box::new(DropTail::new()))
    }

    pub fn with_qdisc(params: LinkParams, cfg: SimConfig, qdisc: Box<dyn QDisc>) -> Self {
        params.validate();
        cfg.validate();
        let qdisc_rng = StdRng::seed_from_u64(cfg.seed ^ QDISC_SEED_MIX);
        MultiFlowSim {
            now: 0,
            events: FlowEventQueue::new(),
            queue: Queue::new(cfg.queue_capacity_bytes),
            serving: None,
            qdisc,
            qdisc_rng,
            cfg,
            params,
            flows: Vec::new(),
            total_events: 0,
            total_drops: 0,
            total_ecn_marks: 0,
        }
    }

    /// Register a sender under `key` (must be unique). The flow starts
    /// sending at the current simulation time.
    pub fn add_flow(&mut self, key: u64, cc: Box<dyn CongestionControl>) {
        let pos = match self.flows.binary_search_by_key(&key, |f| f.key) {
            Ok(_) => panic!("duplicate flow key {key}"),
            Err(pos) => pos,
        };
        let rng = StdRng::seed_from_u64(self.cfg.seed ^ key.wrapping_mul(FLOW_SEED_MIX));
        let mut f = FlowState::new(key, cc, rng);
        f.next_send_time = self.now;
        Self::schedule_send(&mut self.events, &mut f, self.now);
        self.flows.insert(pos, f);
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn params(&self) -> LinkParams {
        self.params
    }

    pub fn set_link(&mut self, params: LinkParams) {
        params.validate();
        self.params = params;
    }

    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Registered flow keys, ascending.
    pub fn flow_keys(&self) -> Vec<u64> {
        self.flows.iter().map(|f| f.key).collect()
    }

    pub fn queue_bytes(&self) -> usize {
        self.queue.bytes()
    }

    /// Instantaneous queuing delay in ms (backlog over drain rate).
    pub fn queue_delay_ms(&self) -> f64 {
        self.queue.bytes() as f64 * 8.0 / (self.params.bandwidth_mbps * 1e6) * 1e3
    }

    pub fn flow_srtt_s(&self, key: u64) -> f64 {
        self.flows[self.flow_index(key)].srtt_s
    }

    pub fn flow_inflight_bytes(&self, key: u64) -> usize {
        self.flows[self.flow_index(key)].inflight_bytes
    }

    /// Inspect a flow's congestion controller.
    pub fn cc(&self, key: u64) -> &dyn CongestionControl {
        self.flows[self.flow_index(key)].cc.as_ref()
    }

    /// Events handled since construction.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Bottleneck drops (overflow + AQM early drops) since construction.
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// ECN CE marks applied since construction.
    pub fn total_ecn_marks(&self) -> u64 {
        self.total_ecn_marks
    }

    fn flow_index(&self, key: u64) -> usize {
        self.flows.binary_search_by_key(&key, |f| f.key).expect("unknown flow key")
    }

    /// Advance all flows by `dt`; returns `(key, stats)` per flow,
    /// ascending by key. Per-flow `capacity_bytes`/`utilization` are
    /// against the full link capacity (so utilizations sum to ≤ 1 and
    /// flow 0's stats match the legacy single-flow numbers exactly).
    pub fn run_for(&mut self, dt: Time) -> Vec<(u64, IntervalStats)> {
        let _span = telemetry::span!("netsim.run");
        let end = self.now + dt;
        for f in &mut self.flows {
            f.acc = Accumulators::default();
        }
        let (ev0, dr0, ecn0) = (self.total_events, self.total_drops, self.total_ecn_marks);
        while let Some(t) = self.events.peek_time() {
            if t > end {
                break;
            }
            let (t, flow, kind) = self.events.pop().expect("peeked event exists");
            debug_assert!(t >= self.now, "time must not go backwards");
            self.now = t;
            self.total_events += 1;
            // Fault point `netsim.event`: panic fires inside check(); a
            // stall sleeps the simulation thread; NaN/corrupt have no
            // meaning for an event pop and are ignored.
            if fault::active() {
                if let Some(fault::Injection::Stall(d)) = fault::check("netsim.event") {
                    std::thread::sleep(d);
                }
            }
            let idx = self.flow_index(flow);
            self.handle(idx, kind);
        }
        self.now = end;

        if telemetry::enabled() {
            let events = self.total_events - ev0;
            let drops = self.total_drops - dr0;
            let marks = self.total_ecn_marks - ecn0;
            if events > 0 {
                telemetry::counter_add("netsim.events", events);
            }
            if drops > 0 {
                telemetry::counter_add("netsim.drops", drops);
            }
            if marks > 0 {
                telemetry::counter_add("netsim.ecn_marks", marks);
            }
        }

        let dt_s = to_secs(dt);
        let capacity = self.params.bandwidth_mbps * 1e6 / 8.0 * dt_s;
        self.flows
            .iter()
            .map(|f| {
                let a = f.acc;
                let stats = IntervalStats {
                    duration_s: dt_s,
                    delivered_bytes: a.delivered_bytes,
                    capacity_bytes: capacity,
                    utilization: (a.delivered_bytes as f64 / capacity.max(1.0)).min(1.0),
                    throughput_mbps: a.delivered_bytes as f64 * 8.0 / dt_s.max(1e-9) / 1e6,
                    avg_rtt_ms: if a.rtt_samples > 0 {
                        a.rtt_sum_s / a.rtt_samples as f64 * 1e3
                    } else {
                        0.0
                    },
                    avg_queue_delay_ms: if a.sojourn_samples > 0 {
                        a.sojourn_sum_s / a.sojourn_samples as f64 * 1e3
                    } else {
                        0.0
                    },
                    packets_sent: a.packets_sent,
                    packets_delivered: a.packets_delivered,
                    packets_lost_random: a.lost_random,
                    packets_lost_overflow: a.lost_overflow,
                };
                (f.key, stats)
            })
            .collect()
    }

    fn handle(&mut self, idx: usize, kind: EventKind) {
        match kind {
            EventKind::SendReady => {
                self.flows[idx].send_scheduled = false;
                self.try_send(idx);
            }
            EventKind::ServiceComplete => self.service_complete(),
            EventKind::AckArrival { seq, delivered } => self.ack_arrival(idx, seq, delivered),
            EventKind::RtoCheck { armed_at } => self.rto_check(idx, armed_at),
        }
    }

    /// Push an event for flow `f`, consuming its next event-seq number.
    fn push_event(events: &mut FlowEventQueue, f: &mut FlowState, at: Time, kind: EventKind) {
        let seq = f.event_seq;
        f.event_seq += 1;
        events.push(at, f.key, seq, kind);
    }

    fn schedule_send(events: &mut FlowEventQueue, f: &mut FlowState, now: Time) {
        if f.send_scheduled {
            return;
        }
        if (f.outstanding.len() as f64) < f.cc.cwnd_packets() {
            let at = f.next_send_time.max(now);
            Self::push_event(events, f, at, EventKind::SendReady);
            f.send_scheduled = true;
        }
    }

    fn arm_rto(events: &mut FlowEventQueue, f: &mut FlowState, now: Time, min_rto_s: f64) {
        if f.outstanding.is_empty() {
            return;
        }
        f.rto_armed_at = now;
        let rto_s = (4.0 * f.srtt_s).max(min_rto_s);
        let dur = (rto_s * SEC as f64) as Time;
        Self::push_event(events, f, now + dur, EventKind::RtoCheck { armed_at: now });
    }

    fn try_send(&mut self, idx: usize) {
        let now = self.now;
        let size = self.cfg.packet_bytes;
        let min_rto_s = self.cfg.min_rto_s;
        let loss_rate = self.params.loss_rate;
        let mut enqueued = false;
        {
            let f = &mut self.flows[idx];
            if (f.outstanding.len() as f64) >= f.cc.cwnd_packets() {
                return; // cwnd-limited: ACKs will restart sending
            }
            let mut pkt = Packet {
                flow: f.key,
                seq: f.next_seq,
                size_bytes: size,
                sent_at: now,
                delivered_at_send: f.acked_bytes,
                ecn: false,
            };
            f.next_seq += 1;
            f.outstanding.insert(pkt);
            f.inflight_bytes += size;
            f.acc.packets_sent += 1;
            Self::arm_rto(&mut self.events, f, now, min_rto_s);

            // iid random loss at link ingress (per-flow RNG stream)
            if f.rng.gen::<f64>() < loss_rate {
                f.acc.lost_random += 1;
            } else {
                // Fault point `netsim.enqueue`: corrupt = force-drop this
                // admission (counted as overflow); stall sleeps; NaN has no
                // meaning here and is ignored.
                let mut forced_drop = false;
                if fault::active() {
                    match fault::check("netsim.enqueue") {
                        Some(fault::Injection::Corrupt) => forced_drop = true,
                        Some(fault::Injection::Stall(d)) => std::thread::sleep(d),
                        _ => {}
                    }
                }
                let verdict = if forced_drop {
                    Verdict::Drop
                } else {
                    self.qdisc.admit(
                        self.queue.bytes(),
                        self.queue.capacity_bytes,
                        size,
                        &mut self.qdisc_rng,
                    )
                };
                match verdict {
                    Verdict::Drop => {
                        self.queue.total_dropped_overflow += 1;
                        f.acc.lost_overflow += 1;
                        self.total_drops += 1;
                    }
                    Verdict::Mark | Verdict::Enqueue => {
                        if verdict == Verdict::Mark {
                            pkt.ecn = true;
                            self.total_ecn_marks += 1;
                            // the ACK echoes the mark: update the sender's
                            // in-flight copy too
                            if let Some(p) = f.outstanding.get_mut(pkt.seq) {
                                p.ecn = true;
                            }
                        }
                        let pushed = self.queue.push(pkt);
                        debug_assert!(pushed, "qdisc admitted past capacity");
                        enqueued = pushed;
                    }
                }
            }
        }
        if enqueued && self.serving.is_none() {
            self.start_service();
        }

        // pace the next transmission
        let f = &mut self.flows[idx];
        let pacing = f.cc.pacing_rate().bps().max(1e3);
        let gap = (size as f64 * 8.0 / pacing * SEC as f64).round() as Time;
        f.next_send_time = now + gap.max(1);
        Self::schedule_send(&mut self.events, f, now);
    }

    fn start_service(&mut self) {
        debug_assert!(self.serving.is_none());
        if let Some(pkt) = self.queue.pop() {
            let done = self.now + self.params.serialization_time(pkt.size_bytes);
            let idx = self.flow_index(pkt.flow);
            self.serving = Some(pkt);
            Self::push_event(
                &mut self.events,
                &mut self.flows[idx],
                done,
                EventKind::ServiceComplete,
            );
        }
    }

    fn service_complete(&mut self) {
        let pkt = self.serving.take().expect("service completion without a packet");
        let idx = self.flow_index(pkt.flow);
        {
            let f = &mut self.flows[idx];
            f.delivered_bytes += pkt.size_bytes as u64;
            f.acc.delivered_bytes += pkt.size_bytes as u64;
            f.acc.packets_delivered += 1;
            f.acc.sojourn_sum_s += to_secs(self.now - pkt.sent_at);
            f.acc.sojourn_samples += 1;
            let ack_at = (self.now + 2 * self.params.propagation()).max(f.last_ack_arrival + 1);
            f.last_ack_arrival = ack_at;
            let delivered = f.delivered_bytes;
            Self::push_event(
                &mut self.events,
                f,
                ack_at,
                EventKind::AckArrival { seq: pkt.seq, delivered },
            );
        }
        if !self.queue.is_empty() {
            self.start_service();
        }
    }

    fn ack_arrival(&mut self, idx: usize, seq: u64, _delivered: u64) {
        let now = self.now;
        let min_rto_s = self.cfg.min_rto_s;
        let f = &mut self.flows[idx];
        let Some(pkt) = f.outstanding.remove(seq) else {
            return; // already declared lost via dup-ACK or RTO
        };
        f.inflight_bytes = f.inflight_bytes.saturating_sub(pkt.size_bytes);
        f.acked_bytes += pkt.size_bytes as u64;
        f.last_progress = now;

        let rtt_s = to_secs(now - pkt.sent_at);
        f.srtt_s = if f.srtt_s == 0.0 { rtt_s } else { 0.875 * f.srtt_s + 0.125 * rtt_s };
        f.acc.rtt_sum_s += rtt_s;
        f.acc.rtt_samples += 1;

        // loss detection on each ACK: dup-ACK style (3-packet reorder
        // window) plus RACK-style time threshold — per flow, since the
        // FIFO bottleneck preserves each flow's internal order. Both
        // rules only match seqs below the acked one, so only that prefix
        // is walked, ascending as in the reference engine.
        let rack_cutoff = pkt.sent_at.saturating_sub((0.5 * f.srtt_s * SEC as f64) as Time);
        let mut lost = 0;
        let inflight = &mut f.inflight_bytes;
        f.outstanding.remove_below_if(seq, |p| {
            let is_lost = p.seq < seq.saturating_sub(3) || p.sent_at < rack_cutoff;
            if is_lost {
                lost += 1;
                *inflight = inflight.saturating_sub(p.size_bytes);
            }
            is_lost
        });

        let span_s = to_secs(now - pkt.sent_at).max(1e-9);
        let ack = AckEvent {
            now: Nanosecs::new(now),
            rtt: Nanosecs::new(now - pkt.sent_at),
            delivery_rate: BitsPerSec::from_bps(
                (f.acked_bytes - pkt.delivered_at_send) as f64 * 8.0 / span_s,
            ),
            newly_acked: Bytes::new(pkt.size_bytes as u64),
            inflight: Bytes::new(f.inflight_bytes as u64),
            delivered: Bytes::new(f.acked_bytes),
            delivered_at_send: Bytes::new(pkt.delivered_at_send),
            ecn: pkt.ecn,
        };
        f.cc.on_ack(&ack);
        if lost > 0 {
            f.cc.on_loss(lost, Nanosecs::new(now));
        }
        Self::arm_rto(&mut self.events, f, now, min_rto_s);
        Self::schedule_send(&mut self.events, f, now);
    }

    fn rto_check(&mut self, idx: usize, armed_at: Time) {
        let now = self.now;
        let f = &mut self.flows[idx];
        if armed_at != f.rto_armed_at {
            return; // a newer arming superseded this timer
        }
        if f.outstanding.is_empty() || f.last_progress > armed_at {
            return; // progress since arming
        }
        // timeout: everything outstanding is presumed lost
        f.outstanding.clear();
        f.inflight_bytes = 0;
        f.cc.on_rto(Nanosecs::new(now));
        f.next_send_time = now;
        Self::schedule_send(&mut self.events, f, now);
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when all shares are equal,
/// `1/n` when one flow takes everything. Empty input → 0; all-zero → 1
/// (nobody got anything, which is perfectly fair).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// A fixed-window sender whose pacing rate is set externally through a
/// [`RateHandle`] — the adversary's cross-traffic knob. The handle is
/// `Send + Sync + Clone`, so the environment can keep it after moving the
/// controller into the simulator.
pub struct SharedRateCc {
    rate_bits: Arc<AtomicU64>,
    cwnd: f64,
}

/// Externally sets/reads a [`SharedRateCc`]'s pacing rate.
#[derive(Clone)]
pub struct RateHandle {
    rate_bits: Arc<AtomicU64>,
}

impl RateHandle {
    /// Set the pacing rate (validated finite and non-negative).
    pub fn set_rate(&self, rate: BitsPerSec) {
        self.rate_bits.store(rate.bps().to_bits(), Ordering::Relaxed);
    }

    pub fn set_rate_bps(&self, bps: f64) {
        self.set_rate(BitsPerSec::from_bps(bps));
    }

    pub fn rate_bps(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }
}

impl SharedRateCc {
    pub fn new(initial: BitsPerSec, cwnd: f64) -> (SharedRateCc, RateHandle) {
        let rate_bits = Arc::new(AtomicU64::new(initial.bps().to_bits()));
        let handle = RateHandle { rate_bits: Arc::clone(&rate_bits) };
        (SharedRateCc { rate_bits, cwnd }, handle)
    }
}

impl CongestionControl for SharedRateCc {
    fn name(&self) -> &str {
        "xrate"
    }
    fn on_ack(&mut self, _ack: &AckEvent) {}
    fn on_loss(&mut self, _lost: usize, _now: Nanosecs) {}
    fn on_rto(&mut self, _now: Nanosecs) {}
    fn pacing_rate(&self) -> BitsPerSec {
        BitsPerSec::from_bps(f64::from_bits(self.rate_bits.load(Ordering::Relaxed)))
    }
    fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdisc::{DctcpEcn, QdiscKind, Red};
    use crate::sim::FixedRateCc;
    use crate::MTU_BYTES;

    fn fixed(rate_mbps: f64) -> Box<dyn CongestionControl> {
        Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd: 1e9 })
    }

    #[test]
    fn two_equal_senders_saturate_the_link() {
        // Under drop-tail, two perfectly synchronized paced senders can
        // phase-lock (the classic drop-tail phase effect): one flow's
        // packets always hit a full queue. Only the aggregate is asserted
        // here; fairness is checked under RED below, which randomizes
        // drops precisely to break such synchronization.
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(0, fixed(12.0));
        sim.add_flow(1, fixed(12.0));
        sim.run_for(crate::SEC);
        let stats = sim.run_for(5 * crate::SEC);
        assert_eq!(stats.len(), 2);
        let total: f64 = stats.iter().map(|(_, s)| s.throughput_mbps).sum();
        assert!((total - 12.0).abs() < 0.5, "link saturated: {total}");
    }

    #[test]
    fn red_breaks_phase_lock_between_equal_senders() {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(12.0, 20.0, 0.0),
            SimConfig::default(),
            Box::new(Red::new()),
        );
        sim.add_flow(0, fixed(12.0));
        sim.add_flow(1, fixed(12.0));
        sim.run_for(crate::SEC);
        let stats = sim.run_for(5 * crate::SEC);
        let shares: Vec<f64> = stats.iter().map(|(_, s)| s.throughput_mbps).collect();
        let jain = jain_index(&shares);
        assert!(jain > 0.9, "RED must desynchronize equal senders: jain {jain} shares {shares:?}");
    }

    #[test]
    fn results_invariant_under_registration_order() {
        let run = |keys: &[u64]| {
            let mut sim =
                MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.02), SimConfig::default());
            for &k in keys {
                sim.add_flow(k, fixed(6.0 + k as f64));
            }
            sim.run_for(3 * crate::SEC)
                .into_iter()
                .map(|(k, s)| (k, s.delivered_bytes, s.packets_lost_random))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 0, 1]));
        assert_eq!(run(&[0, 1, 2]), run(&[1, 2, 0]));
    }

    #[test]
    fn dctcp_marks_under_overload_and_echoes_on_acks() {
        struct EcnCounter {
            inner: FixedRateCc,
            marked_acks: Arc<AtomicU64>,
        }
        impl CongestionControl for EcnCounter {
            fn name(&self) -> &str {
                "ecn-counter"
            }
            fn on_ack(&mut self, ack: &AckEvent) {
                if ack.ecn {
                    self.marked_acks.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn on_loss(&mut self, _: usize, _: Nanosecs) {}
            fn on_rto(&mut self, _: Nanosecs) {}
            fn pacing_rate(&self) -> BitsPerSec {
                self.inner.pacing_rate()
            }
            fn cwnd_packets(&self) -> f64 {
                self.inner.cwnd_packets()
            }
        }
        let marked = Arc::new(AtomicU64::new(0));
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(6.0, 10.0, 0.0),
            SimConfig::default(),
            Box::new(DctcpEcn::new()),
        );
        sim.add_flow(
            0,
            Box::new(EcnCounter {
                inner: FixedRateCc { rate_bps: 24e6, cwnd: 1e9 },
                marked_acks: Arc::clone(&marked),
            }),
        );
        sim.run_for(3 * crate::SEC);
        assert!(sim.total_ecn_marks() > 0, "4x overload must cross the DCTCP threshold");
        assert!(
            marked.load(Ordering::Relaxed) > 0,
            "CE marks must be echoed to the sender on ACKs"
        );
    }

    #[test]
    fn red_drops_early_under_standing_queue() {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(6.0, 10.0, 0.0),
            SimConfig::default(),
            Box::new(Red::new()),
        );
        sim.add_flow(0, fixed(24.0));
        let stats = sim.run_for(5 * crate::SEC);
        assert!(sim.total_drops() > 0, "RED must drop under 4x overload");
        assert!(stats[0].1.packets_lost_overflow > 0);
        // RED keeps the average queue between its thresholds, well below
        // the 150 kB physical capacity
        assert!(
            sim.queue_bytes() < 100 * MTU_BYTES,
            "RED must not sustain a full queue: {} B",
            sim.queue_bytes()
        );
    }

    #[test]
    fn shared_rate_handle_changes_rate_live() {
        let (cc, handle) = SharedRateCc::new(BitsPerSec::from_mbps(2.0), 1e9);
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 10.0, 0.0), SimConfig::default());
        sim.add_flow(0, Box::new(cc));
        sim.run_for(crate::SEC);
        let slow = sim.run_for(2 * crate::SEC);
        handle.set_rate_bps(10e6);
        sim.run_for(crate::SEC);
        let fast = sim.run_for(2 * crate::SEC);
        assert!((slow[0].1.throughput_mbps - 2.0).abs() < 0.3, "{}", slow[0].1.throughput_mbps);
        assert!((fast[0].1.throughput_mbps - 10.0).abs() < 0.5, "{}", fast[0].1.throughput_mbps);
        assert_eq!(handle.rate_bps(), 10e6);
    }

    #[test]
    fn events_counter_is_nonzero_after_a_run() {
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(0, fixed(6.0));
        sim.run_for(crate::SEC);
        assert!(sim.total_events() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate flow key")]
    fn duplicate_flow_key_rejected() {
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
        sim.add_flow(3, fixed(6.0));
        sim.add_flow(3, fixed(6.0));
    }

    #[test]
    fn jain_index_basics() {
        assert_eq!(jain_index(&[]), 0.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_qdisc_kinds_run_a_contest() {
        for kind in QdiscKind::ALL {
            let mut sim = MultiFlowSim::with_qdisc(
                LinkParams::new(12.0, 20.0, 0.0),
                SimConfig::default(),
                kind.build(),
            );
            sim.add_flow(0, fixed(8.0));
            sim.add_flow(1, fixed(8.0));
            let stats = sim.run_for(2 * crate::SEC);
            let total: f64 = stats.iter().map(|(_, s)| s.throughput_mbps).sum();
            assert!(total > 8.0, "{}: link must carry traffic, got {total}", kind.label());
        }
    }
}
