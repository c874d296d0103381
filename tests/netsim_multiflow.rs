//! Cross-crate checks of the multi-flow packet simulator's per-flow
//! transport bookkeeping: the outstanding window, ACK processing, loss
//! detection and the RTO path, observed through the public API only.
//!
//! The engine's own suites (`crates/netsim/tests`) pin it bit for bit
//! against recorded digests; these tests state what the bookkeeping must
//! mean — packets are conserved, every delivered packet is acked once
//! unless an RTO already gave it up, a declared loss is a real loss — and
//! that a 1-flow engine still replays the legacy reference engine for
//! every protocol, including through RTO storms.

use cc::{Bbr, Copa, Cubic, Reno, Vivace};
use netsim::reference::RefFlowSim;
use netsim::{
    jain_index, AckEvent, BitsPerSec, CongestionControl, FixedRateCc, IntervalStats, LinkParams,
    MultiFlowSim, Nanosecs, QdiscKind, SharedRateCc, SimConfig, MS, MTU_BYTES, SEC,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// What a flow's congestion controller was told.
#[derive(Default)]
struct Log {
    acks: Vec<AckEvent>,
    /// Sum of the `lost` counts passed to `on_loss`.
    declared_lost: u64,
    rtos: u64,
}

/// Forwards to an inner controller and records every notification.
struct Recorder {
    inner: Box<dyn CongestionControl>,
    log: Arc<Mutex<Log>>,
}

impl CongestionControl for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_ack(&mut self, ack: &AckEvent) {
        self.log.lock().unwrap().acks.push(*ack);
        self.inner.on_ack(ack);
    }
    fn on_loss(&mut self, lost: usize, now: Nanosecs) {
        self.log.lock().unwrap().declared_lost += lost as u64;
        self.inner.on_loss(lost, now);
    }
    fn on_rto(&mut self, now: Nanosecs) {
        self.log.lock().unwrap().rtos += 1;
        self.inner.on_rto(now);
    }
    fn pacing_rate(&self) -> BitsPerSec {
        self.inner.pacing_rate()
    }
    fn cwnd_packets(&self) -> f64 {
        self.inner.cwnd_packets()
    }
}

fn recorded(inner: Box<dyn CongestionControl>) -> (Box<dyn CongestionControl>, Arc<Mutex<Log>>) {
    let log = Arc::new(Mutex::new(Log::default()));
    (Box::new(Recorder { inner, log: Arc::clone(&log) }), log)
}

fn fixed(rate_mbps: f64, cwnd: f64) -> Box<dyn CongestionControl> {
    Box::new(FixedRateCc { rate_bps: rate_mbps * 1e6, cwnd })
}

/// Builds a fresh congestion controller.
type MakeCc = fn() -> Box<dyn CongestionControl>;

fn protocols() -> Vec<(&'static str, MakeCc)> {
    vec![
        ("bbr", || Box::new(Bbr::new())),
        ("cubic", || Box::new(Cubic::new())),
        ("copa", || Box::new(Copa::new())),
        ("vivace", || Box::new(Vivace::new())),
        ("reno", || Box::new(Reno::new())),
    ]
}

/// Per-flow sums of interval counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    sent: u64,
    delivered: u64,
    delivered_bytes: u64,
    lost_random: u64,
    lost_overflow: u64,
}

impl Totals {
    fn add(&mut self, s: &IntervalStats) {
        self.sent += s.packets_sent;
        self.delivered += s.packets_delivered;
        self.delivered_bytes += s.delivered_bytes;
        self.lost_random += s.packets_lost_random;
        self.lost_overflow += s.packets_lost_overflow;
    }

    fn lost(&self) -> u64 {
        self.lost_random + self.lost_overflow
    }
}

/// Run `steps` intervals of `dt`, summing each flow's counters (flows in
/// key order).
fn run_totals(sim: &mut MultiFlowSim, steps: usize, dt: u64) -> Vec<Totals> {
    let mut totals = vec![Totals::default(); sim.n_flows()];
    for _ in 0..steps {
        for (t, (_, s)) in totals.iter_mut().zip(sim.run_for(dt)) {
            t.add(&s);
        }
    }
    totals
}

/// Bit-exact signature of one interval (floats as bits).
fn sig(s: &IntervalStats) -> [u64; 11] {
    [
        s.duration_s.to_bits(),
        s.delivered_bytes,
        s.capacity_bytes.to_bits(),
        s.utilization.to_bits(),
        s.throughput_mbps.to_bits(),
        s.avg_rtt_ms.to_bits(),
        s.avg_queue_delay_ms.to_bits(),
        s.packets_sent,
        s.packets_delivered,
        s.packets_lost_random,
        s.packets_lost_overflow,
    ]
}

/// Random link conditions over the paper's Table 1 ranges.
fn random_link(rng: &mut StdRng) -> LinkParams {
    LinkParams::new(
        6.0 + 18.0 * rng.gen::<f64>(),
        15.0 + 45.0 * rng.gen::<f64>(),
        0.05 * rng.gen::<f64>(),
    )
}

/// Every packet a sender emits is randomly lost, dropped by the qdisc,
/// delivered, or still at the bottleneck (queued or being serialized).
#[test]
fn sent_packets_are_delivered_dropped_or_queued() {
    for kind in QdiscKind::ALL {
        let cfg = SimConfig { seed: 11, ..SimConfig::default() };
        let mut sim =
            MultiFlowSim::with_qdisc(LinkParams::new(10.0, 20.0, 0.02), cfg, kind.build());
        for k in 0..3 {
            sim.add_flow(k, fixed(3.0 + 2.0 * k as f64, 1e9));
        }
        let mut sum = Totals::default();
        for _ in 0..400 {
            for (_, s) in sim.run_for(5 * MS) {
                sum.add(&s);
            }
            let queued = (sim.queue_bytes() / MTU_BYTES) as u64;
            let residue = sum.sent - sum.delivered - sum.lost();
            assert!(
                residue == queued || residue == queued + 1,
                "{}: {residue} packets unaccounted with {queued} queued",
                kind.label()
            );
        }
        assert!(sum.lost_random > 0 && sum.lost_overflow > 0, "{}: {sum:?}", kind.label());
    }
}

/// A flow never has more than its congestion window outstanding.
#[test]
fn inflight_never_exceeds_the_window() {
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.01), SimConfig::default());
    let (cc0, log0) = recorded(fixed(50.0, 10.0));
    let (cc1, log1) = recorded(fixed(50.0, 20.0));
    sim.add_flow(0, cc0);
    sim.add_flow(1, cc1);
    for _ in 0..2000 {
        sim.run_for(MS);
        assert!(sim.flow_inflight_bytes(0) <= 10 * MTU_BYTES);
        assert!(sim.flow_inflight_bytes(1) <= 20 * MTU_BYTES);
    }
    for (log, cwnd) in [(log0, 10), (log1, 20)] {
        let log = log.lock().unwrap();
        assert!(!log.acks.is_empty());
        assert!(log.acks.iter().all(|a| a.inflight_bytes() < cwnd * MTU_BYTES));
    }
}

/// On a clean link, once the sender goes quiet, every packet it sent has
/// been delivered and acked exactly once and nothing is left in flight.
#[test]
fn quiet_lossless_sender_has_every_packet_acked_once() {
    let (shared, handle) = SharedRateCc::new(BitsPerSec::from_mbps(8.0), 1e9);
    let (cc, log) = recorded(Box::new(shared));
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
    sim.add_flow(0, cc);
    let mut t = run_totals(&mut sim, 20, 100 * MS)[0];
    handle.set_rate_bps(1e3);
    let tail = run_totals(&mut sim, 10, 100 * MS)[0];
    t.sent += tail.sent;
    t.delivered += tail.delivered;
    t.delivered_bytes += tail.delivered_bytes;

    let log = log.lock().unwrap();
    assert_eq!(sim.flow_inflight_bytes(0), 0);
    assert_eq!(t.delivered, t.sent);
    assert_eq!(log.acks.len() as u64, t.delivered);
    assert_eq!(log.acks.last().unwrap().delivered.get(), t.delivered_bytes);
    assert_eq!((log.declared_lost, log.rtos), (0, 0));
}

/// On a lossy link the sender's window still drains to empty once it
/// goes quiet, and no delivered packet's ACK is swallowed.
#[test]
fn lossy_sender_drains_to_zero_inflight() {
    let (shared, handle) = SharedRateCc::new(BitsPerSec::from_mbps(8.0), 1e9);
    let (cc, log) = recorded(Box::new(shared));
    let cfg = SimConfig { seed: 5, ..SimConfig::default() };
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.05), cfg);
    sim.add_flow(0, cc);
    let busy = run_totals(&mut sim, 20, 100 * MS)[0];
    handle.set_rate_bps(1e3);
    let quiet = run_totals(&mut sim, 30, 100 * MS)[0];

    let log = log.lock().unwrap();
    assert_eq!(sim.flow_inflight_bytes(0), 0);
    assert!(busy.lost_random > 0);
    assert_eq!(log.acks.len() as u64, busy.delivered + quiet.delivered);
    assert!(log.declared_lost > 0 && log.declared_lost <= busy.lost() + quiet.lost());
}

/// Loss detection only declares packets that really were lost: with a
/// FIFO bottleneck and FIFO return path, a packet still outstanding when
/// a later seq is acked has been dropped.
#[test]
fn declared_losses_are_real_losses() {
    let cfg = SimConfig { seed: 3, ..SimConfig::default() };
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.02), cfg);
    let (cc0, log0) = recorded(fixed(9.0, 1e9));
    let (cc1, log1) = recorded(fixed(7.0, 1e9));
    sim.add_flow(0, cc0);
    sim.add_flow(1, cc1);
    let totals = run_totals(&mut sim, 100, 30 * MS);
    for (t, log) in totals.iter().zip([log0, log1]) {
        let declared = log.lock().unwrap().declared_lost;
        assert!(t.lost_overflow > 0, "the link is overloaded: {t:?}");
        assert!(declared > 0 && declared <= t.lost(), "declared {declared} of {t:?}");
    }
}

/// The same holds for every protocol on a link that changes every 30 ms,
/// as under the paper's CC adversary.
#[test]
fn declared_losses_are_real_under_a_changing_link() {
    for (name, make) in protocols() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sim = MultiFlowSim::new(random_link(&mut rng), SimConfig::default());
        let (cc, log) = recorded(make());
        sim.add_flow(0, cc);
        let mut t = Totals::default();
        for _ in 0..200 {
            sim.set_link(random_link(&mut rng));
            t.add(&sim.run_for(30 * MS)[0].1);
        }
        let declared = log.lock().unwrap().declared_lost;
        assert!(t.lost() > 0, "{name}: {t:?}");
        assert!(declared <= t.lost(), "{name}: declared {declared} of {t:?}");
    }
}

/// Senders that together stay under capacity see no loss signal of any
/// kind, under any queue discipline.
#[test]
fn clean_link_reports_no_losses() {
    for kind in QdiscKind::ALL {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(12.0, 20.0, 0.0),
            SimConfig::default(),
            kind.build(),
        );
        let logs: Vec<_> = (0..3)
            .map(|k| {
                let (cc, log) = recorded(fixed(3.0, 1e9));
                sim.add_flow(k, cc);
                log
            })
            .collect();
        let totals = run_totals(&mut sim, 30, 100 * MS);
        for (t, log) in totals.iter().zip(logs) {
            let log = log.lock().unwrap();
            assert_eq!(t.lost(), 0, "{}", kind.label());
            assert_eq!((log.declared_lost, log.rtos), (0, 0), "{}", kind.label());
            assert!(log.acks.len() as u64 + 10 >= t.delivered, "{}", kind.label());
        }
    }
}

/// Every RTT sample lies between the empty-path RTT and the RTT behind a
/// full queue.
#[test]
fn ack_rtts_are_bounded_by_the_path() {
    let link = LinkParams::new(12.0, 25.0, 0.0);
    let mut sim = MultiFlowSim::new(link, SimConfig::default());
    let (cc, log) = recorded(fixed(20.0, 1e9));
    sim.add_flow(0, cc);
    sim.run_for(3 * SEC);
    let ser = link.serialization_time(MTU_BYTES);
    let lo = 2 * link.propagation() + ser;
    let queue_pkts = (SimConfig::default().queue_capacity_bytes / MTU_BYTES) as u64;
    let hi = lo + queue_pkts * ser + MS;
    let log = log.lock().unwrap();
    assert!(log.acks.len() > 1000);
    assert!(log.acks.iter().all(|a| (lo..=hi).contains(&a.rtt.get())));
    assert!(log.acks.iter().any(|a| a.rtt.get() > lo + 50 * ser), "the queue must build up");
}

/// ACKs arrive in order and the cumulative delivered counter advances by
/// exactly the bytes each ACK newly acknowledges.
#[test]
fn ack_delivered_counter_advances_by_newly_acked() {
    let cfg = SimConfig { seed: 9, ..SimConfig::default() };
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 25.0, 0.03), cfg);
    let (cc, log) = recorded(Box::new(Cubic::new()));
    sim.add_flow(0, cc);
    sim.add_flow(1, Box::new(Bbr::new()));
    sim.run_for(4 * SEC);
    let log = log.lock().unwrap();
    assert!(log.acks.len() > 100);
    let mut prev = log.acks[0];
    assert_eq!(prev.delivered, prev.newly_acked);
    for a in &log.acks[1..] {
        assert!(a.now > prev.now, "ACKs never overtake each other");
        assert_eq!(a.delivered.get(), prev.delivered.get() + a.newly_acked.get());
        assert!(a.delivered_at_send >= prev.delivered_at_send);
        assert!(a.delivered_at_send < a.delivered);
        prev = *a;
    }
}

/// Only the ECN discipline marks packets, and every echoed mark was
/// applied at the queue.
#[test]
fn only_ecn_queues_echo_marks() {
    for kind in QdiscKind::ALL {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(6.0, 10.0, 0.0),
            SimConfig::default(),
            kind.build(),
        );
        let (cc, log) = recorded(fixed(24.0, 1e9));
        sim.add_flow(0, cc);
        sim.run_for(3 * SEC);
        let echoed = log.lock().unwrap().acks.iter().filter(|a| a.ecn).count() as u64;
        if kind == QdiscKind::DctcpEcn {
            assert!(echoed > 0 && echoed <= sim.total_ecn_marks());
        } else {
            assert_eq!((echoed, sim.total_ecn_marks()), (0, 0), "{}", kind.label());
        }
    }
}

/// A latency jump past the RTO makes the timer give up packets that are
/// in fact still in flight. Their late ACKs must be ignored, and the flow
/// must settle back to its rate once the latency returns.
#[test]
fn stale_acks_after_a_spurious_rto_are_ignored() {
    let (shared, handle) = SharedRateCc::new(BitsPerSec::from_mbps(4.0), 20.0);
    let (cc, log) = recorded(Box::new(shared));
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
    sim.add_flow(0, cc);
    let mut t = run_totals(&mut sim, 10, 100 * MS)[0];
    sim.set_link(LinkParams::new(12.0, 400.0, 0.0));
    let slow = run_totals(&mut sim, 20, 100 * MS)[0];
    assert!(log.lock().unwrap().rtos > 0, "RTT 800 ms must outlast the 250 ms RTO");
    sim.set_link(LinkParams::new(12.0, 20.0, 0.0));
    let recover = run_totals(&mut sim, 10, 100 * MS)[0];
    let settled = sim.run_for(SEC)[0].1;
    assert!((settled.throughput_mbps - 4.0).abs() < 0.2, "{}", settled.throughput_mbps);
    handle.set_rate_bps(1e3);
    let quiet = run_totals(&mut sim, 30, 100 * MS)[0];

    let mut settled_t = Totals::default();
    settled_t.add(&settled);
    for part in [slow, recover, settled_t, quiet] {
        t.sent += part.sent;
        t.delivered += part.delivered;
        assert_eq!(part.lost(), 0);
    }
    let acks = log.lock().unwrap().acks.len() as u64;
    assert_eq!(sim.flow_inflight_bytes(0), 0);
    assert_eq!(t.delivered, t.sent, "a clean link delivers everything");
    assert!(acks < t.delivered, "ACKs for RTO-cleared packets must not reach the sender");
}

/// After the link all but stops (an RTO storm), a window-limited flow
/// resumes sending at its full rate.
#[test]
fn flow_recovers_after_a_link_collapse() {
    let (cc, log) = recorded(fixed(8.0, 64.0));
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
    sim.add_flow(0, cc);
    sim.run_for(SEC);
    sim.set_link(LinkParams::new(0.01, 20.0, 0.0));
    sim.run_for(2 * SEC);
    assert!(log.lock().unwrap().rtos > 0);
    sim.set_link(LinkParams::new(12.0, 20.0, 0.0));
    sim.run_for(2 * SEC);
    let s = sim.run_for(SEC)[0].1;
    assert!((s.throughput_mbps - 8.0).abs() < 0.2, "{}", s.throughput_mbps);
    assert!(sim.flow_inflight_bytes(0) <= 64 * MTU_BYTES);
}

/// A long flow walks its window through tens of thousands of sequence
/// numbers at a steady rate, without an RTO.
#[test]
fn long_flows_cross_many_sequence_numbers() {
    let cfg = SimConfig { seed: 2, ..SimConfig::default() };
    let mut sim = MultiFlowSim::new(LinkParams::new(48.0, 5.0, 0.001), cfg);
    let (cc, log) = recorded(fixed(40.0, 64.0));
    sim.add_flow(0, cc);
    let t = run_totals(&mut sim, 5, SEC)[0];
    let last = sim.run_for(SEC)[0].1;
    assert!(t.sent > 15_000, "{t:?}");
    assert!((last.throughput_mbps - 40.0).abs() < 1.0, "{}", last.throughput_mbps);
    assert!(sim.flow_inflight_bytes(0) <= 64 * MTU_BYTES);
    assert_eq!(log.lock().unwrap().rtos, 0);
}

/// A 1-flow engine replays the legacy reference engine bit for bit for
/// every protocol on a link that changes every 30 ms.
#[test]
fn one_flow_matches_the_reference_engine_for_every_protocol() {
    for (name, make) in protocols() {
        let mut rng = StdRng::seed_from_u64(23);
        let start = random_link(&mut rng);
        let cfg = SimConfig { seed: 23, ..SimConfig::default() };
        let mut sim = MultiFlowSim::new(start, cfg.clone());
        sim.add_flow(0, make());
        let mut reference = RefFlowSim::new(make(), start, cfg);
        for step in 0..150 {
            let p = random_link(&mut rng);
            sim.set_link(p);
            reference.set_link(p);
            let a = sim.run_for(30 * MS)[0].1;
            let b = reference.run_for(30 * MS);
            assert_eq!(sig(&a), sig(&b), "{name} step {step}");
            assert_eq!(sim.flow_srtt_s(0).to_bits(), reference.srtt_s().to_bits(), "{name}");
            assert_eq!(sim.flow_inflight_bytes(0), reference.inflight_bytes(), "{name}");
            assert_eq!(sim.queue_bytes(), reference.queue_bytes(), "{name}");
        }
    }
}

/// The equivalence also holds through repeated RTOs, which clear the
/// whole outstanding window and leave stale ACKs behind.
#[test]
fn reference_equivalence_survives_an_rto_storm() {
    let makers: [MakeCc; 2] = [|| fixed(10.0, 32.0), || Box::new(Cubic::new())];
    for make in makers {
        let healthy = LinkParams::new(12.0, 20.0, 0.01);
        let collapsed = LinkParams::new(0.1, 300.0, 0.0);
        let (cc_a, log_a) = recorded(make());
        let (cc_b, log_b) = recorded(make());
        let mut sim = MultiFlowSim::new(healthy, SimConfig::default());
        sim.add_flow(0, cc_a);
        let mut reference = RefFlowSim::new(cc_b, healthy, SimConfig::default());
        for step in 0..120 {
            let p = if (step / 10) % 2 == 0 { healthy } else { collapsed };
            sim.set_link(p);
            reference.set_link(p);
            let a = sim.run_for(30 * MS)[0].1;
            let b = reference.run_for(30 * MS);
            assert_eq!(sig(&a), sig(&b), "step {step}");
            assert_eq!(sim.flow_inflight_bytes(0), reference.inflight_bytes());
        }
        let (a, b) = (log_a.lock().unwrap(), log_b.lock().unwrap());
        assert!(a.rtos >= 3, "the collapsed phases must fire RTOs: {}", a.rtos);
        assert_eq!(
            (a.rtos, a.declared_lost, a.acks.len()),
            (b.rtos, b.declared_lost, b.acks.len())
        );
    }
}

/// A flow registered mid-run starts at the current time and keeps its
/// own delivered counter.
#[test]
fn a_flow_added_mid_run_starts_at_the_current_time() {
    let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.0), SimConfig::default());
    sim.add_flow(0, fixed(6.0, 1e9));
    sim.run_for(SEC);
    let (cc, log) = recorded(fixed(4.0, 1e9));
    sim.add_flow(5, cc);
    let stats = sim.run_for(SEC);
    assert_eq!(stats.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [0, 5]);
    let late = stats[1].1;
    assert!((late.throughput_mbps - 4.0).abs() < 0.2, "{}", late.throughput_mbps);

    let log = log.lock().unwrap();
    let link = sim.params();
    let first = log.acks[0].now.get();
    assert!(first >= SEC + 2 * link.propagation() + link.serialization_time(MTU_BYTES));
    assert_eq!(log.acks.last().unwrap().delivered.get(), log.acks.len() as u64 * MTU_BYTES as u64);
}

/// Flows are reported and addressed by key, whatever the order they were
/// registered in.
#[test]
fn flow_stats_come_back_in_key_order() {
    let mut sim = MultiFlowSim::new(LinkParams::new(24.0, 20.0, 0.0), SimConfig::default());
    sim.add_flow(7, Box::new(Reno::new()));
    sim.add_flow(2, Box::new(Cubic::new()));
    sim.add_flow(5, Box::new(Bbr::new()));
    assert_eq!(sim.flow_keys(), [2, 5, 7]);
    let stats = sim.run_for(2 * SEC);
    assert_eq!(stats.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2, 5, 7]);
    assert_eq!([sim.cc(2).name(), sim.cc(5).name(), sim.cc(7).name()], ["cubic", "bbr", "reno"]);
    for (k, s) in &stats {
        assert!(s.packets_delivered > 0, "flow {k} made no progress");
        assert!(sim.flow_srtt_s(*k) > 0.04, "flow {k} srtt below the path RTT");
    }
}

/// The same seed reproduces a lossy multi-flow run exactly; another seed
/// draws other losses.
#[test]
fn same_seed_same_trajectory() {
    let run = |seed: u64| {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.03), cfg);
        sim.add_flow(0, Box::new(Bbr::new()));
        sim.add_flow(1, Box::new(Copa::new()));
        let mut sigs = Vec::new();
        for _ in 0..60 {
            sigs.extend(sim.run_for(30 * MS).iter().map(|(_, s)| sig(s)));
        }
        (sigs, sim.total_events(), sim.total_drops())
    };
    let a = run(1);
    assert_eq!(a, run(1));
    let losses = |r: &(Vec<[u64; 11]>, u64, u64)| r.0.iter().map(|s| s[9]).collect::<Vec<_>>();
    assert_ne!(losses(&a), losses(&run(2)));
}

/// Each flow draws its random losses from its own stream: a paced flow
/// sends and loses the same packets whether or not it has neighbours.
#[test]
fn a_flows_random_losses_do_not_depend_on_its_neighbours() {
    let run = |neighbours: bool| {
        let cfg = SimConfig { seed: 4, ..SimConfig::default() };
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.05), cfg);
        sim.add_flow(0, fixed(4.0, 1e9));
        if neighbours {
            sim.add_flow(1, fixed(3.0, 1e9));
            sim.add_flow(2, fixed(3.0, 1e9));
        }
        (0..50)
            .map(|_| {
                let s = sim.run_for(30 * MS)[0].1;
                (s.packets_sent, s.packets_lost_random)
            })
            .collect::<Vec<_>>()
    };
    let alone = run(false);
    assert!(alone.iter().map(|x| x.1).sum::<u64>() > 0);
    assert_eq!(alone, run(true));
}

/// The bottleneck never holds more than its capacity.
#[test]
fn queue_never_exceeds_its_capacity() {
    let cfg = SimConfig::try_new(20 * MTU_BYTES, MTU_BYTES, 0, 0.25).unwrap();
    for kind in QdiscKind::ALL {
        let mut sim =
            MultiFlowSim::with_qdisc(LinkParams::new(6.0, 15.0, 0.0), cfg.clone(), kind.build());
        for k in 0..3 {
            sim.add_flow(k, fixed(10.0, 1e9));
        }
        for _ in 0..1500 {
            sim.run_for(MS);
            assert!(sim.queue_bytes() <= 20 * MTU_BYTES, "{}", kind.label());
        }
        assert!(sim.total_drops() > 0, "{}", kind.label());
    }
}

/// In every interval the flows together deliver at most what the link
/// can carry (plus the one packet that may straddle the boundary), and
/// an overloaded link is kept busy.
#[test]
fn flows_never_deliver_more_than_the_link_carries() {
    for kind in QdiscKind::ALL {
        let mut sim = MultiFlowSim::with_qdisc(
            LinkParams::new(12.0, 20.0, 0.01),
            SimConfig::default(),
            kind.build(),
        );
        sim.add_flow(0, Box::new(Bbr::new()));
        sim.add_flow(1, Box::new(Cubic::new()));
        sim.add_flow(2, fixed(6.0, 1e9));
        sim.run_for(SEC);
        let mut busy = 0.0;
        for _ in 0..100 {
            let stats = sim.run_for(30 * MS);
            let bytes: u64 = stats.iter().map(|(_, s)| s.delivered_bytes).sum();
            let util: f64 = stats.iter().map(|(_, s)| s.utilization).sum();
            assert!(
                bytes as f64 <= stats[0].1.capacity_bytes + MTU_BYTES as f64,
                "{}",
                kind.label()
            );
            assert!(util <= 1.0 + MTU_BYTES as f64 / stats[0].1.capacity_bytes, "{}", kind.label());
            busy += util / 100.0;
        }
        assert!(busy > 0.9, "{}: mean utilization {busy}", kind.label());
    }
}

/// Splitting a run into many short intervals changes nothing the engine
/// does: only the reporting granularity differs.
#[test]
fn interval_boundaries_are_invisible_to_the_engine() {
    let build = || {
        let cfg = SimConfig { seed: 8, ..SimConfig::default() };
        let mut sim = MultiFlowSim::new(LinkParams::new(12.0, 20.0, 0.02), cfg);
        sim.add_flow(0, Box::new(Bbr::new()));
        sim.add_flow(1, Box::new(Cubic::new()));
        sim
    };
    let mut whole = build();
    let a = run_totals(&mut whole, 1, 2 * SEC);
    let mut split = build();
    let b = run_totals(&mut split, 2000, MS);
    assert_eq!(a, b);
    assert_eq!(whole.now(), split.now());
    assert_eq!(whole.total_events(), split.total_events());
    assert_eq!(whole.queue_bytes(), split.queue_bytes());
    for k in [0, 1] {
        assert_eq!(whole.flow_srtt_s(k).to_bits(), split.flow_srtt_s(k).to_bits());
        assert_eq!(whole.flow_inflight_bytes(k), split.flow_inflight_bytes(k));
    }
}

/// A window-limited sender delivers one window per round trip.
#[test]
fn window_limited_throughput_is_cwnd_over_rtt() {
    let link = LinkParams::new(12.0, 50.0, 0.0);
    let mut sim = MultiFlowSim::new(link, SimConfig::default());
    sim.add_flow(0, fixed(100.0, 4.0));
    sim.run_for(SEC);
    let s = sim.run_for(5 * SEC)[0].1;
    let rtt_s = netsim::to_secs(2 * link.propagation() + link.serialization_time(MTU_BYTES));
    let expected = 4.0 * MTU_BYTES as f64 * 8.0 / rtt_s / 1e6;
    assert!(
        (s.throughput_mbps - expected).abs() < 0.03 * expected,
        "{} vs {expected}",
        s.throughput_mbps
    );
    assert_eq!(sim.flow_inflight_bytes(0) % MTU_BYTES, 0);
}

/// Jain's index lies in `[1/n, 1]` and ignores the unit of the shares.
#[test]
fn jain_index_is_bounded_and_scale_invariant() {
    let mut rng = StdRng::seed_from_u64(31);
    for n in 1..12 {
        let xs: Vec<f64> = (0..n).map(|_| 20.0 * rng.gen::<f64>()).collect();
        let j = jain_index(&xs);
        assert!((1.0 / n as f64 - 1e-12..=1.0 + 1e-12).contains(&j), "n {n}: {j}");
        let scaled: Vec<f64> = xs.iter().map(|x| x * 8e6).collect();
        assert!((jain_index(&scaled) - j).abs() < 1e-12);
    }
}
