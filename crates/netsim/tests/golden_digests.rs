//! Golden digests of the multi-flow engine.
//!
//! Each case runs [`MultiFlowSim`] on a fixed schedule and folds every
//! per-flow [`IntervalStats`] field (floats as bits), every flow's
//! congestion-control call counts, and the engine's `total_events`,
//! `total_drops` and `total_ecn_marks` into one FNV-1a digest. The
//! digests were recorded before the outstanding window became
//! seq-indexed; any change to event order, RNG draws, loss detection or
//! floating-point order moves them.
//!
//! The single-flow path also has the `netsim::reference` oracle; these
//! digests pin the N-flow, AQM/ECN and RTO paths, which have none.
//!
//! After an intended behaviour change, run with `GOLDEN_PRINT=1
//! -- --nocapture` to print the new digests.

use cc::{Bbr, Copa, Cubic, Reno, Vivace};
use netsim::{
    AckEvent, BitsPerSec, CongestionControl, IntervalStats, LinkParams, MultiFlowSim, Nanosecs,
    QdiscKind, SimConfig, MS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-flow call counts: ACKs, loss reports, packets reported lost, RTOs.
#[derive(Default)]
struct Calls {
    acks: AtomicU64,
    losses: AtomicU64,
    lost_packets: AtomicU64,
    rtos: AtomicU64,
}

impl Calls {
    fn snapshot(&self) -> [u64; 4] {
        [&self.acks, &self.losses, &self.lost_packets, &self.rtos]
            .map(|c| c.load(Ordering::Relaxed))
    }
}

/// Forwards to the wrapped protocol and counts its calls.
struct Counting {
    inner: Box<dyn CongestionControl>,
    calls: Arc<Calls>,
}

impl CongestionControl for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_ack(&mut self, ack: &AckEvent) {
        self.calls.acks.fetch_add(1, Ordering::Relaxed);
        self.inner.on_ack(ack);
    }
    fn on_loss(&mut self, lost: usize, now: Nanosecs) {
        self.calls.losses.fetch_add(1, Ordering::Relaxed);
        self.calls.lost_packets.fetch_add(lost as u64, Ordering::Relaxed);
        self.inner.on_loss(lost, now);
    }
    fn on_rto(&mut self, now: Nanosecs) {
        self.calls.rtos.fetch_add(1, Ordering::Relaxed);
        self.inner.on_rto(now);
    }
    fn pacing_rate(&self) -> BitsPerSec {
        self.inner.pacing_rate()
    }
    fn cwnd_packets(&self) -> f64 {
        self.inner.cwnd_packets()
    }
}

fn protocol(name: &str) -> Box<dyn CongestionControl> {
    match name {
        "bbr" => Box::new(Bbr::new()),
        "cubic" => Box::new(Cubic::new()),
        "reno" => Box::new(Reno::new()),
        "copa" => Box::new(Copa::new()),
        "vivace" => Box::new(Vivace::new()),
        other => panic!("unknown protocol {other}"),
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn stats(&mut self, key: u64, s: &IntervalStats) {
        for x in [
            key,
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
        ] {
            self.u64(x);
        }
    }
}

/// A simulator under test plus the call counters of its flows.
struct Run {
    sim: MultiFlowSim,
    calls: Vec<Arc<Calls>>,
    fnv: Fnv,
}

impl Run {
    fn new(params: LinkParams, seed: u64, qdisc: QdiscKind, flows: &[&str]) -> Run {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = MultiFlowSim::with_qdisc(params, cfg, qdisc.build());
        let mut calls = Vec::new();
        for (key, name) in flows.iter().enumerate() {
            let c = Arc::new(Calls::default());
            sim.add_flow(
                key as u64,
                Box::new(Counting { inner: protocol(name), calls: c.clone() }),
            );
            calls.push(c);
        }
        Run { sim, calls, fnv: Fnv::new() }
    }

    fn step(&mut self, dt: netsim::Time) {
        for (key, s) in self.sim.run_for(dt) {
            self.fnv.stats(key, &s);
        }
    }

    fn rtos(&self) -> u64 {
        self.calls.iter().map(|c| c.rtos.load(Ordering::Relaxed)).sum()
    }

    fn digest(mut self) -> u64 {
        for c in &self.calls {
            for x in c.snapshot() {
                self.fnv.u64(x);
            }
        }
        self.fnv.u64(self.sim.total_events());
        self.fnv.u64(self.sim.total_drops());
        self.fnv.u64(self.sim.total_ecn_marks());
        self.fnv.0
    }
}

/// Compare against the recorded digest, or print it with `GOLDEN_PRINT`.
fn check(name: &str, got: u64, want: u64) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("{name} 0x{got:016x}");
        return;
    }
    assert_eq!(got, want, "{name}: digest 0x{got:016x}, recorded 0x{want:016x}");
}

const MIX: [&str; 5] = ["bbr", "cubic", "reno", "copa", "vivace"];

/// The contest mix on one 24 Mbit/s, 20 ms bottleneck for 5 s.
fn mix(qdisc: QdiscKind) -> Run {
    let mut run = Run::new(LinkParams::new(24.0, 20.0, 0.0), 11, qdisc, &MIX);
    for _ in 0..25 {
        run.step(200 * MS);
    }
    run
}

#[test]
fn five_protocol_mix_droptail() {
    let run = mix(QdiscKind::DropTail);
    assert!(run.sim.total_drops() > 0, "the mix must overflow the drop-tail queue");
    check("mix.droptail", run.digest(), 0x43b9_c6ed_81e3_18b5);
}

#[test]
fn five_protocol_mix_red() {
    let run = mix(QdiscKind::Red);
    assert!(run.sim.total_drops() > 0, "RED must drop early under the mix");
    check("mix.red", run.digest(), 0x7aea_9378_94c3_e9e6);
}

#[test]
fn five_protocol_mix_dctcp() {
    let run = mix(QdiscKind::DctcpEcn);
    assert!(run.sim.total_ecn_marks() > 0, "DCTCP must mark under the mix");
    check("mix.dctcp", run.digest(), 0x6bf1_5a5c_4509_a03d);
}

/// One BBR flow at 2 % loss while the link changes every 30 ms, the way
/// the CC adversary drives it.
#[test]
fn bbr_under_a_changing_lossy_link() {
    let mut run = Run::new(LinkParams::new(12.0, 20.0, 0.02), 5, QdiscKind::DropTail, &["bbr"]);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..150 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bw = 2.0 + (state % 2200) as f64 / 100.0;
        let lat = 10.0 + ((state >> 16) % 900) as f64 / 10.0;
        run.sim.set_link(LinkParams::new(bw, lat, 0.02));
        run.step(30 * MS);
    }
    check("bbr.changing_link", run.digest(), 0x4254_3274_801b_7f33);
}

/// Three flows on a link that keeps collapsing with a deep queue behind
/// it: retransmission timeouts fire while packets are still queued, so
/// their ACKs arrive after the window was cleared and must be ignored.
#[test]
fn rto_heavy_collapsing_link() {
    let fast = LinkParams::new(12.0, 15.0, 0.05);
    let slow = LinkParams::new(0.3, 150.0, 0.05);
    let mut run = Run::new(fast, 3, QdiscKind::DropTail, &["cubic", "reno", "bbr"]);
    for i in 0..12 {
        run.sim.set_link(if i % 2 == 0 { fast } else { slow });
        run.step(400 * MS);
    }
    assert!(run.rtos() > 0, "the collapsing link must fire retransmission timeouts");
    check("rto.collapsing_link", run.digest(), 0x6824_6d43_ec1e_8888);
}
