//! The four workloads. Each is a closed loop of identical ops: the next op
//! starts when the last one returns.
//!
//! | workload      | one op                                                   |
//! |---------------|----------------------------------------------------------|
//! | `abr_attack`  | `Ppo::try_train_iteration` of the ABR adversary vs BB    |
//! | `cc_attack`   | `Ppo::try_train_iteration` of the CC adversary vs BBR    |
//! | `fleet_serve` | a batched Pensieve fleet, then a per-session MPC fleet   |
//! | `contest`     | the five-protocol mix over droptail, red and dctcp       |
//!
//! The seed picks the inputs: the ABR trainer's exploration noise, the CC
//! simulator's packet-loss draws, the fleet's trace stream and served
//! model weights, and the contest's flow-key assignment.
//! Every op of a run repeats the same inputs, so it must reproduce the
//! first op's output exactly.

use crate::layers::{TimedCc, TimedEnv, TimedPolicy, ABR_SELECT, CC_CALL, ENV_STEP};
use abr::{AbrPolicy, BufferBased, Mpc, Pensieve, Video};
use adversary::CcAdversaryEnv;
use adversary::{AbrAdversaryConfig, AbrAdversaryEnv, AdversaryTrainConfig, CcAdversaryConfig};
use netsim::{jain_index, CongestionControl, LinkParams, MultiFlowSim, QdiscKind, SimConfig, SEC};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Env, Ppo, TrainReport};
use serve::{run_fleet, FleetConfig, FleetPolicy, FleetSummary};
use std::time::Instant;
use traces::{GenConfig, TraceFamily, TraceStream};

// Op sizes. Fleet and contest ops take ≈ 0.6 s, so a 30 s run holds ≈ 50
// ops and `op_s_tail` sits near p80: on a shared 2-core host, contention
// bursts of a few seconds swung the ≈ p92 tail of 0.25 s ops by 33–40 %
// between runs.

/// Sessions of the batched Pensieve fleet per op.
const PENSIEVE_SESSIONS: usize = 2000;
/// Sessions of the per-session MPC fleet per op (≈ 0.2 ms per decision).
const MPC_SESSIONS: usize = 48;
/// Fleet shards: one per core of a 2-core host.
const SHARDS: usize = 2;
/// The contest's protocol mix, one flow each.
const CONTEST_MIX: [&str; 5] = ["bbr", "cubic", "reno", "copa", "vivace"];
/// Simulated seconds per contest cell before / during measurement.
const CONTEST_WARM_S: u64 = 5;
const CONTEST_MEASURE_S: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AbrAttack,
    CcAttack,
    FleetServe,
    Contest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::AbrAttack, Kind::CcAttack, Kind::FleetServe, Kind::Contest];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AbrAttack => "abr_attack",
            Kind::CcAttack => "cc_attack",
            Kind::FleetServe => "fleet_serve",
            Kind::Contest => "contest",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Threads one op keeps busy: the fleet's shards, else the caller.
    pub fn threads(self) -> usize {
        match self {
            Kind::FleetServe => SHARDS,
            _ => 1,
        }
    }

    /// What one unit of `work` is, for the workload's throughput line.
    pub fn rate_metric(self) -> (&'static str, &'static str) {
        match self {
            Kind::AbrAttack | Kind::CcAttack => ("train_steps_per_s", "steps/s"),
            Kind::FleetServe => ("decisions_per_s", "decisions/s"),
            Kind::Contest => ("sim_s_per_s", "sim_s/s"),
        }
    }
}

/// A span the workload timed (or was handed by the library) inside one op.
pub struct Phase {
    pub name: &'static str,
    pub secs: f64,
    /// Wall-clock interval, when the benchmark timed it itself.
    pub interval: Option<(Instant, Instant)>,
}

/// The checked outcome of one op.
pub struct Checked {
    /// Units of work done: env steps trained, decisions served, or
    /// seconds simulated.
    pub work: f64,
    pub phases: Vec<Phase>,
    /// FNV-1a digest of the op's output.
    pub digest: u64,
    /// Why the op's output failed its check.
    pub problem: Option<String>,
}

pub trait Workload {
    /// Get ready for the next op (not timed).
    fn prepare(&mut self) {}
    /// Run one op. This is the timed region; `Err` is an error the op
    /// returned.
    fn op(&mut self) -> Result<(), String>;
    /// Check the last op's output (not timed).
    fn check(&mut self) -> Checked;
}

/// Build a workload from its seed; `traced` puts the layer wrappers in.
pub fn build(kind: Kind, seed: u64, traced: bool) -> Box<dyn Workload> {
    match kind {
        Kind::AbrAttack => {
            fn env<P: AbrPolicy>(target: P) -> AbrAdversaryEnv<P> {
                AbrAdversaryEnv::new(target, Video::cbr(), AbrAdversaryConfig::default())
            }
            let ppo = move || attack_ppo(adversary::abr_env::OBS_DIM, 1, &[32, 16], seed);
            if traced {
                Box::new(Attack::new(move || {
                    let bb = Box::new(BufferBased::pensieve_defaults());
                    (ppo(), TimedEnv::new(env(TimedPolicy::new(bb, &ABR_SELECT)), &ENV_STEP))
                }))
            } else {
                Box::new(Attack::new(move || (ppo(), env(BufferBased::pensieve_defaults()))))
            }
        }
        Kind::CcAttack => {
            // The seed picks the simulator's packet-loss draws; the trainer's
            // stream stays fixed. Seeding the stream instead moved the netsim
            // work of an op by ±3 % between seeds (BBR's state is
            // path-dependent), seeding the loss draws by ±1 %.
            let cfg = CcAdversaryConfig {
                sim: SimConfig { seed, ..SimConfig::default() },
                ..CcAdversaryConfig::default()
            };
            let ppo = move || attack_ppo(2, 3, &[4], 0);
            if traced {
                Box::new(Attack::new(move || {
                    let bbr = || Box::new(TimedCc::new(Box::new(cc::Bbr::new()), &CC_CALL)) as _;
                    let env = CcAdversaryEnv::new(Box::new(bbr), cfg.clone());
                    (ppo(), TimedEnv::new(env, &ENV_STEP))
                }))
            } else {
                Box::new(Attack::new(move || {
                    let bbr = || Box::new(cc::Bbr::new()) as Box<dyn CongestionControl>;
                    (ppo(), CcAdversaryEnv::new(Box::new(bbr), cfg.clone()))
                }))
            }
        }
        Kind::FleetServe => Box::new(Fleet::new(seed, traced)),
        Kind::Contest => Box::new(Contest::new(seed, traced)),
    }
}

/// The paper's adversary PPO settings (`AdversaryTrainConfig::default()`),
/// one env. The initial weights are fixed (seed 0) and `stream` seeds the
/// trainer's RNG: exploration noise and minibatch order. With seeded
/// weights, the CC adversary's first bandwidth choices alone moved the
/// netsim work of an op by ±10 % between seeds.
fn attack_ppo(obs_dim: usize, act_dim: usize, hidden: &[usize], stream: u64) -> Ppo {
    let cfg = AdversaryTrainConfig::default();
    let ppo = rl::PpoConfig { seed: 0, n_envs: 1, ..cfg.ppo };
    let mut state = Ppo::new_gaussian(obs_dim, act_dim, hidden, cfg.init_std, ppo).to_train_state();
    state.rng = StdRng::seed_from_u64(stream).state().to_vec();
    Ppo::from_train_state(&state).expect("a trainer's own state restores")
}

// ---------------------------------------------------------------------------
// abr_attack / cc_attack
// ---------------------------------------------------------------------------

/// One op trains the first PPO iteration of a freshly seeded trainer, so
/// every op of a run does the same work and must produce the same
/// `TrainState`. (Successive iterations would drift apart across seeds:
/// the CC adversary's bandwidth choices set how many packets netsim
/// simulates.) Rebuilding the trainer happens in `prepare`, untimed.
struct Attack<E> {
    make: Box<dyn Fn() -> (Ppo, E)>,
    ppo: Ppo,
    env: E,
    fresh: bool,
    last: Option<TrainReport>,
}

impl<E: Env> Attack<E> {
    fn new(make: impl Fn() -> (Ppo, E) + 'static) -> Self {
        let (ppo, env) = make();
        Attack { make: Box::new(make), ppo, env, fresh: true, last: None }
    }
}

impl<E: Env> Workload for Attack<E> {
    fn prepare(&mut self) {
        if !self.fresh {
            (self.ppo, self.env) = (self.make)();
            self.fresh = true;
        }
    }

    fn op(&mut self) -> Result<(), String> {
        self.fresh = false;
        self.last = None;
        let report = self.ppo.try_train_iteration(&mut self.env).map_err(|e| e.to_string())?;
        self.last = Some(report);
        Ok(())
    }

    fn check(&mut self) -> Checked {
        let r = self.last.as_ref().expect("check follows a successful op");
        let finite = [r.policy_loss, r.value_loss, r.entropy, r.mean_step_reward];
        let problem = (!finite.iter().all(|v| v.is_finite())).then(|| {
            format!("non-finite training output at iteration {}: {finite:?}", r.iteration)
        });
        let state =
            serde_json::to_string(&self.ppo.to_train_state()).expect("TrainState serializes");
        Checked {
            work: self.ppo.cfg.n_steps as f64,
            phases: vec![
                Phase { name: "rl.rollout", secs: r.rollout_wall_s, interval: None },
                Phase { name: "rl.update", secs: r.update_wall_s, interval: None },
            ],
            digest: rl::ckpt::fnv1a64(state.as_bytes()),
            problem,
        }
    }
}

// ---------------------------------------------------------------------------
// fleet_serve
// ---------------------------------------------------------------------------

struct Fleet {
    stream: TraceStream,
    pensieve: FleetPolicy,
    mpc: FleetPolicy,
    last: Vec<(&'static str, FleetConfig, FleetSummary, (Instant, Instant))>,
}

impl Fleet {
    fn new(seed: u64, traced: bool) -> Fleet {
        // An untrained, seeded Pensieve: serving cost does not depend on
        // the weights, and training it would dominate set-up.
        let cfg = rl::PpoConfig { seed, ..rl::PpoConfig::default() };
        let ppo =
            Ppo::new_categorical(abr::protocols::pensieve::PENSIEVE_OBS_DIM, 6, &[64, 32], cfg);
        let pensieve =
            FleetPolicy::batched(Pensieve::new(ppo.policy.clone(), ppo.obs_norm.clone()));
        let mpc = if traced {
            FleetPolicy::per_session(|_| {
                Box::new(TimedPolicy::new(Box::new(Mpc::default()), &ABR_SELECT))
                    as Box<dyn AbrPolicy + Send>
            })
        } else {
            FleetPolicy::per_session(|_| Box::new(Mpc::default()) as Box<dyn AbrPolicy + Send>)
        };
        Fleet {
            stream: TraceStream::new(TraceFamily::BenignMix, seed, GenConfig::default()),
            pensieve,
            mpc,
            last: Vec::new(),
        }
    }
}

impl Workload for Fleet {
    fn op(&mut self) -> Result<(), String> {
        self.last.clear();
        for (name, policy, sessions) in [
            ("serve.fleet.pensieve", &self.pensieve, PENSIEVE_SESSIONS),
            ("serve.fleet.mpc", &self.mpc, MPC_SESSIONS),
        ] {
            let cfg = FleetConfig::new(sessions, SHARDS);
            let t0 = Instant::now();
            let summary = run_fleet(&cfg, policy, &self.stream);
            self.last.push((name, cfg, summary, (t0, Instant::now())));
        }
        Ok(())
    }

    fn check(&mut self) -> Checked {
        let mut problems = Vec::new();
        let mut canon = String::new();
        let mut work = 0.0;
        let mut phases = Vec::new();
        for (name, cfg, s, (t0, t1)) in &self.last {
            let chunks = cfg.video.n_chunks() as u64;
            if s.completed != cfg.sessions {
                problems.push(format!(
                    "{name}: {} of {} sessions completed",
                    s.completed, cfg.sessions
                ));
            }
            if s.quarantined != 0 || s.shed != 0 {
                problems.push(format!("{name}: quarantined {} shed {}", s.quarantined, s.shed));
            }
            if s.decisions != cfg.sessions as u64 * chunks {
                problems.push(format!(
                    "{name}: {} decisions, expected {}",
                    s.decisions,
                    cfg.sessions as u64 * chunks
                ));
            }
            if !s.mean_qoe.is_finite() || !s.p5_qoe.is_finite() {
                problems.push(format!("{name}: non-finite QoE {} / {}", s.mean_qoe, s.p5_qoe));
            }
            canon.push_str(&format!(
                "{name} sessions={} decisions={} mean_qoe={:?} p5_qoe={:?}\n",
                s.completed, s.decisions, s.mean_qoe, s.p5_qoe
            ));
            work += s.decisions as f64;
            phases.push(Phase {
                name,
                secs: (*t1 - *t0).as_secs_f64(),
                interval: Some((*t0, *t1)),
            });
        }
        Checked {
            work,
            phases,
            digest: rl::ckpt::fnv1a64(canon.as_bytes()),
            problem: (!problems.is_empty()).then(|| problems.join("; ")),
        }
    }
}

// ---------------------------------------------------------------------------
// contest
// ---------------------------------------------------------------------------

struct CellOut {
    qdisc: &'static str,
    /// `(protocol, stats)` per flow, ascending by flow key.
    flows: Vec<(&'static str, netsim::IntervalStats)>,
    jain: f64,
    drops: u64,
    ecn_marks: u64,
    events: u64,
    interval: (Instant, Instant),
}

struct Contest {
    seed: u64,
    /// `keys[i]` is the flow key protocol `CONTEST_MIX[i]` runs under.
    keys: [u64; 5],
    traced: bool,
    last: Vec<CellOut>,
}

impl Contest {
    fn new(seed: u64, traced: bool) -> Contest {
        // seeded Fisher–Yates over the flow keys: the event engine breaks
        // time ties by flow key, so the assignment is a real input
        let mut keys = [0u64, 1, 2, 3, 4];
        let mut state = seed;
        for i in (1..keys.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            keys.swap(i, j);
        }
        Contest { seed, keys, traced, last: Vec::new() }
    }

    fn make_cc(&self, name: &str) -> Box<dyn CongestionControl> {
        let cc: Box<dyn CongestionControl> = match name {
            "bbr" => Box::new(cc::Bbr::new()),
            "cubic" => Box::new(cc::Cubic::new()),
            "reno" => Box::new(cc::Reno::new()),
            "copa" => Box::new(cc::Copa::new()),
            "vivace" => Box::new(cc::Vivace::new()),
            other => unreachable!("protocol {other} is not in the contest mix"),
        };
        if self.traced {
            Box::new(TimedCc::new(cc, &CC_CALL))
        } else {
            cc
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload for Contest {
    fn op(&mut self) -> Result<(), String> {
        self.last.clear();
        for qdisc in QdiscKind::ALL {
            let t0 = Instant::now();
            let params = LinkParams::new(24.0, 20.0, 0.0);
            let cfg = SimConfig { seed: self.seed, ..SimConfig::default() };
            let mut sim = MultiFlowSim::with_qdisc(params, cfg, qdisc.build());
            for (proto, key) in CONTEST_MIX.iter().zip(self.keys) {
                sim.add_flow(key, self.make_cc(proto));
            }
            sim.run_for(CONTEST_WARM_S * SEC);
            let stats = sim.run_for(CONTEST_MEASURE_S * SEC);
            let t1 = Instant::now();
            let tputs: Vec<f64> = stats.iter().map(|(_, s)| s.throughput_mbps).collect();
            let flows = stats
                .into_iter()
                .map(|(key, s)| {
                    let i = self.keys.iter().position(|k| *k == key).expect("known flow key");
                    (CONTEST_MIX[i], s)
                })
                .collect();
            self.last.push(CellOut {
                qdisc: qdisc.label(),
                flows,
                jain: jain_index(&tputs),
                drops: sim.total_drops(),
                ecn_marks: sim.total_ecn_marks(),
                events: sim.total_events(),
                interval: (t0, t1),
            });
        }
        Ok(())
    }

    fn check(&mut self) -> Checked {
        let mut problems = Vec::new();
        let mut canon = String::new();
        let mut phases = Vec::new();
        for c in &self.last {
            if !c.jain.is_finite() {
                problems.push(format!("{}: non-finite Jain index", c.qdisc));
            }
            canon.push_str(&format!(
                "{} jain={:?} drops={} ecn_marks={} events={}\n",
                c.qdisc, c.jain, c.drops, c.ecn_marks, c.events
            ));
            for (proto, s) in &c.flows {
                if !(s.throughput_mbps.is_finite() && s.throughput_mbps > 0.0) {
                    problems.push(format!("{} {proto}: throughput {}", c.qdisc, s.throughput_mbps));
                }
                canon.push_str(&format!(
                    "  {proto} tput={:?} rtt={:?} qdelay={:?} util={:?} delivered={} sent={}\n",
                    s.throughput_mbps,
                    s.avg_rtt_ms,
                    s.avg_queue_delay_ms,
                    s.utilization,
                    s.delivered_bytes,
                    s.packets_sent
                ));
            }
            let (t0, t1) = c.interval;
            phases.push(Phase {
                name: match c.qdisc {
                    "droptail" => "netsim.cell.droptail",
                    "red" => "netsim.cell.red",
                    _ => "netsim.cell.dctcp",
                },
                secs: (t1 - t0).as_secs_f64(),
                interval: Some((t0, t1)),
            });
        }
        Checked {
            work: (self.last.len() as u64 * (CONTEST_WARM_S + CONTEST_MEASURE_S)) as f64,
            phases,
            digest: rl::ckpt::fnv1a64(canon.as_bytes()),
            problem: (!problems.is_empty()).then(|| problems.join("; ")),
        }
    }
}
