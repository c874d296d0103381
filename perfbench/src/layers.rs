//! Layer timing owned by the benchmark.
//!
//! Each timed layer is one static [`Layer`]: a shared sink of busy
//! nanoseconds and call counts. The wrappers below hold a `&'static Layer`,
//! so every instance of a wrapper — rollout-worker clones of an env, the
//! boxed policy a fleet shard builds per session, a supervisor's snapshot
//! copy — adds into the same sink. Nothing is kept per instance.
//!
//! The wrappers sit on the public traits only (`rl::Env`,
//! `abr::AbrPolicy`, `netsim::CongestionControl`) and forward every call
//! unchanged, so wrapping never changes a result bit.

use abr::{AbrObservation, AbrPolicy};
use netsim::{AckEvent, BitsPerSec, CongestionControl, Nanosecs};
use rand::rngs::StdRng;
use rl::{Action, ActionSpace, Env, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Busy time and call count of one layer, summed over every wrapper (and
/// every thread) that reports into it.
pub struct Layer {
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

/// A reading of a [`Layer`]; subtract two readings to get one op's share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub busy_s: f64,
    pub calls: u64,
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, earlier: Tally) -> Tally {
        Tally { busy_s: self.busy_s - earlier.busy_s, calls: self.calls - earlier.calls }
    }
}

impl Layer {
    pub const fn new() -> Layer {
        Layer { busy_ns: AtomicU64::new(0), calls: AtomicU64::new(0) }
    }

    /// Run `f`, adding its wall time and one call to the sink.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // statistics only: the counts publish no other data
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn read(&self) -> Tally {
        Tally {
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// `step` + `reset` of the adversary environment.
pub static ENV_STEP: Layer = Layer::new();
/// `select` of the ABR protocol under test.
pub static ABR_SELECT: Layer = Layer::new();
/// `on_ack` + `on_loss` + `on_rto` of every congestion controller. The
/// `pacing_rate`/`cwnd_packets` getters are field arithmetic called per
/// send; they stay untimed and count as netsim engine time.
pub static CC_CALL: Layer = Layer::new();

/// An [`Env`] whose `step` and `reset` report into a shared [`Layer`].
#[derive(Clone)]
pub struct TimedEnv<E> {
    inner: E,
    layer: &'static Layer,
}

impl<E> TimedEnv<E> {
    pub fn new(inner: E, layer: &'static Layer) -> Self {
        TimedEnv { inner, layer }
    }
}

impl<E: Env> Env for TimedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let inner = &mut self.inner;
        self.layer.time(|| inner.reset(rng))
    }

    fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
        let inner = &mut self.inner;
        self.layer.time(|| inner.step(action, rng))
    }

    fn decorrelate(&mut self, stream_seed: u64) {
        self.inner.decorrelate(stream_seed);
    }
}

/// An [`AbrPolicy`] whose `select` reports into a shared [`Layer`].
pub struct TimedPolicy {
    inner: Box<dyn AbrPolicy + Send>,
    layer: &'static Layer,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn AbrPolicy + Send>, layer: &'static Layer) -> Self {
        TimedPolicy { inner, layer }
    }
}

impl AbrPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        let inner = &mut self.inner;
        self.layer.time(|| inner.select(obs))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn AbrPolicy + Send> {
        Box::new(self.clone())
    }
}

impl Clone for TimedPolicy {
    fn clone(&self) -> Self {
        TimedPolicy { inner: self.inner.clone_box(), layer: self.layer }
    }
}

/// A [`CongestionControl`] whose event callbacks report into a shared
/// [`Layer`].
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
    layer: &'static Layer,
}

impl TimedCc {
    pub fn new(inner: Box<dyn CongestionControl>, layer: &'static Layer) -> Self {
        TimedCc { inner, layer }
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        let inner = &mut self.inner;
        self.layer.time(|| inner.on_ack(ack));
    }

    fn on_loss(&mut self, lost: usize, now: Nanosecs) {
        let inner = &mut self.inner;
        self.layer.time(|| inner.on_loss(lost, now));
    }

    fn on_rto(&mut self, now: Nanosecs) {
        let inner = &mut self.inner;
        self.layer.time(|| inner.on_rto(now));
    }

    fn pacing_rate(&self) -> BitsPerSec {
        self.inner.pacing_rate()
    }

    fn cwnd_packets(&self) -> f64 {
        self.inner.cwnd_packets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::{BufferBased, Video};
    use adversary::{AbrAdversaryConfig, AbrAdversaryEnv};
    use rand::SeedableRng;

    // each test owns its sinks: tests run on parallel threads
    static CLONE_ENVS: Layer = Layer::new();
    static CLONE_SELECTS: Layer = Layer::new();
    static BOXED_SELECTS: Layer = Layer::new();

    fn timed_adversary(
        env_layer: &'static Layer,
        select_layer: &'static Layer,
    ) -> TimedEnv<AbrAdversaryEnv<TimedPolicy>> {
        let target = TimedPolicy::new(Box::new(BufferBased::pensieve_defaults()), select_layer);
        let env = AbrAdversaryEnv::new(target, Video::cbr(), AbrAdversaryConfig::default());
        TimedEnv::new(env, env_layer)
    }

    fn run_steps<E: Env>(env: &mut E, steps: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        env.reset(&mut rng);
        for _ in 0..steps {
            if env.step(&Action::Continuous(vec![0.3]), &mut rng).done {
                env.reset(&mut rng);
            }
        }
    }

    /// Two clones of a wrapped env, stepped on two threads, both land in
    /// the one sink: 2 resets + 2 × 30 steps, and every env step made
    /// exactly one protocol decision.
    #[test]
    fn clones_on_two_threads_both_count() {
        let env = timed_adversary(&CLONE_ENVS, &CLONE_SELECTS);
        let mut a = env.clone();
        let mut b = env;
        std::thread::scope(|s| {
            s.spawn(|| run_steps(&mut a, 30, 1));
            s.spawn(|| run_steps(&mut b, 30, 2));
        });
        assert_eq!(CLONE_ENVS.read().calls, 2 * (30 + 1));
        assert_eq!(CLONE_SELECTS.read().calls, 2 * 30);
        assert!(CLONE_ENVS.read().busy_s >= CLONE_SELECTS.read().busy_s);
    }

    /// `clone_box` (what a fleet supervisor snapshots) keeps reporting
    /// into the same sink as the original.
    #[test]
    fn boxed_policy_clones_share_the_sink() {
        let original = TimedPolicy::new(Box::new(BufferBased::pensieve_defaults()), &BOXED_SELECTS);
        let mut copies: Vec<Box<dyn AbrPolicy + Send>> =
            vec![original.clone_box(), original.clone_box().clone_box()];
        let mut net = abr::FixedConditions::new(3.0, 40.0);
        for p in &mut copies {
            abr::run_session(&Video::cbr(), p.as_mut(), &mut net, &abr::QoeParams::default());
        }
        assert_eq!(BOXED_SELECTS.read().calls, 2 * Video::cbr().n_chunks() as u64);
    }

    /// Wrapping changes no result: a wrapped and a bare env walk the same
    /// trajectory bit for bit.
    #[test]
    fn wrapping_is_transparent() {
        static ENVS: Layer = Layer::new();
        static SELECTS: Layer = Layer::new();
        let mut timed = timed_adversary(&ENVS, &SELECTS);
        let mut bare = AbrAdversaryEnv::new(
            BufferBased::pensieve_defaults(),
            Video::cbr(),
            AbrAdversaryConfig::default(),
        );
        let (mut r1, mut r2) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        assert_eq!(timed.reset(&mut r1), bare.reset(&mut r2));
        for i in 0..60 {
            let a = Action::Continuous(vec![(i as f64 * 0.37).sin()]);
            let (s1, s2) = (timed.step(&a, &mut r1), bare.step(&a, &mut r2));
            assert_eq!(s1.obs, s2.obs);
            assert_eq!(s1.reward.to_bits(), s2.reward.to_bits());
            assert_eq!(s1.done, s2.done);
            if s1.done {
                assert_eq!(timed.reset(&mut r1), bare.reset(&mut r2));
            }
        }
    }
}
