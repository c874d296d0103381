//! Crash-safety contract of `Ppo::train_checkpointed` (see `rl::ckpt`):
//!
//! * killing training at *any* iteration and re-invoking resumes from the
//!   last checkpoint and finishes **bit-identical** to an uninterrupted
//!   run — weights, optimizer moments, RNG streams, normalizer state, and
//!   every deterministic report field (property-tested over kill points
//!   and worker counts);
//! * a truncated checkpoint is rejected as `TrainError::Corrupt`;
//! * resuming an already-finished run returns its reports without
//!   training further.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rl::ppo::TrainReport;
use rl::{Action, ActionSpace, Checkpointer, Env, Ppo, PpoConfig, Snapshot, Step, TrainError};
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// A small stateful environment: the agent chases a randomly drifting
/// target. All of its state is two serializable fields, so `Snapshot`
/// is a direct field capture.
#[derive(Clone, Serialize, Deserialize)]
struct Walk {
    pos: f64,
    t: usize,
}

impl Walk {
    fn new() -> Self {
        Walk { pos: 0.0, t: 0 }
    }
}

impl Env for Walk {
    fn obs_dim(&self) -> usize {
        2
    }
    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { low: vec![-2.0], high: vec![2.0] }
    }
    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.t = 0;
        self.pos = rng.gen_range(-1.0..1.0);
        vec![self.pos, 0.0]
    }
    fn step(&mut self, action: &Action, rng: &mut StdRng) -> Step {
        let a = self.action_space().clip(action.vector())[0];
        let reward = -(a - self.pos) * (a - self.pos);
        self.t += 1;
        self.pos = (self.pos + rng.gen_range(-0.3..0.3)).clamp(-1.0, 1.0);
        Step { obs: vec![self.pos, self.t as f64 / 8.0], reward, done: self.t >= 8 }
    }
}

impl Snapshot for Walk {
    fn snapshot(&self) -> Value {
        serde::Serialize::to_value(self)
    }
    fn restore(&mut self, v: &Value) -> Result<(), serde::Error> {
        *self = <Walk as serde::Deserialize>::from_value(v)?;
        Ok(())
    }
}

const TOTAL_STEPS: usize = 6 * 64; // six 64-step iterations

fn trainer(n_envs: usize) -> Ppo {
    let cfg = PpoConfig {
        n_steps: 64,
        minibatch_size: 32,
        epochs: 2,
        seed: 5,
        n_envs,
        ..PpoConfig::default()
    };
    Ppo::new_gaussian(2, 1, &[4], 0.5, cfg)
}

/// Every deterministic report field, floats as bits (wall-clock timing
/// fields excluded — they legitimately differ run to run).
type ReportSig = (usize, usize, u64, u64, usize, u64, u64, u64, usize, usize);

fn report_sig(r: &TrainReport) -> ReportSig {
    (
        r.iteration,
        r.total_steps,
        r.mean_step_reward.to_bits(),
        r.mean_episode_reward.to_bits(),
        r.episodes_completed,
        r.entropy.to_bits(),
        r.policy_loss.to_bits(),
        r.value_loss.to_bits(),
        r.n_envs,
        r.guard_trips,
    )
}

/// `name` inside a directory of its own for `test` in this process, so
/// tests running at the same time (or two runs of this suite) never share
/// a checkpoint file or its `.tmp` sibling.
fn ckpt_path(test: &str, name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("advnet-resume-tests-{}", std::process::id())).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Uninterrupted `train_checkpointed` run: full trainer-state JSON (every
/// f64 bit-exact) plus the deterministic report signature.
fn run_uninterrupted(n_envs: usize, path: PathBuf) -> (String, Vec<ReportSig>) {
    std::fs::remove_file(&path).ok();
    let mut env = Walk::new();
    let mut ppo = trainer(n_envs);
    let ck = Checkpointer { path: path.clone(), every: 1, fault_at: None };
    let reports = ppo.train_checkpointed(&mut env, TOTAL_STEPS, &ck).unwrap();
    std::fs::remove_file(&path).ok();
    (
        serde_json::to_string(&ppo.to_train_state()).unwrap(),
        reports.iter().map(report_sig).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at iteration k (1..=5 of 6), resume with a fresh trainer and a
    /// fresh pristine environment: the finished run must be bit-identical
    /// to the uninterrupted one, serial and vectorized alike.
    #[test]
    fn kill_and_resume_is_bit_identical(k in 1usize..=5, n_envs in 1usize..=2) {
        let path = ckpt_path("kill_and_resume", &format!("kill-k{k}-n{n_envs}.ckpt"));
        std::fs::remove_file(&path).ok();

        let (ref_state, ref_reports) = run_uninterrupted(n_envs, ckpt_path("kill_and_resume", &format!("ref-k{k}-n{n_envs}.ckpt")));

        // Crash: the injected fault fires after iteration k's update,
        // before its checkpoint is written.
        let crash_path = path.clone();
        let crashed = std::panic::catch_unwind(move || {
            let mut env = Walk::new();
            let mut ppo = trainer(n_envs);
            let ck = Checkpointer { path: crash_path, every: 1, fault_at: Some(k) };
            let _ = ppo.train_checkpointed(&mut env, TOTAL_STEPS, &ck);
        });
        prop_assert!(crashed.is_err(), "the injected fault should have crashed the run");

        // Resume: fresh process state, fault cleared, same pristine env.
        let mut env = Walk::new();
        let mut ppo = trainer(n_envs);
        let ck = Checkpointer { path: path.clone(), every: 1, fault_at: None };
        let reports = ppo.train_checkpointed(&mut env, TOTAL_STEPS, &ck).unwrap();

        let state = serde_json::to_string(&ppo.to_train_state()).unwrap();
        prop_assert_eq!(state, ref_state);
        prop_assert_eq!(
            reports.iter().map(report_sig).collect::<Vec<_>>(),
            ref_reports
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn checkpointed_matches_plain_training() {
    // `train_checkpointed` must not perturb the math: same weights and
    // reports as `try_train_vec` for both collection paths.
    for n_envs in [1, 2] {
        let path = ckpt_path("plain_training", &format!("plain-match-n{n_envs}.ckpt"));
        std::fs::remove_file(&path).ok();
        let (ck_state, ck_reports) = run_uninterrupted(n_envs, path);

        let mut env = Walk::new();
        let mut ppo = trainer(n_envs);
        let reports = ppo.try_train_vec(&mut env, TOTAL_STEPS).unwrap();
        assert_eq!(serde_json::to_string(&ppo.to_train_state()).unwrap(), ck_state);
        assert_eq!(reports.iter().map(report_sig).collect::<Vec<_>>(), ck_reports);
    }
}

#[test]
fn finished_checkpoint_resumes_to_same_reports_without_training() {
    let path = ckpt_path("finished", "finished.ckpt");
    std::fs::remove_file(&path).ok();
    let mut env = Walk::new();
    let mut ppo = trainer(2);
    let ck = Checkpointer { path: path.clone(), every: 2, fault_at: None };
    let reports = ppo.train_checkpointed(&mut env, TOTAL_STEPS, &ck).unwrap();

    let mut env2 = Walk::new();
    let mut ppo2 = trainer(2);
    let again = ppo2.train_checkpointed(&mut env2, TOTAL_STEPS, &ck).unwrap();
    assert_eq!(
        again.iter().map(report_sig).collect::<Vec<_>>(),
        reports.iter().map(report_sig).collect::<Vec<_>>()
    );
    assert_eq!(ppo2.total_steps(), ppo.total_steps(), "no extra training on resume");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_checkpoint_is_rejected_on_resume() {
    let path = ckpt_path("truncated", "truncated-resume.ckpt");
    std::fs::remove_file(&path).ok();
    let mut env = Walk::new();
    let mut ppo = trainer(1);
    let ck = Checkpointer { path: path.clone(), every: 1, fault_at: None };
    ppo.train_checkpointed(&mut env, 2 * 64, &ck).unwrap();

    // Simulate a torn write the atomic rename is meant to prevent.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    let mut env2 = Walk::new();
    let mut ppo2 = trainer(1);
    match ppo2.train_checkpointed(&mut env2, 2 * 64, &ck) {
        Err(TrainError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn fault_injection_env_var_is_parsed() {
    // Environment-driven injection migrated to `ADVNET_FAULT_PLAN` (the
    // legacy `ADVNET_FAULT_ITER=<n>` aliases to `panic@ppo.iter:<n>` —
    // exercised end to end, with the env lock it needs, in the workspace
    // `fault_tolerance` suite). `Checkpointer::new` therefore leaves the
    // programmatic `fault_at` hook unset; this test must not set the env
    // vars, because `new()` would arm the process-global plan under the
    // feet of concurrently running training tests.
    let ck = Checkpointer::new(ckpt_path("env_var", "envvar.ckpt"), 4);
    assert_eq!(ck.fault_at, None, "legacy env hook now routes through the fault plan");
    assert_eq!(ck.every, 4);
    let ck = Checkpointer::new(ckpt_path("env_var", "envvar.ckpt"), 0);
    assert_eq!(ck.fault_at, None);
    assert_eq!(ck.every, 1, "every is clamped to at least 1");
}
