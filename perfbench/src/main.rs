//! The repository benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <abr_attack|cc_attack|fleet_serve|contest> \
//!     --seed <n> --seconds <s> --trace <0|1> [--record-reference]
//! ```
//!
//! Run from the repository root. One process runs one workload as a closed
//! loop of ops that all repeat the same seeded inputs (see `workloads.rs`):
//!
//! 1. **Set-up**, repeated [`SETUP_REPS`] times: build the workload from
//!    the seed and run one warm-up op. `setup_s` is the median of the
//!    repeats (the first is timed from process start).
//! 2. **Timed ops** for `--seconds` (at least [`MIN_OPS`]): each op is
//!    timed, then checked outside the timer. With `--trace 0` the
//!    [reference kernel](reference_kernel) runs between ops, on as many
//!    threads as the op uses. Every op, warm-ups included,
//!    must reproduce one output digest — `reference.txt`'s for the default
//!    seed, else the first op's — and, with `--trace 1`, the same exact
//!    work counters.
//! 3. **Report**: the workload's throughput (`train_steps_per_s`,
//!    `decisions_per_s` or `sim_s_per_s`), `fail_ratio` and the raw op
//!    wall times `op_s_p50`/`op_s_tail`, each metric by
//!    name and unit, a JSON line with the provenance, seed and tail
//!    percentile, then, as the last line of stdout,
//!    `{"correct", "attempted", "failed", "metrics"}`. The process exits 1
//!    when any op fails.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off and no
//! wrappers. The gated op metrics `op_rel_p50`/`op_rel_tail` are each op's
//! wall time divided by the mean of the reference-kernel times measured
//! just before and just after it (median, and tail percentile, over the
//! ops). On a shared 2-core Xeon VM the speed of a core drifted between
//! levels that last seconds, by up to 1.5×, and a 30 s run's raw median
//! op time moved by a third between runs. The kernel runs at the same
//! speed level as the op next to it, so the ratio cancels the drift and
//! keeps any change in the program's own cost.
//!
//! `--trace 1` turns telemetry on, puts the layer wrappers in
//! (`layers.rs`) and reports per-layer metrics per op. It alternates each
//! traced op with the same op on an untraced twin built from the same
//! seed, which gives `trace.overhead` and checks that tracing changes no
//! output bit. Span records go to `perfbench/out/`.
//!
//! `--record-reference` (with `--trace 1` and the default seed) rewrites
//! the workload's entries in `reference.txt`.

mod layers;
mod workloads;

use layers::{Tally, ABR_SELECT, CC_CALL, ENV_STEP};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Checked, Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed ops per run even when `--seconds` runs out first, so the tail
/// percentile always has ten ops beyond it.
const MIN_OPS: usize = 20;
/// The seed whose outputs `reference.txt` pins.
const DEFAULT_SEED: u64 = 1;
const REFERENCE_FILE: &str = "perfbench/reference.txt";
const SPAN_DIR: &str = "perfbench/out";

/// An op's exact work counters, by name.
type Exact = BTreeMap<&'static str, u64>;

/// Work counters that must repeat exactly for a given seed.
const EXACT: [&str; 7] = [
    "nn.flops",
    "netsim.events",
    "netsim.drops",
    "netsim.ecn_marks",
    "serve.decisions",
    "rl.iterations",
    "cc.calls",
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_rel_p50", "ratio"), ("op_rel_tail", "ratio"), ("peak_rss_mb", "MiB")];

/// Size of the reference kernel: rounds of its array loop and operations
/// on its heap, ≈ 4 ms and ≈ 3 ms on one core of a 2-core Xeon VM.
const KERNEL_ROUNDS: usize = 400;
const KERNEL_HEAP_OPS: u64 = 60_000;

/// Per-layer metrics, printed with `--trace 1` (every name on every
/// workload; a layer the workload never enters reads 0).
const PER_LAYER: [(&str, &str); 28] = [
    ("rl.rollout_s", "s"),
    ("rl.update_s", "s"),
    ("rl.policy_s", "s"),
    ("rl.iterations", "count"),
    ("adversary.env_step_s", "s"),
    ("adversary.env_self_s", "s"),
    ("abr.select_s", "s"),
    ("nn.flops", "count"),
    ("nn.gflops_per_s", "GFLOP/s"),
    ("cc.call_s", "s"),
    ("cc.calls", "count"),
    ("netsim.engine_s", "s"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.drops", "count"),
    ("netsim.ecn_marks", "count"),
    ("netsim.cell_s.droptail", "s"),
    ("netsim.cell_s.red", "s"),
    ("netsim.cell_s.dctcp", "s"),
    ("serve.fleet_s.pensieve", "s"),
    ("serve.fleet_s.mpc", "s"),
    ("serve.decisions", "count"),
    ("exec.busy_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.idle_share", "ratio"),
    ("exec.pool.steals", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    bad(&names.join("|"))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if record && !(trace && seed == DEFAULT_SEED) {
        return Err(format!("--record-reference needs --trace 1 and --seed {DEFAULT_SEED}"));
    }
    Ok(Args { kind, seed, seconds, trace, record })
}

// ---------------------------------------------------------------------------
// reference outputs of the default seed
// ---------------------------------------------------------------------------

/// `reference.txt`: one `<workload> <key> <value>` per line; keys are
/// `digest` (hex FNV-1a of every op's output) and `exact.<counter>` (every
/// op's exact work counters).
struct Reference {
    lines: Vec<(String, String, String)>,
}

impl Reference {
    fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(REFERENCE_FILE)
            .map_err(|e| format!("cannot read {REFERENCE_FILE}: {e}"))?;
        let mut lines = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 3 {
                return Err(format!("{REFERENCE_FILE}: malformed line {line:?}"));
            }
            lines.push((f[0].to_string(), f[1].to_string(), f[2].to_string()));
        }
        Ok(Reference { lines })
    }

    fn get(&self, kind: Kind, key: &str) -> Option<&str> {
        self.lines.iter().find(|(w, k, _)| w == kind.name() && k == key).map(|(_, _, v)| v.as_str())
    }

    fn digest(&self, kind: Kind) -> Option<u64> {
        self.get(kind, "digest").and_then(|v| u64::from_str_radix(v, 16).ok())
    }

    /// Every exact counter, or `None` when any is missing.
    fn exact(&self, kind: Kind) -> Option<Exact> {
        EXACT
            .iter()
            .map(|&n| self.get(kind, &format!("exact.{n}"))?.parse().ok().map(|v| (n, v)))
            .collect()
    }

    fn replace(&mut self, kind: Kind, entries: Vec<(String, String)>) -> std::io::Result<()> {
        self.lines.retain(|(w, _, _)| w != kind.name());
        self.lines.extend(entries.into_iter().map(|(k, v)| (kind.name().to_string(), k, v)));
        self.lines.sort_by_key(|(w, _, _)| Kind::parse(w).map(|k| k as usize));
        let mut out = String::from(
            "# Outputs of the default seed (see perfbench/src/main.rs):\n\
             # <workload> digest <FNV-1a hex> | <workload> exact.<counter> <count>\n",
        );
        for (w, k, v) in &self.lines {
            let _ = writeln!(out, "{w} {k} {v}");
        }
        std::fs::write(REFERENCE_FILE, out)
    }
}

// ---------------------------------------------------------------------------
// probes: layer sinks and telemetry, read before and after each op
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Probe {
    env: Tally,
    select: Tally,
    cc: Tally,
    tele: telemetry::Snapshot,
}

impl Probe {
    fn take() -> Probe {
        Probe {
            env: ENV_STEP.read(),
            select: ABR_SELECT.read(),
            cc: CC_CALL.read(),
            tele: telemetry::snapshot(),
        }
    }

    fn counter(&self, since: &Probe, name: &str) -> u64 {
        let get = |p: &Probe| p.tele.counters.get(name).copied().unwrap_or(0);
        get(self) - get(since)
    }

    fn hist_sum(&self, since: &Probe, name: &str) -> f64 {
        let get = |p: &Probe| p.tele.hists.get(name).map_or(0.0, |h| h.sum);
        get(self) - get(since)
    }

    /// The exact work counters accumulated since `since`.
    fn exact(&self, since: &Probe) -> Exact {
        EXACT
            .iter()
            .map(|&name| {
                let v = if name == "cc.calls" {
                    (self.cc - since.cc).calls
                } else {
                    self.counter(since, name)
                };
                (name, v)
            })
            .collect()
    }
}

/// One traced op: its wall interval, what the workload reported, and the
/// probes around it.
struct OpTrace {
    start: Instant,
    end: Instant,
    checked: Checked,
    before: Probe,
    after: Probe,
}

impl OpTrace {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn phase(&self, name: &str) -> f64 {
        self.checked.phases.iter().filter(|p| p.name == name).fold(0.0, |acc, p| acc + p.secs)
    }

    /// This op's per-layer values. Self times follow the layer tree of
    /// the workload (see [`write_spans`]); `trace.coverage` is the share
    /// of the op's wall time that its direct child spans account for.
    fn layers(&self, kind: Kind) -> BTreeMap<&'static str, f64> {
        let (a, b) = (&self.after, &self.before);
        let env = (a.env - b.env).busy_s;
        let select = (a.select - b.select).busy_s;
        let cc = a.cc - b.cc;
        let flops = a.counter(b, "nn.flops") as f64;
        let events = a.counter(b, "netsim.events") as f64;
        let rollout = self.phase("rl.rollout");
        let update = self.phase("rl.update");
        let pensieve = self.phase("serve.fleet.pensieve");
        let cells = ["droptail", "red", "dctcp"].map(|q| self.phase(&format!("netsim.cell.{q}")));
        let busy = a.hist_sum(b, "exec.slot.busy_s");
        let idle = a.hist_sum(b, "exec.slot.idle_s");

        let mut m = BTreeMap::new();
        m.insert("rl.rollout_s", rollout);
        m.insert("rl.update_s", update);
        m.insert("rl.iterations", a.counter(b, "rl.iterations") as f64);
        m.insert("adversary.env_step_s", env);
        m.insert("abr.select_s", select);
        m.insert("nn.flops", flops);
        m.insert("cc.call_s", cc.busy_s);
        m.insert("cc.calls", cc.calls as f64);
        m.insert("netsim.events", events);
        m.insert("netsim.drops", a.counter(b, "netsim.drops") as f64);
        m.insert("netsim.ecn_marks", a.counter(b, "netsim.ecn_marks") as f64);
        m.insert("netsim.cell_s.droptail", cells[0]);
        m.insert("netsim.cell_s.red", cells[1]);
        m.insert("netsim.cell_s.dctcp", cells[2]);
        m.insert("serve.fleet_s.pensieve", pensieve);
        m.insert("serve.fleet_s.mpc", self.phase("serve.fleet.mpc"));
        m.insert("serve.decisions", a.counter(b, "serve.decisions") as f64);
        m.insert("exec.busy_s", busy);
        m.insert("exec.idle_s", idle);
        m.insert("exec.idle_share", if busy + idle > 0.0 { idle / (busy + idle) } else { 0.0 });
        m.insert("exec.pool.steals", a.counter(b, "exec.pool.steals") as f64);

        let engine = match kind {
            Kind::CcAttack => env - cc.busy_s,
            Kind::Contest => cells.iter().sum::<f64>() - cc.busy_s,
            _ => 0.0,
        };
        let gflop_time = match kind {
            Kind::FleetServe => pensieve,
            _ => update,
        };
        m.insert("netsim.engine_s", engine);
        m.insert("netsim.events_per_s", if engine > 0.0 { events / engine } else { 0.0 });
        m.insert("nn.gflops_per_s", if gflop_time > 0.0 { flops / gflop_time / 1e9 } else { 0.0 });
        let is_attack = matches!(kind, Kind::AbrAttack | Kind::CcAttack);
        m.insert("rl.policy_s", if is_attack { rollout - env } else { 0.0 });
        m.insert("adversary.env_self_s", if kind == Kind::AbrAttack { env - select } else { 0.0 });
        let covered: f64 = self.checked.phases.iter().map(|p| p.secs).sum();
        m.insert("trace.coverage", covered / self.wall());
        m
    }
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The value at the highest percentile with at least ten ops beyond it,
/// and that percentile.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 10, "the tail needs more than ten ops");
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// The reference kernel: fixed float and integer arithmetic over a 32 KiB
/// array, then pushes and pops on a binary heap of up to 4096 keys — the
/// arithmetic of the nn layer and the branchy priority-queue work of the
/// netsim engine, with a working set that stays in the core's own caches.
/// Of the kernels tried, this pair tracked the op times of all four
/// workloads best. It runs on `threads` threads at once and returns their
/// mean wall time. It shares no code with the workloads, so a change to
/// the program cannot move it.
fn reference_kernel(threads: usize) -> f64 {
    fn one() -> f64 {
        let t0 = Instant::now();
        let mut a = vec![0.0f64; 4096];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in 0..KERNEL_ROUNDS {
            for i in 0..a.len() {
                a[i] = a[i] * 0.999 + i as f64 * 1e-3 + a[(i * 7 + r) & 4095] * 1e-4;
                h = (h ^ (a[i].to_bits() >> 7)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut heap = std::collections::BinaryHeap::new();
        for i in 0..KERNEL_HEAP_OPS {
            h = h.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
            heap.push(std::cmp::Reverse(h >> 20));
            if i % 2 == 1 || heap.len() > 4096 {
                heap.pop();
            }
        }
        std::hint::black_box((a, heap.len()));
        t0.elapsed().as_secs_f64()
    }
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(one)).collect();
        let mine = one();
        mine + others.into_iter().map(|h| h.join().expect("kernel thread")).sum::<f64>()
    });
    total / threads.max(1) as f64
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON, with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------------
// the run
// ---------------------------------------------------------------------------

/// Counts ops and their failures; remembers the first few reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// Problems of the run as a whole (coverage, repeatability).
    run_problems: Vec<String>,
}

impl Ledger {
    fn record(&mut self, label: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{label}: {p}"));
            }
        }
    }
}

/// Run one op under `catch_unwind`, timed; a panic is an op error.
fn timed_op(w: &mut dyn Workload) -> (Instant, Instant, Result<(), String>) {
    let t0 = Instant::now();
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.op()));
    let t1 = Instant::now();
    let res = res.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    });
    (t0, t1, res)
}

/// Check an op that returned: its own invariants, then its digest against
/// `expect`.
fn check_op(
    w: &mut dyn Workload,
    res: Result<(), String>,
    expect: Option<u64>,
) -> (Option<Checked>, Option<String>) {
    if let Err(e) = res {
        return (None, Some(e));
    }
    let checked = w.check();
    let mut problem = checked.problem.clone();
    if let Some(want) = expect {
        if want != checked.digest && problem.is_none() {
            problem = Some(format!("output digest {:016x}, expected {want:016x}", checked.digest));
        }
    }
    (Some(checked), problem)
}

/// Compare an op's exact work counters with the expected ones.
fn exact_problem(got: &Exact, want: Option<&Exact>) -> Option<String> {
    match want {
        Some(want) if want != got => Some(format!("exact counters {got:?}, expected {want:?}")),
        _ => None,
    }
}

/// The report line's provenance fields: commit, host, cores and rustc
/// (from `telemetry::provenance`), plus the run's own settings.
fn provenance(args: &Args) -> String {
    let p = telemetry::provenance();
    format!(
        "\"commit\": {}, \"host\": {}, \"cores\": {}, \"rustc\": {}, \"os\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        json_str(&p.commit),
        json_str(&p.hostname),
        p.cores,
        json_str(&p.rustc),
        json_str(&p.os),
        json_str(args.kind.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace)
    )
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // fails fast (before any work) when run outside a repository checkout
    let mut reference = match Reference::load() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // expected op panics are reported through the ledger, not backtraces
    std::panic::set_hook(Box::new(|_| {}));
    telemetry::set_enabled(args.trace);
    let kind = args.kind;
    let pinned = args.seed == DEFAULT_SEED && !args.record;
    let mut ledger = Ledger::default();

    // Every op repeats the same inputs, so every op must reproduce one
    // output: the reference's for the default seed, else the first op's.
    let mut expect = if pinned { reference.digest(kind) } else { None };
    let mut expect_exact = if pinned && args.trace { reference.exact(kind) } else { None };
    if pinned && (expect.is_none() || (args.trace && expect_exact.is_none())) {
        ledger.run_problems.push(format!("{REFERENCE_FILE} has no entry for {}", kind.name()));
    }

    // ---- set-up, repeated; the last build is the one measured
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut first: Option<(u64, Exact)> = None;
    for rep in 0..SETUP_REPS {
        drop(workload.take());
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        let before = Probe::take();
        let mut w = workloads::build(kind, args.seed, args.trace);
        let (_, end, res) = timed_op(w.as_mut());
        setup_s.push((end - t0).as_secs_f64());
        let after = Probe::take();
        let (checked, mut problem) = check_op(w.as_mut(), res, expect);
        let exact = after.exact(&before);
        if args.trace && problem.is_none() {
            problem = exact_problem(&exact, expect_exact.as_ref());
        }
        ledger.record(&format!("set-up {rep} warm-up op"), problem);
        if let Some(c) = checked {
            expect.get_or_insert(c.digest);
            first.get_or_insert((c.digest, exact.clone()));
        }
        if args.trace {
            expect_exact.get_or_insert(exact);
        }
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    // ---- traced runs measure the same ops on an untraced twin
    let mut twin = args.trace.then(|| {
        telemetry::set_enabled(false);
        let mut t = workloads::build(kind, args.seed, false);
        let (_, _, res) = timed_op(t.as_mut());
        let (_, problem) = check_op(t.as_mut(), res, expect);
        ledger.record("untraced twin warm-up op", problem);
        telemetry::set_enabled(true);
        t
    });

    // ---- timed ops
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    let mut op_s = Vec::new();
    // op wall time ÷ the reference kernel's, untraced runs only
    let mut op_rel = Vec::new();
    let mut kernel_s = Vec::new();
    let mut kernel_before = (!args.trace).then(|| reference_kernel(kind.threads()));
    let mut twin_op_s = Vec::new();
    let mut work = 0.0;
    let mut traces: Vec<OpTrace> = Vec::new();
    let mut k = 0;
    while op_s.len() < MIN_OPS || loop_start.elapsed() < budget {
        k += 1;
        w.prepare();
        let before = Probe::take();
        let (start, end, res) = timed_op(w.as_mut());
        let after = Probe::take();
        op_s.push((end - start).as_secs_f64());
        if let Some(before) = kernel_before {
            let after = reference_kernel(kind.threads());
            op_rel.push(op_s[op_s.len() - 1] / (0.5 * (before + after)));
            kernel_s.push(after);
            kernel_before = Some(after);
        }
        let (checked, mut problem) = check_op(w.as_mut(), res, expect);
        if args.trace && problem.is_none() {
            problem = exact_problem(&after.exact(&before), expect_exact.as_ref());
        }
        ledger.record(&format!("op {k}"), problem);
        if let Some(t) = twin.as_mut() {
            t.prepare();
            telemetry::set_enabled(false);
            let (t0, t1, res) = timed_op(t.as_mut());
            telemetry::set_enabled(true);
            twin_op_s.push((t1 - t0).as_secs_f64());
            let (_, problem) = check_op(t.as_mut(), res, expect);
            ledger.record(&format!("untraced twin op {k}"), problem);
        }
        let Some(checked) = checked else { break };
        work += checked.work;
        if args.trace {
            traces.push(OpTrace { start, end, checked, before, after });
        }
    }
    let timed_s: f64 = op_s.iter().sum();

    // ---- report
    let tail_or_nan = |xs: &[f64]| if xs.len() > 10 { tail(xs) } else { (f64::NAN, f64::NAN) };
    let (tail_s, tail_pct) = tail_or_nan(&op_s);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut per_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in &traces {
            for (name, v) in t.layers(kind) {
                per_op.entry(name).or_default().push(v);
            }
        }
        let covered: f64 =
            traces.iter().map(|t| t.checked.phases.iter().map(|p| p.secs).sum::<f64>()).sum();
        let wall: f64 = traces.iter().map(OpTrace::wall).sum();
        let coverage = covered / wall;
        let overhead = median(&op_s) / median(&twin_op_s) - 1.0;
        if coverage.is_nan() || coverage < 0.9 {
            ledger.run_problems.push(format!("trace.coverage {coverage:.4} is below 0.9"));
        }
        let no_counts = Exact::new();
        let warm = first.as_ref().map_or(&no_counts, |(_, e)| e);
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.coverage" => coverage,
                "trace.overhead" => overhead,
                _ => match warm.get(name) {
                    Some(&exact) => exact as f64,
                    None => per_op.get(name).map_or(0.0, |v| median(v)),
                },
            };
            metrics.push((name, v, unit));
        }
        if let Err(e) = write_spans(&args, &traces) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        if let (true, Some((digest, exact))) = (args.record, &first) {
            let mut recorded = vec![("digest".to_string(), format!("{digest:016x}"))];
            recorded.extend(exact.iter().map(|(n, v)| (format!("exact.{n}"), v.to_string())));
            if let Err(e) = reference.replace(kind, recorded) {
                ledger.run_problems.push(format!("cannot write {REFERENCE_FILE}: {e}"));
            }
        }
    } else {
        let (rate_name, rate_unit) = kind.rate_metric();
        let values = [
            ("setup_s", median(&setup_s)),
            ("op_rel_p50", median(&op_rel)),
            ("op_rel_tail", tail_or_nan(&op_rel).0),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        for ((name, unit), (vname, v)) in END_TO_END.iter().zip(values) {
            debug_assert_eq!(*name, vname);
            metrics.push((name, v, unit));
        }
        // printed in the report line only: the rates apply to one kind of
        // workload each, fail_ratio is 0 on a correct run, and raw op wall
        // times follow the host's speed drift
        let fail_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
        println!(
            "{rate_name} = {} {rate_unit} | fail_ratio = {} ({}/{} ops) | ops timed = {} | \
             op_s_p50 = {} s | op_s_tail = {} s | tail = p{:.1} | kernel_s_p50 = {} s",
            json_num(work / timed_s),
            json_num(fail_ratio),
            ledger.failed,
            ledger.attempted,
            op_s.len(),
            json_num(median(&op_s)),
            json_num(tail_s),
            tail_pct,
            json_num(median(&kernel_s))
        );
    }
    for (name, v, unit) in &metrics {
        println!("{name:<24} {:>16} {unit}", json_num(*v));
    }
    for r in ledger.reasons.iter().chain(&ledger.run_problems) {
        println!("FAILED {r}");
    }
    let correct = ledger.failed == 0
        && ledger.run_problems.is_empty()
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut m = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    println!(
        "{{\"report\": {{{}, \"tail_percentile\": {}, \"setup_s_reps\": [{}], \"ops_timed\": {}}}}}",
        provenance(&args),
        json_num(tail_pct),
        setup_s.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", "),
        op_s.len()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        ledger.attempted, ledger.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Write the traced ops' spans as JSON lines to `perfbench/out/`: one
/// `op` span per op, its child spans (the benchmark's own timers; the
/// `rl.rollout`/`rl.update` durations come from `TrainReport` and are
/// placed at the start and end of the op), and the layer sinks as
/// aggregate records (`busy_s` over `calls` calls) under their parent.
fn write_spans(args: &Args, traces: &[OpTrace]) -> std::io::Result<()> {
    let Some(epoch) = traces.first().map(|t| t.start) else { return Ok(()) };
    let at = |t: Instant| (t - epoch).as_secs_f64();
    let mut out = String::new();
    for (i, t) in traces.iter().enumerate() {
        let op = i + 1;
        let _ = writeln!(
            out,
            "{{\"op\": {op}, \"name\": \"op\", \"parent\": null, \"start_s\": {}, \"end_s\": {}}}",
            json_num(at(t.start)),
            json_num(at(t.end))
        );
        for p in &t.checked.phases {
            let (s, e) = match (p.interval, p.name) {
                (Some((s, e)), _) => (at(s), at(e)),
                (None, "rl.update") => (at(t.end) - p.secs, at(t.end)),
                (None, _) => (at(t.start), at(t.start) + p.secs),
            };
            let _ = writeln!(
                out,
                "{{\"op\": {op}, \"name\": {}, \"parent\": \"op\", \"start_s\": {}, \"end_s\": {}}}",
                json_str(p.name),
                json_num(s),
                json_num(e)
            );
        }
        let (a, b) = (&t.after, &t.before);
        let sinks = [
            ("adversary.env_step", a.env - b.env, "rl.rollout"),
            (
                "abr.select",
                a.select - b.select,
                if args.kind == Kind::FleetServe {
                    "serve.fleet.mpc"
                } else {
                    "adversary.env_step"
                },
            ),
            (
                "cc.call",
                a.cc - b.cc,
                if args.kind == Kind::Contest { "netsim.cell" } else { "adversary.env_step" },
            ),
        ];
        for (name, tally, parent) in sinks {
            if tally.calls > 0 {
                let _ = writeln!(
                    out,
                    "{{\"op\": {op}, \"name\": {}, \"parent\": {}, \"busy_s\": {}, \"calls\": {}}}",
                    json_str(name),
                    json_str(parent),
                    json_num(tally.busy_s),
                    tally.calls
                );
            }
        }
    }
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{}-seed{}.spans.jsonl", args.kind.name(), args.seed);
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this binary prints are exactly the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn reference_kernel_reports_a_mean_wall_time() {
        for threads in [1, 2] {
            let s = reference_kernel(threads);
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }

    #[test]
    fn tail_leaves_ten_ops_beyond() {
        let ops: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&ops), (30.0, 75.0));
        assert_eq!(median(&ops), 20.5);
    }
}
