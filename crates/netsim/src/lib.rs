//! A deterministic, event-driven, packet-level link emulator — the
//! workspace's substitute for the paper's modified Mahimahi.
//!
//! The paper's congestion-control experiments run BBR through Mahimahi with
//! an adversary adjusting (bandwidth, latency, loss) every 30 ms. Mahimahi
//! is a Linux network-namespace tool we cannot (and should not) depend on;
//! this crate reimplements the relevant piece — and extends it to N flows
//! contending for one bottleneck, which the single-sender paper setup
//! cannot express (fairness attacks, AQM/ECN regimes, adversarial cross
//! traffic).
//!
//! The authors note their Mahimahi traces "are not usually identical when
//! played multiple times"; this simulator is seeded and fully
//! deterministic, which makes adversarial traces *exactly* replayable — a
//! strict improvement for the paper's reproducibility goal.
//!
//! Architecture (per the networking guides: event-driven state machine, no
//! async, integer timestamps):
//!
//! * [`Time`] — integer nanoseconds; [`units`] adds the typed
//!   [`Bytes`]/[`Nanosecs`]/[`BitsPerSec`] newtypes used at the
//!   [`CongestionControl`] boundary.
//! * [`LinkParams`] — the adversary-controlled knobs.
//! * [`CongestionControl`] — the protocol interface (`cc` crate implements
//!   BBR/Cubic/Copa/Vivace/Reno against it).
//! * [`MultiFlowSim`] — the multi-flow engine: per-flow senders, a shared
//!   bottleneck with a pluggable [`QDisc`] (drop-tail, RED, DCTCP-style
//!   ECN), deterministic `(time, flow, seq)` event ordering.
//! * [`FlowSim`] — the legacy single-flow API, a thin wrapper over a
//!   1-flow [`MultiFlowSim`], bit-identical to the pre-rewrite engine
//!   (kept verbatim in [`mod@reference`] as the equivalence oracle).

pub mod event;
pub mod link;
pub mod multi;
pub mod qdisc;
#[doc(hidden)]
pub mod reference;
pub mod sim;
pub mod units;
mod window;

pub use link::LinkParams;
pub use multi::{jain_index, MultiFlowSim, RateHandle, SharedRateCc};
pub use qdisc::{DctcpEcn, DropTail, QDisc, QdiscKind, Red, Verdict};
pub use sim::{AckEvent, CongestionControl, FixedRateCc, FlowSim, IntervalStats, SimConfig};
pub use units::{BitsPerSec, Bytes, Nanosecs};

/// Simulation timestamps in integer nanoseconds (wrap-free for > 500 years).
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const US: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MS: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SEC: Time = 1_000_000_000;

/// Convert [`Time`] to floating-point seconds.
#[inline]
pub fn to_secs(t: Time) -> f64 {
    t as f64 / SEC as f64
}

/// Convert floating-point seconds to [`Time`].
#[inline]
pub fn from_secs(s: f64) -> Time {
    (s * SEC as f64).round() as Time
}

/// Maximum transmission unit used by the simulator (bytes).
pub const MTU_BYTES: usize = 1500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(from_secs(1.5), 1_500_000_000);
        assert!((to_secs(30 * MS) - 0.030).abs() < 1e-12);
        assert_eq!(from_secs(to_secs(123_456_789)), 123_456_789);
    }
}
