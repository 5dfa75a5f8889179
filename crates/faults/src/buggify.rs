//! FoundationDB-style deterministic fault points ("buggify").
//!
//! Every fault this crate injects elsewhere arrives from *outside* the
//! protocol: a [`ClusterFaultPlan`](crate::ClusterFaultPlan) kills, hangs,
//! or partitions whole nodes. Buggify instead plants *named fault points
//! inside* the protocol's own IO callsites — a transfer arrival, a
//! heartbeat send, a scrub block read — and fires them
//! seed-deterministically, so the code *between* node-level faults is
//! stressed at its own decision points.
//!
//! ## Activation
//!
//! A point fires iff
//! `hash(seed, point_name, occurrence_count) mod 1000 < intensity`,
//! where `occurrence_count` is how many times this point has been
//! *evaluated* so far in the registry's lifetime. The hash is a splitmix64
//! finalizer over an FNV-1a fold of the name — no external crates, no
//! global state, and bit-for-bit reproducible: the same seed and the same
//! call sequence fire the same activations. Magnitudes (how long a delay,
//! how late a heartbeat) come from the same hash, so they replay too.
//!
//! ## Zero cost when off
//!
//! Like the observe recorder, consumers cache one boolean
//! (`registry.is_active()`) and skip the call entirely when buggify is
//! disabled; the disabled path costs a single predictable branch.
//!
//! ## Shrinking
//!
//! When a swarm run fails, [`shrink`] greedily drops points from the
//! failing activation set while the failure still reproduces, yielding a
//! minimal subset for the repro line. Restriction is honest: a registry
//! restricted via [`FaultRegistry::restrict`] still *evaluates* every
//! point (occurrence counts advance identically) but only *fires* the
//! allowed ones, so the surviving points replay exactly as they did in
//! the original failure.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use dvdc_simcore::rng::{fnv1a64, splitmix64, SPLITMIX_GAMMA};
use dvdc_simcore::time::Duration;

/// Environment variable that seeds a registry for swarm repro runs (the
/// buggify sibling of `DVDC_CHAOS_SEED`).
pub const SEED_ENV: &str = "DVDC_BUGGIFY_SEED";

/// Environment variable selecting the [`Intensity`] (`off`, `quick`,
/// `standard`, `aggressive`); defaults to `standard` when a seed is set.
pub const INTENSITY_ENV: &str = "DVDC_BUGGIFY_INTENSITY";

/// Named fault points the protocol layer threads through its IO and
/// state-transition callsites. Kept as constants so callsites, the swarm
/// reporter, and the docs all agree on spelling.
pub mod points {
    /// Extra latency charged to one round capture step.
    pub const ROUND_CAPTURE_DELAY: &str = "round.capture.delay";
    /// Extra latency charged to one round transfer step.
    pub const ROUND_TRANSFER_DELAY: &str = "round.transfer.delay";
    /// Extra latency charged to one parity fold step.
    pub const ROUND_FOLD_DELAY: &str = "round.fold.delay";
    /// Extra latency charged to one commit step.
    pub const ROUND_COMMIT_DELAY: &str = "round.commit.delay";
    /// An arriving round transfer is lost on the wire (spurious timeout /
    /// dropped frame): the ledger records a failed attempt and the
    /// arrival re-runs after backoff.
    pub const TRANSFER_ARRIVE_DROP: &str = "transfer.arrive.drop";
    /// An arriving round transfer lands torn (partial payload): treated
    /// exactly like a drop — the receiver discards the fragment and the
    /// sender re-sends after backoff.
    pub const TRANSFER_ARRIVE_TORN: &str = "transfer.arrive.torn";
    /// A completed transfer is delivered a second time; the ledger must
    /// reject the duplicate as an unknown handle.
    pub const TRANSFER_ARRIVE_DUPLICATE: &str = "transfer.arrive.duplicate";
    /// Extra latency on one commit-phase holder ack.
    pub const COMMIT_ACK_DELAY: &str = "commit.ack.delay";
    /// The final promote is held back one extra step.
    pub const COMMIT_PROMOTE_DELAY: &str = "commit.promote.delay";
    /// Extra latency charged to one survivor-fetch step.
    pub const REBUILD_FETCH_DELAY: &str = "rebuild.fetch.delay";
    /// An arriving survivor fetch is lost on the wire; re-fetched after
    /// backoff.
    pub const REBUILD_FETCH_DROP: &str = "rebuild.fetch.drop";
    /// Extra latency charged to one decode step.
    pub const REBUILD_DECODE_DELAY: &str = "rebuild.decode.delay";
    /// Extra latency charged to one place step.
    pub const REBUILD_PLACE_DELAY: &str = "rebuild.place.delay";
    /// Extra latency charged to the readmit step (fence rotation /
    /// readmission).
    pub const REBUILD_READMIT_DELAY: &str = "rebuild.readmit.delay";
    /// A scrub block read fails spuriously: the (healthy) block is
    /// treated as rotten and repaired from group redundancy.
    pub const SCRUB_READ_ERROR: &str = "scrub.read.error";
    /// A heartbeat is dropped before it reaches the wire.
    pub const HEARTBEAT_SEND_DROP: &str = "heartbeat.send.drop";
    /// A heartbeat is delayed long enough to risk a false suspicion.
    pub const HEARTBEAT_SEND_DELAY: &str = "heartbeat.send.delay";
    /// Bounded jitter added to one step's clock charge.
    pub const CLOCK_JITTER: &str = "clock.jitter";
}

/// How aggressively fault points fire, as an activation rate per mille
/// per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Intensity {
    /// Never fires; the registry is inert.
    Off,
    /// ~1% of evaluations fire — the CI smoke tier.
    Quick,
    /// ~4% fire — the default swarm tier.
    Standard,
    /// ~12% fire — the nightly soak tier.
    Aggressive,
}

impl Intensity {
    /// Activation threshold out of 1000.
    fn per_mille(self) -> u64 {
        match self {
            Intensity::Off => 0,
            Intensity::Quick => 10,
            Intensity::Standard => 40,
            Intensity::Aggressive => 120,
        }
    }

    /// Lower-case name, the `DVDC_BUGGIFY_INTENSITY` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Intensity::Off => "off",
            Intensity::Quick => "quick",
            Intensity::Standard => "standard",
            Intensity::Aggressive => "aggressive",
        }
    }

    /// Parses the `DVDC_BUGGIFY_INTENSITY` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Intensity::Off),
            "quick" => Some(Intensity::Quick),
            "standard" => Some(Intensity::Standard),
            "aggressive" => Some(Intensity::Aggressive),
            _ => None,
        }
    }

    /// The sweep tiers a swarm runs (everything but `Off`).
    pub fn sweep() -> [Intensity; 3] {
        [Intensity::Quick, Intensity::Standard, Intensity::Aggressive]
    }
}

#[derive(Debug, Default)]
struct RegistryState {
    /// Evaluation counts per point — the `occurrence_count` hash input.
    counts: BTreeMap<&'static str, u64>,
    /// Points that actually fired, with fire counts (repro reporting).
    fired: BTreeMap<&'static str, u64>,
    /// When set, only these points may fire (shrinking); evaluation
    /// counts still advance for every point so the survivors replay
    /// identically.
    allowed: Option<BTreeSet<&'static str>>,
}

/// A seed-deterministic registry of named fault points.
///
/// Shared by `Rc` between the protocol and its drivers; all mutation is
/// interior (the simulator is single-threaded, like the observe
/// recorder).
#[derive(Debug)]
pub struct FaultRegistry {
    seed: u64,
    intensity: Intensity,
    state: RefCell<RegistryState>,
}

impl FaultRegistry {
    /// A registry firing at `intensity` under `seed`.
    pub fn new(seed: u64, intensity: Intensity) -> Self {
        FaultRegistry {
            seed,
            intensity,
            state: RefCell::new(RegistryState::default()),
        }
    }

    /// The seed activations are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The activation rate tier.
    pub fn intensity(&self) -> Intensity {
        self.intensity
    }

    /// `false` iff the registry can never fire — the one boolean hot
    /// paths cache to keep the disabled path free.
    pub fn is_active(&self) -> bool {
        self.intensity != Intensity::Off
    }

    /// Evaluates `point` once: advances its occurrence count and reports
    /// whether this occurrence fires under the seed, intensity, and any
    /// active restriction.
    pub fn fires(&self, point: &'static str) -> bool {
        self.roll(point).is_some()
    }

    /// Like [`FaultRegistry::fires`], but a firing additionally yields a
    /// deterministic magnitude in `[0, 1)` for scaling delays/jitter.
    pub fn roll(&self, point: &'static str) -> Option<f64> {
        let threshold = self.intensity.per_mille();
        if threshold == 0 {
            return None;
        }
        let mut state = self.state.borrow_mut();
        let count = state.counts.entry(point).or_insert(0);
        let occurrence = *count;
        *count += 1;
        let h = activation_hash(self.seed, point, occurrence);
        if h % 1000 >= threshold {
            return None;
        }
        if let Some(allowed) = &state.allowed {
            if !allowed.contains(point) {
                return None; // suppressed by the shrinker's restriction
            }
        }
        *state.fired.entry(point).or_insert(0) += 1;
        // An independent magnitude: re-finalize so it is not correlated
        // with the activation decision bits.
        let m = h ^ 0x6c62_272e_07bb_0142;
        Some((splitmix64(m) >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Restricts firing to `allowed` (evaluation counts still advance for
    /// every point). Used by the shrinker to replay with a candidate
    /// subset.
    pub fn restrict(&self, allowed: &[&'static str]) {
        self.state.borrow_mut().allowed = Some(allowed.iter().copied().collect());
    }

    /// Points that fired at least once, sorted by name.
    pub fn fired_points(&self) -> Vec<&'static str> {
        self.state.borrow().fired.keys().copied().collect()
    }

    /// Total activations across all points.
    pub fn fired_total(&self) -> u64 {
        self.state.borrow().fired.values().sum()
    }

    /// Total evaluations across all points (fired or not) — the
    /// denominator of the observed activation rate.
    pub fn evaluated_total(&self) -> u64 {
        self.state.borrow().counts.values().sum()
    }

    /// Clears occurrence counts and fired records (the restriction, if
    /// any, stays): the next evaluation sequence replays from scratch.
    pub fn reset(&self) {
        let mut state = self.state.borrow_mut();
        state.counts.clear();
        state.fired.clear();
    }
}

/// Greedily shrinks a failing activation set to a minimal subset.
///
/// `still_fails(subset)` must re-run the failing scenario with firing
/// restricted to `subset` and report whether the failure reproduces. The
/// loop drops one point at a time, keeping any drop that preserves the
/// failure, until no single point can be removed — a local minimum, which
/// for independent fault points is the exact culprit set.
pub fn shrink<F>(failing: &[&'static str], mut still_fails: F) -> Vec<&'static str>
where
    F: FnMut(&[&'static str]) -> bool,
{
    let mut current: Vec<&'static str> = failing.to_vec();
    loop {
        let mut dropped = false;
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                dropped = true;
                break;
            }
        }
        if !dropped {
            return current;
        }
    }
}

/// `hash(seed, point, occurrence)`: FNV-1a over the name, folded with the
/// seed and occurrence count through splitmix64.
fn activation_hash(seed: u64, point: &str, occurrence: u64) -> u64 {
    splitmix64(seed ^ fnv1a64(point.as_bytes()) ^ occurrence.wrapping_mul(SPLITMIX_GAMMA))
}

/// Scales a firing's magnitude into a bounded extra delay.
pub fn scaled_delay(magnitude: f64, max: Duration) -> Duration {
    Duration::from_secs(max.as_secs() * magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_activations() {
        let a = FaultRegistry::new(42, Intensity::Aggressive);
        let b = FaultRegistry::new(42, Intensity::Aggressive);
        let fire_a: Vec<bool> = (0..500).map(|_| a.fires(points::CLOCK_JITTER)).collect();
        let fire_b: Vec<bool> = (0..500).map(|_| b.fires(points::CLOCK_JITTER)).collect();
        assert_eq!(fire_a, fire_b);
        assert!(
            fire_a.iter().any(|&f| f),
            "aggressive must fire in 500 evals"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultRegistry::new(1, Intensity::Aggressive);
        let b = FaultRegistry::new(2, Intensity::Aggressive);
        let fire_a: Vec<bool> = (0..500).map(|_| a.fires(points::CLOCK_JITTER)).collect();
        let fire_b: Vec<bool> = (0..500).map(|_| b.fires(points::CLOCK_JITTER)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn off_never_fires_and_counts_nothing() {
        let r = FaultRegistry::new(7, Intensity::Off);
        for _ in 0..100 {
            assert!(!r.fires(points::TRANSFER_ARRIVE_DROP));
        }
        assert_eq!(r.fired_total(), 0);
        assert!(!r.is_active());
    }

    #[test]
    fn activation_rate_tracks_intensity() {
        // Over many evaluations the observed rate should sit near the
        // configured per-mille threshold (hash uniformity sanity check).
        for intensity in Intensity::sweep() {
            let r = FaultRegistry::new(99, intensity);
            let n = 20_000;
            let mut fired = 0u64;
            for _ in 0..n {
                if r.fires(points::ROUND_TRANSFER_DELAY) {
                    fired += 1;
                }
            }
            let expect = intensity.per_mille() as f64 / 1000.0;
            let got = fired as f64 / n as f64;
            assert!(
                (got - expect).abs() < expect * 0.35 + 0.002,
                "{}: got {got:.4}, want ~{expect:.4}",
                intensity.name()
            );
        }
    }

    #[test]
    fn restriction_suppresses_but_preserves_replay() {
        // The unrestricted run fires some set; restricting to a subset
        // must fire exactly the allowed points at exactly the
        // occurrences they fired originally.
        let full = FaultRegistry::new(5, Intensity::Aggressive);
        let mut full_fires = Vec::new();
        for i in 0..300 {
            if full.fires(points::TRANSFER_ARRIVE_DROP) {
                full_fires.push(("drop", i));
            }
            if full.fires(points::HEARTBEAT_SEND_DROP) {
                full_fires.push(("hb", i));
            }
        }
        assert!(full_fires.iter().any(|f| f.0 == "drop"));
        assert!(full_fires.iter().any(|f| f.0 == "hb"));

        let restricted = FaultRegistry::new(5, Intensity::Aggressive);
        restricted.restrict(&[points::TRANSFER_ARRIVE_DROP]);
        let mut got = Vec::new();
        for i in 0..300 {
            if restricted.fires(points::TRANSFER_ARRIVE_DROP) {
                got.push(("drop", i));
            }
            if restricted.fires(points::HEARTBEAT_SEND_DROP) {
                got.push(("hb", i));
            }
        }
        let want: Vec<_> = full_fires.iter().filter(|f| f.0 == "drop").collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn magnitudes_are_deterministic_and_bounded() {
        let a = FaultRegistry::new(11, Intensity::Aggressive);
        let b = FaultRegistry::new(11, Intensity::Aggressive);
        for _ in 0..300 {
            let ra = a.roll(points::CLOCK_JITTER);
            let rb = b.roll(points::CLOCK_JITTER);
            assert_eq!(ra, rb);
            if let Some(m) = ra {
                assert!((0.0..1.0).contains(&m));
            }
        }
    }

    #[test]
    fn shrink_finds_single_culprit() {
        let all = &[
            points::TRANSFER_ARRIVE_DROP,
            points::HEARTBEAT_SEND_DROP,
            points::CLOCK_JITTER,
            points::SCRUB_READ_ERROR,
        ];
        let minimal = shrink(all, |subset| subset.contains(&points::CLOCK_JITTER));
        assert_eq!(minimal, vec![points::CLOCK_JITTER]);
    }

    #[test]
    fn shrink_keeps_conjunction() {
        // A failure needing two points together must keep both.
        let all = &[
            points::TRANSFER_ARRIVE_DROP,
            points::HEARTBEAT_SEND_DROP,
            points::CLOCK_JITTER,
        ];
        let minimal = shrink(all, |s| {
            s.contains(&points::TRANSFER_ARRIVE_DROP) && s.contains(&points::CLOCK_JITTER)
        });
        assert_eq!(
            minimal,
            vec![points::TRANSFER_ARRIVE_DROP, points::CLOCK_JITTER]
        );
    }

    #[test]
    fn intensity_round_trips_names() {
        for i in [
            Intensity::Off,
            Intensity::Quick,
            Intensity::Standard,
            Intensity::Aggressive,
        ] {
            assert_eq!(Intensity::parse(i.name()), Some(i));
        }
        assert_eq!(Intensity::parse("bogus"), None);
    }

    #[test]
    fn scaled_delay_stays_bounded() {
        let max = Duration::from_millis(5.0);
        let d = scaled_delay(0.999, max);
        assert!(d < max);
        assert_eq!(scaled_delay(0.0, max), Duration::ZERO);
    }
}
