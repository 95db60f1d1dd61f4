//! Deterministic fault injection for the measurement apparatus.
//!
//! The real campaign behind the paper was lossy: XCAL probes crash
//! mid-drive (truncating their KPI streams), measurement servers become
//! unreachable for a while, modems silently detach, and individual
//! nuttcp/ping sessions overrun their time budget and get killed. The
//! paper reports results *despite* those gaps. This module gives the
//! simulated campaign the same failure modes — but deterministically:
//! every fault decision is a pure function of `(campaign seed, unit key,
//! attempt)`, derived through the same SplitMix64 absorb chain as every
//! other stream ([`crate::rng`]), so a fault-injected campaign is exactly
//! as reproducible as a clean one, on any worker count.
//!
//! A [`FaultPlan`] answers one question per work-unit attempt: *which
//! fault, if any, strikes this attempt?* Abortive faults
//! ([`Fault::ServerOutage`], [`Fault::TimeoutOverrun`]) kill the attempt
//! before it produces data — the supervisor retries with simulated-clock
//! backoff. Degrading faults ([`Fault::ProbeCrash`],
//! [`Fault::ModemDetach`]) let the attempt complete but corrupt its
//! output, the way a dead logger or detached radio leaves holes in a real
//! dataset.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rng::{self, DOMAIN_FAULT};

/// How hostile the simulated apparatus is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults, ever. The injection machinery is a strict no-op: it
    /// draws no randomness and touches no data.
    #[default]
    None,
    /// Failure rates in the ballpark the paper's own campaign suffered:
    /// occasional probe crashes and aborted tests, a rare lost unit.
    Paper,
    /// A hostile world for robustness testing: roughly half of all unit
    /// attempts hit some fault, so retries, degradation and outright data
    /// loss all occur in even a small campaign.
    Harsh,
}

impl FaultProfile {
    /// All profiles, mildest first.
    pub const ALL: [FaultProfile; 3] =
        [FaultProfile::None, FaultProfile::Paper, FaultProfile::Harsh];

    /// Parse a CLI-style profile name.
    pub fn parse(s: &str) -> Option<FaultProfile> {
        match s {
            "none" | "off" => Some(FaultProfile::None),
            "paper" => Some(FaultProfile::Paper),
            "harsh" => Some(FaultProfile::Harsh),
            _ => Option::None,
        }
    }

    /// The CLI-style name.
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Paper => "paper",
            FaultProfile::Harsh => "harsh",
        }
    }

    /// Per-attempt probabilities of each fault kind, in the fixed draw
    /// order `[probe crash, server outage, modem detach, timeout]`.
    fn rates(self) -> [f64; 4] {
        match self {
            FaultProfile::None => [0.0; 4],
            FaultProfile::Paper => [0.05, 0.04, 0.04, 0.03],
            FaultProfile::Harsh => [0.16, 0.12, 0.14, 0.10],
        }
    }
}

/// One injected fault, with its deterministically drawn parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The XCAL probe dies partway through the unit: data recorded after
    /// `survive_frac` of the unit's time span is gone (records started
    /// later are lost whole; the straddling record keeps a truncated KPI
    /// stream). The attempt still "completes" — nobody notices a dead
    /// logger until post-processing.
    ProbeCrash {
        /// Fraction of the unit's span that was captured before the
        /// crash, in `[0.25, 0.95)`.
        survive_frac: f64,
    },
    /// The measurement endpoint (cloud/edge server) is unreachable for a
    /// window covering the unit: every test aborts, the attempt yields no
    /// data, and the supervisor must retry.
    ServerOutage {
        /// How long the endpoint stayed dark, simulated seconds.
        outage_s: f64,
    },
    /// The modem detaches from the network for a window in the middle of
    /// the unit: tests overlapping the window are lost whole (a detached
    /// radio aborts the session), the rest survive.
    ModemDetach {
        /// Window start, as a fraction of the unit's span, in `[0.05, 0.75)`.
        start_frac: f64,
        /// Window length, as a fraction of the unit's span, in `[0.05, 0.30)`.
        len_frac: f64,
    },
    /// The unit blows its time budget (a hung nuttcp session) and the
    /// supervisor kills it: no data, retry.
    TimeoutOverrun {
        /// How far past the budget it ran before being killed, seconds.
        overrun_s: f64,
    },
}

impl Fault {
    /// Short kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::ProbeCrash { .. } => "probe-crash",
            Fault::ServerOutage { .. } => "server-outage",
            Fault::ModemDetach { .. } => "modem-detach",
            Fault::TimeoutOverrun { .. } => "timeout-overrun",
        }
    }
}

/// Extra key word separating the backoff-jitter stream from the
/// fault-kind stream of the same `(unit, attempt)`.
const BACKOFF_TAG: u64 = 0x4241_434B_4F46_4600; // "BACKOFF"

/// The campaign's deterministic fault schedule.
///
/// Stateless and `Copy`: any worker can ask about any `(unit, attempt)`
/// in any order and get the same answer, which is what keeps sequential
/// and parallel fault-injected runs byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    /// A plan for one campaign.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// The profile this plan injects.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// The derived seed behind one `(unit, attempt)` decision — exposed
    /// so invariant tests can check collision-freedom and seed-bit
    /// sensitivity without enumerating fault kinds.
    pub fn attempt_seed(&self, unit_words: &[u64], attempt: u32) -> u64 {
        let mut words = Vec::with_capacity(unit_words.len() + 1);
        words.extend_from_slice(unit_words);
        words.push(attempt as u64);
        rng::derive_seed(self.seed, DOMAIN_FAULT, &words)
    }

    /// Which fault (if any) strikes attempt `attempt` of the unit keyed
    /// by `unit_words`. Pure: same inputs, same answer, forever.
    pub fn fault_for(&self, unit_words: &[u64], attempt: u32) -> Option<Fault> {
        if self.profile == FaultProfile::None {
            return None;
        }
        // lint:allow(D4): attempt_seed IS the netsim::rng absorb chain
        // (DOMAIN_FAULT); this just positions a reader on that stream
        let mut r = SmallRng::seed_from_u64(self.attempt_seed(unit_words, attempt));
        let roll = r.gen::<f64>();
        let [p_crash, p_outage, p_detach, p_timeout] = self.profile.rates();
        if roll < p_crash {
            Some(Fault::ProbeCrash {
                survive_frac: 0.25 + 0.70 * r.gen::<f64>(),
            })
        } else if roll < p_crash + p_outage {
            Some(Fault::ServerOutage {
                outage_s: 30.0 + 570.0 * r.gen::<f64>(),
            })
        } else if roll < p_crash + p_outage + p_detach {
            Some(Fault::ModemDetach {
                start_frac: 0.05 + 0.70 * r.gen::<f64>(),
                len_frac: 0.05 + 0.25 * r.gen::<f64>(),
            })
        } else if roll < p_crash + p_outage + p_detach + p_timeout {
            Some(Fault::TimeoutOverrun {
                overrun_s: 10.0 + 110.0 * r.gen::<f64>(),
            })
        } else {
            None
        }
    }

    /// Simulated-clock backoff before retrying after a failed `attempt`:
    /// exponential base with deterministic jitter. This is accounting
    /// only — no thread ever sleeps — so it costs nothing at runtime but
    /// shows up in the integrity report exactly like a real scheduler's
    /// retry delay would.
    pub fn backoff_s(&self, unit_words: &[u64], attempt: u32) -> f64 {
        let mut words = Vec::with_capacity(unit_words.len() + 2);
        words.extend_from_slice(unit_words);
        words.push(attempt as u64);
        words.push(BACKOFF_TAG);
        let mut r = rng::stream(self.seed, DOMAIN_FAULT, &words);
        let base = 5.0 * f64::from(1u32 << attempt.min(6));
        base * (1.0 + 0.5 * r.gen::<f64>())
    }
}

/// In-process chaos hook for crash-safety testing: "kills the process"
/// after a configured number of durable checkpoint commits.
///
/// The supervised executor's committer calls [`ProcessKill::on_commit`]
/// once per work-unit checkpoint record it has made durable (written +
/// fsynced), and never lets a batch of records cross the kill point
/// ([`ProcessKill::kill_point`] minus [`ProcessKill::committed`]). When
/// the count reaches the kill point the executor stops scheduling and
/// the run ends as killed with exactly k durable records — the
/// in-process analogue of a SIGKILL landing right after the k-th record
/// hit the disk. The repro binary additionally converts the kill into a
/// real nonzero process exit, so CI can rehearse an actual crash +
/// `--resume` cycle.
///
/// Deterministic in the only sense that matters for crash recovery: the
/// *count* of committed units is exact, but the *set* may vary with
/// worker count, and resume must reproduce the golden bytes from **any**
/// committed subset — which is exactly the property the kill-point sweep
/// tests pin down.
#[derive(Debug)]
pub struct ProcessKill {
    after_units: usize,
    committed: std::sync::atomic::AtomicUsize,
}

impl ProcessKill {
    /// Kill the run once `k` unit checkpoints have been committed.
    /// `k` larger than the schedule means the run completes normally.
    pub fn after_units(k: usize) -> Self {
        ProcessKill {
            after_units: k,
            committed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Record one durable commit; `true` once the kill point is reached
    /// (and for every commit after it — dead stays dead).
    pub fn on_commit(&self) -> bool {
        let n = self
            .committed
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        n >= self.after_units
    }

    /// Commits recorded so far.
    pub fn committed(&self) -> usize {
        self.committed.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The configured kill point.
    pub fn kill_point(&self) -> usize {
        self.after_units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: &[u64] = &[1, 0, 3];

    #[test]
    fn none_profile_never_faults() {
        let plan = FaultPlan::new(42, FaultProfile::None);
        for attempt in 0..16 {
            for w in 0u64..32 {
                assert_eq!(plan.fault_for(&[1, w], attempt), None);
            }
        }
    }

    #[test]
    fn decisions_are_pure() {
        for profile in [FaultProfile::Paper, FaultProfile::Harsh] {
            let a = FaultPlan::new(7, profile);
            let b = FaultPlan::new(7, profile);
            for attempt in 0..8 {
                assert_eq!(a.fault_for(UNIT, attempt), b.fault_for(UNIT, attempt));
                assert_eq!(a.backoff_s(UNIT, attempt), b.backoff_s(UNIT, attempt));
            }
        }
    }

    #[test]
    fn harsh_hits_all_fault_kinds() {
        let plan = FaultPlan::new(42, FaultProfile::Harsh);
        let mut seen = std::collections::HashSet::new();
        for unit in 0u64..400 {
            if let Some(f) = plan.fault_for(&[1, unit], 0) {
                seen.insert(f.label());
            }
        }
        for label in [
            "probe-crash",
            "server-outage",
            "modem-detach",
            "timeout-overrun",
        ] {
            assert!(seen.contains(label), "harsh profile never drew {label}");
        }
    }

    #[test]
    fn paper_is_mostly_clean() {
        let plan = FaultPlan::new(11, FaultProfile::Paper);
        let clean = (0u64..1000)
            .filter(|&u| plan.fault_for(&[2, u], 0).is_none())
            .count();
        assert!(clean > 700, "paper profile too hostile: {clean}/1000 clean");
    }

    #[test]
    fn drawn_parameters_stay_in_range() {
        let plan = FaultPlan::new(3, FaultProfile::Harsh);
        for unit in 0u64..500 {
            match plan.fault_for(&[1, unit], 1) {
                Some(Fault::ProbeCrash { survive_frac }) => {
                    assert!((0.25..0.95).contains(&survive_frac));
                }
                Some(Fault::ModemDetach {
                    start_frac,
                    len_frac,
                }) => {
                    assert!((0.05..0.75).contains(&start_frac));
                    assert!((0.05..0.30).contains(&len_frac));
                }
                Some(Fault::ServerOutage { outage_s }) => {
                    assert!((30.0..600.0).contains(&outage_s));
                }
                Some(Fault::TimeoutOverrun { overrun_s }) => {
                    assert!((10.0..120.0).contains(&overrun_s));
                }
                None => {}
            }
        }
    }

    #[test]
    fn backoff_grows_and_is_bounded() {
        let plan = FaultPlan::new(5, FaultProfile::Harsh);
        let b0 = plan.backoff_s(UNIT, 0);
        let b1 = plan.backoff_s(UNIT, 1);
        let b2 = plan.backoff_s(UNIT, 2);
        assert!((5.0..7.5 + 1e-9).contains(&b0));
        assert!(b1 > b0 / 2.0 && b2 > b1 / 2.0, "roughly exponential");
        // Capped exponent: huge attempt counts don't overflow.
        assert!(plan.backoff_s(UNIT, 1000).is_finite());
    }

    #[test]
    fn attempts_are_independent() {
        // A unit that fails attempt 0 is not doomed to fail attempt 1:
        // the per-attempt streams differ.
        let plan = FaultPlan::new(42, FaultProfile::Harsh);
        let differs = (0u64..200).any(|u| {
            plan.fault_for(&[1, u], 0).map(|f| f.label())
                != plan.fault_for(&[1, u], 1).map(|f| f.label())
        });
        assert!(differs);
    }

    #[test]
    fn process_kill_fires_at_and_after_the_kill_point() {
        let k = ProcessKill::after_units(3);
        assert!(!k.on_commit());
        assert!(!k.on_commit());
        assert!(k.on_commit(), "third commit reaches the kill point");
        assert!(k.on_commit(), "dead stays dead");
        assert_eq!(k.committed(), 4);
        assert_eq!(k.kill_point(), 3);
    }

    #[test]
    fn process_kill_zero_fires_immediately() {
        let k = ProcessKill::after_units(0);
        assert!(k.on_commit(), "kill point 0 can never commit a unit");
    }

    #[test]
    fn profile_parse_roundtrip() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.label()), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
        assert_eq!(FaultProfile::parse("off"), Some(FaultProfile::None));
    }
}
