//! Fault injection for chaos testing the serving layer.
//!
//! A [`FaultPlan`] describes deliberate misbehavior — delay or fail
//! compiles at a chosen pipeline stage, drop connections mid-reply,
//! stall reads — that the chaos integration tests and the CI
//! `chaos-smoke` job switch on to prove the daemon's overload story:
//! every request is answered or shed, nothing hangs, and no
//! single-flight slot leaks. Plans come from [`crate::ServeOptions`]
//! directly (tests) or from `MPS_FAULT_*` environment variables
//! ([`FaultPlan::from_env`], for exercising a stock binary):
//!
//! | variable | effect |
//! |---|---|
//! | `MPS_FAULT_DELAY_STAGE` + `MPS_FAULT_DELAY_MS` | sleep that long when a compile reaches the stage |
//! | `MPS_FAULT_FAIL_STAGE` | fail compiles at the stage with a transient [`mps::MpsError::Cancelled`] |
//! | `MPS_FAULT_DROP_REPLY_EVERY` | cut the connection mid-reply on every Nth compile reply |
//! | `MPS_FAULT_SLOW_READ_MS` | stall that long before handling each request line |
//! | `MPS_FAULT_PEER_DOWN` | treat peers whose address contains this substring as unreachable |
//! | `MPS_FAULT_PEER_SLOW_MS` | stall that long before every peer forward (deterministic forward-deadline failover) |
//! | `MPS_FAULT_PEER_FLAP_EVERY` | fail every Nth peer forward (flapping membership) |
//!
//! Stage names are the wire spellings: `analyze`, `enumerate`,
//! `select`, `schedule`, `map-tile`.
//!
//! Injected stage failures are deliberately *transient* errors so the
//! caches refuse to memoize them ([`mps::MpsError::is_transient`]) —
//! chaos must not poison the artifact or table tier for later healthy
//! requests. The delay runs *before* the server's deadline check at
//! the same stage boundary, so a delayed compile under a tight
//! deadline deterministically reports `DeadlineExceeded` at that
//! stage.

use mps::{MpsError, Stage, StageProbe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A chaos recipe: which faults to inject, all off by default.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sleep this many milliseconds when a compile reaches the stage.
    pub delay_stage: Option<(Stage, u64)>,
    /// Fail compiles reaching this stage with a transient error.
    pub fail_stage: Option<Stage>,
    /// Cut the connection mid-reply on every Nth compile reply
    /// (1 = every reply; counted across all connections).
    pub drop_reply_every: Option<u64>,
    /// Stall this many milliseconds before handling each request line.
    pub slow_read_ms: Option<u64>,
    /// Treat fleet peers whose address contains this substring as
    /// unreachable: forwards to them fail before dialing, as a refused
    /// connection would.
    pub peer_down: Option<String>,
    /// Stall this many milliseconds before every peer forward — long
    /// enough a stall deterministically blows the forward deadline and
    /// exercises the failover path.
    pub peer_slow_ms: Option<u64>,
    /// Fail every Nth peer forward (1 = every forward; counted across
    /// all peers), simulating a flapping link.
    pub peer_flap_every: Option<u64>,
    /// Panic in the first compile that reaches this stage (tests only;
    /// no environment variable sets it).
    #[cfg(test)]
    pub panic_stage: Option<Stage>,
    /// Panic while resolving any request that carries this id, before
    /// anything is parsed (tests only; no environment variable sets it).
    #[cfg(test)]
    pub panic_resolve_id: Option<u64>,
}

impl FaultPlan {
    /// `true` when any fault is armed.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::default()
    }

    /// Read a plan from the `MPS_FAULT_*` environment variables
    /// (unset, empty or unparsable variables leave that fault off).
    pub fn from_env() -> FaultPlan {
        let ms = |name: &str| -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
        };
        let stage = |name: &str| -> Option<Stage> {
            std::env::var(name).ok().and_then(|v| parse_stage(v.trim()))
        };
        FaultPlan {
            delay_stage: stage("MPS_FAULT_DELAY_STAGE")
                .zip(Some(ms("MPS_FAULT_DELAY_MS").unwrap_or(50))),
            fail_stage: stage("MPS_FAULT_FAIL_STAGE"),
            drop_reply_every: ms("MPS_FAULT_DROP_REPLY_EVERY").filter(|&n| n > 0),
            slow_read_ms: ms("MPS_FAULT_SLOW_READ_MS"),
            peer_down: std::env::var("MPS_FAULT_PEER_DOWN")
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty()),
            peer_slow_ms: ms("MPS_FAULT_PEER_SLOW_MS"),
            peer_flap_every: ms("MPS_FAULT_PEER_FLAP_EVERY").filter(|&n| n > 0),
            #[cfg(test)]
            panic_stage: None,
            #[cfg(test)]
            panic_resolve_id: None,
        }
    }

    /// The [`StageProbe`] realizing the in-pipeline faults, or `None`
    /// when no stage fault is armed.
    pub fn stage_probe(&self) -> Option<StageProbe> {
        let (delay, fail) = (self.delay_stage, self.fail_stage);
        #[cfg(test)]
        let panic_once = self.panic_stage.map(|at| (at, AtomicBool::new(true)));
        #[cfg(not(test))]
        let panic_once: Option<(Stage, AtomicBool)> = None;
        if delay.is_none() && fail.is_none() && panic_once.is_none() {
            return None;
        }
        Some(StageProbe::new(move |stage| {
            if let Some((at, armed)) = &panic_once {
                if *at == stage && armed.swap(false, Ordering::Relaxed) {
                    panic!("injected fault: compile panicked at {stage}");
                }
            }
            if let Some((at, ms)) = delay {
                if at == stage {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
            match fail {
                Some(at) if at == stage => Err(MpsError::Cancelled { stage }),
                _ => Ok(()),
            }
        }))
    }
}

/// Parse a wire-spelled stage name.
pub fn parse_stage(name: &str) -> Option<Stage> {
    match name {
        "analyze" => Some(Stage::Analyze),
        "enumerate" => Some(Stage::Enumerate),
        "select" => Some(Stage::Select),
        "schedule" => Some(Stage::Schedule),
        "map-tile" => Some(Stage::MapTile),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.stage_probe().is_none());
    }

    #[test]
    fn stage_names_parse_like_the_wire() {
        for stage in [
            Stage::Analyze,
            Stage::Enumerate,
            Stage::Select,
            Stage::Schedule,
            Stage::MapTile,
        ] {
            assert_eq!(parse_stage(&stage.to_string()), Some(stage));
        }
        assert_eq!(parse_stage("compile"), None);
    }

    #[test]
    fn probe_delays_and_fails_at_the_chosen_stages() {
        let plan = FaultPlan {
            delay_stage: Some((Stage::Select, 30)),
            fail_stage: Some(Stage::Schedule),
            ..FaultPlan::default()
        };
        let probe = plan.stage_probe().expect("two faults armed");

        let t0 = Instant::now();
        probe.check(Stage::Select).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30), "delay injected");

        let t0 = Instant::now();
        probe.check(Stage::Analyze).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(30),
            "other stages free"
        );

        let err = probe.check(Stage::Schedule).unwrap_err();
        assert_eq!(
            err,
            MpsError::Cancelled {
                stage: Stage::Schedule
            }
        );
        assert!(err.is_transient(), "injected failures must not be cached");
    }
}
