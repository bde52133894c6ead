//! The scheduling-engine surface `mps::Session` and the CLI dispatch on.
//!
//! Each variant maps onto a concrete piece of the paper:
//!
//! | variant | entry point | paper anchor |
//! |---|---|---|
//! | [`ScheduleEngine::List`] | [`schedule_multi_pattern`] | §4, Fig. 3 + Eq. 4–7 — the paper's multi-pattern list scheduler (Table 2 trace) |
//! | [`ScheduleEngine::Modulo`] | [`schedule_modulo`] | software pipelining of the paper's loop kernels (throughput instead of latency) |
//!
//! Both engines produce a flat [`Schedule`] through one result type,
//! [`EngineSchedule`], with the modulo extras (initiation interval, slot
//! patterns) carried as optional fields. The crate's other schedulers
//! ([`crate::schedule_beam`], [`crate::schedule_switch_aware`],
//! [`crate::exact::schedule_exact`]) are free functions that the
//! comparison binaries call directly.

use crate::error::ScheduleError;
use crate::modulo::{schedule_modulo, ModuloConfig};
use crate::multi_pattern::{schedule_multi_pattern, MultiPatternConfig};
use crate::schedule::Schedule;
use crate::trace::ScheduleTrace;
use mps_dfg::AnalyzedDfg;
use mps_patterns::PatternSet;

/// A scheduling strategy (see the module docs for the mapping to the
/// paper's sections).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleEngine {
    /// The paper's Fig. 3 multi-pattern list scheduler — the default.
    List(MultiPatternConfig),
    /// Iterative modulo scheduling under pattern constraints; the flat
    /// single-iteration schedule is returned, with the achieved
    /// initiation interval in [`EngineSchedule::ii`].
    Modulo(ModuloConfig),
}

impl Default for ScheduleEngine {
    fn default() -> ScheduleEngine {
        ScheduleEngine::List(MultiPatternConfig::default())
    }
}

/// What a [`ScheduleEngine`] produced: the flat schedule plus the
/// engine-specific extras that exist only for some variants.
#[derive(Clone, Debug)]
pub struct EngineSchedule {
    /// The schedule (single-iteration latency = `schedule.len()`).
    pub schedule: Schedule,
    /// Per-cycle trace, when the list scheduler was asked to record one.
    pub trace: Option<ScheduleTrace>,
    /// Achieved initiation interval ([`ScheduleEngine::Modulo`] only).
    pub ii: Option<usize>,
    /// The pre-search lower bound on the interval (modulo only; `ii ==
    /// mii` means provably optimal).
    pub mii: Option<usize>,
    /// Pattern configured in each steady-state slot (modulo only; index
    /// `r` hosts every flat cycle `t ≡ r (mod ii)`).
    pub slot_patterns: Option<Vec<mps_patterns::Pattern>>,
}

impl ScheduleEngine {
    /// Stable machine-readable name, for CLI output, metrics and error
    /// messages.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleEngine::List(_) => "list",
            ScheduleEngine::Modulo(_) => "modulo",
        }
    }

    /// The [`MultiPatternConfig`] this engine evaluates schedules with —
    /// its own for the list scheduler, the default otherwise. Used by
    /// callers that need a list-scheduler configuration consistent with
    /// the chosen engine (e.g. the search-based selection engines).
    pub fn eval_config(&self) -> MultiPatternConfig {
        match self {
            ScheduleEngine::List(cfg) => *cfg,
            ScheduleEngine::Modulo(_) => MultiPatternConfig::default(),
        }
    }

    /// Schedule `adfg` with the given pattern set.
    ///
    /// Errors exactly when the underlying engine errors (empty pattern
    /// set, a color no pattern provides, or no feasible initiation
    /// interval).
    pub fn run(
        &self,
        adfg: &AnalyzedDfg,
        patterns: &PatternSet,
    ) -> Result<EngineSchedule, ScheduleError> {
        Ok(match self {
            ScheduleEngine::List(cfg) => {
                let r = schedule_multi_pattern(adfg, patterns, *cfg)?;
                EngineSchedule {
                    schedule: r.schedule,
                    trace: r.trace,
                    ii: None,
                    mii: None,
                    slot_patterns: None,
                }
            }
            ScheduleEngine::Modulo(cfg) => {
                let r = schedule_modulo(adfg, patterns, *cfg)?;
                EngineSchedule {
                    schedule: r.schedule,
                    trace: None,
                    ii: Some(r.ii),
                    mii: Some(r.mii),
                    slot_patterns: Some(r.slot_patterns),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dfg::{Color, DfgBuilder};
    use mps_patterns::Pattern;

    /// Two parallel two-node chains, colors a→b twice.
    fn adfg() -> AnalyzedDfg {
        let mut b = DfgBuilder::new();
        let a1 = b.add_node("a1", Color::from_char('a').unwrap());
        let b1 = b.add_node("b1", Color::from_char('b').unwrap());
        let a2 = b.add_node("a2", Color::from_char('a').unwrap());
        let b2 = b.add_node("b2", Color::from_char('b').unwrap());
        b.add_edge(a1, b1).unwrap();
        b.add_edge(a2, b2).unwrap();
        AnalyzedDfg::new(b.build().unwrap())
    }

    fn patterns() -> PatternSet {
        PatternSet::from_patterns([Pattern::parse("aa").unwrap(), Pattern::parse("bb").unwrap()])
    }

    fn engines() -> Vec<ScheduleEngine> {
        vec![
            ScheduleEngine::default(),
            ScheduleEngine::Modulo(ModuloConfig::default()),
        ]
    }

    #[test]
    fn every_engine_schedules_every_node() {
        let adfg = adfg();
        for engine in engines() {
            let r = engine.run(&adfg, &patterns()).expect("schedulable");
            assert_eq!(
                r.schedule.scheduled_nodes(),
                adfg.len(),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn extras_appear_exactly_where_documented() {
        let adfg = adfg();
        let modulo = ScheduleEngine::Modulo(ModuloConfig::default())
            .run(&adfg, &patterns())
            .unwrap();
        assert!(modulo.ii.is_some() && modulo.mii.is_some() && modulo.slot_patterns.is_some());
        assert!(modulo.ii.unwrap() >= modulo.mii.unwrap());
        let list = ScheduleEngine::default().run(&adfg, &patterns()).unwrap();
        assert!(list.ii.is_none() && list.slot_patterns.is_none() && list.trace.is_none());
        let traced = ScheduleEngine::List(MultiPatternConfig {
            record_trace: true,
            ..Default::default()
        })
        .run(&adfg, &patterns())
        .unwrap();
        assert!(traced.trace.is_some());
    }

    #[test]
    fn pattern_constrained_engines_propagate_errors() {
        let adfg = adfg();
        let missing_b = PatternSet::from_patterns([Pattern::parse("aa").unwrap()]);
        for engine in engines() {
            assert_eq!(
                engine.run(&adfg, &missing_b).unwrap_err(),
                ScheduleError::UncoveredColor(Color::from_char('b').unwrap()),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn names_and_eval_configs_are_stable() {
        let names: Vec<&str> = engines().iter().map(ScheduleEngine::name).collect();
        assert_eq!(names, ["list", "modulo"]);
        let traced = MultiPatternConfig {
            record_trace: true,
            ..Default::default()
        };
        assert_eq!(ScheduleEngine::List(traced).eval_config(), traced);
        assert_eq!(
            ScheduleEngine::Modulo(ModuloConfig::default()).eval_config(),
            MultiPatternConfig::default()
        );
    }
}
