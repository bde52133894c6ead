//! Output checks against the in-tree oracles, run outside every timed
//! window: each distinct key's reply must match
//! `PatternTable::build_reference` + `select_from_table_reference`, its
//! schedule must pass `Schedule::validate`, and fabric replies must come
//! from a mapping that passes `FabricMapping::validate`. Every later reply
//! to a key must repeat the first one's decisions.

use crate::stream::KeySpec;
use mps::dfg::AnalyzedDfg;
use mps::patterns::{EnumerateConfig, PatternSet, PatternTable};
use mps::select::select_from_table_reference;
use mps::ScheduleEngine;
use mps_serve::protocol::{CompileReply, Reply};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What a correct reply to a key says.
#[derive(Clone, Debug, PartialEq)]
struct Expected {
    patterns: Vec<String>,
    cycles: u64,
    exec_cycles: Option<u64>,
    /// `(tiles, transfers, makespan)` of a fabric compile.
    fabric: Option<(u64, u64, u64)>,
}

/// The verdict over one run's replies.
#[derive(Default)]
pub struct Verdict {
    /// Distinct keys checked.
    pub keys: usize,
    /// One line per failed check.
    pub mismatches: Vec<String>,
    /// Schedule length per key id (`fabric_cycles` for fabric compiles).
    pub cycles: HashMap<u64, u64>,
}

type TableId = (String, usize, Option<u32>);

fn table_id(spec: &KeySpec) -> TableId {
    (format!("{:?}", spec.base), spec.capacity, spec.span)
}

/// Check every distinct key among `first_replies` (plus reply
/// consistency over `digests`), on two threads.
pub fn verify(
    first_replies: &[(u64, String)],
    digests: &[(u64, u64)],
    spec_of: &(dyn Fn(u64) -> KeySpec + Sync),
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut first: BTreeMap<u64, &str> = BTreeMap::new();
    for (id, line) in first_replies {
        first.entry(*id).or_insert(line.as_str());
    }
    let first_digest: HashMap<u64, u64> = first
        .iter()
        .map(|(id, line)| (*id, crate::load::decision_digest(line)))
        .collect();
    let inconsistent = digests
        .iter()
        .filter(|(id, d)| first_digest.get(id) != Some(d))
        .count();
    if inconsistent > 0 {
        verdict.mismatches.push(format!(
            "{inconsistent} replies disagree with their key's first reply"
        ));
    }

    let mut replies: Vec<(KeySpec, CompileReply)> = Vec::with_capacity(first.len());
    for (id, line) in &first {
        match Reply::from_line(line) {
            Ok(Reply::Compile(r)) => replies.push((spec_of(*id), r)),
            other => verdict
                .mismatches
                .push(format!("key {id}: undecodable compile reply {other:?}")),
        }
    }
    verdict.keys = first.len();

    // Reference tables first (shared by Pdef siblings and every key of a
    // base graph), then one oracle answer per distinct decision identity.
    let mut table_specs: BTreeMap<TableId, &KeySpec> = BTreeMap::new();
    let mut oracle_specs: BTreeMap<String, &KeySpec> = BTreeMap::new();
    for (spec, _) in &replies {
        table_specs.entry(table_id(spec)).or_insert(spec);
        oracle_specs.entry(spec.oracle_id()).or_insert(spec);
    }
    let table_list: Vec<(&TableId, &&KeySpec)> = table_specs.iter().collect();
    let tables: HashMap<TableId, Arc<(AnalyzedDfg, PatternTable)>> =
        mps::par::par_map_in(2, &table_list, |(id, spec)| {
            let adfg = AnalyzedDfg::new(spec.base.build());
            let table = PatternTable::build_reference(
                &adfg,
                EnumerateConfig {
                    capacity: spec.capacity,
                    span_limit: spec.span,
                    parallel: false,
                },
            );
            ((*id).clone(), Arc::new((adfg, table)))
        })
        .into_iter()
        .collect();
    let oracle_list: Vec<(&String, &&KeySpec)> = oracle_specs.iter().collect();
    let expected: HashMap<String, Result<Expected, String>> =
        mps::par::par_map_in(2, &oracle_list, |(id, spec)| {
            let built = &tables[&table_id(spec)];
            ((*id).clone(), expect(spec, &built.0, &built.1))
        })
        .into_iter()
        .collect();

    for (spec, reply) in &replies {
        let got = Expected {
            patterns: reply.patterns.clone(),
            cycles: reply.cycles,
            exec_cycles: reply.exec_cycles,
            fabric: reply.fabric_cycles.map(|c| {
                (
                    reply.fabric_tiles.unwrap_or(0),
                    reply.fabric_transfers.unwrap_or(0),
                    c,
                )
            }),
        };
        match &expected[&spec.oracle_id()] {
            Ok(want) if *want == got => {}
            Ok(want) => verdict.mismatches.push(format!(
                "key {} ({}): reply {got:?}, oracle {want:?}",
                spec.id,
                spec.oracle_id()
            )),
            Err(e) => verdict.mismatches.push(format!(
                "key {} ({}): oracle failed: {e}",
                spec.id,
                spec.oracle_id()
            )),
        }
        verdict
            .cycles
            .insert(spec.id, reply.fabric_cycles.unwrap_or(reply.cycles));
    }
    verdict
}

/// The oracle answer for one key.
fn expect(spec: &KeySpec, adfg: &AnalyzedDfg, table: &PatternTable) -> Result<Expected, String> {
    let cfg = spec.request().compile_config()?;
    let selection = select_from_table_reference(adfg, table, &cfg.select);
    let patterns: &PatternSet = &selection.patterns;
    let rendered = patterns.iter().map(|p| p.to_string()).collect();
    let ScheduleEngine::List(list) = cfg.schedule else {
        return Err("the workloads only use the list scheduler".to_string());
    };
    if let Some(params) = &cfg.fabric {
        let part = mps::fabric::partition(adfg.dfg(), params);
        let fs = mps::fabric::schedule_partitioned(adfg, patterns, list, params, part)
            .map_err(|e| e.to_string())?;
        let mapping = mps::fabric::replay_fabric(&fs, patterns).map_err(|e| e.to_string())?;
        mapping.validate(adfg.dfg()).map_err(|e| e.to_string())?;
        let cycles = mapping.tiles.iter().map(|t| t.schedule.len() as u64).sum();
        return Ok(Expected {
            patterns: rendered,
            cycles,
            exec_cycles: None,
            fabric: Some((
                mapping.tile_count() as u64,
                mapping.transfer_count() as u64,
                mapping.total_cycles,
            )),
        });
    }
    let scheduled = cfg
        .schedule
        .run(adfg, patterns)
        .map_err(|e| e.to_string())?;
    scheduled
        .schedule
        .validate(adfg, Some(patterns))
        .map_err(|e| e.to_string())?;
    let exec_cycles = match cfg.tile {
        Some(tile) => Some(
            mps::montium::execute(adfg, &scheduled.schedule, patterns, tile)
                .map_err(|e| e.to_string())?
                .cycles as u64,
        ),
        None => None,
    };
    Ok(Expected {
        patterns: rendered,
        cycles: scheduled.schedule.len() as u64,
        exec_cycles,
        fabric: None,
    })
}
