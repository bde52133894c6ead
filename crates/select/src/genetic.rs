//! Evolutionary pattern-set search — the population-based counterpart of
//! [`crate::anneal_patterns`].
//!
//! Annealing walks one pattern set through local moves; a genetic search
//! keeps a *population*, recombining good sets (uniform crossover over
//! member patterns) and mutating them (swap a member for a §5.1 candidate
//! or re-color one slot). Elitism carries the best set forward unchanged,
//! so — like the annealer — the result is **never worse than the best
//! seed**, which makes it safe to run as a refinement pass over Eq. 8.
//!
//! The interesting empirical question this module answers (see the
//! `selectors` bench binary) is whether *recombination* finds sets the
//! annealer's single walker misses. At a comparable evaluation budget
//! (~320 schedules) it does: on the evaluation suite the evolved sets
//! reach the pattern-free lower bound on dft5, dct8 and matmul3 where
//! annealing plateaus one cycle higher — mixing members from two decent
//! sets escapes the swap-one-pattern local optima that trap a single
//! walker.

use mps_dfg::AnalyzedDfg;
use mps_patterns::{Pattern, PatternSet};
use mps_scheduler::{schedule_multi_pattern, MultiPatternConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the evolutionary search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeneticConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Generations evolved.
    pub generations: usize,
    /// Tournament size for parent selection (≥ 1; larger = greedier).
    pub tournament: usize,
    /// Per-member probability (in percent) of mutation after crossover.
    pub mutation_pct: u32,
    /// RNG seed; the whole search is deterministic per seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> GeneticConfig {
        GeneticConfig {
            population: 16,
            generations: 20,
            tournament: 3,
            mutation_pct: 30,
            seed: 0xbeef,
        }
    }
}

/// Outcome of [`evolve_patterns`].
#[derive(Clone, Debug)]
pub struct GeneticResult {
    /// Best pattern set found.
    pub patterns: PatternSet,
    /// Its schedule length.
    pub cycles: usize,
    /// Schedule length of the best seed individual.
    pub initial_cycles: usize,
    /// Schedules evaluated (fitness calls).
    pub evaluated: usize,
}

fn fitness(adfg: &AnalyzedDfg, set: &PatternSet, sched: MultiPatternConfig) -> usize {
    match schedule_multi_pattern(adfg, set, sched) {
        Ok(r) => r.schedule.len(),
        Err(_) => usize::MAX,
    }
}

/// Fitness of a whole batch — the per-generation scoring inner loop.
fn fitness_batch(adfg: &AnalyzedDfg, sets: &[PatternSet], sched: MultiPatternConfig) -> Vec<usize> {
    sets.iter().map(|set| fitness(adfg, set, sched)).collect()
}

/// Uniform crossover: each member slot takes a pattern from either
/// parent; repairs coverage by appending a parent pattern holding a
/// missing color when needed.
fn crossover(adfg: &AnalyzedDfg, a: &PatternSet, b: &PatternSet, rng: &mut StdRng) -> PatternSet {
    let n = a.len().max(b.len()).max(1);
    let mut members: Vec<Pattern> = Vec::with_capacity(n);
    for i in 0..n {
        let from_a = rng.gen_bool(0.5);
        let src = if from_a { a } else { b };
        let alt = if from_a { b } else { a };
        if let Some(&p) = src.patterns().get(i) {
            members.push(p);
        } else if let Some(&p) = alt.patterns().get(i) {
            members.push(p);
        }
    }
    let mut child = PatternSet::from_patterns(members);
    // Coverage repair: pull patterns from the parents until every graph
    // color is covered (parents cover, so this terminates).
    let needed = adfg.dfg().color_set();
    for &p in a.patterns().iter().chain(b.patterns()) {
        if child.covers(&needed) {
            break;
        }
        let missing = needed.difference(&child.color_set());
        if p.color_set().iter().any(|c| missing.contains(c)) {
            child.insert(p);
        }
    }
    child
}

/// Mutate one member: swap with a candidate pattern or recolor one slot.
fn mutate(
    adfg: &AnalyzedDfg,
    set: &PatternSet,
    candidates: &[Pattern],
    rng: &mut StdRng,
) -> PatternSet {
    let mut members: Vec<Pattern> = set.patterns().to_vec();
    if members.is_empty() {
        return set.clone();
    }
    let victim = rng.gen_range(0..members.len());
    if !candidates.is_empty() && rng.gen_bool(0.5) {
        members[victim] = candidates[rng.gen_range(0..candidates.len())];
    } else {
        let palette: Vec<mps_dfg::Color> = adfg.dfg().color_set().iter().collect();
        let mut colors: Vec<mps_dfg::Color> = members[victim].colors().to_vec();
        if !colors.is_empty() {
            let slot = rng.gen_range(0..colors.len());
            colors[slot] = palette[rng.gen_range(0..palette.len())];
            members[victim] = Pattern::from_colors(colors);
        }
    }
    let mutated = PatternSet::from_patterns(members);
    if mutated.covers(&adfg.dfg().color_set()) {
        mutated
    } else {
        set.clone() // mutation broke coverage: discard it
    }
}

/// Evolve pattern sets from `seeds` (e.g. the Eq. 8 selection plus a few
/// random covering draws). `candidates` supplies mutation swap targets —
/// pass the §5.1 pattern-table patterns, or `&[]` for recolor-only.
pub fn evolve_patterns(
    adfg: &AnalyzedDfg,
    seeds: &[PatternSet],
    candidates: &[Pattern],
    cfg: GeneticConfig,
    sched: MultiPatternConfig,
) -> GeneticResult {
    assert!(!seeds.is_empty(), "need at least one seed individual");
    assert!(cfg.population >= 2 && cfg.tournament >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluated = 0usize;

    // Seed population: the given seeds cycled, mutated past the first
    // copy so the population starts diverse. Genomes first (they drive
    // the RNG), then one fitness batch.
    let individuals: Vec<PatternSet> = (0..cfg.population)
        .map(|i| {
            let base = &seeds[i % seeds.len()];
            if i < seeds.len() {
                base.clone()
            } else {
                mutate(adfg, base, candidates, &mut rng)
            }
        })
        .collect();
    let fits = fitness_batch(adfg, &individuals, sched);
    evaluated += individuals.len();
    let mut pop: Vec<(usize, PatternSet)> = fits.into_iter().zip(individuals).collect();
    let initial_cycles = pop
        .iter()
        .take(seeds.len())
        .map(|(f, _)| *f)
        .min()
        .expect("population is non-empty");

    for _gen in 0..cfg.generations {
        pop.sort_by_key(|(f, _)| *f);
        let pick = |rng: &mut StdRng| -> usize {
            (0..cfg.tournament)
                .map(|_| rng.gen_range(0..pop.len()))
                .min()
                .expect("tournament ≥ 1")
        };
        let children: Vec<PatternSet> = (1..cfg.population)
            .map(|_| {
                let (pa, pb) = (pick(&mut rng), pick(&mut rng));
                let mut child = crossover(adfg, &pop[pa].1, &pop[pb].1, &mut rng);
                if rng.gen_range(0..100u32) < cfg.mutation_pct {
                    child = mutate(adfg, &child, candidates, &mut rng);
                }
                child
            })
            .collect();
        let fits = fitness_batch(adfg, &children, sched);
        evaluated += children.len();
        let mut next: Vec<(usize, PatternSet)> = Vec::with_capacity(cfg.population);
        next.push(pop[0].clone()); // elitism
        next.extend(fits.into_iter().zip(children));
        pop = next;
    }

    pop.sort_by_key(|(f, _)| *f);
    let (cycles, patterns) = pop.swap_remove(0);
    GeneticResult {
        patterns,
        cycles,
        initial_cycles,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_workloads::{fig2, fig4};

    fn quick() -> GeneticConfig {
        GeneticConfig {
            population: 8,
            generations: 6,
            seed: 3,
            ..Default::default()
        }
    }

    fn eq8(adfg: &AnalyzedDfg, pdef: usize) -> PatternSet {
        crate::select::select_patterns(
            adfg,
            &crate::SelectConfig {
                pdef,
                span_limit: Some(1),
                parallel: false,
                ..Default::default()
            },
        )
        .patterns
    }

    #[test]
    fn elitism_guarantees_never_worse() {
        let adfg = AnalyzedDfg::new(fig2());
        let seed = eq8(&adfg, 3);
        let r = evolve_patterns(&adfg, &[seed], &[], quick(), Default::default());
        assert!(r.cycles <= r.initial_cycles);
        assert!(r.patterns.covers(&adfg.dfg().color_set()));
    }

    #[test]
    fn deterministic_per_seed() {
        let adfg = AnalyzedDfg::new(fig4());
        let seed = eq8(&adfg, 2);
        let a = evolve_patterns(
            &adfg,
            std::slice::from_ref(&seed),
            &[],
            quick(),
            Default::default(),
        );
        let b = evolve_patterns(&adfg, &[seed], &[], quick(), Default::default());
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn multiple_seeds_all_enter_the_population() {
        let adfg = AnalyzedDfg::new(fig2());
        let s1 = eq8(&adfg, 2);
        let s2 = PatternSet::parse("abc abc").unwrap(); // collapses to 1
        let r = evolve_patterns(&adfg, &[s1.clone(), s2], &[], quick(), Default::default());
        // Best seed is s1; elitism keeps the result at least that good.
        let s1_cycles = schedule_multi_pattern(&adfg, &s1, Default::default())
            .unwrap()
            .schedule
            .len();
        assert!(r.cycles <= s1_cycles);
    }

    #[test]
    fn crossover_repairs_coverage() {
        let adfg = AnalyzedDfg::new(fig2());
        let mut rng = StdRng::seed_from_u64(9);
        let a = PatternSet::parse("aaaaa bbbbb ccccc").unwrap();
        let b = PatternSet::parse("abc").unwrap();
        for _ in 0..50 {
            let child = crossover(&adfg, &a, &b, &mut rng);
            assert!(child.covers(&adfg.dfg().color_set()));
        }
    }

    #[test]
    fn evaluation_accounting() {
        let adfg = AnalyzedDfg::new(fig4());
        let seed = eq8(&adfg, 2);
        let cfg = quick();
        let r = evolve_patterns(&adfg, &[seed], &[], cfg, Default::default());
        // population seeds + (population − 1 elite) children per generation.
        assert_eq!(
            r.evaluated,
            cfg.population + cfg.generations * (cfg.population - 1)
        );
    }
}
