//! Selection configuration.

/// Parameters of the pattern selection algorithm.
///
/// The paper's constants are `ε = 0.5` and `α = 20` (§5.2, "In our system");
/// `capacity` is the Montium's `C = 5`. The three boolean toggles exist for
/// the ablation benches (the paper's stated future work is tuning this
/// priority function):
///
/// * `size_bonus` — the `α·|p̄|²` term; without it, `{bb}` and `{b}` tie in
///   the paper's own worked example and the bigger pattern is picked only
///   by luck;
/// * `balancing` — the `Σ_{selected} h + ε` denominator; without it the
///   selector keeps re-buying antichains it already covered;
/// * `color_condition` — Eq. 9; without it some colors can end up in no
///   pattern and scheduling fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectConfig {
    /// Number of patterns to select (`Pdef`).
    pub pdef: usize,
    /// ALUs per tile (`C`), bounding pattern and antichain size.
    pub capacity: usize,
    /// Span limit for antichain enumeration (`None` = unlimited). Theorem 1
    /// motivates small limits; Table 5 quantifies the candidate-set
    /// reduction.
    pub span_limit: Option<u32>,
    /// Eq. 8's ε (divisor guard / balancing softness).
    pub epsilon: f64,
    /// Eq. 8's α (pattern-size bonus weight).
    pub alpha: f64,
    /// Enable the `α·|p̄|²` term.
    pub size_bonus: bool,
    /// Enable the balancing denominator.
    pub balancing: bool,
    /// Enforce the color number condition (Eq. 9).
    pub color_condition: bool,
    /// Pad fabricated patterns to full capacity with extra slots allocated
    /// proportionally to the graph's color histogram. The paper's Fig. 7
    /// fabricates from the uncovered colors only (its Fig. 4 example
    /// produces `{ab}` on a 5-ALU tile, leaving 3 dummies), which wastes
    /// slots whenever fabrication triggers; padding is a strict
    /// improvement but is off by default to stay paper-exact.
    pub pad_fabricated: bool,
    /// Let the two remaining intra-compile fan-outs use threads: the
    /// exhaustive search's subset batches ([`crate::exhaustive_best`],
    /// the one fan-out measured to pay on two cores) and, through
    /// [`SelectConfig::enumerate_config`], the enumeration roots of
    /// [`mps_patterns::PatternTable::build_reference`]. Nothing else in a
    /// compile reads it, and no decision depends on it. On by default;
    /// callers that already run one compile per thread (the `mps-serve`
    /// workers, `mps::Session::compile_batch_in`) turn it off so there is
    /// one level of parallelism.
    pub parallel: bool,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            pdef: 4,
            capacity: 5,
            span_limit: None,
            epsilon: 0.5,
            alpha: 20.0,
            size_bonus: true,
            balancing: true,
            color_condition: true,
            pad_fabricated: false,
            parallel: true,
        }
    }
}

impl SelectConfig {
    /// Paper defaults with a given `Pdef`.
    pub fn with_pdef(pdef: usize) -> SelectConfig {
        SelectConfig {
            pdef,
            ..Default::default()
        }
    }

    /// The enumeration config implied by this selection config.
    pub fn enumerate_config(&self) -> mps_patterns::EnumerateConfig {
        mps_patterns::EnumerateConfig {
            capacity: self.capacity,
            span_limit: self.span_limit,
            parallel: self.parallel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SelectConfig::default();
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.alpha, 20.0);
        assert_eq!(c.capacity, 5);
        assert!(c.size_bonus && c.balancing && c.color_condition);
        assert!(
            !c.pad_fabricated,
            "padding is a documented extension, off by default"
        );
    }

    #[test]
    fn with_pdef_sets_only_pdef() {
        let c = SelectConfig::with_pdef(2);
        assert_eq!(c.pdef, 2);
        assert_eq!(c.capacity, 5);
    }

    #[test]
    fn enumerate_config_propagates() {
        let c = SelectConfig {
            span_limit: Some(3),
            capacity: 4,
            parallel: false,
            ..Default::default()
        };
        let e = c.enumerate_config();
        assert_eq!(e.capacity, 4);
        assert_eq!(e.span_limit, Some(3));
        assert!(!e.parallel);
    }
}
