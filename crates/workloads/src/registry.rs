//! Name-based workload lookup for the CLI and benches.

use crate::{
    broom, cholesky, conv2d, cordic, dct8, dft, fft_radix2, fig2, fig4, fir, horner,
    iir_biquad_cascade, lattice, matmul, random_layered_dag, sobel, star, AdderShape, DftStyle,
    RandomDagConfig,
};
use mps_dfg::Dfg;

/// The names [`by_name`] understands.
pub fn workload_names() -> Vec<&'static str> {
    vec![
        "fig2",
        "fig4",
        "dft3",
        "dft5",
        "dft<N>",
        "dft<N>-direct",
        "fir<T>",
        "fir<T>-chain",
        "iir<S>",
        "dct8",
        "matmul<N>",
        "fft<N>",
        "conv<K>",
        "horner<D>",
        "cholesky<N>",
        "lattice<M>",
        "cordic<I>",
        "sobel<P>",
        "star<N>",
        "broom<N>",
        "random<SEED>",
    ]
}

/// Most nodes a parameterized name may ask for. The largest kernels the
/// tests and benchmarks name have a few thousand nodes (`fir4096` has
/// 8191); a name whose graph could exceed this is refused before anything
/// is built, so a name sent over the wire cannot make a daemon build a
/// graph of billions of nodes.
const MAX_NODES: usize = 1 << 16;

/// One parameterized family, named `<prefix><param><suffix>`.
struct Family {
    prefix: &'static str,
    suffix: &'static str,
    /// Smallest valid parameter.
    min: usize,
    /// An upper bound on the node count of the graph for `param`, or
    /// `None` when `param` names no graph or the bound overflows.
    nodes: fn(usize) -> Option<usize>,
    build: fn(usize) -> Dfg,
}

/// `k · n^e`, or `None` on overflow.
fn scaled_power(k: usize, n: usize, e: u32) -> Option<usize> {
    n.checked_pow(e)?.checked_mul(k)
}

/// Every parameterized family. A suffixed family precedes the plain one
/// sharing its prefix, whose parameter would not parse with the suffix.
const FAMILIES: [Family; 15] = [
    Family {
        prefix: "dft",
        suffix: "-direct",
        min: 2,
        nodes: |n| scaled_power(8, n, 2),
        build: |n| dft(n, DftStyle::Direct),
    },
    Family {
        prefix: "dft",
        suffix: "",
        min: 2,
        nodes: |n| scaled_power(8, n, 2),
        build: |n| dft(n, DftStyle::Auto),
    },
    Family {
        prefix: "fir",
        suffix: "-chain",
        min: 1,
        nodes: |taps| scaled_power(2, taps, 1),
        build: |taps| fir(taps, 1, AdderShape::Chain),
    },
    Family {
        prefix: "fir",
        suffix: "",
        min: 1,
        nodes: |taps| scaled_power(2, taps, 1),
        build: |taps| fir(taps, 1, AdderShape::Tree),
    },
    Family {
        prefix: "iir",
        suffix: "",
        min: 1,
        nodes: |sections| scaled_power(9, sections, 1),
        build: iir_biquad_cascade,
    },
    Family {
        prefix: "fft",
        suffix: "",
        min: 2,
        // n/2 butterflies per level, log2(n) levels, a few nodes each.
        nodes: |n| match n.checked_ilog2() {
            Some(log) if n.is_power_of_two() => scaled_power(4 * (log as usize + 1), n, 1),
            _ => None,
        },
        build: fft_radix2,
    },
    Family {
        prefix: "conv",
        suffix: "",
        min: 1,
        nodes: |k| scaled_power(8, k, 2),
        build: |k| conv2d(k, 2, 2),
    },
    Family {
        prefix: "horner",
        suffix: "",
        min: 1,
        nodes: |degree| scaled_power(8, degree, 1),
        build: |degree| horner(degree, 4),
    },
    Family {
        prefix: "matmul",
        suffix: "",
        min: 1,
        nodes: |n| scaled_power(2, n, 3),
        build: matmul,
    },
    Family {
        prefix: "cholesky",
        suffix: "",
        min: 1,
        nodes: |n| scaled_power(1, n, 3),
        build: cholesky,
    },
    Family {
        prefix: "lattice",
        suffix: "",
        min: 1,
        nodes: |stages| scaled_power(4, stages, 1),
        build: lattice,
    },
    Family {
        prefix: "cordic",
        suffix: "",
        min: 1,
        nodes: |iterations| scaled_power(5, iterations, 1),
        build: cordic,
    },
    Family {
        prefix: "sobel",
        suffix: "",
        min: 1,
        nodes: |pixels| scaled_power(23, pixels, 1),
        build: sobel,
    },
    Family {
        prefix: "star",
        suffix: "",
        min: 1,
        nodes: |leaves| leaves.checked_add(2),
        build: star,
    },
    Family {
        prefix: "broom",
        suffix: "",
        min: 1,
        nodes: |n| n.checked_add(1),
        build: broom,
    },
];

/// Build a workload by name. Parameterized names embed their parameter,
/// e.g. `dft5`, `fir16`, `fir16-chain`, `iir4`, `matmul4`, `random42`,
/// `dft8-direct`. A parameter whose graph could exceed 65 536 nodes
/// names nothing.
pub fn by_name(name: &str) -> Option<Dfg> {
    match name {
        "fig2" => return Some(fig2()),
        "fig4" => return Some(fig4()),
        "dct8" => return Some(dct8()),
        _ => {}
    }
    if let Some(rest) = name.strip_prefix("random") {
        // The seed picks the edges, not the size.
        let seed: u64 = rest.parse().ok()?;
        return Some(random_layered_dag(&RandomDagConfig {
            seed,
            ..Default::default()
        }));
    }
    let (family, param) = FAMILIES.iter().find_map(|family| {
        let param = name
            .strip_prefix(family.prefix)?
            .strip_suffix(family.suffix)?
            .parse::<usize>()
            .ok()?;
        Some((family, param))
    })?;
    let nodes = (family.nodes)(param)?;
    (param >= family.min && nodes <= MAX_NODES).then(|| (family.build)(param))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_names_resolve() {
        for name in [
            "fig2",
            "fig4",
            "dft3",
            "dft5",
            "dct8",
            "fir8",
            "fir8-chain",
            "iir3",
            "matmul3",
            "random7",
            "dft6-direct",
            "fft8",
            "fft16",
            "conv3",
            "horner5",
            "cholesky4",
            "lattice6",
            "cordic8",
            "sobel4",
            "star16",
            "broom64",
        ] {
            assert!(by_name(name).is_some(), "{name} must resolve");
        }
    }

    #[test]
    fn bad_names_do_not_resolve() {
        for name in [
            "",
            "nope",
            "dft1",
            "dftx",
            "fir0",
            "matmul0",
            "randomx",
            "fft6",
            "fft1",
            "conv0",
            "horner0",
            "cholesky0",
            "lattice0",
            "cordic0",
            "sobel0",
            "sobelx",
            "star0",
            "starx",
            "broom0",
            "broomy",
            // Past the node bound, or overflowing it: refused unbuilt.
            "fir4294967296",
            "fir18446744073709551615",
            "dft100000",
            "dft100000-direct",
            "matmul100000",
            "cholesky100000",
            "fft1099511627776",
            "star18446744073709551615",
            "broom18446744073709551615",
            "sobel4294967296",
        ] {
            assert!(by_name(name).is_none(), "{name} must not resolve");
        }
    }

    #[test]
    fn node_bounds_cover_every_family() {
        for family in &FAMILIES {
            for param in (family.min..family.min + 9).chain([16]) {
                let Some(bound) = (family.nodes)(param) else {
                    continue;
                };
                let name = format!("{}{param}{}", family.prefix, family.suffix);
                let g = by_name(&name).expect("a bounded name resolves");
                assert!(g.len() <= bound, "{name}: {} nodes > {bound}", g.len());
            }
        }
    }

    #[test]
    fn names_list_is_nonempty() {
        assert!(workload_names().len() >= 10);
    }
}
