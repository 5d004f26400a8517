//! The formal checks against the reference algebra the packed engine
//! replaced: over random and truth-bit-flipped LUT netlists,
//! `verify_mapped` and `verify_equivalent` must return exactly the
//! `FormalError` a straightforward sequential check over the oracle
//! polynomials returns — the same lowest failing bit, the same
//! missing/spurious counts, the same refused term count.

#[path = "../../netlist/tests/oracle/mod.rs"]
mod oracle;

use std::collections::HashSet;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use netlist::{MulSpec, Netlist, NodeId, Poly};
use proptest::prelude::*;
use rgf2m_core::{generate, multiplier_spec, Method};
use rgf2m_fpga::formal::{verify_equivalent, verify_mapped, FormalError};
use rgf2m_fpga::lut::{LutNetlist, Signal, Truth};
use rgf2m_fpga::{Pipeline, Target};

/// The ANF of a `vars`-input truth table, entry by entry.
fn anf(t: Truth, vars: usize) -> Vec<u32> {
    let n = 1usize << vars;
    let mut a: Vec<bool> = (0..n).map(|idx| t.bit(idx)).collect();
    for v in 0..vars {
        let step = 1usize << v;
        for mask in 0..n {
            if mask & step != 0 {
                a[mask] ^= a[mask ^ step];
            }
        }
    }
    (0..n).filter(|&m| a[m]).map(|m| m as u32).collect()
}

/// The oracle polynomial of a leaf signal.
fn leaf(s: Signal) -> oracle::Poly {
    match s {
        Signal::Input(v) => oracle::Poly::var(v),
        Signal::Const(b) => oracle::Poly::constant(b),
        Signal::Lut(_) => unreachable!("not a leaf"),
    }
}

/// The oracle polynomial of mapped output `k`: the cone ascending by
/// LUT id, each LUT's ANF substituted with its input polynomials,
/// factors multiplied smallest first until the product vanishes.
fn oracle_mapped(mapped: &LutNetlist, k: usize) -> Result<oracle::Poly, usize> {
    let root = match mapped.outputs()[k].1 {
        Signal::Lut(root) => root,
        s => return Ok(leaf(s)),
    };
    let luts = mapped.luts();
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if seen.insert(i) {
            for s in &luts[i as usize].inputs {
                if let Signal::Lut(j) = *s {
                    stack.push(j);
                }
            }
        }
    }
    let mut cone: Vec<u32> = seen.into_iter().collect();
    cone.sort_unstable();
    let mut table: Vec<oracle::Poly> = Vec::new();
    for &i in &cone {
        let lut = &luts[i as usize];
        let inputs: Vec<oracle::Poly> = lut
            .inputs
            .iter()
            .map(|&s| match s {
                Signal::Lut(j) => table[cone.binary_search(&j).unwrap()].clone(),
                s => leaf(s),
            })
            .collect();
        let mut acc = oracle::Poly::default();
        for mask in anf(lut.truth, lut.inputs.len()) {
            let mut factors: Vec<&oracle::Poly> = (0..inputs.len())
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| &inputs[b])
                .collect();
            factors.sort_by_key(|p| p.len());
            let Some((first, rest)) = factors.split_first() else {
                acc = acc.add(&oracle::Poly::constant(true));
                continue;
            };
            let mut term = (*first).clone();
            for f in rest {
                if term.is_zero() {
                    break;
                }
                term = term.checked_mul(f)?;
            }
            acc = acc.add(&term);
        }
        table.push(acc);
    }
    Ok(table.pop().expect("root is in its own cone"))
}

/// The reference verdict: bit by bit, expected side first, the first
/// failure wins.
fn oracle_check(
    [want_io, got_io]: [(usize, usize); 2],
    want: impl Fn(usize) -> Result<oracle::Poly, usize>,
    got: impl Fn(usize) -> Result<oracle::Poly, usize>,
) -> Result<(), FormalError> {
    if want_io != got_io {
        return Err(FormalError::Interface);
    }
    for k in 0..want_io.1 {
        let over = |terms| FormalError::TermBudget {
            output_bit: k,
            terms,
        };
        let w = want(k).map_err(over)?;
        let g = got(k).map_err(over)?;
        if w != g {
            let (missing, spurious) = oracle::diff(&w, &g);
            return Err(FormalError::Mismatch {
                output_bit: k,
                missing,
                spurious,
            });
        }
    }
    Ok(())
}

fn mapped_io(mapped: &LutNetlist) -> (usize, usize) {
    (mapped.input_names().len(), mapped.outputs().len())
}

/// Both checks against the oracle, for `mapped` derived from `net`.
fn check_against_oracle(
    net: &Netlist,
    spec: &MulSpec,
    mapped: &LutNetlist,
) -> Result<(), TestCaseError> {
    let oracle_spec: Vec<oracle::Poly> = spec
        .outputs()
        .iter()
        .map(|p| {
            oracle::Poly::from_monomials(
                p.monomials()
                    .map(|m| oracle::Monomial(m.vars().to_vec().into_boxed_slice())),
            )
        })
        .collect();
    let want = oracle_check(
        [(spec.num_inputs(), spec.m()), mapped_io(mapped)],
        |k| Ok(oracle_spec[k].clone()),
        |k| oracle_mapped(mapped, k),
    );
    prop_assert_eq!(verify_mapped(spec, mapped), want);
    let want = oracle_check(
        [(net.num_inputs(), net.outputs().len()), mapped_io(mapped)],
        |k| oracle::output_poly(net, k),
        |k| oracle_mapped(mapped, k),
    );
    prop_assert_eq!(verify_equivalent(net, mapped), want);
    Ok(())
}

/// The spec a netlist meets, when its polynomials fit the budget, else
/// the all-zero one.
fn spec_of(net: &Netlist, m: usize) -> MulSpec {
    let outputs = netlist::algebra::output_polys(net).unwrap_or_else(|_| vec![Poly::zero(); m]);
    MulSpec::new(m, outputs)
}

/// Flips truth-table entries: `(LUT pick, entry pick)` pairs.
fn flip(mapped: &mut LutNetlist, flips: &[(usize, usize)]) {
    let n = mapped.num_luts();
    if n == 0 {
        return;
    }
    for &(l, e) in flips {
        let lut = (l % n) as u32;
        let vars = mapped.luts()[lut as usize].inputs.len();
        let entry = e % (1 << vars);
        let mut t = mapped.luts()[lut as usize].truth;
        t.0[entry / 64] ^= 1 << (entry % 64);
        mapped.set_truth(lut, t);
    }
}

#[derive(Debug, Clone)]
struct Recipe {
    m: usize,
    steps: Vec<(u8, usize, usize)>,
    outputs: Vec<usize>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        prop_oneof![1usize..=4, 32usize..=40],
        proptest::collection::vec((0u8..10, 0usize..512, 0usize..512), 1..64),
        proptest::collection::vec(0usize..512, 40),
    )
        .prop_map(|(m, steps, outputs)| Recipe { m, steps, outputs })
}

/// `2m` inputs, `m` outputs: the multiplier interface.
fn build(recipe: &Recipe) -> Netlist {
    let mut net = Netlist::new("random");
    let mut nodes: Vec<NodeId> = (0..2 * recipe.m)
        .map(|i| net.input(format!("x{i}")))
        .collect();
    for &(op, a, b) in &recipe.steps {
        let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
        let n = match op {
            0..=3 => net.and(a, b),
            4..=7 => net.xor(a, b),
            8 => {
                let both = net.and(a, b);
                let either = net.xor(a, b);
                net.xor(either, both)
            }
            _ => net.constant(a.index() % 2 == 1),
        };
        nodes.push(n);
    }
    for k in 0..recipe.m {
        net.output(format!("c{k}"), nodes[recipe.outputs[k] % nodes.len()]);
    }
    net
}

fn field_8_2() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_mappings_match_the_oracle(
        recipe in arb_recipe(),
        target in 0usize..Target::ALL.len(),
        flips in proptest::collection::vec((0usize..256, 0usize..256), 0..4),
    ) {
        let net = build(&recipe);
        let spec = spec_of(&net, recipe.m);
        let p = Pipeline::new().with_target(Target::ALL[target]);
        let mut mapped = p.map(&net).unwrap();
        check_against_oracle(&net, &spec, &mapped)?;
        flip(&mut mapped, &flips);
        check_against_oracle(&net, &spec, &mapped)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flipped_multiplier_mappings_match_the_oracle(
        method in 0usize..Method::ALL.len(),
        target in 0usize..Target::ALL.len(),
        flips in proptest::collection::vec((0usize..4096, 0usize..256), 1..4),
    ) {
        let field = field_8_2();
        let spec = multiplier_spec(&field);
        let net = generate(&field, Method::ALL[method]);
        let p = Pipeline::new().with_target(Target::ALL[target]);
        let mut mapped = p.map(&p.resynth(&net).unwrap()).unwrap();
        check_against_oracle(&net, &spec, &mapped)?;
        flip(&mut mapped, &flips);
        check_against_oracle(&net, &spec, &mapped)?;
    }
}

/// `x0 ∨ … ∨ x{n-1}` as a chain of `x ⊕ y ⊕ xy` (`2^n − 1` terms).
fn or_chain(net: &mut Netlist, ins: &[NodeId]) -> NodeId {
    let mut acc = ins[0];
    for &x in &ins[1..] {
        let both = net.and(acc, x);
        let either = net.xor(acc, x);
        acc = net.xor(either, both);
    }
    acc
}

/// A cone whose polynomial outgrows the term budget, on every one of
/// `m` outputs over `2m` inputs.
#[derive(Debug, Clone, Copy)]
enum Wide {
    /// The OR of all inputs: `2^{2m} − 1` terms, grown one input at a
    /// time.
    Or,
    /// The AND of each half's OR.
    OrTimesOr,
    /// The AND of each half's XOR: one expansion of `m²` terms, which
    /// a mapping splits across its LUT inputs.
    SumTimesSum,
}

fn wide(m: usize, shape: Wide) -> Netlist {
    let mut net = Netlist::new(format!("{shape:?}{m}"));
    let ins: Vec<_> = (0..2 * m).map(|i| net.input(format!("x{i}"))).collect();
    let y = match shape {
        Wide::Or => or_chain(&mut net, &ins),
        Wide::OrTimesOr => {
            let lo = or_chain(&mut net, &ins[..m]);
            let hi = or_chain(&mut net, &ins[m..]);
            net.and(lo, hi)
        }
        Wide::SumTimesSum => {
            let lo = net.xor_balanced(&ins[..m]);
            let hi = net.xor_balanced(&ins[m..]);
            net.and(lo, hi)
        }
    };
    for k in 0..m {
        net.output(format!("c{k}"), y);
    }
    net
}

fn arb_wide() -> impl Strategy<Value = (usize, Wide)> {
    prop_oneof![
        (6usize..=8).prop_map(|m| (m, Wide::Or)),
        (7usize..=9).prop_map(|m| (m, Wide::OrTimesOr)),
        (900usize..=1100).prop_map(|m| (m, Wide::SumTimesSum)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Cones past the term budget refuse at the same output bit with
    /// the same term count as the oracle, flipped or not.
    #[test]
    fn budget_refusals_match_the_oracle(
        (m, shape) in arb_wide(),
        target in 0usize..Target::ALL.len(),
        flips in proptest::collection::vec((0usize..64, 0usize..256), 0..3),
    ) {
        let net = wide(m, shape);
        let spec = spec_of(&net, m);
        let p = Pipeline::new().with_target(Target::ALL[target]);
        let mut mapped = p.map(&net).unwrap();
        flip(&mut mapped, &flips);
        check_against_oracle(&net, &spec, &mapped)?;
    }
}
