//! The packed polynomial engine against the reference algebra it
//! replaced (`oracle/`): equal polynomials, identical printed form and
//! monomial order, and identical term-budget refusals — over random
//! XOR/AND netlists with constants, repeated roots, cubic-and-up cones
//! and over-budget OR chains, and over random polynomials whose
//! monomials straddle the packed and fallback representations.

mod oracle;

use netlist::algebra::{self, ConeScratch, Monomial, Poly};
use netlist::{Gate, Netlist, NodeId};
use proptest::prelude::*;

/// One construction step over the nodes built so far.
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Xor(usize, usize),
    /// `a ∨ b` as `a ⊕ b ⊕ ab` (three raw gates).
    Or(usize, usize),
    Const(bool),
}

#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    steps: Vec<Step>,
    /// Output picks over all nodes (repeats allowed).
    outputs: Vec<usize>,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..256, 0usize..256).prop_map(|(op, a, b)| match op {
        0..=3 => Step::And(a, b),
        4..=7 => Step::Xor(a, b),
        8 => Step::Or(a, b),
        _ => Step::Const(a % 2 == 1),
    })
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        1usize..=8,
        proptest::collection::vec(arb_step(), 1..48),
        proptest::collection::vec(0usize..256, 1..6),
    )
        .prop_map(|(inputs, steps, outputs)| Recipe {
            inputs,
            steps,
            outputs,
        })
}

/// Builds with raw gates, so nothing folds: `x ⊕ x`, `x·x`, constant
/// operands and duplicate gates all reach the extractor.
fn build(recipe: &Recipe) -> Netlist {
    let mut net = Netlist::new("random");
    let mut nodes: Vec<NodeId> = (0..recipe.inputs)
        .map(|i| net.input(format!("x{i}")))
        .collect();
    for step in &recipe.steps {
        let pick = |i: usize| nodes[i % nodes.len()];
        let n = match *step {
            Step::And(a, b) => net.push_raw(Gate::And(pick(a), pick(b))),
            Step::Xor(a, b) => net.push_raw(Gate::Xor(pick(a), pick(b))),
            Step::Or(a, b) => {
                let (a, b) = (pick(a), pick(b));
                let both = net.push_raw(Gate::And(a, b));
                let either = net.push_raw(Gate::Xor(a, b));
                net.push_raw(Gate::Xor(either, both))
            }
            Step::Const(c) => net.push_raw(Gate::Const(c)),
        };
        nodes.push(n);
    }
    for (k, &o) in recipe.outputs.iter().enumerate() {
        net.output(format!("y{k}"), nodes[o % nodes.len()]);
    }
    net
}

/// `Ok(())` when the engine's result is the oracle's in every
/// observable way; otherwise what differs.
fn agree(
    got: &Result<Poly, algebra::TermBudgetExceeded>,
    want: &Result<oracle::Poly, usize>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(p), Ok(q)) => {
            let order: Vec<Vec<u32>> = p.monomials().map(|m| m.vars().to_vec()).collect();
            if order != q.var_lists() {
                return Err(format!("monomials {order:?} vs {:?}", q.var_lists()));
            }
            if p.to_string() != q.to_string() {
                return Err(format!("display {p} vs {q}"));
            }
            if p.len() != q.len() {
                return Err(format!("len {} vs {}", p.len(), q.len()));
            }
            Ok(())
        }
        (Err(e), Err(terms)) if e.terms == *terms => Ok(()),
        (got, want) => Err(format!("{got:?} vs {want:?}")),
    }
}

fn check_netlist(net: &Netlist) -> Result<(), TestCaseError> {
    // All outputs in one pass.
    let got = algebra::output_polys(net);
    let want = oracle::output_polys(net);
    match (&got, &want) {
        (Ok(ps), Ok(qs)) => {
            for (k, (p, q)) in ps.iter().zip(qs).enumerate() {
                let r = agree(&Ok(p.clone()), &Ok(q.clone()));
                prop_assert!(r.is_ok(), "output {k}: {:?}", r);
            }
        }
        (Err(e), Err(terms)) => prop_assert_eq!(e.terms, *terms),
        _ => prop_assert!(false, "{:?} vs {:?}", got.map(|_| ()), want.map(|_| ())),
    }
    // One output at a time through one recycled scratch.
    let mut scratch = ConeScratch::new();
    for k in 0..net.outputs().len() {
        let got = scratch.output_poly(net, k);
        let r = agree(&got, &oracle::output_poly(net, k));
        prop_assert!(r.is_ok(), "output {k} alone: {:?}", r);
        if let Ok(p) = got {
            scratch.recycle(p);
        }
    }
    Ok(())
}

/// `x0 ∨ … ∨ x{n-1}` as a chain of `x ⊕ y ⊕ xy` (`2^n − 1` terms).
fn or_chain(n: usize) -> Netlist {
    let mut net = Netlist::new(format!("or{n}"));
    let ins: Vec<_> = (0..n).map(|i| net.input(format!("x{i}"))).collect();
    let mut acc = ins[0];
    for &x in &ins[1..] {
        let both = net.and(acc, x);
        let either = net.xor(acc, x);
        acc = net.xor(either, both);
    }
    net.output("y", acc);
    net
}

/// A monomial over a few low variables and the top of the `u32`
/// range, where the packed key runs out.
fn arb_monomial() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        (0u32..12, any::<bool>()).prop_map(|(v, top)| if top && v < 3 { u32::MAX - v } else { v }),
        0..5,
    )
}

fn both_polys(monos: &[Vec<u32>]) -> (Poly, oracle::Poly) {
    let new = Poly::from_monomials(monos.iter().map(|m| Monomial::product(m)));
    let old = oracle::Poly::from_monomials(monos.iter().map(|m| {
        let mut v = m.clone();
        v.sort_unstable();
        v.dedup();
        oracle::Monomial(v.into_boxed_slice())
    }));
    (new, old)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_oracle_on_random_netlists(recipe in arb_recipe()) {
        check_netlist(&build(&recipe))?;
    }

    #[test]
    fn poly_arithmetic_matches_oracle(
        a in proptest::collection::vec(arb_monomial(), 0..12),
        b in proptest::collection::vec(arb_monomial(), 0..12),
    ) {
        let (pa, qa) = both_polys(&a);
        let (pb, qb) = both_polys(&b);
        let r = agree(&Ok(pa.clone()), &Ok(qa.clone()));
        prop_assert!(r.is_ok(), "from_monomials: {:?}", r);
        let r = agree(&Ok(pa.clone() + pb.clone()), &Ok(qa.add(&qb)));
        prop_assert!(r.is_ok(), "sum: {:?}", r);
        let mut sum = pa.clone();
        sum += &pb;
        prop_assert_eq!(&sum, &(pa.clone() + pb.clone()));
        let r = agree(&Ok(pa.mul(&pb)), &Ok(qa.mul(&qb)));
        prop_assert!(r.is_ok(), "product: {:?}", r);
        let degree = qa.0.iter().map(|m| m.0.len()).max();
        prop_assert_eq!(pa.degree(), degree);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// OR chains past the budget refuse at the same expansion with the
    /// same term count; a wide sum-of-products refuses before
    /// expanding anything.
    #[test]
    fn budget_refusals_match_oracle(n in 15usize..=18, width in 200usize..400) {
        check_netlist(&or_chain(n))?;
        let mut net = Netlist::new("wide");
        let ins: Vec<_> = (0..2 * width).map(|i| net.input(format!("x{i}"))).collect();
        let left = net.xor_balanced(&ins[..width]);
        let right = net.xor_balanced(&ins[width..]);
        let y = net.and(left, right);
        net.output("y", y);
        check_netlist(&net)?;
    }
}
