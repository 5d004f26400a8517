//! Complete (sampling-free) verification of gate-level and mapped
//! netlists: against an algebraic multiplier specification, or a
//! mapping against the source netlist it came from.
//!
//! Every output cone is rewritten into its GF(2) polynomial over the
//! primary inputs — gates via [`netlist::algebra`], LUTs by expanding
//! their truth tables' algebraic normal form
//! ([`crate::lut::Truth::anf`]) and substituting input polynomials —
//! and the result is compared *syntactically* with the expected
//! polynomial. The ANF is canonical, so syntactic equality is
//! functional equality: a pass certifies the netlist on every input
//! assignment, and a fail names the first differing output bit. Output
//! bits are independent, so the check fans across threads with
//! `std::thread::scope`.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use netlist::algebra::{self, MulSpec, Poly, TermBudgetExceeded};
use netlist::Netlist;

use crate::lut::{LutNetlist, Signal};

/// Why a formal check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormalError {
    /// The input or output counts differ, so no function was compared.
    Interface,
    /// The polynomials differ: the netlist computes another function.
    Mismatch {
        /// The lowest-index output bit that differs.
        output_bit: usize,
        /// Expected monomials the netlist's polynomial lacks.
        missing: usize,
        /// Netlist monomials the expected polynomial lacks.
        spurious: usize,
    },
    /// Extracting a polynomial needed a product expansion over
    /// [`algebra::MAX_PRODUCT_TERMS`]; nothing was proved either way.
    TermBudget {
        /// The lowest-index output bit whose extraction was refused.
        output_bit: usize,
        /// Terms the refused expansion would have generated.
        terms: usize,
    },
}

/// Formally verifies a gate-level netlist against `spec`. Each worker
/// extracts its own output cone, which only contains the partial
/// products its coordinate uses.
pub fn verify_netlist(spec: &MulSpec, net: &Netlist) -> Result<(), FormalError> {
    check_outputs(
        [
            (spec.num_inputs(), spec.m()),
            (net.num_inputs(), net.outputs().len()),
        ],
        |k| Ok(Cow::Borrowed(spec.output(k))),
        |k| algebra::output_poly(net, k),
    )
}

/// Formally verifies a mapped LUT netlist against `spec`, expanding
/// each LUT through the algebraic normal form of its truth table.
///
/// # Panics
///
/// Panics if the LUT netlist is not topologically ordered (run
/// [`crate::lint::lint_mapped`] first — the pipeline wrappers do).
pub fn verify_mapped(spec: &MulSpec, mapped: &LutNetlist) -> Result<(), FormalError> {
    check_outputs(
        [(spec.num_inputs(), spec.m()), mapped_interface(mapped)],
        |k| Ok(Cow::Borrowed(spec.output(k))),
        |k| output_poly_mapped(mapped, k),
    )
}

/// Proves that `mapped` computes the same function as `reference`, the
/// gate netlist it was mapped from: per output bit, the source cone's
/// polynomial must equal the mapped cone's. No specification is
/// involved, so any XOR/AND design — not only multipliers — can be
/// checked, within the term budget.
///
/// # Panics
///
/// Panics if the LUT netlist is not topologically ordered (run
/// [`crate::lint::lint_mapped`] first — the pipeline does).
pub fn verify_equivalent(reference: &Netlist, mapped: &LutNetlist) -> Result<(), FormalError> {
    check_outputs(
        [
            (reference.num_inputs(), reference.outputs().len()),
            mapped_interface(mapped),
        ],
        |k| algebra::output_poly(reference, k).map(Cow::Owned),
        |k| output_poly_mapped(mapped, k),
    )
}

/// `(inputs, outputs)` of a mapped netlist.
fn mapped_interface(mapped: &LutNetlist) -> (usize, usize) {
    (mapped.input_names().len(), mapped.outputs().len())
}

/// The GF(2) polynomial computed by mapped output `k`.
///
/// # Panics
///
/// Panics if `k` is out of range or the netlist is not topologically
/// ordered.
pub fn output_poly_mapped(mapped: &LutNetlist, k: usize) -> Result<Poly, TermBudgetExceeded> {
    let (_, sig) = &mapped.outputs()[k];
    Ok(match sig {
        Signal::Input(i) => Poly::var(*i),
        Signal::Const(b) => Poly::constant(*b),
        Signal::Lut(root) => lut_cone_poly(mapped, *root)?,
    })
}

/// Expands the cone of LUT `root` into its polynomial: each in-cone
/// LUT's ANF is substituted with its input polynomials, ascending by
/// LUT id (which the topological-order invariant makes a valid
/// evaluation order). Work follows the cone, not the netlist.
fn lut_cone_poly(mapped: &LutNetlist, root: u32) -> Result<Poly, TermBudgetExceeded> {
    let luts = mapped.luts();
    let mut seen = HashSet::new();
    let mut cone = Vec::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if !seen.insert(i) {
            continue;
        }
        cone.push(i);
        for s in &luts[i as usize].inputs {
            if let Signal::Lut(j) = *s {
                assert!(
                    j < i,
                    "LUT {i} reads LUT {j}: not topologically ordered (lint first)"
                );
                stack.push(j);
            }
        }
    }
    cone.sort_unstable();
    let mut table: Vec<Poly> = Vec::with_capacity(cone.len());
    for &i in &cone {
        let lut = &luts[i as usize];
        let n = lut.inputs.len();
        let input_polys: Vec<Cow<'_, Poly>> = lut
            .inputs
            .iter()
            .map(|s| match *s {
                Signal::Input(v) => Cow::Owned(Poly::var(v)),
                Signal::Const(b) => Cow::Owned(Poly::constant(b)),
                Signal::Lut(j) => {
                    let at = cone.binary_search(&j).expect("operands are in the cone");
                    Cow::Borrowed(&table[at])
                }
            })
            .collect();
        let mut acc = Poly::zero();
        for mask in lut.truth.anf(n) {
            // Π of the selected input polynomials; multiply small
            // factors first to keep intermediates tight, and stop on a
            // vanished product (a Const(false) input, say).
            let mut factors: Vec<&Poly> = (0..n)
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| &*input_polys[b])
                .collect();
            factors.sort_by_key(|p| p.len());
            let Some((first, rest)) = factors.split_first() else {
                acc = acc + Poly::one();
                continue;
            };
            let mut term = Cow::Borrowed(*first);
            for f in rest {
                if term.is_zero() {
                    break;
                }
                term = Cow::Owned(term.checked_mul(f)?);
            }
            acc = acc + term.into_owned();
        }
        table.push(acc);
    }
    Ok(table.pop().expect("root is in its own cone"))
}

/// The fewest output bits worth fanning across threads.
const PARALLEL_MIN_OUTPUTS: usize = 32;

/// Compares the expected and extracted polynomials of every output
/// bit, once the two `(inputs, outputs)` interfaces agree. Bits fan
/// across threads; the lowest failing bit is reported (deterministic
/// regardless of thread count or scheduling). The expected side may
/// borrow (a spec) or compute (a source cone).
fn check_outputs<'a, E, G>(
    [want_io, got_io]: [(usize, usize); 2],
    expected: E,
    got: G,
) -> Result<(), FormalError>
where
    E: Fn(usize) -> Result<Cow<'a, Poly>, TermBudgetExceeded> + Sync,
    G: Fn(usize) -> Result<Poly, TermBudgetExceeded> + Sync,
{
    if want_io != got_io {
        return Err(FormalError::Interface);
    }
    let n = want_io.1;
    let check_bit = |k: usize| -> Result<(), FormalError> {
        let over = |e: TermBudgetExceeded| FormalError::TermBudget {
            output_bit: k,
            terms: e.terms,
        };
        let want = expected(k).map_err(over)?;
        diff_bit(&want, &got(k).map_err(over)?, k).map_or(Ok(()), Err)
    };
    // Spawning workers costs more than a small design's whole check.
    if n < PARALLEL_MIN_OUTPUTS {
        return (0..n).try_for_each(check_bit);
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, FormalError)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                if let Err(e) = check_bit(k) {
                    failures.lock().expect("formal failure list").push((k, e));
                }
            });
        }
    });
    let failures = failures.into_inner().expect("formal failure list");
    failures
        .into_iter()
        .min_by_key(|&(k, _)| k)
        .map_or(Ok(()), |(_, e)| Err(e))
}

/// `None` when equal; otherwise the monomial-set difference counts,
/// via one sorted merge (both polynomials are canonical).
fn diff_bit(want: &Poly, got: &Poly, output_bit: usize) -> Option<FormalError> {
    if want == got {
        return None;
    }
    let (a, b) = (want.monomials(), got.monomials());
    let (mut i, mut j) = (0, 0);
    let (mut missing, mut spurious) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                spurious += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    missing += a.len() - i;
    spurious += b.len() - j;
    Some(FormalError::Mismatch {
        output_bit,
        missing,
        spurious,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::algebra::Monomial;

    /// Hand-built 2-bit multiplier spec over GF(2^2), f = y² + y + 1:
    /// c0 = a0b0 + a1b1, c1 = a0b1 + a1b0 + a1b1.
    fn gf4_spec() -> MulSpec {
        let c0 = Poly::from_monomials(vec![Monomial::product(&[0, 2]), Monomial::product(&[1, 3])]);
        let c1 = Poly::from_monomials(vec![
            Monomial::product(&[0, 3]),
            Monomial::product(&[1, 2]),
            Monomial::product(&[1, 3]),
        ]);
        MulSpec::new(2, vec![c0, c1])
    }

    fn gf4_netlist() -> Netlist {
        let mut net = Netlist::new("gf4");
        let a0 = net.input("a0");
        let a1 = net.input("a1");
        let b0 = net.input("b0");
        let b1 = net.input("b1");
        let p00 = net.and(a0, b0);
        let p01 = net.and(a0, b1);
        let p10 = net.and(a1, b0);
        let p11 = net.and(a1, b1);
        let c0 = net.xor(p00, p11);
        let c1a = net.xor(p01, p10);
        let c1 = net.xor(c1a, p11);
        net.output("c0", c0);
        net.output("c1", c1);
        net
    }

    #[test]
    fn gate_level_verification_accepts_a_correct_multiplier() {
        assert_eq!(verify_netlist(&gf4_spec(), &gf4_netlist()), Ok(()));
    }

    #[test]
    fn gate_level_verification_pinpoints_a_wrong_output() {
        let mut net = Netlist::new("gf4bad");
        let a0 = net.input("a0");
        let a1 = net.input("a1");
        let b0 = net.input("b0");
        let b1 = net.input("b1");
        let p00 = net.and(a0, b0);
        let p01 = net.and(a0, b1);
        let p10 = net.and(a1, b0);
        let p11 = net.and(a1, b1);
        let c0 = net.xor(p00, p11);
        let c1 = net.xor(p01, p10); // dropped the p11 term
        net.output("c0", c0);
        net.output("c1", c1);
        let d = verify_netlist(&gf4_spec(), &net).unwrap_err();
        assert_eq!(
            d,
            FormalError::Mismatch {
                output_bit: 1,
                missing: 1,
                spurious: 0
            }
        );
    }

    #[test]
    fn mapped_verification_expands_lut_cones() {
        use crate::lut::{Lut, LutNetlist, Signal, Truth};
        // Same GF(4) multiplier as two 4-input LUTs.
        let names = vec!["a0".into(), "a1".into(), "b0".into(), "b1".into()];
        let mut mapped = LutNetlist::new("gf4map".into(), 4, names);
        // Truth tables from the spec polynomials directly.
        let spec = gf4_spec();
        let mut t0 = Truth::ZERO;
        let mut t1 = Truth::ZERO;
        for idx in 0..16usize {
            let assignment: Vec<bool> = (0..4).map(|v| idx >> v & 1 == 1).collect();
            if spec.output(0).eval(&assignment) {
                t0.0[0] |= 1 << idx;
            }
            if spec.output(1).eval(&assignment) {
                t1.0[0] |= 1 << idx;
            }
        }
        let inputs: Vec<Signal> = (0..4).map(Signal::Input).collect();
        let l0 = mapped.push_lut(Lut {
            inputs: inputs.clone(),
            truth: t0,
        });
        let l1 = mapped.push_lut(Lut { inputs, truth: t1 });
        mapped.push_output("c0".into(), Signal::Lut(l0));
        mapped.push_output("c1".into(), Signal::Lut(l1));
        assert_eq!(verify_mapped(&spec, &mapped), Ok(()));

        // Flip one truth bit: caught, naming the right output.
        let mut broken = mapped.clone();
        let mut bad = t1;
        bad.0[0] ^= 1 << 5;
        broken.set_truth(l1, bad);
        let Err(FormalError::Mismatch {
            output_bit,
            missing,
            spurious,
        }) = verify_mapped(&spec, &broken)
        else {
            panic!("a flipped truth bit must be a mismatch");
        };
        assert_eq!(output_bit, 1);
        assert!(missing + spurious > 0);
        // The source netlist proves the same mapping without a spec.
        assert_eq!(verify_equivalent(&gf4_netlist(), &mapped), Ok(()));
        assert!(matches!(
            verify_equivalent(&gf4_netlist(), &broken),
            Err(FormalError::Mismatch { output_bit: 1, .. })
        ));
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        use crate::lut::{LutNetlist, Signal};
        let spec = MulSpec::new(2, vec![Poly::var(0), Poly::zero()]);
        let names = vec!["a0".into(), "a1".into(), "b0".into(), "b1".into()];
        let mut mapped = LutNetlist::new("wires".into(), 4, names);
        mapped.push_output("c0".into(), Signal::Input(0));
        mapped.push_output("c1".into(), Signal::Const(false));
        assert_eq!(verify_mapped(&spec, &mapped), Ok(()));
        let wrong = MulSpec::new(2, vec![Poly::var(0), Poly::one()]);
        let d = verify_mapped(&wrong, &mapped).unwrap_err();
        assert_eq!(
            d,
            FormalError::Mismatch {
                output_bit: 1,
                missing: 1,
                spurious: 0
            }
        );
    }

    #[test]
    fn diff_counts_are_symmetric_set_differences() {
        let a = Poly::from_monomials(vec![
            Monomial::var(0),
            Monomial::var(1),
            Monomial::product(&[2, 3]),
        ]);
        let b = Poly::from_monomials(vec![Monomial::var(1), Monomial::var(4)]);
        // Missing x0 and x2x3, spurious x4.
        assert_eq!(
            diff_bit(&a, &b, 7),
            Some(FormalError::Mismatch {
                output_bit: 7,
                missing: 2,
                spurious: 1
            })
        );
        assert!(diff_bit(&a, &a, 0).is_none());
    }
}
