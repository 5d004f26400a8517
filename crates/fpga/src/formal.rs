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
//! `std::thread::scope`; each worker keeps one scratch (dense cone
//! index, recycled polynomial buffers) across the bits it checks.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use netlist::algebra::{ConeIndex, ConeScratch, MulSpec, Poly, TermBudgetExceeded};
use netlist::Netlist;

use crate::lut::{LutNetlist, Signal, MAX_LUT_INPUTS};

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
    /// [`netlist::algebra::MAX_PRODUCT_TERMS`]; nothing was proved
    /// either way.
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
        ConeScratch::new,
        |gates, k| {
            let got = gates.output_poly(net, k).map_err(over(k))?;
            let verdict = diff_bit(spec.output(k), &got, k);
            gates.recycle(got);
            verdict
        },
    )
}

/// Formally verifies a mapped LUT netlist against `spec`, expanding
/// each LUT through the algebraic normal form of its truth table.
///
/// # Panics
///
/// Panics if the LUT netlist is not topologically ordered (run
/// [`crate::lint::lint_mapped_errors`] first — the pipeline wrappers
/// do).
pub fn verify_mapped(spec: &MulSpec, mapped: &LutNetlist) -> Result<(), FormalError> {
    check_outputs(
        [(spec.num_inputs(), spec.m()), mapped_interface(mapped)],
        || LutScratch::new(mapped),
        |luts, k| {
            let got = luts.output_poly(mapped, k).map_err(over(k))?;
            diff_bit(spec.output(k), got, k)
        },
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
/// [`crate::lint::lint_mapped_errors`] first — the pipeline does).
pub fn verify_equivalent(reference: &Netlist, mapped: &LutNetlist) -> Result<(), FormalError> {
    check_outputs(
        [
            (reference.num_inputs(), reference.outputs().len()),
            mapped_interface(mapped),
        ],
        || (ConeScratch::new(), LutScratch::new(mapped)),
        |(gates, luts), k| {
            let want = gates.output_poly(reference, k).map_err(over(k))?;
            let verdict = luts
                .output_poly(mapped, k)
                .map_err(over(k))
                .and_then(|got| diff_bit(&want, got, k));
            gates.recycle(want);
            verdict
        },
    )
}

/// `(inputs, outputs)` of a mapped netlist.
fn mapped_interface(mapped: &LutNetlist) -> (usize, usize) {
    (mapped.input_names().len(), mapped.outputs().len())
}

/// The typed error for a refused extraction at output bit `k`.
fn over(k: usize) -> impl Fn(TermBudgetExceeded) -> FormalError {
    move |e| FormalError::TermBudget {
        output_bit: k,
        terms: e.terms,
    }
}

/// Working memory for expanding LUT cones, reused from one output bit
/// to the next: the dense cone index, one polynomial buffer per cone
/// position, and the leaf polynomials LUT inputs read.
struct LutScratch {
    index: ConeIndex,
    /// The polynomial of each cone LUT, by cone position.
    table: Vec<Poly>,
    /// `x_v` for each declared primary input `v`.
    inputs: Vec<Poly>,
    /// The constants `0` and `1`.
    constants: [Poly; 2],
    /// A running product and its next value.
    term: Poly,
    next: Poly,
}

impl LutScratch {
    fn new(mapped: &LutNetlist) -> LutScratch {
        let n = mapped.input_names().len();
        LutScratch {
            index: ConeIndex::default(),
            table: Vec::new(),
            inputs: (0..n as u32).map(Poly::var).collect(),
            constants: [Poly::zero(), Poly::one()],
            term: Poly::zero(),
            next: Poly::zero(),
        }
    }

    /// The polynomial of mapped output `k`, held in the scratch.
    fn output_poly(&mut self, mapped: &LutNetlist, k: usize) -> Result<&Poly, TermBudgetExceeded> {
        match mapped.outputs()[k].1 {
            Signal::Lut(root) => self.lut_cone_poly(mapped, root),
            s => {
                self.term = leaf(&self.inputs, &self.constants, s).into_owned();
                Ok(&self.term)
            }
        }
    }

    /// Expands the cone of LUT `root` into its polynomial: each in-cone
    /// LUT's ANF is substituted with its input polynomials, ascending
    /// by LUT id (which the topological-order invariant makes a valid
    /// evaluation order). Work follows the cone, not the netlist.
    fn lut_cone_poly(
        &mut self,
        mapped: &LutNetlist,
        root: u32,
    ) -> Result<&Poly, TermBudgetExceeded> {
        let LutScratch {
            index,
            table,
            inputs,
            constants,
            term,
            next,
        } = self;
        let luts = mapped.luts();
        index.collect(luts.len(), [root], |i, stack| {
            for s in &luts[i as usize].inputs {
                if let Signal::Lut(j) = *s {
                    assert!(
                        j < i,
                        "LUT {i} reads LUT {j}: not topologically ordered (lint first)"
                    );
                    stack.push(j);
                }
            }
        });
        let cone = index.cone();
        if table.len() < cone.len() {
            table.resize_with(cone.len(), Poly::zero);
        }
        for (at, &i) in cone.iter().enumerate() {
            let lut = &luts[i as usize];
            let (done, rest) = table.split_at_mut(at);
            let acc = &mut rest[0];
            acc.clear();
            let input_polys: Vec<Cow<'_, Poly>> = lut
                .inputs
                .iter()
                .map(|&s| match s {
                    Signal::Lut(j) => Cow::Borrowed(&done[index.slot(j)]),
                    s => leaf(inputs, constants, s),
                })
                .collect();
            for mask in lut.truth.anf(lut.inputs.len()) {
                // Π of the selected input polynomials; multiply small
                // factors first to keep intermediates tight, and stop on
                // a vanished product (a Const(false) input, say).
                let mut factors = [&constants[0]; MAX_LUT_INPUTS];
                let mut count = 0;
                for (b, p) in input_polys.iter().enumerate() {
                    if mask >> b & 1 == 1 {
                        factors[count] = p;
                        count += 1;
                    }
                }
                let factors = &mut factors[..count];
                factors.sort_by_key(|p| p.len());
                let Some((first, rest)) = factors.split_first() else {
                    *acc += &constants[1];
                    continue;
                };
                let Some((second, rest)) = rest.split_first() else {
                    *acc += *first;
                    continue;
                };
                if first.is_zero() {
                    continue;
                }
                first.checked_mul_into(second, term)?;
                for f in rest {
                    if term.is_zero() {
                        break;
                    }
                    term.checked_mul_into(f, next)?;
                    std::mem::swap(term, next);
                }
                *acc += &*term;
            }
        }
        Ok(&table[cone.len() - 1])
    }
}

/// The leaf polynomial of a primary input or constant signal (an
/// undeclared input still reads as its variable).
fn leaf<'a>(inputs: &'a [Poly], constants: &'a [Poly; 2], s: Signal) -> Cow<'a, Poly> {
    match s {
        Signal::Input(v) => inputs
            .get(v as usize)
            .map_or_else(|| Cow::Owned(Poly::var(v)), Cow::Borrowed),
        Signal::Const(b) => Cow::Borrowed(&constants[usize::from(b)]),
        Signal::Lut(_) => unreachable!("a LUT signal is not a leaf"),
    }
}

/// The fewest output bits worth fanning across threads.
const PARALLEL_MIN_OUTPUTS: usize = 32;

/// Checks every output bit with `check_bit`, once the two
/// `(inputs, outputs)` interfaces agree. Bits fan across threads, each
/// worker with its own working memory from `worker`; the lowest
/// failing bit is reported (deterministic regardless of thread count
/// or scheduling).
fn check_outputs<W>(
    [want_io, got_io]: [(usize, usize); 2],
    worker: impl Fn() -> W + Sync,
    check_bit: impl Fn(&mut W, usize) -> Result<(), FormalError> + Sync,
) -> Result<(), FormalError> {
    if want_io != got_io {
        return Err(FormalError::Interface);
    }
    let n = want_io.1;
    // Spawning workers costs more than a small design's whole check.
    if n < PARALLEL_MIN_OUTPUTS {
        let mut w = worker();
        return (0..n).try_for_each(|k| check_bit(&mut w, k));
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, FormalError)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                let mut w = worker();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    if let Err(e) = check_bit(&mut w, k) {
                        failures.lock().expect("formal failure list").push((k, e));
                    }
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

/// `Ok` when equal; otherwise the monomial-set difference counts, via
/// one sorted merge (both polynomials are canonical).
fn diff_bit(want: &Poly, got: &Poly, output_bit: usize) -> Result<(), FormalError> {
    if want == got {
        return Ok(());
    }
    let (mut a, mut b) = (want.monomials().peekable(), got.monomials().peekable());
    let (mut missing, mut spurious) = (0, 0);
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => {
                missing += 1;
                a.next();
            }
            std::cmp::Ordering::Greater => {
                spurious += 1;
                b.next();
            }
            std::cmp::Ordering::Equal => {
                a.next();
                b.next();
            }
        }
    }
    Err(FormalError::Mismatch {
        output_bit,
        missing: missing + a.count(),
        spurious: spurious + b.count(),
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
            Err(FormalError::Mismatch {
                output_bit: 7,
                missing: 2,
                spurious: 1
            })
        );
        assert_eq!(diff_bit(&a, &a, 0), Ok(()));
    }
}
