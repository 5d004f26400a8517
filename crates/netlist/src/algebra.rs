//! GF(2) polynomial expressions over primary inputs — the algebraic
//! view of a netlist that makes *complete* verification possible.
//!
//! Every combinational XOR/AND netlist computes, at each node, a
//! polynomial over GF(2) in its primary-input variables: an AND gate
//! multiplies its operand polynomials, an XOR gate adds them, and the
//! variables are idempotent (`x² = x`) because they only take the
//! values 0 and 1. Substituting gate polynomials through a cone
//! therefore yields the node's *algebraic normal form* — a canonical
//! object, so two nodes compute the same function **iff** their
//! polynomials are syntactically equal. This is the rewriting-based
//! verification of Yu/Ciesielski (arXiv:1612.04588, 1802.06870) that
//! `rgf2m_fpga::Pipeline::verify_formal` builds on: no sampling, no
//! escapes.
//!
//! * [`Monomial`] — a product of distinct input variables;
//! * [`Poly`] — a GF(2) sum of distinct monomials (sparse, canonical);
//! * [`node_poly`] / [`output_poly`] / [`output_polys`] — cone
//!   extraction over a [`Netlist`], every product expansion held to
//!   [`MAX_PRODUCT_TERMS`];
//! * [`MulSpec`] — the per-output-bit specification of a GF(2^m)
//!   multiplier (constructed by `rgf2m_core::multiplier_spec`, consumed
//!   by the formal verifier without a field-arithmetic dependency).
//!
//! # Examples
//!
//! ```
//! use netlist::algebra::{node_poly, Poly};
//! use netlist::Netlist;
//!
//! let mut net = Netlist::new("maj-ish");
//! let a = net.input("a");
//! let b = net.input("b");
//! let ab = net.and(a, b);
//! let y = net.xor(ab, a);
//! net.output("y", y);
//! let p = node_poly(&net, y)?;
//! assert_eq!(p.to_string(), "x0 + x0*x1");
//! assert_eq!(p, Poly::var(0) + Poly::var(0).mul(&Poly::var(1)));
//! # Ok::<(), netlist::algebra::TermBudgetExceeded>(())
//! ```

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

use crate::{Gate, Netlist, NodeId};

/// The most monomials one product expansion may generate (the product
/// of its operands' term counts, before mod-2 cancellation).
///
/// A bilinear GF(2^m) multiplier stays far inside it — the largest
/// expansion in any GF(2^571) check, six methods on four fabrics, is
/// 7 terms — while a non-bilinear cone such as an `n`-input OR chain
/// (`2^n − 1` terms) hits it after 17 inputs instead of exhausting
/// memory.
pub const MAX_PRODUCT_TERMS: usize = 1 << 16;

/// A product expansion that would exceed [`MAX_PRODUCT_TERMS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermBudgetExceeded {
    /// Terms the refused expansion would have generated.
    pub terms: usize,
}

impl fmt::Display for TermBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a product expansion needs {} terms, over the budget of {MAX_PRODUCT_TERMS}",
            self.terms
        )
    }
}

impl std::error::Error for TermBudgetExceeded {}

/// A product of distinct input variables over GF(2), e.g. `x0*x3`.
///
/// Variables are stored as sorted, deduplicated indices; the empty
/// product is the constant `1`. Because inputs only take the values 0
/// and 1, variables are idempotent: `x·x = x`, which
/// [`Monomial::union`] applies by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Monomial(Box<[u32]>);

impl Monomial {
    /// The empty product — the constant `1`.
    pub fn one() -> Monomial {
        Monomial(Box::new([]))
    }

    /// The single variable `x_v`.
    pub fn var(v: u32) -> Monomial {
        Monomial(Box::new([v]))
    }

    /// The product of the given variables (sorted and deduplicated, so
    /// any order and repetition yields the same canonical monomial).
    pub fn product(vars: &[u32]) -> Monomial {
        let mut v = vars.to_vec();
        v.sort_unstable();
        v.dedup();
        Monomial(v.into_boxed_slice())
    }

    /// The distinct variable indices, ascending.
    pub fn vars(&self) -> &[u32] {
        &self.0
    }

    /// Number of distinct variables (0 for the constant `1`).
    pub fn degree(&self) -> usize {
        self.0.len()
    }

    /// The product of two monomials (`x·x = x`: a sorted set union).
    pub fn union(&self, other: &Monomial) -> Monomial {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Monomial(out.into_boxed_slice())
    }

    /// Evaluates the monomial under an assignment (`assignment[v]` is
    /// the value of `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.0.iter().all(|&v| assignment[v as usize])
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            write!(f, "x{v}")?;
        }
        Ok(())
    }
}

/// A polynomial over GF(2): a set of distinct [`Monomial`]s combined by
/// XOR, kept sorted — a canonical (algebraic normal form)
/// representation, so equality of polynomials is equality of functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly(Vec<Monomial>);

impl Poly {
    /// The zero polynomial (constant `false`).
    pub fn zero() -> Poly {
        Poly(Vec::new())
    }

    /// The unit polynomial (constant `true`).
    pub fn one() -> Poly {
        Poly(vec![Monomial::one()])
    }

    /// The single variable `x_v`.
    pub fn var(v: u32) -> Poly {
        Poly(vec![Monomial::var(v)])
    }

    /// A constant polynomial.
    pub fn constant(value: bool) -> Poly {
        if value {
            Poly::one()
        } else {
            Poly::zero()
        }
    }

    /// Builds a polynomial from any monomial sequence, canonicalizing
    /// mod 2: monomials are sorted and *pairs of equal monomials
    /// cancel* (an even number of copies vanishes, an odd number keeps
    /// one).
    pub fn from_monomials(monomials: impl IntoIterator<Item = Monomial>) -> Poly {
        let mut m: Vec<Monomial> = monomials.into_iter().collect();
        m.sort_unstable();
        let mut out = Vec::with_capacity(m.len());
        let mut iter = m.into_iter().peekable();
        while let Some(mono) = iter.next() {
            let mut copies = 1usize;
            while iter.peek() == Some(&mono) {
                iter.next();
                copies += 1;
            }
            if copies % 2 == 1 {
                out.push(mono);
            }
        }
        Poly(out)
    }

    /// The monomials, sorted ascending.
    pub fn monomials(&self) -> &[Monomial] {
        &self.0
    }

    /// Number of monomials.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    /// Alias of [`Poly::is_zero`], for the conventional container
    /// reading of an empty monomial set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The largest monomial degree (0 for constants; `None` when zero).
    pub fn degree(&self) -> Option<usize> {
        self.0.iter().map(Monomial::degree).max()
    }

    /// GF(2) multiplication (AND): all pairwise monomial products,
    /// canonicalized (idempotent variables, mod-2 cancellation).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut products = Vec::with_capacity(self.0.len() * other.0.len());
        for a in &self.0 {
            for b in &other.0 {
                products.push(a.union(b));
            }
        }
        Poly::from_monomials(products)
    }

    /// [`Poly::mul`] held to [`MAX_PRODUCT_TERMS`]: refuses, before
    /// allocating anything, an expansion that would generate more
    /// terms than the budget.
    pub fn checked_mul(&self, other: &Poly) -> Result<Poly, TermBudgetExceeded> {
        let terms = self.len().saturating_mul(other.len());
        if terms > MAX_PRODUCT_TERMS {
            return Err(TermBudgetExceeded { terms });
        }
        Ok(self.mul(other))
    }

    /// Evaluates the polynomial under an assignment (`assignment[v]`
    /// is the value of `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.0.iter().fold(false, |acc, m| acc ^ m.eval(assignment))
    }
}

impl std::ops::Add for Poly {
    type Output = Poly;

    /// GF(2) addition (XOR): the symmetric difference of the monomial
    /// sets, via one sorted merge that moves the operands' monomials
    /// instead of cloning them.
    fn add(self, other: Poly) -> Poly {
        let (mut a, mut b) = (
            self.0.into_iter().peekable(),
            other.0.into_iter().peekable(),
        );
        let mut out = Vec::with_capacity(a.len() + b.len());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.cmp(y) {
                Ordering::Less => out.extend(a.next()),
                Ordering::Greater => out.extend(b.next()),
                Ordering::Equal => {
                    // 1 + 1 = 0: both copies cancel.
                    a.next();
                    b.next();
                }
            }
        }
        out.extend(a);
        out.extend(b);
        Poly(out)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "0");
        }
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

/// The polynomial computed by each of the given nodes, extracted in one
/// forward pass over the union of their cones.
///
/// Work and memory follow the cone, not the netlist: one output cone of
/// a wide multiplier is a small slice of it. Intermediate polynomials
/// are dropped as soon as their last in-cone consumer has been
/// processed, so peak memory follows the live frontier. Every AND
/// expands through [`Poly::checked_mul`], so a cone whose polynomial
/// outgrows the budget is an error rather than a hang.
pub fn node_polys(net: &Netlist, roots: &[NodeId]) -> Result<Vec<Poly>, TermBudgetExceeded> {
    // The cone ascending by node id is a valid evaluation order
    // (operands precede users); everything below indexes into it.
    let mut seen = HashSet::new();
    let mut cone = Vec::new();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        cone.push(n);
        if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(n) {
            stack.push(a);
            stack.push(b);
        }
    }
    cone.sort_unstable();
    let pos = |n: NodeId| cone.binary_search(&n).expect("operands are in the cone");
    // Remaining uses of each node's polynomial: in-cone gate operands
    // plus one per root reference.
    let mut uses = vec![0usize; cone.len()];
    for &id in &cone {
        if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
            uses[pos(a)] += 1;
            uses[pos(b)] += 1;
        }
    }
    for &r in roots {
        uses[pos(r)] += 1;
    }
    let mut table: Vec<Option<Poly>> = vec![None; cone.len()];
    // Takes one use of cone node `j`: its last use moves the polynomial
    // out, earlier ones clone it.
    let claim = |table: &mut [Option<Poly>], uses: &mut [usize], j: usize| {
        uses[j] -= 1;
        let p = if uses[j] == 0 {
            table[j].take()
        } else {
            table[j].clone()
        };
        p.expect("operands precede users, and roots are in the cone")
    };
    for (i, &id) in cone.iter().enumerate() {
        let poly = match net.gate(id) {
            Gate::Input(v) => Poly::var(v),
            Gate::Const(c) => Poly::constant(c),
            Gate::And(a, b) => {
                let (ia, ib) = (pos(a), pos(b));
                let p = match (&table[ia], &table[ib]) {
                    (Some(pa), Some(pb)) => pa.checked_mul(pb)?,
                    _ => unreachable!("operands precede users"),
                };
                for j in [ia, ib] {
                    uses[j] -= 1;
                    if uses[j] == 0 {
                        table[j] = None;
                    }
                }
                p
            }
            Gate::Xor(a, b) => {
                let pa = claim(&mut table, &mut uses, pos(a));
                pa + claim(&mut table, &mut uses, pos(b))
            }
        };
        if uses[i] > 0 {
            table[i] = Some(poly);
        }
    }
    Ok(roots
        .iter()
        .map(|&r| claim(&mut table, &mut uses, pos(r)))
        .collect())
}

/// The polynomial computed by one node.
pub fn node_poly(net: &Netlist, node: NodeId) -> Result<Poly, TermBudgetExceeded> {
    Ok(node_polys(net, &[node])?
        .pop()
        .expect("one root yields one polynomial"))
}

/// The polynomial of primary output `k` (by declaration order).
///
/// # Panics
///
/// Panics if `k` is out of range.
pub fn output_poly(net: &Netlist, k: usize) -> Result<Poly, TermBudgetExceeded> {
    let (_, node) = net.outputs()[k];
    node_poly(net, node)
}

/// The polynomials of all primary outputs, sharing one forward pass
/// over the combined cone (shared logic is expanded once).
pub fn output_polys(net: &Netlist) -> Result<Vec<Poly>, TermBudgetExceeded> {
    let roots: Vec<NodeId> = net.outputs().iter().map(|(_, n)| *n).collect();
    node_polys(net, &roots)
}

/// The complete algebraic specification of a GF(2^m) polynomial-basis
/// multiplier: one [`Poly`] per product coordinate `c_k` of
/// `a(x)·b(x) mod f(x)`.
///
/// The variable numbering matches the `a0..a{m-1}, b0..b{m-1}` input
/// order every generator in `rgf2m_core` emits: `a_i` is variable `i`
/// and `b_j` is variable `m + j`. Constructed by
/// `rgf2m_core::multiplier_spec` from a field; defined here so the
/// formal verifier in `rgf2m_fpga` can consume it without a
/// field-arithmetic dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulSpec {
    m: usize,
    outputs: Vec<Poly>,
}

impl MulSpec {
    /// Wraps the per-output-bit spec polynomials.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `m` polynomials are supplied.
    pub fn new(m: usize, outputs: Vec<Poly>) -> MulSpec {
        assert_eq!(
            outputs.len(),
            m,
            "a GF(2^m) multiplier spec needs one polynomial per output bit"
        );
        MulSpec { m, outputs }
    }

    /// The extension degree `m` (= number of output bits).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The number of primary inputs a conforming netlist has (`2m`).
    pub fn num_inputs(&self) -> usize {
        2 * self.m
    }

    /// All spec polynomials, `c_0` first.
    pub fn outputs(&self) -> &[Poly] {
        &self.outputs
    }

    /// The spec polynomial of coordinate `c_k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ m`.
    pub fn output(&self, k: usize) -> &Poly {
        &self.outputs[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_canonicalization_and_idempotence() {
        assert_eq!(Monomial::product(&[3, 0, 3, 0]), Monomial::product(&[0, 3]));
        assert_eq!(Monomial::var(2).union(&Monomial::var(2)), Monomial::var(2));
        assert_eq!(
            Monomial::product(&[0, 2]).union(&Monomial::product(&[1, 2])),
            Monomial::product(&[0, 1, 2])
        );
        assert_eq!(Monomial::one().degree(), 0);
        assert_eq!(Monomial::one().to_string(), "1");
        assert_eq!(Monomial::product(&[0, 3]).to_string(), "x0*x3");
    }

    #[test]
    fn addition_is_mod_2() {
        let p = Poly::var(0) + Poly::var(1);
        assert!((p.clone() + p.clone()).is_zero());
        assert_eq!(p.clone() + Poly::zero(), p);
        assert_eq!(Poly::one() + Poly::one(), Poly::zero());
        // Disjoint sums merge sorted.
        let q = Poly::var(2) + p;
        assert_eq!(q.to_string(), "x0 + x1 + x2");
    }

    #[test]
    fn multiplication_is_idempotent_and_cancels() {
        let x0 = Poly::var(0);
        assert_eq!(x0.mul(&x0), x0); // x² = x
        let p = Poly::var(0) + Poly::var(1);
        // (x0 + x1)² = x0 + x1 over GF(2) with idempotent variables:
        // the cross terms x0*x1 appear twice and cancel.
        assert_eq!(p.mul(&p), p);
        assert_eq!(p.mul(&Poly::zero()), Poly::zero());
        assert_eq!(p.mul(&Poly::one()), p);
    }

    #[test]
    fn from_monomials_cancels_pairs() {
        let m = Monomial::product(&[1, 2]);
        let p = Poly::from_monomials(vec![m.clone(), Monomial::var(0), m.clone(), m.clone()]);
        assert_eq!(p.monomials(), &[Monomial::var(0), m]);
        let q = Poly::from_monomials(vec![Monomial::var(5), Monomial::var(5)]);
        assert!(q.is_zero());
        assert_eq!(q.to_string(), "0");
    }

    #[test]
    fn degree_and_len() {
        let p = Poly::one() + Poly::var(0).mul(&Poly::var(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.degree(), Some(2));
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::one().degree(), Some(0));
    }

    fn sample_net() -> Netlist {
        // y = (a & b) ^ (b & c) ^ a  — a small mixed cone.
        let mut net = Netlist::new("s");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let ab = net.and(a, b);
        let bc = net.and(b, c);
        let x = net.xor(ab, bc);
        let y = net.xor(x, a);
        net.output("y", y);
        net
    }

    #[test]
    fn cone_extraction_matches_hand_algebra() {
        let net = sample_net();
        let p = output_poly(&net, 0).unwrap();
        let expect = Poly::from_monomials(vec![
            Monomial::var(0),
            Monomial::product(&[0, 1]),
            Monomial::product(&[1, 2]),
        ]);
        assert_eq!(p, expect);
    }

    #[test]
    fn extracted_polys_agree_with_simulation() {
        let net = sample_net();
        let p = output_poly(&net, 0).unwrap();
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(p.eval(&ins), net.eval_bool(&ins)[0], "input {bits:03b}");
        }
    }

    #[test]
    fn output_polys_match_per_output_extraction() {
        let mut net = Netlist::new("two");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let ab = net.and(a, b);
        let s = net.xor(ab, c);
        net.output("s", s);
        net.output("p", ab); // shares the AND with the first cone
        net.output("s2", s); // repeated root
        let all = output_polys(&net).unwrap();
        for (k, p) in all.iter().enumerate() {
            assert_eq!(p, &output_poly(&net, k).unwrap(), "output {k}");
        }
        assert_eq!(all[0], all[2]);
    }

    #[test]
    fn constants_extract_as_constants() {
        let mut net = Netlist::new("c");
        let a = net.input("a");
        let t = net.constant(true);
        let y = net.xor(a, t); // NOT a = 1 + x0
        net.output("y", y);
        let p = output_poly(&net, 0).unwrap();
        assert_eq!(p, Poly::one() + Poly::var(0));
        assert_eq!(p.to_string(), "1 + x0");
    }

    #[test]
    fn mul_spec_shape() {
        let spec = MulSpec::new(2, vec![Poly::var(0), Poly::var(1)]);
        assert_eq!(spec.m(), 2);
        assert_eq!(spec.num_inputs(), 4);
        assert_eq!(spec.outputs().len(), 2);
        assert_eq!(spec.output(1), &Poly::var(1));
    }

    #[test]
    #[should_panic(expected = "one polynomial per output bit")]
    fn mul_spec_rejects_wrong_arity() {
        MulSpec::new(3, vec![Poly::zero()]);
    }
}
