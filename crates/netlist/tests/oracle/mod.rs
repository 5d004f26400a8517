//! The reference algebra the packed engine in `netlist::algebra`
//! replaced, kept as a test oracle: every monomial a heap-allocated
//! sorted variable list, every cone walked with a hash set. Slow and
//! obviously exact; the engine must agree with it on polynomials,
//! their printed form, their monomial order and term-budget refusals.
//!
//! Shared by the netlist and FPGA test suites (`#[path]`-included).

#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

use netlist::algebra::MAX_PRODUCT_TERMS;
use netlist::{Gate, Netlist, NodeId};

/// A product of distinct variables, sorted; empty is the constant 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Monomial(pub Box<[u32]>);

impl Monomial {
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

/// A sorted set of distinct monomials.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly(pub Vec<Monomial>);

impl Poly {
    pub fn var(v: u32) -> Poly {
        Poly(vec![Monomial(Box::new([v]))])
    }

    pub fn constant(value: bool) -> Poly {
        Poly(if value {
            vec![Monomial(Box::new([]))]
        } else {
            Vec::new()
        })
    }

    /// Sorts and cancels equal monomials in pairs.
    pub fn from_monomials(monomials: impl IntoIterator<Item = Monomial>) -> Poly {
        let mut m: Vec<Monomial> = monomials.into_iter().collect();
        m.sort_unstable();
        let mut out: Vec<Monomial> = Vec::with_capacity(m.len());
        for mono in m {
            if out.last() == Some(&mono) {
                out.pop();
            } else {
                out.push(mono);
            }
        }
        Poly(out)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    pub fn add(&self, other: &Poly) -> Poly {
        Poly::from_monomials(self.0.iter().chain(&other.0).cloned())
    }

    pub fn mul(&self, other: &Poly) -> Poly {
        Poly::from_monomials(
            self.0
                .iter()
                .flat_map(|a| other.0.iter().map(move |b| a.union(b))),
        )
    }

    /// The product, or the refused term count.
    pub fn checked_mul(&self, other: &Poly) -> Result<Poly, usize> {
        let terms = self.len().saturating_mul(other.len());
        if terms > MAX_PRODUCT_TERMS {
            return Err(terms);
        }
        Ok(self.mul(other))
    }

    /// Each monomial's variable list, ascending.
    pub fn var_lists(&self) -> Vec<Vec<u32>> {
        self.0.iter().map(|m| m.0.to_vec()).collect()
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

/// The polynomial of each root, by one forward pass over the union of
/// their cones (ascending node id); `Err` carries the refused term
/// count of the first over-budget AND in that order.
pub fn node_polys(net: &Netlist, roots: &[NodeId]) -> Result<Vec<Poly>, usize> {
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
    let mut table: Vec<Poly> = Vec::with_capacity(cone.len());
    for &id in &cone {
        let poly = match net.gate(id) {
            Gate::Input(v) => Poly::var(v),
            Gate::Const(c) => Poly::constant(c),
            Gate::And(a, b) => table[pos(a)].checked_mul(&table[pos(b)])?,
            Gate::Xor(a, b) => table[pos(a)].add(&table[pos(b)]),
        };
        table.push(poly);
    }
    Ok(roots.iter().map(|&r| table[pos(r)].clone()).collect())
}

/// The polynomial of primary output `k`.
pub fn output_poly(net: &Netlist, k: usize) -> Result<Poly, usize> {
    let (_, node) = net.outputs()[k];
    Ok(node_polys(net, &[node])?.remove(0))
}

/// The polynomials of all primary outputs.
pub fn output_polys(net: &Netlist) -> Result<Vec<Poly>, usize> {
    let roots: Vec<NodeId> = net.outputs().iter().map(|(_, n)| *n).collect();
    node_polys(net, &roots)
}

/// `(missing, spurious)`: monomials of `want` absent from `got`, and
/// the reverse.
pub fn diff(want: &Poly, got: &Poly) -> (usize, usize) {
    let w: HashSet<&Monomial> = want.0.iter().collect();
    let g: HashSet<&Monomial> = got.0.iter().collect();
    (w.difference(&g).count(), g.difference(&w).count())
}
