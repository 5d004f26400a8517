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
//! * [`node_polys`] / [`output_poly`] / [`output_polys`] — cone
//!   extraction over a [`Netlist`], every product expansion held to
//!   [`MAX_PRODUCT_TERMS`]; [`ConeScratch`] keeps the working memory
//!   of repeated extractions;
//! * [`MulSpec`] — the per-output-bit specification of a GF(2^m)
//!   multiplier (constructed by `rgf2m_core::multiplier_spec`, consumed
//!   by the formal verifier without a field-arithmetic dependency).
//!
//! # Representation
//!
//! Every monomial of a bilinear multiplier has degree ≤ 2, so a
//! [`Poly`] stores those as packed 8-byte keys: `x_a·x_b` (with
//! `a < b`) is `((a+1) << 32) | (b+1)`, `x_a` is `(a+1) << 32` and the
//! constant `1` is `0`. The packing is exact and order-preserving:
//! comparing keys compares the variable lists lexicographically (a
//! missing second variable packs as 0, below every present one), which
//! is the order [`Monomial`] defines. Products of two keys are unions
//! of at most four fields and stay packed while they fit. Every other
//! monomial — degree ≥ 3, or one naming variable `u32::MAX`, whose
//! `+1` would not fit — lives in an exact fallback list of sorted
//! variable slices. Each monomial has exactly one home, so equality
//! stays syntactic, and [`Poly::monomials`] merges the two lists back
//! into the single ascending order.
//!
//! # Examples
//!
//! ```
//! use netlist::algebra::{output_poly, Poly};
//! use netlist::Netlist;
//!
//! let mut net = Netlist::new("maj-ish");
//! let a = net.input("a");
//! let b = net.input("b");
//! let ab = net.and(a, b);
//! let y = net.xor(ab, a);
//! net.output("y", y);
//! let p = output_poly(&net, 0)?;
//! assert_eq!(p.to_string(), "x0 + x0*x1");
//! assert_eq!(p, Poly::var(0) + Poly::var(0).mul(&Poly::var(1)));
//! # Ok::<(), netlist::algebra::TermBudgetExceeded>(())
//! ```

use std::cmp::Ordering;
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

/// The packed key of a monomial, if it has one (see the module docs).
fn pack(vars: &[u32]) -> Option<u64> {
    match *vars {
        [] => Some(0),
        [a] if a < u32::MAX => Some(u64::from(a + 1) << 32),
        [a, b] if b < u32::MAX => Some(u64::from(a + 1) << 32 | u64::from(b + 1)),
        _ => None,
    }
}

/// The variables of a packed key, ascending, and how many there are.
fn unpack(key: u64) -> ([u32; 2], usize) {
    match ((key >> 32) as u32, key as u32) {
        (0, _) => ([0, 0], 0),
        (a, 0) => ([a - 1, 0], 1),
        (a, b) => ([a - 1, b - 1], 2),
    }
}

/// The product of two packed monomials: their packed union when it has
/// at most two variables, else its variable list.
fn union_keys(x: u64, y: u64) -> Result<u64, Box<[u32]>> {
    if x == y || y == 0 {
        return Ok(x);
    }
    if x == 0 {
        return Ok(y);
    }
    let (xa, xb, ya, yb) = (x >> 32, x & 0xffff_ffff, y >> 32, y & 0xffff_ffff);
    if xb == 0 && yb == 0 {
        // Two distinct variables: the bilinear case.
        return Ok(if xa < ya { x | ya } else { y | xa });
    }
    // Merge the (nonzero, ascending) fields of both keys.
    let mut fields = [0u64; 4];
    let mut n = 0;
    for f in [xa, xb, ya, yb] {
        if f != 0 && !fields[..n].contains(&f) {
            fields[n] = f;
            n += 1;
        }
    }
    let fields = &mut fields[..n];
    fields.sort_unstable();
    match *fields {
        [a, b] => Ok(a << 32 | b),
        _ => Err(fields.iter().map(|&f| (f - 1) as u32).collect()),
    }
}

/// The sorted union of two sorted, distinct variable lists.
fn union_vars(a: &[u32], b: &[u32]) -> Vec<u32> {
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
    out
}

/// Sorts `v` and cancels equal elements in pairs (mod 2): an even
/// number of copies vanishes, an odd number keeps one.
fn sort_mod2<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    let (mut w, mut i) = (0, 0);
    while i < v.len() {
        let mut j = i + 1;
        while j < v.len() && v[j] == v[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            v.swap(w, i);
            w += 1;
        }
        i = j;
    }
    v.truncate(w);
}

/// `a ⊕= b` for sorted, distinct keys: a symmetric difference merged
/// in place from the back, so it needs no second buffer.
fn xor_keys(a: &mut Vec<u64>, b: &[u64]) {
    if b.is_empty() {
        return;
    }
    let len = a.len() + b.len();
    let (mut i, mut j, mut w) = (a.len(), b.len(), len);
    a.resize(len, 0);
    // Invariant: w ≥ i + j, so a write never lands on an unread key.
    while i > 0 && j > 0 {
        match a[i - 1].cmp(&b[j - 1]) {
            Ordering::Greater => {
                w -= 1;
                a[w] = a[i - 1];
                i -= 1;
            }
            Ordering::Less => {
                w -= 1;
                a[w] = b[j - 1];
                j -= 1;
            }
            Ordering::Equal => {
                // 1 + 1 = 0: both copies cancel.
                i -= 1;
                j -= 1;
            }
        }
    }
    a[w - j..w].copy_from_slice(&b[..j]);
    w -= j;
    // `a[..i]` is already in place; close the gap above it.
    if w > i {
        a.copy_within(w.., i);
        a.truncate(len - (w - i));
    }
}

/// The symmetric difference of two sorted, distinct lists.
fn xor_sorted<T: Ord>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut out = Vec::with_capacity(a.len() + b.len());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.cmp(y) {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => {
                a.next();
                b.next();
            }
        }
    }
    out.extend(a);
    out.extend(b);
    out
}

/// A product of distinct input variables over GF(2), e.g. `x0*x3`.
///
/// Variables are stored as sorted, deduplicated indices — inline up to
/// degree 2, so a bilinear monomial never allocates; the empty product
/// is the constant `1`. Because inputs only take the values 0 and 1,
/// variables are idempotent: `x·x = x`, which [`Monomial::union`]
/// applies by construction. Monomials order lexicographically by their
/// variable lists.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Monomial(Vars);

/// A monomial's variable list. Degree ≤ 2 is always inline (unused
/// slots zero), so derived equality and hashing are canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Vars {
    Inline([u32; 2], u8),
    Heap(Box<[u32]>),
}

impl Monomial {
    /// The empty product — the constant `1`.
    pub fn one() -> Monomial {
        Monomial(Vars::Inline([0, 0], 0))
    }

    /// The single variable `x_v`.
    pub fn var(v: u32) -> Monomial {
        Monomial(Vars::Inline([v, 0], 1))
    }

    /// The product of the given variables (sorted and deduplicated, so
    /// any order and repetition yields the same canonical monomial).
    pub fn product(vars: &[u32]) -> Monomial {
        match *vars {
            [] => Monomial::one(),
            [a] => Monomial::var(a),
            [a, b] if a == b => Monomial::var(a),
            [a, b] => Monomial(Vars::Inline([a.min(b), a.max(b)], 2)),
            _ => {
                let mut v = vars.to_vec();
                v.sort_unstable();
                v.dedup();
                Monomial::from_sorted(&v)
            }
        }
    }

    /// The monomial of sorted, distinct variables.
    fn from_sorted(vars: &[u32]) -> Monomial {
        match *vars {
            [] => Monomial::one(),
            [a] => Monomial::var(a),
            [a, b] => Monomial(Vars::Inline([a, b], 2)),
            _ => Monomial(Vars::Heap(vars.into())),
        }
    }

    /// The monomial of a packed key.
    fn unpacked(key: u64) -> Monomial {
        let (vars, n) = unpack(key);
        Monomial(Vars::Inline(vars, n as u8))
    }

    /// The distinct variable indices, ascending.
    pub fn vars(&self) -> &[u32] {
        match &self.0 {
            Vars::Inline(v, n) => &v[..*n as usize],
            Vars::Heap(v) => v,
        }
    }

    /// Number of distinct variables (0 for the constant `1`).
    pub fn degree(&self) -> usize {
        self.vars().len()
    }

    /// The product of two monomials (`x·x = x`: a sorted set union).
    pub fn union(&self, other: &Monomial) -> Monomial {
        Monomial::from_sorted(&union_vars(self.vars(), other.vars()))
    }

    /// Evaluates the monomial under an assignment (`assignment[v]` is
    /// the value of `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.vars().iter().all(|&v| assignment[v as usize])
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.vars().cmp(other.vars())
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars().is_empty() {
            return write!(f, "1");
        }
        for (i, v) in self.vars().iter().enumerate() {
            if i > 0 {
                write!(f, "*")?;
            }
            write!(f, "x{v}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Monomial").field(&self.vars()).finish()
    }
}

/// A polynomial over GF(2): a set of distinct [`Monomial`]s combined by
/// XOR, kept sorted — a canonical (algebraic normal form)
/// representation, so equality of polynomials is equality of functions.
///
/// Monomials with a packed key and the rest are held apart (see the
/// module docs); both lists are sorted and distinct.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// Packed keys, ascending.
    packed: Vec<u64>,
    /// Sorted variable lists of the monomials without a key, ascending.
    wide: Vec<Box<[u32]>>,
}

impl Poly {
    /// The zero polynomial (constant `false`).
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// The unit polynomial (constant `true`).
    pub fn one() -> Poly {
        Poly::constant(true)
    }

    /// The single variable `x_v`.
    pub fn var(v: u32) -> Poly {
        let mut p = Poly::zero();
        p.set_var(v);
        p
    }

    /// A constant polynomial.
    pub fn constant(value: bool) -> Poly {
        let mut p = Poly::zero();
        p.set_constant(value);
        p
    }

    /// Makes `self` the single variable `x_v`, keeping its buffers.
    fn set_var(&mut self, v: u32) {
        self.clear();
        match pack(&[v]) {
            Some(key) => self.packed.push(key),
            None => self.wide.push(Box::new([v])),
        }
    }

    /// Makes `self` a constant, keeping its buffers.
    fn set_constant(&mut self, value: bool) {
        self.clear();
        if value {
            self.packed.push(0);
        }
    }

    /// Makes `self` the zero polynomial, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.packed.clear();
        self.wide.clear();
    }

    /// Builds a polynomial from any monomial sequence, canonicalizing
    /// mod 2: monomials are sorted and *pairs of equal monomials
    /// cancel* (an even number of copies vanishes, an odd number keeps
    /// one).
    pub fn from_monomials(monomials: impl IntoIterator<Item = Monomial>) -> Poly {
        let mut p = Poly::zero();
        for m in monomials {
            match pack(m.vars()) {
                Some(key) => p.packed.push(key),
                None => p.wide.push(m.vars().into()),
            }
        }
        sort_mod2(&mut p.packed);
        sort_mod2(&mut p.wide);
        p
    }

    /// The monomials, ascending.
    pub fn monomials(&self) -> impl Iterator<Item = Monomial> + '_ {
        let mut packed = self
            .packed
            .iter()
            .map(|&k| Monomial::unpacked(k))
            .peekable();
        let mut wide = self.wide.iter().peekable();
        std::iter::from_fn(move || match (packed.peek(), wide.peek()) {
            (Some(p), Some(w)) if p.vars() < &w[..] => packed.next(),
            (_, Some(_)) => wide.next().map(|w| Monomial::from_sorted(w)),
            (_, None) => packed.next(),
        })
    }

    /// Number of monomials.
    pub fn len(&self) -> usize {
        self.packed.len() + self.wide.len()
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.packed.is_empty() && self.wide.is_empty()
    }

    /// Alias of [`Poly::is_zero`], for the conventional container
    /// reading of an empty monomial set.
    pub fn is_empty(&self) -> bool {
        self.is_zero()
    }

    /// The largest monomial degree (0 for constants; `None` when zero).
    pub fn degree(&self) -> Option<usize> {
        let packed = self.packed.iter().map(|&k| unpack(k).1);
        packed.chain(self.wide.iter().map(|w| w.len())).max()
    }

    /// GF(2) multiplication (AND): all pairwise monomial products,
    /// canonicalized (idempotent variables, mod-2 cancellation).
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::zero();
        self.mul_into(other, &mut out);
        out
    }

    /// [`Poly::mul`] held to [`MAX_PRODUCT_TERMS`]: refuses, before
    /// allocating anything, an expansion that would generate more
    /// terms than the budget.
    pub fn checked_mul(&self, other: &Poly) -> Result<Poly, TermBudgetExceeded> {
        let mut out = Poly::zero();
        self.checked_mul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Poly::checked_mul`] into `out`, reusing its buffers. On error
    /// `out` is left unchanged.
    pub fn checked_mul_into(&self, other: &Poly, out: &mut Poly) -> Result<(), TermBudgetExceeded> {
        let terms = self.len().saturating_mul(other.len());
        if terms > MAX_PRODUCT_TERMS {
            return Err(TermBudgetExceeded { terms });
        }
        self.mul_into(other, out);
        Ok(())
    }

    /// `out = self · other`, reusing `out`'s buffers.
    fn mul_into(&self, other: &Poly, out: &mut Poly) {
        out.clear();
        out.packed.reserve(self.packed.len() * other.packed.len());
        for &x in &self.packed {
            for &y in &other.packed {
                match union_keys(x, y) {
                    Ok(key) => out.packed.push(key),
                    Err(vars) => out.wide.push(vars),
                }
            }
        }
        // A product with a keyless factor has no key either: it keeps
        // every variable of that factor.
        if !self.wide.is_empty() || !other.wide.is_empty() {
            for x in self.monomials() {
                for y in other.monomials() {
                    if pack(x.vars()).is_none() || pack(y.vars()).is_none() {
                        out.wide.push(union_vars(x.vars(), y.vars()).into());
                    }
                }
            }
        }
        sort_mod2(&mut out.packed);
        sort_mod2(&mut out.wide);
    }

    /// Evaluates the polynomial under an assignment (`assignment[v]`
    /// is the value of `x_v`).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.monomials()
            .fold(false, |acc, m| acc ^ m.eval(assignment))
    }
}

impl std::ops::AddAssign<&Poly> for Poly {
    /// GF(2) addition (XOR) in place: the symmetric difference of the
    /// monomial sets, merged into `self`'s buffers.
    fn add_assign(&mut self, other: &Poly) {
        xor_keys(&mut self.packed, &other.packed);
        if !other.wide.is_empty() {
            self.wide = xor_sorted(std::mem::take(&mut self.wide), other.wide.clone());
        }
    }
}

impl std::ops::Add for Poly {
    type Output = Poly;

    /// GF(2) addition (XOR): the symmetric difference of the monomial
    /// sets.
    fn add(mut self, other: Poly) -> Poly {
        self += &other;
        self
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, m) in self.monomials().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly({self})")
    }
}

/// Dense marks for walking cones of an indexed graph (a netlist's
/// nodes, a mapping's LUTs): a stamp per element, so membership and
/// position lookups are array reads, and no per-cone set is allocated.
/// One index serves any number of walks.
#[derive(Debug, Clone, Default)]
pub struct ConeIndex {
    /// `stamp[i] == epoch` marks element `i` as in the current cone.
    stamp: Vec<u32>,
    epoch: u32,
    /// Position of each in-cone element within `cone`.
    slot: Vec<u32>,
    cone: Vec<u32>,
    stack: Vec<u32>,
}

impl ConeIndex {
    /// Collects the cone of `roots` in a graph of `len` elements:
    /// `operands(i, stack)` pushes the elements `i` reads. The cone is
    /// then [`ConeIndex::cone`].
    ///
    /// # Panics
    ///
    /// Panics if an element index is `len` or more.
    pub fn collect(
        &mut self,
        len: usize,
        roots: impl IntoIterator<Item = u32>,
        mut operands: impl FnMut(u32, &mut Vec<u32>),
    ) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
            self.slot.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.cone.clear();
        self.stack.clear();
        self.stack.extend(roots);
        while let Some(i) = self.stack.pop() {
            let seen = &mut self.stamp[i as usize];
            if *seen == self.epoch {
                continue;
            }
            *seen = self.epoch;
            self.cone.push(i);
            operands(i, &mut self.stack);
        }
        self.cone.sort_unstable();
        for (at, &i) in self.cone.iter().enumerate() {
            self.slot[i as usize] = at as u32;
        }
    }

    /// The last collected cone, ascending — an evaluation order
    /// whenever every element reads only smaller ones.
    pub fn cone(&self) -> &[u32] {
        &self.cone
    }

    /// The position of element `i` in the last collected cone.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `i` is in that cone.
    pub fn slot(&self, i: u32) -> usize {
        debug_assert_eq!(self.stamp[i as usize], self.epoch, "{i} is not in the cone");
        self.slot[i as usize] as usize
    }
}

/// Reusable working memory for cone extraction: the dense cone index
/// and a pool of polynomial buffers. Repeated extractions — one output
/// bit after another — through one scratch allocate almost nothing.
#[derive(Debug, Default)]
pub struct ConeScratch {
    index: ConeIndex,
    /// Remaining uses of each cone node's polynomial.
    uses: Vec<u32>,
    /// Each cone node's polynomial while it has uses left.
    table: Vec<Poly>,
    /// Spent buffers, cleared on reuse.
    pool: Vec<Poly>,
}

impl ConeScratch {
    /// An empty scratch.
    pub fn new() -> ConeScratch {
        ConeScratch::default()
    }

    /// Hands a polynomial's buffers back for reuse.
    pub fn recycle(&mut self, poly: Poly) {
        self.pool.push(poly);
    }

    /// [`node_polys`], through this scratch.
    ///
    /// # Panics
    ///
    /// Panics if a gate in the cone reads a node that does not precede
    /// it (run the lint's error half first).
    pub fn node_polys(
        &mut self,
        net: &Netlist,
        roots: &[NodeId],
    ) -> Result<Vec<Poly>, TermBudgetExceeded> {
        let ConeScratch {
            index,
            uses,
            table,
            pool,
        } = self;
        table.clear();
        index.collect(net.len(), roots.iter().map(|r| r.0), |i, stack| {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(NodeId(i)) {
                stack.extend([a.0, b.0]);
            }
        });
        let cone = index.cone();
        // Remaining uses of each node's polynomial: in-cone gate
        // operands plus one per root reference.
        uses.clear();
        uses.resize(cone.len(), 0);
        for &i in cone {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(NodeId(i)) {
                uses[index.slot(a.0)] += 1;
                uses[index.slot(b.0)] += 1;
            }
        }
        for r in roots {
            uses[index.slot(r.0)] += 1;
        }
        for &i in cone {
            let id = NodeId(i);
            let poly = match net.gate(id) {
                Gate::Input(v) => {
                    let mut p = fresh(pool);
                    p.set_var(v);
                    p
                }
                Gate::Const(c) => {
                    let mut p = fresh(pool);
                    p.set_constant(c);
                    p
                }
                Gate::And(a, b) => {
                    assert!(a < id && b < id, "operands precede users");
                    let (ja, jb) = (index.slot(a.0), index.slot(b.0));
                    let mut p = fresh(pool);
                    table[ja].checked_mul_into(&table[jb], &mut p)?;
                    release(table, uses, pool, ja);
                    release(table, uses, pool, jb);
                    p
                }
                Gate::Xor(a, b) => {
                    assert!(a < id && b < id, "operands precede users");
                    let (ja, jb) = (index.slot(a.0), index.slot(b.0));
                    // Sum into the operand whose last use this is, if
                    // either; `x + x` claims a copy and cancels to 0.
                    let (first, second) = if uses[ja] == 1 { (ja, jb) } else { (jb, ja) };
                    let mut p = claim(table, uses, pool, first);
                    p += &table[second];
                    release(table, uses, pool, second);
                    p
                }
            };
            table.push(poly);
        }
        Ok(roots
            .iter()
            .map(|r| claim(table, uses, pool, index.slot(r.0)))
            .collect())
    }

    /// [`output_poly`], through this scratch.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn output_poly(&mut self, net: &Netlist, k: usize) -> Result<Poly, TermBudgetExceeded> {
        let (_, node) = net.outputs()[k];
        Ok(self
            .node_polys(net, &[node])?
            .pop()
            .expect("one root yields one polynomial"))
    }
}

/// A buffer from the pool (its old contents are overwritten by use).
fn fresh(pool: &mut Vec<Poly>) -> Poly {
    pool.pop().unwrap_or_default()
}

/// Takes one use of cone slot `j`: the last moves its polynomial out,
/// earlier ones copy it into a pooled buffer.
fn claim(table: &mut [Poly], uses: &mut [u32], pool: &mut Vec<Poly>, j: usize) -> Poly {
    uses[j] -= 1;
    if uses[j] == 0 {
        std::mem::take(&mut table[j])
    } else {
        let mut p = fresh(pool);
        p.clone_from(&table[j]);
        p
    }
}

/// Drops one use of cone slot `j`: the last returns its buffer to the
/// pool.
fn release(table: &mut [Poly], uses: &mut [u32], pool: &mut Vec<Poly>, j: usize) {
    uses[j] -= 1;
    if uses[j] == 0 {
        pool.push(std::mem::take(&mut table[j]));
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
    ConeScratch::new().node_polys(net, roots)
}

/// The polynomial of primary output `k` (by declaration order).
///
/// # Panics
///
/// Panics if `k` is out of range.
pub fn output_poly(net: &Netlist, k: usize) -> Result<Poly, TermBudgetExceeded> {
    ConeScratch::new().output_poly(net, k)
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
        assert_eq!(p.monomials().collect::<Vec<_>>(), [Monomial::var(0), m]);
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

    #[test]
    fn packed_keys_order_like_variable_lists() {
        let mut monos = vec![
            Monomial::one(),
            Monomial::var(0),
            Monomial::product(&[0, 1]),
            Monomial::product(&[0, 1, 2]),
            Monomial::product(&[0, 7]),
            Monomial::var(1),
            Monomial::product(&[1, u32::MAX]),
            Monomial::var(u32::MAX - 1),
            Monomial::var(u32::MAX),
        ];
        for w in monos.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
            if let (Some(a), Some(b)) = (pack(w[0].vars()), pack(w[1].vars())) {
                assert!(a < b, "{} < {}", w[0], w[1]);
            }
        }
        // Keyed and keyless monomials merge back into one order.
        monos.reverse();
        let p = Poly::from_monomials(monos.clone());
        monos.reverse();
        assert_eq!(p.monomials().collect::<Vec<_>>(), monos);
        assert_eq!(p.len(), monos.len());
        assert_eq!(p.degree(), Some(3));
    }

    #[test]
    fn key_products_match_set_unions() {
        let monos = [
            Monomial::one(),
            Monomial::var(3),
            Monomial::var(5),
            Monomial::product(&[3, 5]),
            Monomial::product(&[1, 4]),
            Monomial::product(&[4, 9]),
        ];
        for x in &monos {
            for y in &monos {
                let want = x.union(y);
                let got = match union_keys(pack(x.vars()).unwrap(), pack(y.vars()).unwrap()) {
                    Ok(key) => Monomial::unpacked(key),
                    Err(vars) => Monomial::from_sorted(&vars),
                };
                assert_eq!(got, want, "{x} * {y}");
            }
        }
    }

    #[test]
    fn in_place_sums_match_merged_sums() {
        let p = |vars: &[u32]| Poly::from_monomials(vars.iter().map(|&v| Monomial::var(v)));
        for (a, b) in [
            (vec![], vec![1, 2]),
            (vec![1, 2], vec![]),
            (vec![1, 3, 5], vec![2, 3, 6]),
            (vec![4, 5], vec![1, 2]),
            (vec![1, 2], vec![4, 5]),
            (vec![1, 2, 3], vec![1, 2, 3]),
        ] {
            let mut sum = p(&a);
            sum += &p(&b);
            let want = Poly::from_monomials(a.iter().chain(&b).map(|&v| Monomial::var(v)));
            assert_eq!(sum, want, "{a:?} + {b:?}");
            assert_eq!(p(&a) + p(&b), want);
        }
    }

    #[test]
    fn degree_three_cones_extract_exactly() {
        let mut net = Netlist::new("cubic");
        let x: Vec<_> = (0..4).map(|i| net.input(format!("x{i}"))).collect();
        let ab = net.and(x[0], x[1]);
        let abc = net.and(ab, x[2]);
        let s = net.xor(abc, x[3]);
        let y = net.and(s, x[0]);
        net.output("y", y);
        let p = output_poly(&net, 0).unwrap();
        assert_eq!(p.to_string(), "x0*x1*x2 + x0*x3");
        for bits in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(p.eval(&ins), net.eval_bool(&ins)[0], "input {bits:04b}");
        }
    }

    #[test]
    fn one_scratch_serves_many_extractions() {
        let net = sample_net();
        let mut scratch = ConeScratch::new();
        let want = output_poly(&net, 0).unwrap();
        for _ in 0..3 {
            let p = scratch.output_poly(&net, 0).unwrap();
            assert_eq!(p, want);
            scratch.recycle(p);
        }
    }
}
