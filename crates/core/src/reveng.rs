//! Reverse engineering: recover `(m, f(y))` from an anonymous
//! multiplier netlist — nothing but gates and an input/output count.
//!
//! The trick (Yu/Ciesielski, arXiv:1612.04588 §V) is that the algebraic
//! normal form of a polynomial-basis multiplier output is forced: each
//! output bit is a sum of complete partial-product groups
//! `d_t = Σ_{i+j=t} a_i·b_j`, exactly one of them with `t < m` (which
//! names the coordinate `c_t` the output computes), and the groups with
//! `t ≥ m` spell out one row of the field's reduction matrix. Column 0
//! of that matrix is `f(y) + y^m` — so the modulus can be read straight
//! off the recovered rows, validated for irreducibility, and
//! cross-checked by re-deriving the *entire* reduction matrix from it.
//!
//! Because multiplication is commutative, the recovery is insensitive
//! to the `a`/`b` operand roles, and because each output names its own
//! coordinate, it is insensitive to output order too. The only
//! interface assumption is the generator convention that inputs
//! `0..m−1` belong to one operand and `m..2m−1` to the other, in
//! ascending coefficient order.
//!
//! # Examples
//!
//! ```
//! use gf2m::Field;
//! use gf2poly::TypeIiPentanomial;
//! use rgf2m_core::{anonymize, generate, reverse_engineer, Method};
//!
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//! let anon = anonymize(&generate(&field, Method::ProposedFlat));
//! let rec = reverse_engineer(&anon).unwrap();
//! assert_eq!(rec.m, 8);
//! assert_eq!(&rec.modulus, field.modulus());
//! # Ok::<(), gf2poly::PentanomialError>(())
//! ```

use std::fmt;

use gf2m::ReductionMatrix;
use gf2poly::catalogue::nist_standard_modulus;
use gf2poly::{is_irreducible, Gf2Poly, TypeIiPentanomial};
use netlist::algebra;
use netlist::{Gate, Netlist};

/// What kind of reduction polynomial a recovery found, against the
/// catalogued shapes (priority: type II pentanomial, then NIST
/// standard, then trinomial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModulusClass {
    /// `y^m + y^(n+2) + y^(n+1) + y^n + 1` — the paper's family.
    TypeIiPentanomial {
        /// The pentanomial parameter `n`.
        n: usize,
    },
    /// One of the FIPS 186-4 reduction polynomials.
    NistStandard,
    /// `y^m + y^k + 1`.
    Trinomial {
        /// The middle exponent `k`.
        k: usize,
    },
    /// Irreducible, but none of the catalogued shapes.
    Other,
}

impl fmt::Display for ModulusClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModulusClass::TypeIiPentanomial { n } => {
                write!(f, "type II pentanomial (n = {n})")
            }
            ModulusClass::NistStandard => write!(f, "NIST standard polynomial"),
            ModulusClass::Trinomial { k } => write!(f, "trinomial (k = {k})"),
            ModulusClass::Other => write!(f, "uncatalogued irreducible"),
        }
    }
}

/// A successful recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredField {
    /// The extension degree (= number of output bits).
    pub m: usize,
    /// The reduction polynomial `f(y)`, degree `m`.
    pub modulus: Gf2Poly,
    /// Which catalogued shape the modulus matches.
    pub classification: ModulusClass,
    /// `output_order[p]` is the product coordinate `k` that output
    /// position `p` computes (the identity permutation for the
    /// generators in this workspace).
    pub output_order: Vec<usize>,
}

impl fmt::Display for RecoveredField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GF(2^{}), f = {} [{}]",
            self.m, self.modulus, self.classification
        )
    }
}

/// Why a netlist could not be recognized as a GF(2^m) multiplier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RevengError {
    /// The input/output counts don't fit any `2m → m` multiplier.
    InterfaceMismatch(String),
    /// The extracted output polynomials don't have the forced
    /// multiplier shape.
    NotAMultiplier(String),
    /// The shape fits, but the implied modulus is reducible — no field
    /// has it as a reduction polynomial.
    ReducibleModulus(String),
}

impl fmt::Display for RevengError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevengError::InterfaceMismatch(msg) => write!(f, "interface mismatch: {msg}"),
            RevengError::NotAMultiplier(msg) => write!(f, "not a multiplier: {msg}"),
            RevengError::ReducibleModulus(msg) => {
                write!(f, "recovered modulus is reducible: {msg}")
            }
        }
    }
}

impl std::error::Error for RevengError {}

/// Strips every name from a netlist: inputs become `p0..`, outputs
/// `q0..`, the entity `anonymous`. Gate structure (and therefore
/// function) is preserved exactly — this is what the `reveng` bin and
/// the recovery tests feed [`reverse_engineer`], so recovery provably
/// uses nothing but the logic itself.
pub fn anonymize(net: &Netlist) -> Netlist {
    let mut out = Netlist::new("anonymous");
    let inputs: Vec<_> = (0..net.num_inputs())
        .map(|i| out.input(format!("p{i}")))
        .collect();
    let mut remap = vec![None; net.len()];
    for id in net.node_ids() {
        let new = match net.gate(id) {
            Gate::Input(i) => inputs[i as usize],
            Gate::Const(v) => out.constant(v),
            Gate::And(a, b) => {
                let (a, b) = (remap[a.index()].unwrap(), remap[b.index()].unwrap());
                out.and(a, b)
            }
            Gate::Xor(a, b) => {
                let (a, b) = (remap[a.index()].unwrap(), remap[b.index()].unwrap());
                out.xor(a, b)
            }
        };
        remap[id.index()] = Some(new);
    }
    for (k, (_, n)) in net.outputs().iter().enumerate() {
        out.output(format!("q{k}"), remap[n.index()].unwrap());
    }
    out
}

/// Recovers the field a multiplier netlist computes over, from the
/// netlist alone.
///
/// See the module docs for the algorithm; on success the result is a
/// *certificate*: the full reduction matrix re-derived from the
/// recovered modulus has been checked against every output polynomial,
/// so the netlist provably computes `a(x)·b(x) mod f(x)` for the
/// returned `f`.
pub fn reverse_engineer(net: &Netlist) -> Result<RecoveredField, RevengError> {
    let m = net.outputs().len();
    if m < 2 {
        return Err(RevengError::InterfaceMismatch(format!(
            "need at least 2 output bits, found {m}"
        )));
    }
    if net.num_inputs() != 2 * m {
        return Err(RevengError::InterfaceMismatch(format!(
            "{m} output bits imply 2m = {} inputs, found {}",
            2 * m,
            net.num_inputs()
        )));
    }

    // A multiplier's cones are bilinear; one that outgrows the term
    // budget cannot be one.
    let polys =
        algebra::output_polys(net).map_err(|e| RevengError::NotAMultiplier(e.to_string()))?;

    // Per output: bucket monomials by t = i + j, demand complete
    // partial-product groups, and split them into the single t < m
    // group (naming the coordinate) and the t ≥ m reduction terms.
    let mut rows: Vec<Option<Vec<usize>>> = vec![None; m];
    let mut order = vec![0usize; m];
    for (p, poly) in polys.iter().enumerate() {
        let mut counts = vec![0usize; 2 * m - 1];
        for mono in poly.monomials() {
            let vars = mono.vars();
            if vars.len() != 2 {
                return Err(RevengError::NotAMultiplier(format!(
                    "output {p} has non-bilinear monomial {mono}"
                )));
            }
            let (u, v) = (vars[0] as usize, vars[1] as usize);
            if u >= m || v < m || v >= 2 * m {
                return Err(RevengError::NotAMultiplier(format!(
                    "output {p}: monomial {mono} is not an a_i*b_j product"
                )));
            }
            counts[u + (v - m)] += 1;
        }
        let mut low = None;
        let mut his = Vec::new();
        for (t, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let expected = t.min(m - 1) - t.saturating_sub(m - 1) + 1;
            if count != expected {
                return Err(RevengError::NotAMultiplier(format!(
                    "output {p}: partial-product group d_{t} has {count} of {expected} products"
                )));
            }
            if t < m {
                if low.replace(t).is_some() {
                    return Err(RevengError::NotAMultiplier(format!(
                        "output {p} contains two unreduced coordinate groups"
                    )));
                }
            } else {
                his.push(t - m);
            }
        }
        let Some(k) = low else {
            return Err(RevengError::NotAMultiplier(format!(
                "output {p} has no unreduced coordinate group d_k (k < m)"
            )));
        };
        if rows[k].is_some() {
            return Err(RevengError::NotAMultiplier(format!(
                "two outputs both compute coordinate c_{k}"
            )));
        }
        order[p] = k;
        rows[k] = Some(his);
    }
    // m outputs with pairwise-distinct coordinates < m: all rows are
    // filled by pigeonhole.
    let rows: Vec<Vec<usize>> = rows
        .into_iter()
        .map(|r| r.expect("pigeonhole: every coordinate claimed exactly once"))
        .collect();

    // Column 0 of the reduction matrix is y^m mod f = f + y^m, so
    // f = y^m + Σ over the coordinates whose row contains T_0.
    let mut exps = vec![m];
    for (k, row) in rows.iter().enumerate() {
        if row.binary_search(&0).is_ok() {
            exps.push(k);
        }
    }
    let f = Gf2Poly::from_exponents(&exps);
    if !is_irreducible(&f) {
        return Err(RevengError::ReducibleModulus(f.to_string()));
    }

    // Certificate step: the whole reduction matrix implied by f must
    // reproduce every recovered row.
    let red = ReductionMatrix::new(&f);
    for (k, row) in rows.iter().enumerate() {
        for i in 0..m.saturating_sub(1) {
            if row.binary_search(&i).is_ok() != red.entry(k, i) {
                return Err(RevengError::NotAMultiplier(format!(
                    "reduction term T_{i} in c_{k} contradicts modulus {f}"
                )));
            }
        }
    }

    Ok(RecoveredField {
        m,
        classification: classify(m, &f),
        modulus: f,
        output_order: order,
    })
}

/// Matches a degree-`m` irreducible against the catalogued shapes.
fn classify(m: usize, f: &Gf2Poly) -> ModulusClass {
    let exps: Vec<usize> = f.exponents().collect();
    if exps.len() == 5 && exps[0] == 0 {
        let n = exps[1];
        if exps[2] == n + 1 && exps[3] == n + 2 && TypeIiPentanomial::new(m, n).is_ok() {
            return ModulusClass::TypeIiPentanomial { n };
        }
    }
    if nist_standard_modulus(m).as_ref() == Some(f) {
        return ModulusClass::NistStandard;
    }
    if exps.len() == 3 && exps[0] == 0 {
        return ModulusClass::Trinomial { k: exps[1] };
    }
    ModulusClass::Other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Method};
    use gf2m::Field;
    use gf2poly::catalogue::secg_113_modulus;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    #[test]
    fn recovers_gf256_from_every_method() {
        let field = gf256();
        for method in Method::ALL {
            let anon = anonymize(&generate(&field, method));
            assert_eq!(anon.name(), "anonymous");
            let rec = reverse_engineer(&anon).unwrap_or_else(|e| panic!("{method:?}: {e}"));
            assert_eq!(rec.m, 8, "{method:?}");
            assert_eq!(&rec.modulus, field.modulus(), "{method:?}");
            assert_eq!(
                rec.classification,
                ModulusClass::TypeIiPentanomial { n: 2 },
                "{method:?}"
            );
            assert_eq!(rec.output_order, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn recovery_survives_output_permutation() {
        let field = gf256();
        let net = generate(&field, Method::ProposedFlat);
        // Rebuild with outputs declared in reverse order.
        let mut out = Netlist::new("perm");
        let inputs: Vec<_> = (0..net.num_inputs())
            .map(|i| out.input(format!("p{i}")))
            .collect();
        let mut remap = vec![None; net.len()];
        for id in net.node_ids() {
            let new = match net.gate(id) {
                Gate::Input(i) => inputs[i as usize],
                Gate::Const(v) => out.constant(v),
                Gate::And(a, b) => {
                    let (a, b) = (remap[a.index()].unwrap(), remap[b.index()].unwrap());
                    out.and(a, b)
                }
                Gate::Xor(a, b) => {
                    let (a, b) = (remap[a.index()].unwrap(), remap[b.index()].unwrap());
                    out.xor(a, b)
                }
            };
            remap[id.index()] = Some(new);
        }
        for (k, (_, n)) in net.outputs().iter().enumerate().rev() {
            out.output(format!("q{k}"), remap[n.index()].unwrap());
        }
        let rec = reverse_engineer(&out).unwrap();
        assert_eq!(&rec.modulus, field.modulus());
        assert_eq!(rec.output_order, (0..8).rev().collect::<Vec<_>>());
    }

    #[test]
    fn rejects_non_multiplier_interfaces() {
        let mut net = Netlist::new("xor3");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let x = net.xor(a, b);
        let y = net.xor(x, c);
        net.output("y", y);
        assert!(matches!(
            reverse_engineer(&net),
            Err(RevengError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn rejects_non_multiplier_logic() {
        // Right interface shape (4 in, 2 out) but not a multiplier.
        let mut net = Netlist::new("notmul");
        let a0 = net.input("a0");
        let a1 = net.input("a1");
        let b0 = net.input("b0");
        let b1 = net.input("b1");
        let x = net.xor(a0, a1);
        let y = net.and(b0, b1);
        net.output("c0", x);
        net.output("c1", y);
        let err = reverse_engineer(&net).unwrap_err();
        assert!(matches!(err, RevengError::NotAMultiplier(_)), "{err}");
    }

    #[test]
    fn recovers_a_trinomial_field() {
        let field = Field::new(secg_113_modulus()).unwrap();
        let anon = anonymize(&generate(&field, Method::ProposedFlat));
        let rec = reverse_engineer(&anon).unwrap();
        assert_eq!(rec.m, 113);
        assert_eq!(&rec.modulus, field.modulus());
        assert_eq!(rec.classification, ModulusClass::Trinomial { k: 9 });
    }

    #[test]
    fn classification_priorities() {
        // NIST 163 is a pentanomial but not type II: [163,7,6,3,0] has
        // exponents 3,6,7 — not consecutive.
        let f163 = nist_standard_modulus(163).unwrap();
        assert_eq!(classify(163, &f163), ModulusClass::NistStandard);
        // NIST 233 is a trinomial, but the NIST label wins only when
        // the type II shape doesn't apply — and a trinomial is never
        // type II, so priority order puts NistStandard first.
        let f233 = nist_standard_modulus(233).unwrap();
        assert_eq!(classify(233, &f233), ModulusClass::NistStandard);
        // The paper's GF(2^8) modulus is type II with n = 2.
        let f8 = Gf2Poly::from_exponents(&[8, 4, 3, 2, 0]);
        assert_eq!(classify(8, &f8), ModulusClass::TypeIiPentanomial { n: 2 });
        assert_eq!(
            ModulusClass::TypeIiPentanomial { n: 2 }.to_string(),
            "type II pentanomial (n = 2)"
        );
    }
}
