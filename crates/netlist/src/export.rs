//! The netlist interchange backend: Berkeley BLIF.
//!
//! BLIF is the one format the outside flows that would consume these
//! designs all read: ABC, SIS and VTR for synthesis and place-and-route,
//! and the gate-level verification and reverse-engineering tools that
//! work on multiplier netlists. It is also small enough to read back
//! strictly, so the writer is proved by a round trip
//! (`tests/blif_roundtrip.rs` at the workspace root) rather than by
//! looking plausible.
//!
//! Every port and every internal signal gets its own token: port names
//! are sanitised to alphanumerics and `_` and made unique in port order
//! (inputs, then outputs), and internal nodes are named `n<index>`
//! under a prefix no port token can take.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::{Gate, Netlist, NodeId};

/// Sanitizes an identifier for BLIF output (alphanumerics and `_` only).
fn ident(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

/// The port tokens, inputs then outputs: each name sanitised by
/// [`ident`], with `_` appended until it differs from every earlier
/// port.
fn port_tokens(net: &Netlist) -> (Vec<String>, Vec<String>) {
    let mut taken = HashSet::new();
    let mut unique = |name: &str| {
        let mut token = ident(name);
        while !taken.insert(token.clone()) {
            token.push('_');
        }
        token
    };
    let inputs = net.input_names().iter().map(|n| unique(n)).collect();
    let outputs = net.outputs().iter().map(|(n, _)| unique(n)).collect();
    (inputs, outputs)
}

/// The prefix of internal signal names: `n`, followed by as many `_` as
/// it takes for no port token to be the prefix followed by digits.
fn internal_prefix<'a>(ports: impl Iterator<Item = &'a String> + Clone) -> String {
    let mut prefix = String::from("n");
    while ports.clone().any(|p| {
        p.strip_prefix(prefix.as_str())
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|c| c.is_ascii_digit()))
    }) {
        prefix.push('_');
    }
    prefix
}

impl Netlist {
    /// Renders the netlist in Berkeley BLIF, the classic logic-synthesis
    /// interchange format (consumable by ABC, SIS, VTR...).
    ///
    /// Each gate is one `.names` cover (AND `11 1`, XOR `01 1`/`10 1`, a
    /// constant with an empty or a `1` cover), and each output is a
    /// buffer (`1 1`) from its node to its port, so two outputs may
    /// share a node and an output may be an input.
    ///
    /// # Examples
    ///
    /// ```
    /// use netlist::Netlist;
    /// let mut net = Netlist::new("tiny");
    /// let a = net.input("a");
    /// let b = net.input("b");
    /// let y = net.xor(a, b);
    /// net.output("y", y);
    /// assert_eq!(
    ///     net.to_blif(),
    ///     ".model tiny\n.inputs a b\n.outputs y\n\
    ///      .names a b n2\n01 1\n10 1\n.names n2 y\n1 1\n.end\n"
    /// );
    /// ```
    pub fn to_blif(&self) -> String {
        let (inputs, outputs) = port_tokens(self);
        let prefix = internal_prefix(inputs.iter().chain(&outputs));
        let signal = |n: NodeId| match self.gate(n) {
            Gate::Input(i) => inputs[i as usize].clone(),
            _ => format!("{prefix}{}", n.index()),
        };
        let mut s = String::new();
        let _ = writeln!(s, ".model {}", ident(self.name()));
        let _ = writeln!(s, ".inputs {}", inputs.join(" "));
        let _ = writeln!(s, ".outputs {}", outputs.join(" "));
        for id in self.node_ids() {
            match self.gate(id) {
                Gate::Input(_) => {}
                Gate::Const(v) => {
                    let _ = writeln!(s, ".names {}", signal(id));
                    if v {
                        let _ = writeln!(s, "1");
                    }
                }
                Gate::And(a, b) => {
                    let _ = writeln!(s, ".names {} {} {}\n11 1", signal(a), signal(b), signal(id));
                }
                Gate::Xor(a, b) => {
                    let _ = writeln!(
                        s,
                        ".names {} {} {}\n01 1\n10 1",
                        signal(a),
                        signal(b),
                        signal(id)
                    );
                }
            }
        }
        for ((_, n), port) in self.outputs().iter().zip(&outputs) {
            let _ = writeln!(s, ".names {} {port}\n1 1", signal(*n));
        }
        let _ = writeln!(s, ".end");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut net = Netlist::new("gf4 mul"); // name needs sanitizing
        let a0 = net.input("a0");
        let a1 = net.input("a1");
        let b0 = net.input("b0");
        let b1 = net.input("b1");
        let p00 = net.and(a0, b0);
        let p11 = net.and(a1, b1);
        let p01 = net.and(a0, b1);
        let p10 = net.and(a1, b0);
        let mid = net.xor(p01, p10);
        let c0 = net.xor(p00, p11);
        let c1 = net.xor(mid, p11);
        net.output("c0", c0);
        net.output("c1", c1);
        net
    }

    #[test]
    fn blif_structure() {
        let b = sample().to_blif();
        assert!(b.contains(".model gf4_mul"));
        assert!(b.contains(".inputs a0 a1 b0 b1"));
        assert!(b.contains(".outputs c0 c1"));
        assert!(b.contains("11 1")); // AND cover
        assert!(b.contains("01 1\n10 1")); // XOR cover
        assert!(b.trim_end().ends_with(".end"));
    }

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(ident("a-b c"), "a_b_c");
        assert_eq!(ident("0abc"), "n0abc");
        assert_eq!(ident(""), "n");
    }
}
