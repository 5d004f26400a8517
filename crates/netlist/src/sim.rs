//! Bit-parallel simulation and equivalence checking.
//!
//! Simulation packs 64 test vectors into one `u64` per node, so an
//! exhaustive check of a 16-input netlist (e.g. the GF(2^8) multipliers:
//! 65 536 patterns) costs only 1024 words per node.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Gate, Netlist};

impl Netlist {
    /// Evaluates the netlist on one boolean assignment.
    ///
    /// `inputs[i]` is the value of primary input `i` (creation order);
    /// returns output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` ≠ [`Netlist::num_inputs`].
    pub fn eval_bool(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_words(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Evaluates 64 assignments at once: bit `l` of `inputs[i]` is the
    /// value of input `i` in lane `l`. Returns one word per output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` ≠ [`Netlist::num_inputs`].
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        let values = self.eval_words_all(inputs);
        self.outputs()
            .iter()
            .map(|(_, n)| values[n.index()])
            .collect()
    }

    /// Evaluates 64 assignments and returns the value words of *all*
    /// nodes (not just outputs) — used by the technology mapper to
    /// extract LUT truth tables and by debugging tools.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` ≠ [`Netlist::num_inputs`].
    pub fn eval_words_all(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "expected {} input words",
            self.num_inputs()
        );
        let mut values = vec![0u64; self.len()];
        for id in self.node_ids() {
            values[id.index()] = match self.gate(id) {
                Gate::Input(i) => inputs[i as usize],
                Gate::Const(false) => 0,
                Gate::Const(true) => u64::MAX,
                Gate::And(a, b) => values[a.index()] & values[b.index()],
                Gate::Xor(a, b) => values[a.index()] ^ values[b.index()],
            };
        }
        values
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// No differing pattern found.
    Equivalent,
    /// A concrete counterexample: input assignment plus the two differing
    /// output vectors.
    Counterexample {
        /// The differing input assignment.
        inputs: Vec<bool>,
        /// Outputs of the left netlist.
        left: Vec<bool>,
        /// Outputs of the right netlist / oracle.
        right: Vec<bool>,
    },
}

impl Equivalence {
    /// `true` when no counterexample was found.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent)
    }
}

/// Exhaustively compares two netlists with identical interfaces.
///
/// # Panics
///
/// Panics if the interfaces differ or if `left.num_inputs() > 24`
/// (2^24 patterns is the sensible exhaustive limit).
pub fn check_equivalent_exhaustive(left: &Netlist, right: &Netlist) -> Equivalence {
    assert_eq!(left.num_inputs(), right.num_inputs(), "input arity differs");
    assert_eq!(
        left.outputs().len(),
        right.outputs().len(),
        "output arity differs"
    );
    let n = left.num_inputs();
    assert!(n <= 24, "exhaustive check limited to 24 inputs, got {n}");
    let oracle = |words: &[u64]| right.eval_words(words);
    check_against_oracle_exhaustive(left, oracle)
}

/// Exhaustively compares a netlist against a word-level oracle closure.
///
/// The oracle receives the same packed input words as
/// [`Netlist::eval_words`] and must return packed output words.
///
/// # Panics
///
/// Panics if the netlist has more than 24 inputs.
pub fn check_against_oracle_exhaustive(
    net: &Netlist,
    mut oracle: impl FnMut(&[u64]) -> Vec<u64>,
) -> Equivalence {
    let n = net.num_inputs();
    assert!(n <= 24, "exhaustive check limited to 24 inputs, got {n}");
    let patterns: u64 = 1 << n;
    let lanes = 64u64;
    let mut base = 0u64;
    while base < patterns {
        // Lane l encodes pattern (base + l); inputs beyond the pattern
        // count replicate pattern `patterns - 1` harmlessly.
        let words: Vec<u64> = (0..n)
            .map(|i| {
                let mut w = 0u64;
                for l in 0..lanes.min(patterns - base) {
                    if ((base + l) >> i) & 1 == 1 {
                        w |= 1 << l;
                    }
                }
                w
            })
            .collect();
        let got = net.eval_words(&words);
        let want = oracle(&words);
        if got != want {
            let valid = lanes.min(patterns - base);
            for l in 0..valid {
                let g: Vec<bool> = got.iter().map(|w| (w >> l) & 1 == 1).collect();
                let w: Vec<bool> = want.iter().map(|w| (w >> l) & 1 == 1).collect();
                if g != w {
                    return Equivalence::Counterexample {
                        inputs: (0..n).map(|i| ((base + l) >> i) & 1 == 1).collect(),
                        left: g,
                        right: w,
                    };
                }
            }
        }
        base += lanes;
    }
    Equivalence::Equivalent
}

/// Compares a netlist against a word-level oracle on `rounds × 64`
/// uniformly random patterns using a fixed seed (deterministic).
pub fn check_against_oracle_random(
    net: &Netlist,
    mut oracle: impl FnMut(&[u64]) -> Vec<u64>,
    rounds: usize,
    seed: u64,
) -> Equivalence {
    let n = net.num_inputs();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let words: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let got = net.eval_words(&words);
        let want = oracle(&words);
        if got != want {
            for l in 0..64 {
                let g: Vec<bool> = got.iter().map(|w| (w >> l) & 1 == 1).collect();
                let w: Vec<bool> = want.iter().map(|w| (w >> l) & 1 == 1).collect();
                if g != w {
                    return Equivalence::Counterexample {
                        inputs: words.iter().map(|w| (w >> l) & 1 == 1).collect(),
                        left: g,
                        right: w,
                    };
                }
            }
        }
    }
    Equivalence::Equivalent
}

/// Compares two netlists with identical interfaces on random patterns.
pub fn check_equivalent_random(
    left: &Netlist,
    right: &Netlist,
    rounds: usize,
    seed: u64,
) -> Equivalence {
    assert_eq!(left.num_inputs(), right.num_inputs(), "input arity differs");
    let oracle = |words: &[u64]| right.eval_words(words);
    check_against_oracle_random(left, oracle, rounds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut net = Netlist::new("fa");
        let a = net.input("a");
        let b = net.input("b");
        let cin = net.input("cin");
        let ab = net.xor(a, b);
        let s = net.xor(ab, cin);
        let g1 = net.and(a, b);
        let g2 = net.and(ab, cin);
        // g1 and g2 are never simultaneously 1, so XOR realizes the OR.
        let cout = net.xor(g1, g2);
        net.output("sum", s);
        net.output("cout", cout);
        net
    }

    #[test]
    fn eval_bool_full_adder_truth_table() {
        let net = full_adder();
        for bits in 0..8u32 {
            let a = bits & 1 == 1;
            let b = (bits >> 1) & 1 == 1;
            let c = (bits >> 2) & 1 == 1;
            let got = net.eval_bool(&[a, b, c]);
            let total = a as u32 + b as u32 + c as u32;
            assert_eq!(got[0], total % 2 == 1, "sum for {bits:03b}");
            assert_eq!(got[1], total >= 2, "cout for {bits:03b}");
        }
    }

    #[test]
    fn words_and_bool_agree() {
        let net = full_adder();
        // Lane l of these words encodes the 3-bit pattern l.
        let words = vec![0b10101010u64, 0b11001100, 0b11110000];
        let out = net.eval_words(&words);
        for l in 0..8u64 {
            let ins: Vec<bool> = (0..3).map(|i| (l >> i) & 1 == 1).collect();
            let expect = net.eval_bool(&ins);
            for (o, w) in expect.iter().zip(&out) {
                assert_eq!(*o, (w >> l) & 1 == 1);
            }
        }
    }

    #[test]
    fn exhaustive_equivalence_of_rebuilt_netlist() {
        let net = full_adder();
        let clean = net.eliminate_dead_code();
        assert!(check_equivalent_exhaustive(&net, &clean).is_equivalent());
    }

    #[test]
    fn exhaustive_check_finds_counterexample() {
        let mut left = Netlist::new("l");
        let a = left.input("a");
        let b = left.input("b");
        let x = left.xor(a, b);
        left.output("y", x);

        let mut right = Netlist::new("r");
        let a2 = right.input("a");
        let b2 = right.input("b");
        let x2 = right.and(a2, b2);
        right.output("y", x2);

        match check_equivalent_exhaustive(&left, &right) {
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                let (a, b) = (inputs[0], inputs[1]);
                assert_eq!(left[0], a ^ b);
                assert_eq!(right[0], a & b);
                assert_ne!(left[0], right[0]);
            }
            Equivalence::Equivalent => panic!("xor and and must differ"),
        }
    }

    #[test]
    fn random_check_is_deterministic() {
        let net = full_adder();
        let oracle = |w: &[u64]| net.eval_words(w);
        let r1 = check_against_oracle_random(&net, oracle, 4, 42);
        let oracle2 = |w: &[u64]| net.eval_words(w);
        let r2 = check_against_oracle_random(&net, oracle2, 4, 42);
        assert_eq!(r1, r2);
        assert!(r1.is_equivalent());
    }

    #[test]
    fn random_check_catches_single_bit_bug() {
        let net = full_adder();
        // Oracle that flips the carry bit.
        let oracle = |w: &[u64]| {
            let mut out = net.eval_words(w);
            out[1] ^= u64::MAX;
            out
        };
        assert!(!check_against_oracle_random(&net, oracle, 1, 7).is_equivalent());
    }

    #[test]
    fn eval_words_all_exposes_internal_nodes() {
        let mut net = Netlist::new("t");
        let a = net.input("a");
        let b = net.input("b");
        let g = net.and(a, b);
        net.output("y", g);
        let all = net.eval_words_all(&[0b01u64, 0b11]);
        assert_eq!(all[g.index()], 0b01);
    }

    #[test]
    #[should_panic(expected = "expected 3 input words")]
    fn eval_rejects_wrong_arity() {
        let net = full_adder();
        let _ = net.eval_words(&[0, 0]);
    }
}
