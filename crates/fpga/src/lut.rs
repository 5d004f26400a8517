//! The mapped LUT-level netlist.

use std::fmt;
use std::ops::{BitAnd, BitXor, Not};

/// The widest LUT any registered target offers (the Stratix-ALM-like
/// fabric's 8-input mode); truth tables are sized for this.
pub const MAX_LUT_INPUTS: usize = 8;

/// A signal feeding a LUT input or a primary output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Primary input by index.
    Input(u32),
    /// Output of LUT number `.0`.
    Lut(u32),
    /// A constant value.
    Const(bool),
}

/// A LUT truth table over up to [`MAX_LUT_INPUTS`] variables: 2^8 = 256
/// entries, stored as four little-endian `u64` words (entry `idx` is
/// bit `idx % 64` of word `idx / 64`).
///
/// For tables over `k ≤ 6` variables only the low word is populated;
/// [`Truth::of`] (and `From<u64>`) build those directly from the
/// familiar single-word encoding.
///
/// # Examples
///
/// ```
/// use rgf2m_fpga::lut::Truth;
///
/// let xor2 = Truth::of(0b0110);
/// assert!(!xor2.bit(0) && xor2.bit(1) && xor2.bit(2) && !xor2.bit(3));
/// assert_eq!((!xor2).mask(2), Truth::of(0b1001));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Truth(pub [u64; 4]);

impl Truth {
    /// The all-zero (constant false) table.
    pub const ZERO: Truth = Truth([0; 4]);
    /// The all-one (constant true) table.
    pub const ONES: Truth = Truth([u64::MAX; 4]);

    /// A table whose low 64 entries are the bits of `low` (the classic
    /// single-`u64` encoding for `k ≤ 6`) and whose high entries are 0.
    pub const fn of(low: u64) -> Truth {
        Truth([low, 0, 0, 0])
    }

    /// Entry `idx` of the table.
    ///
    /// # Panics
    ///
    /// Panics if `idx ≥ 256`.
    pub fn bit(self, idx: usize) -> bool {
        (self.0[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// The algebraic normal form of the low `2^vars` entries: every
    /// variable subset (as a bitmask over the LUT's inputs) whose
    /// product appears in the XOR-of-products expansion of the
    /// function, ascending. Entries above `2^vars` are ignored.
    ///
    /// Computed by the Möbius (binary butterfly) transform; the ANF is
    /// canonical, which is what lets the formal verifier expand a LUT
    /// cone into the same polynomial algebra the gate-level verifier
    /// uses.
    ///
    /// # Panics
    ///
    /// Panics if `vars` exceeds [`MAX_LUT_INPUTS`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rgf2m_fpga::lut::Truth;
    ///
    /// assert_eq!(Truth::of(0b0110).anf(2), vec![0b01, 0b10]); // a ^ b
    /// assert_eq!(Truth::of(0b1000).anf(2), vec![0b11]);       // a & b
    /// assert_eq!(Truth::of(0b01).anf(1), vec![0b0, 0b1]);     // 1 ^ a
    /// ```
    pub fn anf(self, vars: usize) -> Vec<u32> {
        assert!(
            vars <= MAX_LUT_INPUTS,
            "ANF over at most {MAX_LUT_INPUTS} variables"
        );
        // The butterfly runs on whole words: within a word, variable
        // `v < 6` pairs entries `2^v` apart; variables 6 and 7 pair
        // whole words.
        const LOW_HALVES: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0f0f_0f0f_0f0f_0f0f,
            0x00ff_00ff_00ff_00ff,
            0x0000_ffff_0000_ffff,
            0x0000_0000_ffff_ffff,
        ];
        let mut w = self.mask(vars).0;
        for (v, low) in LOW_HALVES.iter().enumerate().take(vars) {
            for word in &mut w {
                *word ^= (*word & low) << (1 << v);
            }
        }
        if vars > 6 {
            w[1] ^= w[0];
            w[3] ^= w[2];
        }
        if vars > 7 {
            w[2] ^= w[0];
            w[3] ^= w[1];
        }
        let mut masks = Vec::new();
        for (i, mut word) in w.into_iter().enumerate() {
            while word != 0 {
                masks.push(i as u32 * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        masks
    }

    /// Keeps only the entries a `vars`-variable function uses (the low
    /// `2^vars`), zeroing the rest — so tables of functions with
    /// different variable counts compare predictably.
    pub fn mask(self, vars: usize) -> Truth {
        if vars >= MAX_LUT_INPUTS {
            return self;
        }
        let entries = 1usize << vars;
        let mut w = self.0;
        for (i, word) in w.iter_mut().enumerate() {
            let base = i * 64;
            if base + 64 <= entries {
                // fully populated word: keep
            } else if base >= entries {
                *word = 0;
            } else {
                *word &= (1u64 << (entries - base)) - 1;
            }
        }
        Truth(w)
    }
}

impl From<u64> for Truth {
    fn from(low: u64) -> Truth {
        Truth::of(low)
    }
}

impl Not for Truth {
    type Output = Truth;
    fn not(self) -> Truth {
        Truth(self.0.map(|w| !w))
    }
}

impl BitAnd for Truth {
    type Output = Truth;
    fn bitand(self, rhs: Truth) -> Truth {
        Truth([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitXor for Truth {
    type Output = Truth;
    fn bitxor(self, rhs: Truth) -> Truth {
        Truth([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

/// One k-input LUT: its input signals and truth table.
///
/// Entry `idx` of `truth` is the output for the input assignment where
/// input `i` contributes bit `i` of `idx`; with `k ≤ `
/// [`MAX_LUT_INPUTS`] the table fits a [`Truth`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lut {
    /// Input signals, low index = low truth-table variable.
    pub inputs: Vec<Signal>,
    /// Truth table over the inputs.
    pub truth: Truth,
}

/// A technology-mapped netlist of k-input LUTs.
///
/// Produced by [`crate::map::map_to_luts`]; simulatable so every mapping
/// can be re-verified against its source gate netlist.
#[derive(Debug, Clone)]
pub struct LutNetlist {
    name: String,
    k: usize,
    input_names: Vec<String>,
    luts: Vec<Lut>,
    outputs: Vec<(String, Signal)>,
}

impl LutNetlist {
    /// Creates an empty LUT netlist (used by the mapper).
    pub(crate) fn new(name: String, k: usize, input_names: Vec<String>) -> Self {
        LutNetlist {
            name,
            k,
            input_names,
            luts: Vec::new(),
            outputs: Vec::new(),
        }
    }

    pub(crate) fn push_lut(&mut self, lut: Lut) -> u32 {
        assert!(lut.inputs.len() <= self.k, "LUT exceeds {} inputs", self.k);
        let id = self.luts.len() as u32;
        self.luts.push(lut);
        id
    }

    pub(crate) fn push_output(&mut self, name: String, sig: Signal) {
        self.outputs.push((name, sig));
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The LUT input width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of LUTs.
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }

    /// The LUTs, in topological order.
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// Primary input names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Replaces LUT `lut`'s truth table — deliberate fault injection,
    /// so tests can prove the flow's re-verification stage catches a
    /// mapped netlist whose function drifted (see
    /// [`crate::Pipeline::verify`]).
    ///
    /// # Panics
    ///
    /// Panics if `lut` is out of range.
    pub fn set_truth(&mut self, lut: u32, truth: Truth) {
        self.luts[lut as usize].truth = truth;
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// LUT logic depth: maximum number of LUTs on any input→output path.
    pub fn depth(&self) -> u32 {
        let mut d = vec![0u32; self.luts.len()];
        for (i, lut) in self.luts.iter().enumerate() {
            let mut m = 0;
            for s in &lut.inputs {
                if let Signal::Lut(j) = s {
                    m = m.max(d[*j as usize] + 1);
                }
            }
            d[i] = m.max(1);
        }
        self.outputs
            .iter()
            .map(|(_, s)| match s {
                Signal::Lut(j) => d[*j as usize],
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Evaluates 64 lanes at once, mirroring
    /// [`netlist::Netlist::eval_words`]: bit `l` of `inputs[i]` is the
    /// value of input `i` in lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of inputs.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.input_names.len());
        let mut values = vec![0u64; self.luts.len()];
        let mut in_words = [0u64; MAX_LUT_INPUTS];
        for (i, lut) in self.luts.iter().enumerate() {
            for (w, s) in in_words.iter_mut().zip(&lut.inputs) {
                *w = self.signal_word(s, inputs, &values);
            }
            let mut word = 0u64;
            for lane in 0..64 {
                let mut idx = 0usize;
                for (bit, w) in in_words[..lut.inputs.len()].iter().enumerate() {
                    if (w >> lane) & 1 == 1 {
                        idx |= 1 << bit;
                    }
                }
                if lut.truth.bit(idx) {
                    word |= 1 << lane;
                }
            }
            values[i] = word;
        }
        self.outputs
            .iter()
            .map(|(_, s)| self.signal_word(s, inputs, &values))
            .collect()
    }

    fn signal_word(&self, s: &Signal, inputs: &[u64], values: &[u64]) -> u64 {
        match s {
            Signal::Input(i) => inputs[*i as usize],
            Signal::Lut(j) => values[*j as usize],
            Signal::Const(false) => 0,
            Signal::Const(true) => u64::MAX,
        }
    }

    /// Fanout of every signal source: number of LUT inputs plus primary
    /// outputs each LUT (by id) drives. Indexed like `luts`.
    pub fn lut_fanouts(&self) -> Vec<usize> {
        LutAnalysis::of(self).lut_fanouts
    }
}

/// Shared fanout analysis over a [`LutNetlist`]: the LUT-level
/// counterpart of `netlist::analysis::NetAnalysis`, computed in one
/// pass and consumed by timing analysis and the mapped-netlist lint
/// alike (instead of each recounting references its own way).
///
/// Out-of-range references are skipped rather than counted or panicked
/// on, so the lint pass — whose job includes *finding* such references —
/// can run this analysis before validity is established.
#[derive(Debug, Clone)]
pub struct LutAnalysis {
    /// Per primary input: number of LUT input slots plus primary
    /// outputs reading it.
    pub input_fanouts: Vec<usize>,
    /// Per LUT id: number of LUT input slots plus primary outputs
    /// reading it.
    pub lut_fanouts: Vec<usize>,
}

impl LutAnalysis {
    /// Computes both fanout vectors in a single pass.
    pub fn of(net: &LutNetlist) -> LutAnalysis {
        let mut input_fanouts = vec![0usize; net.input_names.len()];
        let mut lut_fanouts = vec![0usize; net.luts.len()];
        let mut count = |s: &Signal| match *s {
            Signal::Input(i) => {
                if let Some(f) = input_fanouts.get_mut(i as usize) {
                    *f += 1;
                }
            }
            Signal::Lut(j) => {
                if let Some(f) = lut_fanouts.get_mut(j as usize) {
                    *f += 1;
                }
            }
            Signal::Const(_) => {}
        };
        for lut in &net.luts {
            for s in &lut.inputs {
                count(s);
            }
        }
        for (_, s) in &net.outputs {
            count(s);
        }
        LutAnalysis {
            input_fanouts,
            lut_fanouts,
        }
    }
}

impl fmt::Display for LutNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LUT{}(k={}), depth {}",
            self.name,
            self.num_luts(),
            if self.num_luts() == 1 { "" } else { "s" },
            self.k,
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2_lut() -> LutNetlist {
        let mut n = LutNetlist::new("x".into(), 6, vec!["a".into(), "b".into()]);
        let id = n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b0110),
        });
        n.push_output("y".into(), Signal::Lut(id));
        n
    }

    #[test]
    fn xor2_truth_table() {
        let n = xor2_lut();
        let out = n.eval_words(&[0b0101, 0b0011]);
        assert_eq!(out[0] & 0xF, 0b0110);
        assert_eq!(n.depth(), 1);
        assert_eq!(n.num_luts(), 1);
    }

    #[test]
    fn chained_luts_depth() {
        let mut n = LutNetlist::new("c".into(), 6, vec!["a".into()]);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: Truth::of(0b01), // NOT a
        });
        let l1 = n.push_lut(Lut {
            inputs: vec![Signal::Lut(l0)],
            truth: Truth::of(0b01), // NOT again
        });
        n.push_output("y".into(), Signal::Lut(l1));
        assert_eq!(n.depth(), 2);
        // Double negation is identity.
        assert_eq!(n.eval_words(&[0xDEAD])[0], 0xDEAD);
    }

    #[test]
    fn const_signals_evaluate() {
        let mut n = LutNetlist::new("k".into(), 6, vec![]);
        n.push_output("zero".into(), Signal::Const(false));
        n.push_output("one".into(), Signal::Const(true));
        let out = n.eval_words(&[]);
        assert_eq!(out, vec![0, u64::MAX]);
    }

    #[test]
    fn fanout_counts() {
        let mut n = LutNetlist::new("f".into(), 6, vec!["a".into(), "b".into()]);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b1000),
        });
        let l1 = n.push_lut(Lut {
            inputs: vec![Signal::Lut(l0)],
            truth: Truth::of(0b01),
        });
        n.push_output("y0".into(), Signal::Lut(l0));
        n.push_output("y1".into(), Signal::Lut(l1));
        assert_eq!(n.lut_fanouts(), vec![2, 1]);
        let analysis = LutAnalysis::of(&n);
        assert_eq!(analysis.lut_fanouts, vec![2, 1]);
        assert_eq!(analysis.input_fanouts, vec![1, 1]);
    }

    #[test]
    fn analysis_skips_invalid_references() {
        // Dangling references are the lint pass's findings, not the
        // analysis's problem: they are skipped, not counted.
        let mut n = LutNetlist::new("bad".into(), 6, vec!["a".into()]);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(7), Signal::Lut(9)],
            truth: Truth::of(0b0110_1001),
        });
        n.push_output("y".into(), Signal::Lut(l0));
        let analysis = LutAnalysis::of(&n);
        assert_eq!(analysis.input_fanouts, vec![1]);
        assert_eq!(analysis.lut_fanouts, vec![1]);
    }

    #[test]
    #[should_panic(expected = "exceeds 6 inputs")]
    fn rejects_oversized_lut() {
        let mut n = LutNetlist::new("t".into(), 6, vec![]);
        n.push_lut(Lut {
            inputs: vec![Signal::Const(false); 7],
            truth: Truth::ZERO,
        });
    }

    #[test]
    fn truth_bits_span_all_four_words() {
        let mut t = Truth::ZERO;
        assert!(!t.bit(0) && !t.bit(255));
        t = Truth([1, 0, 0, 1 << 63]);
        assert!(t.bit(0));
        assert!(t.bit(255));
        assert!(!t.bit(64) && !t.bit(128));
        assert_eq!(!Truth::ZERO, Truth::ONES);
    }

    #[test]
    fn anf_of_small_functions() {
        // Majority of 3: ab ^ bc ^ ac.
        assert_eq!(Truth::of(0b1110_1000).anf(3), vec![0b011, 0b101, 0b110]);
        // Constants.
        assert_eq!(Truth::ZERO.anf(3), Vec::<u32>::new());
        assert_eq!(Truth::of(1).anf(0), vec![0]);
        // OR: a ^ b ^ ab.
        assert_eq!(Truth::of(0b1110).anf(2), vec![0b01, 0b10, 0b11]);
        // High entries beyond 2^vars are ignored.
        assert_eq!(Truth::ONES.anf(1), vec![0]);
    }

    #[test]
    fn word_butterfly_matches_the_entrywise_transform() {
        // The entry-by-entry Möbius transform, as a reference.
        fn reference(t: Truth, vars: usize) -> Vec<u32> {
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
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            let mut words = [0u64; 4];
            for w in &mut words {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *w = x;
            }
            for vars in 0..=MAX_LUT_INPUTS {
                let t = Truth(words);
                assert_eq!(t.anf(vars), reference(t, vars), "{words:x?} over {vars}");
            }
        }
    }

    #[test]
    fn anf_reconstructs_the_truth_table() {
        // Round-trip: evaluating the ANF at every point reproduces the
        // table, for an arbitrary 7-variable function.
        let t = Truth([0x9E3779B97F4A7C15, 0xDEADBEEFCAFEF00D, 0, 0]);
        let anf = t.anf(7);
        for idx in 0..128usize {
            let v = anf
                .iter()
                .filter(|&&mask| mask as usize & idx == mask as usize)
                .count()
                % 2
                == 1;
            assert_eq!(v, t.bit(idx), "entry {idx}");
        }
    }

    #[test]
    fn truth_mask_zeroes_unused_entries() {
        let all = Truth::ONES;
        assert_eq!(all.mask(2), Truth::of(0b1111));
        assert_eq!(all.mask(6), Truth::of(u64::MAX));
        assert_eq!(all.mask(7), Truth([u64::MAX, u64::MAX, 0, 0]));
        assert_eq!(all.mask(8), all);
    }

    #[test]
    fn a_seven_input_lut_evaluates_via_the_high_words() {
        // y = parity of 7 inputs: entry idx set iff popcount(idx) is odd.
        let mut truth = Truth::ZERO;
        for idx in 0..128usize {
            if idx.count_ones() % 2 == 1 {
                truth.0[idx / 64] |= 1 << (idx % 64);
            }
        }
        let names: Vec<String> = (0..7).map(|i| format!("x{i}")).collect();
        let mut n = LutNetlist::new("par7".into(), MAX_LUT_INPUTS, names);
        let id = n.push_lut(Lut {
            inputs: (0..7).map(Signal::Input).collect(),
            truth,
        });
        n.push_output("y".into(), Signal::Lut(id));
        // Lane l: input i carries bit i of l... use per-lane constants.
        let inputs: Vec<u64> = (0..7)
            .map(|i| {
                let mut w = 0u64;
                for lane in 0..64u64 {
                    if (lane >> i) & 1 == 1 {
                        w |= 1 << lane;
                    }
                }
                w
            })
            .collect();
        let out = n.eval_words(&inputs)[0];
        for lane in 0..64u64 {
            let expect = lane.count_ones() % 2 == 1;
            assert_eq!((out >> lane) & 1 == 1, expect, "lane {lane}");
        }
    }
}
