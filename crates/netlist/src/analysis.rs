//! Structural analysis: gate counts, depth, fanout, levelization.

use std::fmt;

use crate::{Gate, Netlist};

/// Per-path gate-depth of a node or netlist, split by gate type.
///
/// The paper reports multiplier delay as `T_A + k·T_X` (one AND level —
/// the partial products — plus `k` XOR levels). For a whole netlist,
/// `ands`/`xors` are the maxima over all output cones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Depth {
    /// Maximum number of AND gates on any input→output path.
    pub ands: u32,
    /// Maximum number of XOR gates on any input→output path.
    pub xors: u32,
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.ands, self.xors) {
            (0, 0) => write!(f, "0"),
            (0, x) => write!(f, "{x}TX"),
            (a, 0) => write!(f, "{a}TA"),
            (1, x) => write!(f, "TA + {x}TX"),
            (a, x) => write!(f, "{a}TA + {x}TX"),
        }
    }
}

/// Summary statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of 2-input AND gates.
    pub ands: usize,
    /// Number of 2-input XOR gates.
    pub xors: usize,
    /// Number of constant nodes.
    pub consts: usize,
    /// Depth over all output cones.
    pub depth: Depth,
    /// Largest fanout of any node (counting output uses).
    pub max_fanout: usize,
}

impl Stats {
    /// Total 2-input gate count (ANDs + XORs) — the paper's space metric.
    pub fn gates(&self) -> usize {
        self.ands + self.xors
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in / {} out, {} AND + {} XOR, depth {}, max fanout {}",
            self.inputs, self.outputs, self.ands, self.xors, self.depth, self.max_fanout
        )
    }
}

/// Computes the per-node [`Depth`] array (indexed by `NodeId::index`).
pub fn node_depths(net: &Netlist) -> Vec<Depth> {
    let mut depths = vec![Depth::default(); net.len()];
    for id in net.node_ids() {
        let d = match net.gate(id) {
            Gate::Input(_) | Gate::Const(_) => Depth::default(),
            Gate::And(a, b) => {
                let (da, db) = (depths[a.index()], depths[b.index()]);
                Depth {
                    ands: da.ands.max(db.ands) + 1,
                    xors: da.xors.max(db.xors),
                }
            }
            Gate::Xor(a, b) => {
                let (da, db) = (depths[a.index()], depths[b.index()]);
                Depth {
                    ands: da.ands.max(db.ands),
                    xors: da.xors.max(db.xors) + 1,
                }
            }
        };
        depths[id.index()] = d;
    }
    depths
}

/// Computes the fanout of every node (number of gate operands plus
/// primary-output uses referencing it).
pub fn fanouts(net: &Netlist) -> Vec<usize> {
    let mut fanout = vec![0usize; net.len()];
    for id in net.node_ids() {
        if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
            fanout[a.index()] += 1;
            fanout[b.index()] += 1;
        }
    }
    for (_, n) in net.outputs() {
        fanout[n.index()] += 1;
    }
    fanout
}

/// Fanout and levelization of one netlist, computed together in a
/// single pass over the nodes.
///
/// Several flow stages (resynthesis, technology mapping) consume the
/// same structural facts about the netlist they share; computing them
/// once per pipeline run and threading a `NetAnalysis` through beats
/// every stage re-walking the node array for itself.
#[derive(Debug, Clone, Default)]
pub struct NetAnalysis {
    /// Per-node fanout, exactly as [`fanouts`] computes it.
    pub fanouts: Vec<usize>,
    /// Per-node topological level, exactly as [`levels`] computes it.
    pub levels: Vec<u32>,
}

impl NetAnalysis {
    /// Analyzes `net` in one pass.
    pub fn of(net: &Netlist) -> Self {
        let mut fanouts = vec![0usize; net.len()];
        let mut levels = vec![0u32; net.len()];
        for id in net.node_ids() {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
                fanouts[a.index()] += 1;
                fanouts[b.index()] += 1;
                levels[id.index()] = levels[a.index()].max(levels[b.index()]) + 1;
            }
        }
        for (_, n) in net.outputs() {
            fanouts[n.index()] += 1;
        }
        NetAnalysis { fanouts, levels }
    }
}

/// Assigns each node a topological level: inputs/constants at level 0,
/// every gate one above its deepest operand (AND and XOR both count 1).
pub fn levels(net: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; net.len()];
    for id in net.node_ids() {
        if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
            level[id.index()] = level[a.index()].max(level[b.index()]) + 1;
        }
    }
    level
}

impl Netlist {
    /// Computes summary [`Stats`] for this netlist.
    pub fn stats(&self) -> Stats {
        let mut s = Stats {
            inputs: self.num_inputs(),
            outputs: self.outputs().len(),
            ..Stats::default()
        };
        for id in self.node_ids() {
            match self.gate(id) {
                Gate::And(_, _) => s.ands += 1,
                Gate::Xor(_, _) => s.xors += 1,
                Gate::Const(_) => s.consts += 1,
                Gate::Input(_) => {}
            }
        }
        s.depth = self.depth();
        s.max_fanout = fanouts(self).into_iter().max().unwrap_or(0);
        s
    }

    /// Maximum [`Depth`] over all primary-output cones.
    pub fn depth(&self) -> Depth {
        let depths = node_depths(self);
        let mut out = Depth::default();
        for (_, n) in self.outputs() {
            let d = depths[n.index()];
            out.ands = out.ands.max(d.ands);
            out.xors = out.xors.max(d.xors);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        // y = (a & b) ^ (c & d) ^ a
        let mut net = Netlist::new("s");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let p = net.and(a, b);
        let q = net.and(c, d);
        let x = net.xor(p, q);
        let y = net.xor(x, a);
        net.output("y", y);
        net
    }

    #[test]
    fn stats_counts() {
        let s = sample().stats();
        assert_eq!(s.inputs, 4);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.ands, 2);
        assert_eq!(s.xors, 2);
        assert_eq!(s.gates(), 4);
        assert_eq!(s.depth, Depth { ands: 1, xors: 2 });
    }

    #[test]
    fn depth_display_matches_paper_notation() {
        assert_eq!(Depth { ands: 1, xors: 5 }.to_string(), "TA + 5TX");
        assert_eq!(Depth { ands: 0, xors: 0 }.to_string(), "0");
        assert_eq!(Depth { ands: 2, xors: 3 }.to_string(), "2TA + 3TX");
        assert_eq!(Depth { ands: 0, xors: 4 }.to_string(), "4TX");
    }

    #[test]
    fn fanout_counts_gate_and_output_uses() {
        let net = sample();
        let f = fanouts(&net);
        // Input a feeds one AND and one XOR.
        assert_eq!(f[0], 2);
        // The final XOR feeds only the output.
        let (_, y) = net.outputs()[0];
        assert_eq!(f[y.index()], 1);
    }

    #[test]
    fn levels_monotone_along_edges() {
        let net = sample();
        let lv = levels(&net);
        for id in net.node_ids() {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
                assert!(lv[id.index()] > lv[a.index()]);
                assert!(lv[id.index()] > lv[b.index()]);
            }
        }
    }

    #[test]
    fn net_analysis_agrees_with_standalone_passes() {
        let net = sample();
        let a = NetAnalysis::of(&net);
        assert_eq!(a.fanouts, fanouts(&net));
        assert_eq!(a.levels, levels(&net));
    }

    #[test]
    fn depth_of_empty_netlist_is_zero() {
        let net = Netlist::new("empty");
        assert_eq!(net.depth(), Depth::default());
        assert_eq!(net.stats().gates(), 0);
    }
}
