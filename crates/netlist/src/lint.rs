//! Structural lint over netlists: typed findings about hygiene defects
//! that simulation cannot see and verification should not have to
//! tolerate.
//!
//! The checks split into hard **errors** — the netlist is not a valid
//! combinational design, so no verification result over it means
//! anything (combinational cycles / non-topological order, undriven
//! signals, outputs depending on undriven signals) — and **warnings** —
//! the design is valid but wasteful or suspicious (dead nodes,
//! duplicate gates, LUT truth tables ignoring a connected input).
//!
//! [`lint_netlist`] covers the gate-level [`Netlist`]; the mapped
//! (LUT-level) counterpart lives in `rgf2m_fpga::lint::lint_mapped` and
//! reuses the same [`LintReport`] type, which is also the single source
//! of truth for the hygiene counters (`dup_gates`, `dead_nodes`)
//! surfaced in implementation reports. Both run their error passes
//! first, and expose them alone as [`lint_netlist_errors`] and
//! `lint_mapped_errors`: the precondition of the formal checks, which
//! only hard findings can fail.
//!
//! # Examples
//!
//! ```
//! use netlist::lint::{lint_netlist, LintKind};
//! use netlist::Netlist;
//!
//! let mut net = Netlist::new("dead");
//! let a = net.input("a");
//! let b = net.input("b");
//! let keep = net.xor(a, b);
//! net.and(a, b); // never referenced again
//! net.output("y", keep);
//!
//! let report = lint_netlist(&net);
//! assert!(!report.has_errors());
//! assert_eq!(report.count(LintKind::DeadNode), 1);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::analysis::{node_depths, NetAnalysis};
use crate::{Gate, Netlist, NodeId};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Valid but wasteful or suspicious.
    Warning,
    /// The netlist is not a valid combinational design.
    Error,
}

impl Severity {
    /// Lowercase name (`"warning"` / `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The category of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A gate reads a node that does not precede it — a combinational
    /// cycle or a violation of the topological-order invariant.
    CombinationalCycle,
    /// A node reads a signal that nothing drives (an out-of-range
    /// input index or a reference to a missing node).
    UndrivenInput,
    /// A primary output transitively depends on an undriven signal.
    UndrivenOutput,
    /// A non-output node that nothing reads.
    DeadNode,
    /// Two gates with the same operation and the same input set.
    DuplicateGate,
    /// A LUT truth table that is constant in one of its connected
    /// inputs (LUT-level lint only).
    IgnoredLutInput,
    /// An XOR tree deeper than the balanced `⌈log2(fanin)⌉` optimum —
    /// it burns delay the paper's Table V formulas say is unnecessary.
    UnbalancedXorTree,
    /// A gate whose whole cone is structurally identical to an earlier
    /// node's (same canonical strash class) even though its raw
    /// `(op, lhs, rhs)` triple is unique — a *transitive* duplicate the
    /// pairwise [`LintKind::DuplicateGate`] check cannot see.
    RedundantCone,
    /// Two same-operation trees over the identical leaf multiset but
    /// with different shapes — they compute the same function, yet no
    /// structural pass can merge them, so sharing was missed at
    /// construction time.
    MissedSharing,
}

impl LintKind {
    /// The severity class of this kind of finding.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::CombinationalCycle | LintKind::UndrivenInput | LintKind::UndrivenOutput => {
                Severity::Error
            }
            LintKind::DeadNode
            | LintKind::DuplicateGate
            | LintKind::IgnoredLutInput
            | LintKind::UnbalancedXorTree
            | LintKind::RedundantCone
            | LintKind::MissedSharing => Severity::Warning,
        }
    }

    /// Kebab-case name, as printed in each finding.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::CombinationalCycle => "combinational-cycle",
            LintKind::UndrivenInput => "undriven-input",
            LintKind::UndrivenOutput => "undriven-output",
            LintKind::DeadNode => "dead-node",
            LintKind::DuplicateGate => "duplicate-gate",
            LintKind::IgnoredLutInput => "ignored-lut-input",
            LintKind::UnbalancedXorTree => "unbalanced-xor-tree",
            LintKind::RedundantCone => "redundant-cone",
            LintKind::MissedSharing => "missed-sharing",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding, anchored to a node (gate-level) or LUT/output
/// index (LUT-level) — the message says which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// What category of defect this is.
    pub kind: LintKind,
    /// The node/LUT/output index the finding anchors on.
    pub node: usize,
    /// Human-readable description naming the involved signals.
    pub message: String,
}

impl LintFinding {
    /// The severity, derived from the kind.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.kind, self.message)
    }
}

/// The outcome of a lint pass: all findings, in check order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    findings: Vec<LintFinding>,
}

impl LintReport {
    /// An empty (clean) report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, kind: LintKind, node: usize, message: String) {
        self.findings.push(LintFinding {
            kind,
            node,
            message,
        });
    }

    /// All findings, in the order the checks produced them.
    pub fn findings(&self) -> &[LintFinding] {
        &self.findings
    }

    /// Number of findings of one kind.
    pub fn count(&self, kind: LintKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// `true` when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&LintFinding> {
        self.findings
            .iter()
            .find(|f| f.severity() == Severity::Error)
    }

    /// Duplicate-gate count — the `dup_gates` hygiene figure reported
    /// in `ImplReport`.
    pub fn duplicate_gates(&self) -> usize {
        self.count(LintKind::DuplicateGate)
    }

    /// Dead-node count — the `dead_nodes` hygiene figure reported in
    /// `ImplReport`.
    pub fn dead_nodes(&self) -> usize {
        self.count(LintKind::DeadNode)
    }

    /// One-line summary, e.g. `"clean"` or `"1 error(s), 3 warning(s)"`.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "clean".to_string()
        } else {
            format!("{} error(s), {} warning(s)", self.errors(), self.warnings())
        }
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// Lints a gate-level netlist: the hard findings of
/// [`lint_netlist_errors`], then the warning passes (dead nodes,
/// duplicate gates, unbalanced XOR trees, redundant cones, missed
/// sharing) appended in that order.
///
/// The hash-consing [`Netlist`] builder makes some of these defects
/// impossible to construct through its public API (duplicate gates fold
/// into one node, operands always precede users); the checks run
/// anyway so the pass also covers netlists arriving from imports or
/// future builders, and so a report is a positive certificate rather
/// than an assumption.
pub fn lint_netlist(net: &Netlist) -> LintReport {
    let mut report = lint_netlist_errors(net);
    push_warnings(net, &mut report);
    report
}

/// The error half of [`lint_netlist`]: combinational cycles, undriven
/// inputs and outputs depending on them — exactly the full lint's
/// error-severity findings, in its order, from a few linear passes.
/// A verdict that only needs to know whether the netlist is a valid
/// combinational design (the formal checks' precondition) runs this
/// half alone; warnings come from the full lint.
pub fn lint_netlist_errors(net: &Netlist) -> LintReport {
    let mut report = LintReport::new();

    // Topological order / combinational cycles: every operand must
    // strictly precede its user.
    for id in net.node_ids() {
        if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
            for op in [a, b] {
                if op >= id {
                    report.push(
                        LintKind::CombinationalCycle,
                        id.index(),
                        format!(
                            "node {} reads node {}, which does not precede it",
                            id.index(),
                            op.index()
                        ),
                    );
                }
            }
        }
    }

    // Undriven signals: an Input gate whose index is outside the
    // declared primary-input range.
    let n_inputs = net.num_inputs();
    let mut undriven = vec![false; net.len()];
    for id in net.node_ids() {
        if let Gate::Input(i) = net.gate(id) {
            if (i as usize) >= n_inputs {
                undriven[id.index()] = true;
                report.push(
                    LintKind::UndrivenInput,
                    id.index(),
                    format!(
                        "node {} reads primary input {}, but only {} are declared",
                        id.index(),
                        i,
                        n_inputs
                    ),
                );
            }
        }
    }

    // Outputs transitively depending on an undriven signal. (Only
    // backward edges are followed, so this stays sound even when order
    // violations were found above.)
    if undriven.iter().any(|&u| u) {
        let mut tainted = undriven;
        for id in net.node_ids() {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
                if a < id && b < id && (tainted[a.index()] || tainted[b.index()]) {
                    tainted[id.index()] = true;
                }
            }
        }
        for (k, (name, n)) in net.outputs().iter().enumerate() {
            if tainted[n.index()] {
                report.push(
                    LintKind::UndrivenOutput,
                    n.index(),
                    format!("output {k} ({name}) transitively depends on an undriven input"),
                );
            }
        }
    }

    report
}

/// The warning passes of [`lint_netlist`], appended to `report`.
fn push_warnings(net: &Netlist, report: &mut LintReport) {
    // Dead nodes: gates and constants nothing reads. Primary inputs
    // are exempt — an unused input is part of the declared interface,
    // not a hygiene defect.
    let analysis = NetAnalysis::of(net);
    for id in net.node_ids() {
        if analysis.fanouts[id.index()] == 0 && !matches!(net.gate(id), Gate::Input(_)) {
            report.push(
                LintKind::DeadNode,
                id.index(),
                format!(
                    "node {} ({:?}) drives neither a gate nor a primary output",
                    id.index(),
                    net.gate(id)
                ),
            );
        }
    }

    // Duplicate gates: same op, same input set. AND/XOR are both
    // commutative, so operand order is normalized before comparing.
    let mut raw_dup = vec![false; net.len()];
    let mut seen: HashMap<(bool, u32, u32), usize> = HashMap::new();
    for id in net.node_ids() {
        let key = match net.gate(id) {
            Gate::And(a, b) => (
                true,
                a.index().min(b.index()) as u32,
                a.index().max(b.index()) as u32,
            ),
            Gate::Xor(a, b) => (
                false,
                a.index().min(b.index()) as u32,
                a.index().max(b.index()) as u32,
            ),
            _ => continue,
        };
        match seen.get(&key) {
            Some(&first) => {
                raw_dup[id.index()] = true;
                report.push(
                    LintKind::DuplicateGate,
                    id.index(),
                    format!(
                        "node {} computes the same {} over the same inputs as node {first}",
                        id.index(),
                        if key.0 { "AND" } else { "XOR" },
                    ),
                );
            }
            None => {
                seen.insert(key, id.index());
            }
        }
    }

    // Unbalanced XOR trees: for each maximal XOR cluster, the depth the
    // root adds over its deepest leaf must not exceed the balanced
    // ⌈log2(fanin)⌉ optimum Table V assumes. An interior node (an XOR
    // read exactly once, by another XOR) belongs to its parent's
    // cluster; every other XOR roots one.
    let mut xor_reads = vec![0usize; net.len()];
    for id in net.node_ids() {
        if let Gate::Xor(a, b) = net.gate(id) {
            if a < id {
                xor_reads[a.index()] += 1;
            }
            if b < id {
                xor_reads[b.index()] += 1;
            }
        }
    }
    let interior = |n: NodeId| {
        matches!(net.gate(n), Gate::Xor(..))
            && analysis.fanouts[n.index()] == 1
            && xor_reads[n.index()] == 1
    };
    let depths = node_depths(net);
    for id in net.node_ids() {
        if !matches!(net.gate(id), Gate::Xor(..)) || interior(id) {
            continue;
        }
        // Collect the cluster's leaf references (with multiplicity —
        // a leaf feeding two tree nodes counts as two fanin slots).
        let mut leaves: Vec<NodeId> = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let Gate::Xor(a, b) = net.gate(n) {
                for op in [a, b] {
                    if op < n && interior(op) {
                        stack.push(op);
                    } else {
                        leaves.push(op);
                    }
                }
            }
        }
        let max_leaf_xors = leaves
            .iter()
            .map(|n| depths[n.index()].xors)
            .max()
            .unwrap_or(0);
        let added = depths[id.index()].xors.saturating_sub(max_leaf_xors);
        let optimum = ceil_log2(leaves.len());
        if added > optimum {
            report.push(
                LintKind::UnbalancedXorTree,
                id.index(),
                format!(
                    "XOR tree rooted at node {} adds {} level(s) over {} leaves; \
                     a balanced tree needs {}",
                    id.index(),
                    added,
                    leaves.len(),
                    optimum
                ),
            );
        }
    }

    // Redundant cones: two gates in the same canonical strash class
    // compute structurally identical cones. A raw pairwise duplicate is
    // already reported above; what remains here are *transitive*
    // duplicates, whose raw (op, lhs, rhs) triples differ because their
    // operands are themselves duplicated cones.
    let classes = crate::census::strash_classes(net);
    let mut class_rep: HashMap<u64, usize> = HashMap::new();
    for id in net.node_ids() {
        let op = match net.gate(id) {
            Gate::And(_, _) => "AND",
            Gate::Xor(_, _) => "XOR",
            Gate::Input(_) | Gate::Const(_) => continue,
        };
        match class_rep.get(&classes[id.index()]) {
            Some(&first) => {
                if !raw_dup[id.index()] {
                    report.push(
                        LintKind::RedundantCone,
                        id.index(),
                        format!(
                            "node {} rebuilds the same {op} cone as node {first} \
                             (transitive duplicate beyond pairwise matching)",
                            id.index(),
                        ),
                    );
                }
            }
            None => {
                class_rep.insert(classes[id.index()], id.index());
            }
        }
    }

    // Missed sharing: two same-op trees over the identical canonical
    // leaf multiset, but in *different* canonical classes — same
    // function (XOR/AND are associative and commutative), different
    // shape, so no structural pass can merge them. Clusters are maximal
    // same-op trees, extracted exactly like the XOR clusters above; a
    // 2-leaf cluster's class is determined by its leaves, so the two
    // checks never overlap.
    for want_and in [false, true] {
        let mut op_reads = vec![0usize; net.len()];
        for id in net.node_ids() {
            let same_op = match net.gate(id) {
                Gate::And(a, b) if want_and => Some((a, b)),
                Gate::Xor(a, b) if !want_and => Some((a, b)),
                _ => None,
            };
            if let Some((a, b)) = same_op {
                if a < id {
                    op_reads[a.index()] += 1;
                }
                if b < id {
                    op_reads[b.index()] += 1;
                }
            }
        }
        let is_op = |n: NodeId| match net.gate(n) {
            Gate::And(_, _) => want_and,
            Gate::Xor(_, _) => !want_and,
            _ => false,
        };
        let interior =
            |n: NodeId| is_op(n) && analysis.fanouts[n.index()] == 1 && op_reads[n.index()] == 1;
        // signature (sorted canonical leaf keys) → first root per class.
        let mut sigs: HashMap<Vec<u64>, Vec<(u64, usize)>> = HashMap::new();
        for id in net.node_ids() {
            if !is_op(id) || interior(id) {
                continue;
            }
            let mut leaf_keys: Vec<u64> = Vec::new();
            let mut stack = vec![id];
            while let Some(n) = stack.pop() {
                if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(n) {
                    for op in [a, b] {
                        if op < n && interior(op) {
                            stack.push(op);
                        } else {
                            leaf_keys.push(classes[op.index()]);
                        }
                    }
                }
            }
            leaf_keys.sort_unstable();
            let entry = sigs.entry(leaf_keys).or_default();
            let class = classes[id.index()];
            if let Some(&(_, first)) = entry.iter().find(|&&(c, _)| c != class) {
                if !entry.iter().any(|&(c, _)| c == class) {
                    report.push(
                        LintKind::MissedSharing,
                        id.index(),
                        format!(
                            "{} tree rooted at node {} computes the same function as the \
                             tree at node {first}, with a different structure",
                            if want_and { "AND" } else { "XOR" },
                            id.index(),
                        ),
                    );
                }
            }
            if !entry.iter().any(|&(c, _)| c == class) {
                entry.push((class, id.index()));
            }
        }
    }
}

/// `⌈log2(n)⌉` with `ceil_log2(0) = ceil_log2(1) = 0`.
fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_net() -> Netlist {
        let mut net = Netlist::new("clean");
        let a = net.input("a");
        let b = net.input("b");
        let p = net.and(a, b);
        let y = net.xor(p, a);
        net.output("y", y);
        net
    }

    #[test]
    fn clean_netlist_is_clean() {
        let report = lint_netlist(&clean_net());
        assert!(report.is_clean(), "{report}");
        assert!(!report.has_errors());
        assert_eq!(report.summary(), "clean");
        assert_eq!(report.to_string(), "clean");
        assert_eq!(report.first_error(), None);
    }

    #[test]
    fn dead_gate_is_a_warning() {
        let mut net = Netlist::new("dead");
        let a = net.input("a");
        let b = net.input("b");
        let keep = net.xor(a, b);
        net.and(a, b); // dead
        net.output("y", keep);
        let report = lint_netlist(&net);
        assert!(!report.has_errors());
        assert_eq!(report.count(LintKind::DeadNode), 1);
        assert_eq!(report.dead_nodes(), 1);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.summary(), "0 error(s), 1 warning(s)");
        let f = &report.findings()[0];
        assert_eq!(f.severity(), Severity::Warning);
        assert!(f.to_string().starts_with("warning[dead-node]"), "{f}");
    }

    #[test]
    fn unused_primary_input_is_not_dead() {
        let mut net = Netlist::new("iface");
        let a = net.input("a");
        let _b = net.input("b"); // declared but unused — interface, not hygiene
        let y = net.and(a, a); // folds to a; build something real instead
        net.output("y", y);
        assert!(lint_netlist(&net).is_clean());
    }

    #[test]
    fn hash_consing_prevents_duplicates_and_lint_confirms() {
        let mut net = Netlist::new("dup");
        let a = net.input("a");
        let b = net.input("b");
        let p = net.and(a, b);
        let q = net.and(b, a); // hash-consing folds this into p
        assert_eq!(p, q);
        let y = net.xor(p, a);
        net.output("y", y);
        let report = lint_netlist(&net);
        assert_eq!(report.duplicate_gates(), 0);
        assert!(report.is_clean());
    }

    #[test]
    fn severities_and_names() {
        assert_eq!(LintKind::CombinationalCycle.severity(), Severity::Error);
        assert_eq!(LintKind::UndrivenInput.severity(), Severity::Error);
        assert_eq!(LintKind::UndrivenOutput.severity(), Severity::Error);
        assert_eq!(LintKind::DeadNode.severity(), Severity::Warning);
        assert_eq!(LintKind::DuplicateGate.severity(), Severity::Warning);
        assert_eq!(LintKind::IgnoredLutInput.severity(), Severity::Warning);
        assert_eq!(LintKind::UnbalancedXorTree.severity(), Severity::Warning);
        assert_eq!(LintKind::RedundantCone.severity(), Severity::Warning);
        assert_eq!(LintKind::MissedSharing.severity(), Severity::Warning);
        assert_eq!(LintKind::IgnoredLutInput.name(), "ignored-lut-input");
        assert_eq!(LintKind::UnbalancedXorTree.name(), "unbalanced-xor-tree");
        assert_eq!(LintKind::RedundantCone.name(), "redundant-cone");
        assert_eq!(LintKind::MissedSharing.name(), "missed-sharing");
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn transitive_duplicate_cone_is_flagged() {
        // Two copies of (a&b)^c as distinct chains: the AND pair is a
        // raw duplicate, the XOR pair reads *different* operand ids and
        // only the canonical strash class exposes it.
        let mut net = Netlist::new("imported");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let ab1 = net.push_raw(Gate::And(a, b));
        let ab2 = net.push_raw(Gate::And(a, b));
        let y1 = net.push_raw(Gate::Xor(ab1, c));
        let y2 = net.push_raw(Gate::Xor(ab2, c));
        net.output("y1", y1);
        net.output("y2", y2);
        let report = lint_netlist(&net);
        assert!(!report.has_errors());
        assert_eq!(report.count(LintKind::DuplicateGate), 1);
        assert_eq!(report.count(LintKind::RedundantCone), 1);
        let f = report
            .findings()
            .iter()
            .find(|f| f.kind == LintKind::RedundantCone)
            .unwrap();
        assert_eq!(f.node, y2.index());
        assert!(f.message.contains("XOR cone"), "{f}");
        assert!(f.message.contains(&format!("node {}", y1.index())), "{f}");
    }

    #[test]
    fn shape_divergent_equal_trees_are_flagged_as_missed_sharing() {
        // t1 = (a^b)^(c^d) and t2 = (((a^b)^c)^d): the same XOR over
        // the same leaves in two shapes — constructible through the
        // hash-consing API because no single gate repeats.
        let mut net = Netlist::new("shapes");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let ab = net.xor(a, b);
        let cd = net.xor(c, d);
        let t1 = net.xor(ab, cd);
        let abc = net.xor(ab, c);
        let t2 = net.xor(abc, d);
        net.output("y1", t1);
        net.output("y2", t2);
        let report = lint_netlist(&net);
        assert!(!report.has_errors());
        assert_eq!(report.count(LintKind::MissedSharing), 1, "{report}");
        assert_eq!(report.count(LintKind::RedundantCone), 0);
        assert_eq!(report.count(LintKind::DuplicateGate), 0);
        let f = &report.findings()[0];
        assert_eq!(f.node, t2.index());
        assert!(f.message.contains("XOR tree"), "{f}");
        assert!(f.message.contains(&format!("node {}", t1.index())), "{f}");
    }

    #[test]
    fn distinct_functions_do_not_trip_the_sharing_check() {
        // Same leaf count, different leaf sets: clean.
        let mut net = Netlist::new("distinct");
        let xs: Vec<_> = (0..6).map(|i| net.input(format!("x{i}"))).collect();
        let t1 = net.xor_balanced(&xs[0..3]);
        let t2 = net.xor_chain(&xs[3..6]);
        net.output("y1", t1);
        net.output("y2", t2);
        let report = lint_netlist(&net);
        assert_eq!(report.count(LintKind::MissedSharing), 0, "{report}");
        assert_eq!(report.count(LintKind::RedundantCone), 0, "{report}");
    }

    #[test]
    fn xor_chain_is_flagged_as_unbalanced() {
        let mut net = Netlist::new("chain");
        let xs: Vec<_> = (0..5).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_chain(&xs);
        net.output("y", root);
        let report = lint_netlist(&net);
        assert!(!report.has_errors());
        assert_eq!(report.count(LintKind::UnbalancedXorTree), 1);
        let f = &report.findings()[0];
        assert_eq!(f.node, root.index());
        assert!(f.message.contains("adds 4 level(s) over 5 leaves"), "{f}");
        assert!(f.message.contains("needs 3"), "{f}");
    }

    #[test]
    fn balanced_and_depth_aware_trees_are_clean() {
        let mut net = Netlist::new("bal");
        let xs: Vec<_> = (0..13).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_balanced(&xs);
        net.output("y", root);
        assert!(lint_netlist(&net).is_clean());

        // Huffman pairing over unequal depths never exceeds the
        // balanced bound either (it is the optimum).
        let mut net = Netlist::new("huff");
        let deep_leaves: Vec<_> = (0..8).map(|i| net.input(format!("d{i}"))).collect();
        let deep = net.xor_balanced(&deep_leaves);
        let shallow: Vec<_> = (0..3).map(|i| net.input(format!("s{i}"))).collect();
        let nodes: Vec<_> = std::iter::once(deep).chain(shallow).collect();
        let root = net.xor_depth_aware(&nodes);
        net.output("y", root);
        assert!(lint_netlist(&net).is_clean());
    }

    #[test]
    fn shared_subtrees_split_clusters_without_false_positives() {
        // A 4-leaf balanced tree whose left pair also drives an output:
        // the pair has fanout 2, so it is a leaf of the root's cluster
        // and a root of its own — both within the balanced optimum.
        let mut net = Netlist::new("shared");
        let xs: Vec<_> = (0..4).map(|i| net.input(format!("x{i}"))).collect();
        let left = net.xor(xs[0], xs[1]);
        let right = net.xor(xs[2], xs[3]);
        let root = net.xor(left, right);
        net.output("pair", left);
        net.output("y", root);
        assert!(lint_netlist(&net).is_clean());
    }

    /// The error-severity findings of the full lint, in order.
    fn full_errors(net: &Netlist) -> Vec<LintFinding> {
        lint_netlist(net)
            .findings()
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .cloned()
            .collect()
    }

    #[test]
    fn error_half_is_the_full_lints_error_subset() {
        // Undriven inputs (one feeding an output, one dead) next to
        // warnings the error half must leave out.
        let mut net = Netlist::new("undriven");
        let a = net.input("a");
        let b = net.input("b");
        let ghost = net.push_raw(Gate::Input(7));
        let stray = net.push_raw(Gate::Input(9));
        let y = net.xor(a, ghost);
        let z = net.xor_chain(&[a, b, ghost, stray]);
        net.and(a, b); // dead
        net.output("y", y);
        net.output("z", z);
        net.output("w", b);
        let errors = lint_netlist_errors(&net);
        assert_eq!(errors.findings(), full_errors(&net).as_slice());
        assert_eq!(errors.count(LintKind::UndrivenInput), 2);
        assert_eq!(errors.count(LintKind::UndrivenOutput), 2);
        assert!(lint_netlist(&net).warnings() > 0);
        assert_eq!(errors.warnings(), 0);

        // A clean netlist has a clean error half; a merely wasteful
        // one too.
        assert!(lint_netlist_errors(&clean_net()).is_clean());
        let mut net = Netlist::new("chain");
        let xs: Vec<_> = (0..5).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_chain(&xs);
        net.output("y", root);
        assert!(lint_netlist_errors(&net).is_clean());
        assert!(!lint_netlist(&net).is_clean());
    }

    #[test]
    fn report_display_lists_findings() {
        let mut report = LintReport::new();
        report.push(LintKind::DeadNode, 3, "node 3 is dead".into());
        report.push(LintKind::CombinationalCycle, 5, "node 5 loops".into());
        let text = report.to_string();
        assert!(
            text.contains("warning[dead-node]: node 3 is dead"),
            "{text}"
        );
        assert!(
            text.contains("error[combinational-cycle]: node 5 loops"),
            "{text}"
        );
        assert_eq!(report.errors(), 1);
        assert!(report.has_errors());
        assert_eq!(report.first_error().unwrap().node, 5);
    }
}
