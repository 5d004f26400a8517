//! Property-based tests: random netlists keep their invariants through
//! construction, DCE and simulation.

use netlist::{analysis, Gate, Netlist, NodeId};
use proptest::prelude::*;

/// A recipe for building a random netlist: a list of (op, lhs, rhs)
/// picks over the nodes created so far.
#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    steps: Vec<(bool, usize, usize)>, // (is_and, a_sel, b_sel)
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        2usize..=6,
        proptest::collection::vec((any::<bool>(), 0usize..64, 0usize..64), 1..40),
    )
        .prop_map(|(inputs, steps)| Recipe { inputs, steps })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut net = Netlist::new("random");
    let mut nodes: Vec<NodeId> = (0..recipe.inputs)
        .map(|i| net.input(format!("x{i}")))
        .collect();
    for &(is_and, a_sel, b_sel) in &recipe.steps {
        let a = nodes[a_sel % nodes.len()];
        let b = nodes[b_sel % nodes.len()];
        let n = if is_and { net.and(a, b) } else { net.xor(a, b) };
        nodes.push(n);
    }
    net.output("y", *nodes.last().unwrap());
    net
}

proptest! {
    #[test]
    fn topological_invariant_holds(recipe in arb_recipe()) {
        let net = build(&recipe);
        for id in net.node_ids() {
            if let Gate::And(a, b) | Gate::Xor(a, b) = net.gate(id) {
                prop_assert!(a < id);
                prop_assert!(b < id);
            }
        }
    }

    #[test]
    fn dce_preserves_behaviour(recipe in arb_recipe()) {
        let net = build(&recipe);
        let clean = net.eliminate_dead_code();
        prop_assert!(clean.len() <= net.len());
        prop_assert!(
            netlist::sim::check_equivalent_exhaustive(&net, &clean).is_equivalent()
        );
    }

    #[test]
    fn dce_is_idempotent(recipe in arb_recipe()) {
        let once = build(&recipe).eliminate_dead_code();
        let twice = once.eliminate_dead_code();
        prop_assert_eq!(once.len(), twice.len());
    }

    #[test]
    fn word_sim_matches_bool_sim(recipe in arb_recipe(), lane_bits in any::<u64>()) {
        let net = build(&recipe);
        let n = net.num_inputs();
        // Derive one concrete assignment from lane_bits.
        let ins: Vec<bool> = (0..n).map(|i| (lane_bits >> i) & 1 == 1).collect();
        let words: Vec<u64> = ins.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let from_words: Vec<bool> = net.eval_words(&words).iter().map(|w| w & 1 == 1).collect();
        prop_assert_eq!(net.eval_bool(&ins), from_words);
    }

    #[test]
    fn depth_never_exceeds_gate_count(recipe in arb_recipe()) {
        let net = build(&recipe);
        let s = net.stats();
        prop_assert!(s.depth.ands as usize <= s.ands);
        prop_assert!(s.depth.xors as usize <= s.xors);
    }

    #[test]
    fn levels_bound_depth(recipe in arb_recipe()) {
        let net = build(&recipe);
        let lv = analysis::levels(&net);
        let d = net.depth();
        let max_level = lv.iter().copied().max().unwrap_or(0);
        // The unified level count dominates each per-type depth (but not
        // necessarily their sum — the two maxima may come from different
        // paths).
        prop_assert!(d.ands <= max_level);
        prop_assert!(d.xors <= max_level);
    }

    #[test]
    fn xor_balanced_equals_xor_chain_functionally(
        n_leaves in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut net = Netlist::new("cmp");
        let leaves: Vec<NodeId> = (0..n_leaves).map(|i| net.input(format!("x{i}"))).collect();
        let bal = net.xor_balanced(&leaves);
        let chain = net.xor_chain(&leaves);
        let aware = net.xor_depth_aware(&leaves);
        net.output("bal", bal);
        net.output("chain", chain);
        net.output("aware", aware);
        let ins: Vec<bool> = (0..n_leaves).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let out = net.eval_bool(&ins);
        prop_assert_eq!(out[0], out[1]);
        prop_assert_eq!(out[0], out[2]);
    }
}
