//! Technology-independent resynthesis: XOR-cluster re-association.
//!
//! Structural LUT mapping cannot re-associate XOR trees, so the shape of
//! the input netlist's XOR network leaks straight into mapping quality
//! (see `map::tests::xor36_structural_mapping_needs_three_levels`).
//! Synthesis tools fix this by collapsing maximal single-fanout XOR
//! cones into n-ary XORs and re-decomposing them with the LUT capacity
//! in mind. This pass is our stand-in for that XST behaviour — the
//! "freedom to optimize the synthesis" the paper hands to the tool by
//! removing the parenthesised restrictions.
//!
//! Multi-fanout nodes are *cluster boundaries*: their logic is shared,
//! and replicating it is the mapper's decision, not the resynthesiser's.
//! This is exactly why the paper's flat Table IV netlists (no forced
//! shared pair nodes) resynthesize better than the parenthesised Table
//! III netlists of \[7\].
//!
//! The re-decomposition is *LUT-aware* on two axes:
//!
//! * **capacity** — leaves are greedily packed into groups whose total
//!   fresh-input demand fits one LUT (an AND product contributes two
//!   inputs, an already-mapped wire one);
//! * **depth** — groups are formed level by level on an estimated LUT
//!   depth, so shallow leaves combine first and deep leaves join near
//!   the root (the same-level discipline of the paper's \[7\], applied
//!   at LUT granularity instead of gate granularity).

use std::collections::HashMap;

use netlist::{analysis, Gate, Netlist, NodeId};

/// Rebalances every maximal single-fanout XOR cluster into a LUT-aware
/// decomposition for LUT width `k`.
///
/// AND gates, inputs, constants and multi-fanout XOR nodes are preserved
/// (modulo hash-consing); functionality is unchanged — the test-suite
/// re-verifies equivalence exhaustively on random netlists.
///
/// # Panics
///
/// Panics if `k < 2`.
///
/// # Examples
///
/// ```
/// use netlist::Netlist;
/// use rgf2m_fpga::resynth::rebalance_xors;
///
/// // A worst-case XOR chain...
/// let mut net = Netlist::new("chain");
/// let ins: Vec<_> = (0..36).map(|i| net.input(format!("x{i}"))).collect();
/// let root = net.xor_chain(&ins);
/// net.output("y", root);
/// assert_eq!(net.depth().xors, 35);
///
/// // ...rebalanced into a LUT-aware decomposition: logarithmic depth.
/// let balanced = rebalance_xors(&net, 6);
/// assert!(balanced.depth().xors <= 6);
/// ```
pub fn rebalance_xors(net: &Netlist, k: usize) -> Netlist {
    assert!(k >= 2, "chunk width must be at least 2");
    let fanouts = analysis::NetAnalysis::of(net).fanouts;
    let mut out = Netlist::new(net.name().to_string());
    let mut remap: Vec<Option<NodeId>> = vec![None; net.len()];
    // Estimated LUT depth of every *new* XOR cluster root we create.
    let mut est: HashMap<NodeId, u32> = HashMap::new();

    // A node is interior if it is an XOR feeding exactly one XOR parent.
    let mut is_interior = vec![false; net.len()];
    for id in net.node_ids() {
        if let Gate::Xor(a, b) = net.gate(id) {
            for child in [a, b] {
                if matches!(net.gate(child), Gate::Xor(_, _)) && fanouts[child.index()] == 1 {
                    is_interior[child.index()] = true;
                }
            }
        }
    }

    for id in net.node_ids() {
        if is_interior[id.index()] {
            continue; // materialized inside its cluster root
        }
        let new_id = match net.gate(id) {
            Gate::Input(i) => out.input(net.input_names()[i as usize].clone()),
            Gate::Const(v) => out.constant(v),
            Gate::And(a, b) => {
                let (na, nb) = (resolve(&remap, a), resolve(&remap, b));
                out.and(na, nb)
            }
            Gate::Xor(_, _) => {
                let mut leaves = Vec::new();
                collect_cluster_leaves(net, id, &is_interior, &mut leaves);
                let mapped: Vec<NodeId> = leaves.iter().map(|&l| resolve(&remap, l)).collect();
                build_cluster(&mut out, &mapped, k, &mut est)
            }
        };
        remap[id.index()] = Some(new_id);
    }
    for (name, o) in net.outputs() {
        out.output(name.clone(), resolve(&remap, *o));
    }
    out
}

fn resolve(remap: &[Option<NodeId>], id: NodeId) -> NodeId {
    remap[id.index()].expect("operands resolved in topological order")
}

/// Collects the non-interior descendants reached through interior XORs.
fn collect_cluster_leaves(
    net: &Netlist,
    root: NodeId,
    is_interior: &[bool],
    leaves: &mut Vec<NodeId>,
) {
    let Gate::Xor(a, b) = net.gate(root) else {
        unreachable!("cluster roots are XOR gates");
    };
    for child in [a, b] {
        if is_interior[child.index()] {
            collect_cluster_leaves(net, child, is_interior, leaves);
        } else {
            leaves.push(child);
        }
    }
}

/// Fresh-input demand of a leaf when absorbed into a LUT: an AND product
/// brings both operands, a mapped wire or primary input brings itself.
fn leaf_width(out: &Netlist, n: NodeId) -> u32 {
    match out.gate(n) {
        Gate::And(_, _) => 2,
        Gate::Const(_) => 0,
        _ => 1,
    }
}

/// Estimated LUT depth of a leaf: 0 for inputs/constants/AND products
/// (absorbable into the consuming LUT), the recorded estimate for XOR
/// cluster roots built earlier.
fn leaf_est(out: &Netlist, n: NodeId, est: &HashMap<NodeId, u32>) -> u32 {
    match out.gate(n) {
        Gate::Xor(_, _) => est.get(&n).copied().unwrap_or(1),
        _ => 0,
    }
}

/// Builds one cluster: depth-synchronized, capacity-packed grouping.
fn build_cluster(
    out: &mut Netlist,
    leaves: &[NodeId],
    k: usize,
    est: &mut HashMap<NodeId, u32>,
) -> NodeId {
    if leaves.is_empty() {
        return out.constant(false);
    }
    use std::collections::BTreeMap;
    // Buckets: estimated LUT depth → nodes (kept in insertion order for
    // determinism).
    let mut buckets: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let mut count = 0usize;
    for &l in leaves {
        buckets.entry(leaf_est(out, l, est)).or_default().push(l);
        count += 1;
    }
    while count > 1 {
        let (&d, _) = buckets.iter().next().expect("count > 1 implies nonempty");
        let nodes = buckets.remove(&d).expect("present");
        if nodes.len() == 1 && !buckets.is_empty() {
            // A lone shallow node rises for free: joining a deeper group
            // later costs no extra level.
            let (&next, _) = buckets.iter().next().expect("nonempty");
            buckets.entry(next).or_default().insert(0, nodes[0]);
            continue;
        }
        // Greedy capacity packing: groups whose total fresh-input demand
        // fits one k-LUT.
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut cur: Vec<NodeId> = Vec::new();
        let mut cur_w = 0u32;
        for n in nodes {
            let w = leaf_width(out, n).max(1);
            if !cur.is_empty() && cur_w + w > k as u32 {
                groups.push(std::mem::take(&mut cur));
                cur_w = 0;
            }
            cur_w += w;
            cur.push(n);
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
        for g in groups {
            count -= g.len();
            let (node, delta) = if g.len() == 1 {
                (g[0], 0) // singleton group: no gate, no level
            } else {
                (out.xor_balanced(&g), 1)
            };
            let nd = d + delta;
            if matches!(out.gate(node), Gate::Xor(_, _)) {
                est.insert(node, nd);
            }
            buckets.entry(nd).or_default().push(node);
            count += 1;
        }
        // Guard against a pathological no-progress loop: if everything
        // sits in one bucket as singleton groups of width > k, pair them.
        if count > 1 && buckets.len() == 1 {
            let (&dd, v) = buckets.iter().next().expect("nonempty");
            if v.len() == count && v.iter().all(|&n| leaf_width(out, n).max(1) > k as u32 / 2) {
                let nodes = buckets.remove(&dd).expect("present");
                let mut next = Vec::new();
                for pair in nodes.chunks(2) {
                    let n = if pair.len() == 2 {
                        out.xor(pair[0], pair[1])
                    } else {
                        pair[0]
                    };
                    if matches!(out.gate(n), Gate::Xor(_, _)) {
                        est.insert(n, dd + 1);
                    }
                    next.push(n);
                }
                count = next.len();
                buckets.insert(dd + 1, next);
            }
        }
    }
    let (_, v) = buckets.into_iter().next().expect("one node left");
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formal::verify_equivalent;
    use crate::map::map_to_luts;
    use crate::Pipeline;
    use netlist::sim::check_equivalent_exhaustive;

    fn xor_chain_net(leaves: usize) -> Netlist {
        let mut net = Netlist::new("chain");
        let ins: Vec<_> = (0..leaves).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_chain(&ins);
        net.output("y", root);
        net
    }

    #[test]
    fn rebalanced_36_leaf_cluster_maps_to_depth_2() {
        let net = xor_chain_net(36);
        let re = rebalance_xors(&net, 6);
        let mapped = map_to_luts(&re, &Pipeline::new().map_options());
        assert_eq!(mapped.depth(), 2, "{mapped}");
        assert_eq!(mapped.num_luts(), 7, "{mapped}");
        assert_eq!(verify_equivalent(&re, &mapped), Ok(()));
    }

    #[test]
    fn product_leaves_pack_by_input_demand() {
        // XOR of 9 AND products = 18 inputs; 3 products fit one LUT6, so
        // the optimal cover is 3 + 1 LUTs at depth 2. Capacity-aware
        // grouping must make that reachable for the structural mapper.
        let mut net = Netlist::new("prods");
        let mut prods = Vec::new();
        for i in 0..9 {
            let a = net.input(format!("a{i}"));
            let b = net.input(format!("b{i}"));
            prods.push(net.and(a, b));
        }
        let root = net.xor_chain(&prods);
        net.output("y", root);
        let re = rebalance_xors(&net, 6);
        let mapped = map_to_luts(&re, &Pipeline::new().map_options());
        assert_eq!(mapped.depth(), 2, "{mapped}");
        assert_eq!(mapped.num_luts(), 4, "{mapped}");
        assert_eq!(verify_equivalent(&re, &mapped), Ok(()));
    }

    #[test]
    fn deep_leaves_join_near_the_root() {
        // One deep shared XOR subtree + many shallow inputs: the deep
        // leaf must not be buried under shallow groups.
        let mut net = Netlist::new("deep");
        let deep_ins: Vec<_> = (0..8).map(|i| net.input(format!("d{i}"))).collect();
        let deep1 = net.xor_balanced(&deep_ins);
        let deep2 = {
            // multi-fanout: boundary
            let extra = net.input("e");
            net.xor(deep1, extra)
        };
        let use2 = net.input("u");
        let side = net.xor(deep2, use2); // second fanout for deep2
        net.output("side", side);
        let shallow: Vec<_> = (0..10).map(|i| net.input(format!("s{i}"))).collect();
        let mut cluster = deep2;
        for s in shallow {
            cluster = net.xor(cluster, s);
        }
        net.output("y", cluster);
        let re = rebalance_xors(&net, 6);
        assert!(check_equivalent_exhaustive(&net, &re).is_equivalent());
        // Depth must not exceed the deep subtree's depth + a small
        // combination overhead.
        assert!(re.depth().xors <= net.depth().xors);
    }

    #[test]
    fn preserves_function_on_mixed_networks() {
        let mut net = Netlist::new("mix");
        let ins: Vec<_> = (0..10).map(|i| net.input(format!("x{i}"))).collect();
        let p1 = net.and(ins[0], ins[1]);
        let p2 = net.and(ins[2], ins[3]);
        let x1 = net.xor(p1, p2);
        let x2 = net.xor(x1, ins[4]);
        let x3 = net.xor(x2, ins[5]);
        let shared = net.xor(ins[6], ins[7]); // multi-fanout XOR
        let y1 = net.xor(x3, shared);
        let y2 = net.xor(shared, ins[8]);
        let y3 = net.and(y2, ins[9]);
        net.output("y1", y1);
        net.output("y3", y3);
        let re = rebalance_xors(&net, 6);
        assert!(check_equivalent_exhaustive(&net, &re).is_equivalent());
    }

    #[test]
    fn multi_fanout_xor_stays_shared() {
        let mut net = Netlist::new("shared");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let shared = net.xor(a, b);
        let y1 = net.xor(shared, c);
        let y2 = net.xor(shared, d);
        net.output("y1", y1);
        net.output("y2", y2);
        let re = rebalance_xors(&net, 6);
        // The shared node must still exist once: 3 XOR clusters → 3 XORs.
        assert_eq!(re.stats().xors, 3);
        assert!(check_equivalent_exhaustive(&net, &re).is_equivalent());
    }

    #[test]
    fn ands_are_untouched() {
        let mut net = Netlist::new("ands");
        let a = net.input("a");
        let b = net.input("b");
        let p = net.and(a, b);
        let q = net.and(p, a);
        net.output("y", q);
        let re = rebalance_xors(&net, 6);
        assert_eq!(re.stats().ands, 2);
        assert_eq!(re.stats().xors, 0);
        assert!(check_equivalent_exhaustive(&net, &re).is_equivalent());
    }

    #[test]
    fn idempotent_within_one_pass() {
        let net = xor_chain_net(20);
        let once = rebalance_xors(&net, 6);
        let twice = rebalance_xors(&once, 6);
        // A second pass may reshuffle but must not grow the network.
        assert!(twice.stats().xors <= once.stats().xors);
        assert!(twice.depth().xors <= once.depth().xors);
        assert!(check_equivalent_exhaustive(&net, &twice).is_equivalent());
    }

    #[test]
    fn chunk_of_two_is_plain_balancing() {
        let net = xor_chain_net(16);
        let re = rebalance_xors(&net, 2);
        assert!(re.depth().xors <= 5);
        assert!(check_equivalent_exhaustive(&net, &re).is_equivalent());
    }

    #[test]
    #[should_panic(expected = "chunk width")]
    fn rejects_chunk_one() {
        let _ = rebalance_xors(&xor_chain_net(4), 1);
    }
}
