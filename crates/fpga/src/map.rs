//! Priority-cuts k-LUT technology mapping.
//!
//! The classic algorithm family behind ABC's `if` command and commercial
//! mappers: enumerate a bounded set of k-feasible cuts per node, label
//! nodes with their optimal mapped depth, then select covering cuts
//! under required-time constraints while minimizing area flow.
//!
//! The data plane is allocation-free on the hot path: cut leaves live in
//! one flat arena (`CutStore`) addressed by `(start, len)` ranges,
//! every cut carries a 64-bit leaf-membership signature for O(1) dedup
//! and merge-infeasibility pre-checks, candidates are kept in a bounded
//! priority list (never more than `cuts_per_node` live, however many
//! merges a wide-LUT node produces), and cone truth extraction uses an
//! epoch-stamped memo instead of a per-cone `HashMap`. All of it is
//! allocated per mapping and dropped with it, and all of it is
//! bit-identical to the straightforward collect/dedup/sort formulation.

use netlist::analysis::NetAnalysis;
use netlist::{Gate, Netlist, NodeId};

use crate::lut::{Lut, LutNetlist, Signal, Truth, MAX_LUT_INPUTS};

/// How much restructuring freedom the mapper has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMode {
    /// Cones may absorb multi-fanout internal nodes (duplicating their
    /// logic into several LUTs) — full synthesis freedom, the behaviour
    /// the paper's *proposed* flat netlists are designed to exploit.
    Free,
    /// Multi-fanout nodes act as cut barriers: every shared node becomes
    /// its own LUT root. Models a conservative synthesiser that honours
    /// the structural sharing present in the input netlist — the
    /// behaviour the parenthesised netlists of \[7\] force.
    FanoutPreserving,
}

/// Options controlling [`map_to_luts`]. [`crate::Pipeline::map_options`]
/// builds them from the pipeline's target and mapper mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOptions {
    /// LUT input width `k` (≤ [`MAX_LUT_INPUTS`]).
    pub k: usize,
    /// Priority-cut list length per node.
    pub cuts_per_node: usize,
    /// Restructuring freedom.
    pub mode: MapMode,
}

impl MapOptions {
    /// The width-derived priority-cut budget: 8 for the narrow fabrics,
    /// 4 once `k` reaches 8.
    ///
    /// Cut enumeration cost grows with the square of the list length,
    /// and the k = 8 ALM-style fabric pays that on far more feasible
    /// merges per node; halving the budget there keeps wide-LUT mapping
    /// bounded. [`crate::Pipeline::map_options`] applies it.
    pub(crate) fn default_cuts_for(k: usize) -> usize {
        if k >= 8 {
            4
        } else {
            8
        }
    }
}

/// 64-bit leaf-membership signature: bit `l % 64` is set for every leaf
/// `l`. Equal leaf sets have equal signatures, so a signature mismatch
/// refutes equality in O(1); `(sa | sb).count_ones()` lower-bounds the
/// size of the true leaf union, so exceeding `k` proves a merge
/// infeasible without touching the leaves.
fn leaf_sig(leaves: &[u32]) -> u64 {
    leaves.iter().fold(0u64, |s, &l| s | 1u64 << (l % 64))
}

/// Signature-level domination pre-check: `true` proves `a ⊄ b` (some
/// leaf of `a` maps to a bit `b` has no leaf on); `false` means "maybe a
/// subset" and a real comparison is needed.
fn sig_refutes_subset(sa: u64, sb: u64) -> bool {
    sa & !sb != 0
}

/// Merges two sorted leaf sets into `out` (whose length is the cut
/// capacity `k`); `None` if the union does not fit.
fn merge_leaves_into(a: &[u32], b: &[u32], out: &mut [u32]) -> Option<usize> {
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if len == out.len() {
            return None;
        }
        out[len] = next;
        len += 1;
    }
    Some(len)
}

/// Per-cut metadata; the leaves live in the [`CutStore`] arena.
#[derive(Debug, Clone, Copy)]
struct CutMeta {
    start: u32,
    len: u16,
    sig: u64,
    /// Mapped depth if this cut implements its root.
    depth: u32,
    /// Area-flow estimate of this cut.
    area_flow: f64,
}

/// Arena-backed cut store: one flat leaf buffer plus `(start, len)`
/// ranges, so enumeration allocates nothing per cut and the cuts of one
/// node are contiguous in memory.
#[derive(Debug, Default)]
struct CutStore {
    /// Flat leaf arena; every cut is a slice of this.
    leaves: Vec<u32>,
    /// Per-cut metadata, in arena order.
    cuts: Vec<CutMeta>,
    /// Per-node `(first_cut, cut_count)` range into `cuts`, indexed by
    /// node. The trivial cut of a node is always the last of its range.
    ranges: Vec<(u32, u32)>,
}

impl CutStore {
    fn with_nodes(nodes: usize) -> Self {
        CutStore {
            ranges: Vec::with_capacity(nodes),
            ..CutStore::default()
        }
    }

    fn leaves_of(&self, m: &CutMeta) -> &[u32] {
        &self.leaves[m.start as usize..m.start as usize + m.len as usize]
    }

    fn push_cut(&mut self, leaves: &[u32], sig: u64, depth: u32, area_flow: f64) {
        let start = self.leaves.len() as u32;
        self.leaves.extend_from_slice(leaves);
        self.cuts.push(CutMeta {
            start,
            len: leaves.len() as u16,
            sig,
            depth,
            area_flow,
        });
    }

    /// Closes the current node: every cut pushed since the previous
    /// close belongs to it.
    fn close_node(&mut self) {
        let prev_end = self.ranges.last().map_or(0, |&(s, c)| s + c);
        self.ranges
            .push((prev_end, self.cuts.len() as u32 - prev_end));
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotMeta {
    len: u16,
    sig: u64,
    depth: u32,
    area_flow: f64,
}

/// Bounded priority list of candidate cuts for one node — the pruning
/// that keeps k ≥ 8 enumeration bounded.
///
/// Produces exactly the same cuts, in the same order, as "collect every
/// merge, drop duplicates by first occurrence, stable-sort by (depth,
/// area flow, leaf count), truncate to `cap`", while never holding more
/// than `cap` live candidates: a new cut is inserted after every entry
/// whose key is ≤ its own, the overflow entry is evicted, and a cut
/// that would rank past the end is rejected outright. Duplicates of a
/// live entry are caught by signature + leaf comparison; a duplicate of
/// an evicted or rejected entry shares its key, which by then is never
/// below the tail's, so ordering alone rejects it.
#[derive(Debug)]
struct CandList {
    k: usize,
    cap: usize,
    /// `cap + 1` slots of `k` leaves each: the live entries plus one
    /// spare that the next merge lands in — insertion and eviction swap
    /// slot ids, never leaves.
    slots: Vec<u32>,
    metas: Vec<SlotMeta>,
    /// Live slot ids, best key first.
    order: Vec<u32>,
    /// The slot the next candidate is merged into.
    spare: u32,
    /// Next never-yet-used slot id while the list is filling up.
    next_fresh: u32,
}

impl CandList {
    fn new(k: usize, cap: usize) -> Self {
        CandList {
            k,
            cap,
            slots: vec![0; (cap + 1) * k],
            metas: vec![SlotMeta::default(); cap + 1],
            order: Vec::new(),
            spare: 0,
            next_fresh: 1,
        }
    }

    fn begin_node(&mut self) {
        self.order.clear();
        self.spare = 0;
        self.next_fresh = 1;
    }

    fn spare_slot_mut(&mut self) -> &mut [u32] {
        let s = self.spare as usize * self.k;
        &mut self.slots[s..s + self.k]
    }

    fn spare_leaves(&self, len: usize) -> &[u32] {
        let s = self.spare as usize * self.k;
        &self.slots[s..s + len]
    }

    fn slot_leaves(&self, slot: u32) -> &[u32] {
        let s = slot as usize * self.k;
        &self.slots[s..s + self.metas[slot as usize].len as usize]
    }

    /// Offers the candidate sitting in the spare slot to the list.
    fn try_insert(&mut self, len: usize, sig: u64, depth: u32, area_flow: f64) {
        use std::cmp::Ordering;
        // Dedup against the live entries. A duplicate must be a mutual
        // subset, so either direction of the signature domination check
        // refutes most non-duplicates without touching leaves.
        for &id in &self.order {
            let m = self.metas[id as usize];
            if sig_refutes_subset(sig, m.sig) || sig_refutes_subset(m.sig, sig) {
                continue;
            }
            if m.len as usize == len && self.slot_leaves(id) == self.spare_leaves(len) {
                return;
            }
        }
        // Stable position: after every entry whose key is ≤ ours.
        let mut pos = self.order.len();
        while pos > 0 {
            let m = self.metas[self.order[pos - 1] as usize];
            let above = m
                .depth
                .cmp(&depth)
                .then(m.area_flow.partial_cmp(&area_flow).unwrap())
                .then((m.len as usize).cmp(&len))
                == Ordering::Greater;
            if !above {
                break;
            }
            pos -= 1;
        }
        if pos == self.cap {
            return;
        }
        self.metas[self.spare as usize] = SlotMeta {
            len: len as u16,
            sig,
            depth,
            area_flow,
        };
        if self.order.len() == self.cap {
            let evicted = self.order.pop().expect("cap >= 1");
            self.order.insert(pos, self.spare);
            self.spare = evicted;
        } else {
            self.order.insert(pos, self.spare);
            self.spare = self.next_fresh;
            self.next_fresh += 1;
        }
    }

    fn best_depth(&self) -> Option<u32> {
        self.order.first().map(|&id| self.metas[id as usize].depth)
    }

    /// Depth of the worst live entry once the list is full. While there
    /// is still room nothing can be rejected on depth alone, so `None`.
    /// A candidate strictly deeper than this ranks past the end and
    /// [`CandList::try_insert`] would reject it — callers can skip the
    /// merge work outright (a duplicate of a live entry is never that
    /// deep: it shares the live entry's key, which is at most the
    /// tail's).
    fn tail_depth(&self) -> Option<u32> {
        (self.order.len() == self.cap)
            .then(|| self.metas[*self.order.last().expect("cap >= 1") as usize].depth)
    }

    fn min_area_flow(&self) -> f64 {
        self.order
            .iter()
            .map(|&id| self.metas[id as usize].area_flow)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Epoch-stamped memo for cone evaluation: one [`Truth`] slot and one
/// stamp per node; an entry is valid only when its stamp equals the
/// current epoch, so bumping the epoch invalidates the whole memo in
/// O(1) — no per-cone `HashMap`, no clearing between cones.
#[derive(Debug, Default)]
struct ConeMemo {
    values: Vec<Truth>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConeMemo {
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.values.resize(nodes, Truth::ZERO);
        }
        if self.epoch == u32::MAX {
            // One full wipe every 2^32 cones keeps stamps sound across
            // epoch wrap-around.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn get(&self, idx: usize) -> Option<Truth> {
        (self.stamp[idx] == self.epoch).then(|| self.values[idx])
    }

    fn set(&mut self, idx: usize, v: Truth) {
        self.stamp[idx] = self.epoch;
        self.values[idx] = v;
    }
}

/// Maps a gate netlist to k-input LUTs.
///
/// Returns a [`LutNetlist`] with the same interface (input order and
/// output names). Every mapping should be proved equivalent with
/// [`crate::formal::verify_equivalent`]; the flow does this
/// automatically. Each call analyzes the netlist and allocates its own
/// scratch (the arena cut store, the bounded candidate list, the
/// epoch-stamped cone memo and the selection work arrays), which it
/// frees on return.
///
/// # Panics
///
/// Panics if `opts.k` is 0 or greater than [`MAX_LUT_INPUTS`] (truth
/// tables are stored in one [`Truth`]) or if `opts.cuts_per_node` is 0.
pub fn map_to_luts(net: &Netlist, opts: &MapOptions) -> LutNetlist {
    assert!(
        (1..=MAX_LUT_INPUTS).contains(&opts.k),
        "k must be in 1..={MAX_LUT_INPUTS}"
    );
    assert!(opts.cuts_per_node >= 1, "cuts_per_node must be at least 1");
    let n = net.len();
    let analysis = NetAnalysis::of(net);
    let fanouts: &[usize] = &analysis.fanouts;
    let mut store = CutStore::with_nodes(n);
    let mut cands = CandList::new(opts.k, opts.cuts_per_node);
    let mut cone = ConeMemo::default();
    let mut labels = vec![0u32; n];
    let mut areas = vec![0.0f64; n];

    // Phase 1: cut enumeration + depth labels + area flow, in topo order.
    for id in net.node_ids() {
        let idx = id.index();
        match net.gate(id) {
            Gate::Input(_) | Gate::Const(_) => {
                let trivial = [idx as u32];
                store.push_cut(&trivial, leaf_sig(&trivial), 0, 0.0);
                store.close_node();
            }
            Gate::And(a, b) | Gate::Xor(a, b) => {
                cands.begin_node();
                let child_range = |child: NodeId| -> (u32, u32) {
                    let (first, count) = store.ranges[child.index()];
                    let trivial_only = opts.mode == MapMode::FanoutPreserving
                        && fanouts[child.index()] > 1
                        && matches!(net.gate(child), Gate::And(_, _) | Gate::Xor(_, _));
                    if trivial_only {
                        (first + count - 1, 1)
                    } else {
                        (first, count)
                    }
                };
                let (fa, ca) = child_range(a);
                let (fb, cb) = child_range(b);
                // A child cut's deepest-leaf label is recoverable from
                // its stored depth (`depth - 1` for enumerated cuts,
                // the child's own label for its trivial cut), so the
                // merged cut's depth — `1 + max` over the leaf union —
                // is known before merging: the max over a union is the
                // max of the two maxes.
                let max_label = |m: &CutMeta, child: NodeId| -> u32 {
                    if m.depth == u32::MAX {
                        labels[child.index()]
                    } else {
                        m.depth.saturating_sub(1)
                    }
                };
                for ai in fa..fa + ca {
                    let ma = store.cuts[ai as usize];
                    let max_label_a = max_label(&ma, a);
                    for bi in fb..fb + cb {
                        let mb = store.cuts[bi as usize];
                        let sig = ma.sig | mb.sig;
                        if sig.count_ones() as usize > opts.k {
                            continue;
                        }
                        let depth = 1 + max_label_a.max(max_label(&mb, b));
                        if let Some(tail) = cands.tail_depth() {
                            if depth > tail {
                                continue;
                            }
                        }
                        let Some(len) = merge_leaves_into(
                            store.leaves_of(&ma),
                            store.leaves_of(&mb),
                            cands.spare_slot_mut(),
                        ) else {
                            continue;
                        };
                        let leaves = cands.spare_leaves(len);
                        let area_flow = (1.0
                            + leaves.iter().map(|&l| areas[l as usize]).sum::<f64>())
                            / (fanouts[idx].max(1) as f64);
                        cands.try_insert(len, sig, depth, area_flow);
                    }
                }
                let label = cands.best_depth().expect("gate has a cut");
                let area_flow = cands.min_area_flow();
                for &slot in &cands.order {
                    let m = cands.metas[slot as usize];
                    store.push_cut(cands.slot_leaves(slot), m.sig, m.depth, m.area_flow);
                }
                // Trivial cut last, for parents' merging; depth u32::MAX
                // keeps it unselectable as an implementation.
                let trivial = [idx as u32];
                store.push_cut(&trivial, leaf_sig(&trivial), u32::MAX, f64::INFINITY);
                store.close_node();
                labels[idx] = label;
                areas[idx] = area_flow;
            }
        }
    }

    // Phase 2: cut selection under required times, minimizing area flow.
    let global_depth = net
        .outputs()
        .iter()
        .map(|(_, o)| labels[o.index()])
        .max()
        .unwrap_or(0);
    let mut required = vec![u32::MAX; n];
    let mut needed = vec![false; n];
    for (_, o) in net.outputs() {
        if matches!(net.gate(*o), Gate::And(_, _) | Gate::Xor(_, _)) {
            needed[o.index()] = true;
            required[o.index()] = required[o.index()].min(global_depth);
        }
    }
    let mut chosen = vec![u32::MAX; n];
    for idx in (0..n).rev() {
        if !needed[idx] {
            continue;
        }
        let req = required[idx];
        let (first, count) = store.ranges[idx];
        let cuts = &store.cuts[first as usize..(first + count) as usize];
        // Pick the min-area-flow cut meeting the required time; the
        // depth-best cut always does (label <= req by construction).
        let (best, _) = cuts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.depth <= req)
            .min_by(|(_, x), (_, y)| {
                x.area_flow
                    .partial_cmp(&y.area_flow)
                    .unwrap()
                    .then(x.depth.cmp(&y.depth))
            })
            .expect("at least the depth-optimal cut meets required time");
        chosen[idx] = best as u32;
        debug_assert!(cuts[best].depth <= req);
        for &leaf in store.leaves_of(&cuts[best]) {
            let li = leaf as usize;
            if matches!(net.gate(net.node_id(li)), Gate::And(_, _) | Gate::Xor(_, _)) {
                needed[li] = true;
                required[li] = required[li].min(req.saturating_sub(1));
            }
        }
    }

    // Phase 3: extraction + truth tables.
    let mut out = LutNetlist::new(net.name().to_string(), opts.k, net.input_names().to_vec());
    let mut lut_of = vec![u32::MAX; n];
    for idx in 0..n {
        let ci = chosen[idx];
        if ci == u32::MAX {
            continue;
        }
        let (first, _) = store.ranges[idx];
        let m = store.cuts[(first + ci) as usize];
        let truth = cone_truth_memo(net, idx, store.leaves_of(&m), &mut cone);
        let inputs: Vec<Signal> = store
            .leaves_of(&m)
            .iter()
            .map(|&l| signal_for(net, l as usize, &lut_of))
            .collect();
        let id = out.push_lut(Lut { inputs, truth });
        lut_of[idx] = id;
    }
    for (name, o) in net.outputs() {
        out.push_output(name.clone(), signal_for(net, o.index(), &lut_of));
    }
    out
}

fn signal_for(net: &Netlist, idx: usize, lut_of: &[u32]) -> Signal {
    if lut_of[idx] != u32::MAX {
        return Signal::Lut(lut_of[idx]);
    }
    match net.gate(net.node_id(idx)) {
        Gate::Input(i) => Signal::Input(i),
        Gate::Const(v) => Signal::Const(v),
        _ => panic!("gate node {idx} was not mapped"),
    }
}

/// The truth-table pattern of variable `v`: entry `idx` is set iff bit
/// `v` of `idx` is. Variables 0..6 repeat a classic single-word pattern
/// across all four words; variables 6 and 7 select whole words (bit 6
/// of `idx` is bit 0 of the word index, bit 7 is bit 1).
fn var_pattern(v: usize) -> Truth {
    const P6: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match v {
        0..=5 => Truth([P6[v]; 4]),
        6 => Truth([0, u64::MAX, 0, u64::MAX]),
        7 => Truth([0, 0, u64::MAX, u64::MAX]),
        _ => panic!("variable {v} exceeds MAX_LUT_INPUTS"),
    }
}

/// Truth table of the cone rooted at `root` with the given leaves, over
/// ≤ [`MAX_LUT_INPUTS`] variables, memoized through `memo`'s current
/// epoch (which this bumps first).
fn cone_truth_memo(net: &Netlist, root: usize, leaves: &[u32], memo: &mut ConeMemo) -> Truth {
    memo.begin(net.len());
    for (v, &leaf) in leaves.iter().enumerate() {
        memo.set(leaf as usize, var_pattern(v));
    }
    fn eval(net: &Netlist, idx: usize, memo: &mut ConeMemo) -> Truth {
        if let Some(w) = memo.get(idx) {
            return w;
        }
        let w = match net.gate(net.node_id(idx)) {
            Gate::Const(false) => Truth::ZERO,
            Gate::Const(true) => Truth::ONES,
            Gate::Input(_) => panic!("input reached below a cut leaf"),
            Gate::And(a, b) => eval(net, a.index(), memo) & eval(net, b.index(), memo),
            Gate::Xor(a, b) => eval(net, a.index(), memo) ^ eval(net, b.index(), memo),
        };
        memo.set(idx, w);
        w
    }
    // Mask to the populated variable count.
    eval(net, root, memo).mask(leaves.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formal::verify_equivalent;

    /// Free mapping to `k`-input LUTs with the classic 8-cut budget.
    fn opts(k: usize) -> MapOptions {
        MapOptions {
            k,
            cuts_per_node: 8,
            mode: MapMode::Free,
        }
    }

    /// Truth table of a cone with a fresh memo (tests only; the mapper
    /// itself reuses one memo across all cones).
    fn cone_truth(net: &Netlist, root: usize, leaves: &[u32]) -> Truth {
        cone_truth_memo(net, root, leaves, &mut ConeMemo::default())
    }

    fn merge(a: &[u32], b: &[u32], k: usize) -> Option<Vec<u32>> {
        let mut out = vec![0u32; k];
        merge_leaves_into(a, b, &mut out).map(|len| {
            out.truncate(len);
            out
        })
    }

    #[test]
    fn merge_respects_k() {
        assert_eq!(merge(&[1, 3], &[2, 3], 3), Some(vec![1, 2, 3]));
        assert_eq!(merge(&[1, 3], &[2, 4], 3), None);
        assert_eq!(merge(&[], &[5], 6), Some(vec![5]));
    }

    #[test]
    fn signatures_bound_unions_and_refute_subsets() {
        let a = [1u32, 3, 70];
        let b = [3u32, 6];
        let (sa, sb) = (leaf_sig(&a), leaf_sig(&b));
        // 70 aliases 6 (mod 64), so the union popcount (3) lower-bounds
        // the true union size (4) — never the other way around.
        assert_eq!((sa | sb).count_ones(), 3);
        assert!(leaf_sig(&[1, 3]) == leaf_sig(&[1, 3]));
        // b ⊄ a is refuted (bit 6 set in sb, absent only if aliased —
        // here 70 % 64 == 6 so it is NOT refuted), while a ⊄ b is.
        assert!(!sig_refutes_subset(sb, sa));
        assert!(sig_refutes_subset(sa, sb));
    }

    fn xor_tree(leaves: usize) -> Netlist {
        let mut net = Netlist::new("xt");
        let ins: Vec<_> = (0..leaves).map(|i| net.input(format!("x{i}"))).collect();
        let root = net.xor_balanced(&ins);
        net.output("y", root);
        net
    }

    #[test]
    fn xor3_fits_one_lut() {
        let net = xor_tree(3);
        let mapped = map_to_luts(&net, &opts(6));
        assert_eq!(mapped.num_luts(), 1);
        assert_eq!(mapped.depth(), 1);
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn xor24_maps_to_two_levels() {
        // A binary-balanced 24-leaf tree has 4-leaf subtree boundaries at
        // level 2, so a depth-2 cover (6 LUTs of 4 + 1 root LUT) exists
        // structurally and the depth-oriented mapper must find it.
        let net = xor_tree(24);
        let mapped = map_to_luts(&net, &opts(6));
        assert_eq!(mapped.depth(), 2, "{mapped}");
        assert_eq!(mapped.num_luts(), 7, "{mapped}");
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn xor36_structural_mapping_needs_three_levels() {
        // 36 leaves would fit 6×6 LUTs, but a *binary-balanced* tree has
        // no 6-leaf subtree boundaries; structural mapping (no
        // re-association) is stuck at depth 3. The resynthesis pass
        // (crate::resynth) exists precisely to fix this — mirroring what
        // the paper relies on XST to do for its flat Table IV forms.
        let net = xor_tree(36);
        let mapped = map_to_luts(&net, &opts(6));
        assert_eq!(mapped.depth(), 3, "{mapped}");
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn free_mode_duplicates_shared_logic_for_depth() {
        // x = a^b feeds two outputs; with k=3 the free mapper absorbs x
        // into both cones (2 LUTs, depth 1); the fanout-preserving
        // mapper keeps x as a barrier (3 LUTs, depth 2).
        let mut net = Netlist::new("sh");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let x = net.xor(a, b);
        let y1 = net.xor(x, c);
        let y2 = net.xor(x, d);
        net.output("y1", y1);
        net.output("y2", y2);

        let free = map_to_luts(&net, &opts(3));
        assert_eq!(free.depth(), 1);
        assert_eq!(free.num_luts(), 2);
        assert_eq!(verify_equivalent(&net, &free), Ok(()));

        let fp = map_to_luts(
            &net,
            &MapOptions {
                mode: MapMode::FanoutPreserving,
                ..opts(3)
            },
        );
        assert_eq!(fp.depth(), 2);
        assert_eq!(fp.num_luts(), 3);
        assert_eq!(verify_equivalent(&net, &fp), Ok(()));
    }

    #[test]
    fn maps_and_xor_mix() {
        let mut net = Netlist::new("m");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let p = net.and(a, b);
        let q = net.and(b, c);
        let r = net.xor(p, q);
        let s = net.and(r, a);
        net.output("y", s);
        let mapped = map_to_luts(&net, &opts(6));
        assert_eq!(mapped.num_luts(), 1); // 3 inputs total — one LUT6
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn passthrough_and_const_outputs() {
        let mut net = Netlist::new("p");
        let a = net.input("a");
        let t = net.constant(true);
        net.output("same", a);
        net.output("one", t);
        let mapped = map_to_luts(&net, &opts(6));
        assert_eq!(mapped.num_luts(), 0);
        assert_eq!(
            mapped.outputs(),
            &[
                ("same".to_string(), Signal::Input(0)),
                ("one".to_string(), Signal::Const(true))
            ]
        );
    }

    #[test]
    fn cone_truth_of_xor2() {
        let mut net = Netlist::new("t");
        let a = net.input("a");
        let b = net.input("b");
        let x = net.xor(a, b);
        net.output("y", x);
        let truth = cone_truth(&net, x.index(), &[a.index() as u32, b.index() as u32]);
        assert_eq!(truth, Truth::of(0b0110));
    }

    #[test]
    fn cone_memo_reuse_never_leaks_between_cones() {
        // f = a & !b, built XOR/AND-only as a ^ (a & b): asymmetric in
        // (a, b), so any stale leaf seeding or value surviving from an
        // earlier evaluation flips the truth table.
        let mut net = Netlist::new("t");
        let a = net.input("a");
        let b = net.input("b");
        let p = net.and(a, b);
        let f = net.xor(a, p);
        net.output("y", f);
        let ab = [a.index() as u32, b.index() as u32];
        let ba = [b.index() as u32, a.index() as u32];
        let mut memo = ConeMemo::default();
        let t1 = cone_truth_memo(&net, f.index(), &ab, &mut memo);
        assert_eq!(t1, Truth::of(0b0010)); // set only where a=1, b=0
                                           // Same root, swapped variable assignment: must re-derive, not
                                           // reuse the epoch-stale values of the previous cone.
        let t2 = cone_truth_memo(&net, f.index(), &ba, &mut memo);
        assert_eq!(t2, Truth::of(0b0100));
        // A different cone over the same nodes, then the first again.
        assert_eq!(
            cone_truth_memo(&net, p.index(), &ab, &mut memo),
            Truth::of(0b1000)
        );
        assert_eq!(cone_truth_memo(&net, f.index(), &ab, &mut memo), t1);
    }

    #[test]
    fn bounded_insertion_matches_collect_sort_truncate() {
        // Feed one deterministic candidate stream through the bounded
        // list and through the reference procedure the naive mapper
        // uses (collect, dedup by first occurrence, stable sort,
        // truncate); the kept cuts and their order must agree exactly.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (k, cap) = (4usize, 3usize);
        let mut rng = StdRng::seed_from_u64(9);
        let mut cands = CandList::new(k, cap);
        let mut reference: Vec<(Vec<u32>, u32, f64)> = Vec::new();
        for _ in 0..300 {
            let len = rng.gen_range(1..=k);
            let mut leaves: Vec<u32> = (0..len).map(|_| rng.gen_range(0..10u32)).collect();
            leaves.sort_unstable();
            leaves.dedup();
            // Keys must be functions of the leaves, as depth and area
            // flow are in the mapper.
            let depth = leaves.iter().map(|&l| l / 3).max().unwrap();
            let area_flow = leaves.iter().map(|&l| f64::from(l)).sum::<f64>() / 4.0;
            let spare = cands.spare_slot_mut();
            spare[..leaves.len()].copy_from_slice(&leaves);
            cands.try_insert(leaves.len(), leaf_sig(&leaves), depth, area_flow);
            if !reference.iter().any(|(l, _, _)| *l == leaves) {
                reference.push((leaves, depth, area_flow));
            }
        }
        reference.sort_by(|(la, da, aa), (lb, db, ab)| {
            da.cmp(db)
                .then(aa.partial_cmp(ab).unwrap())
                .then(la.len().cmp(&lb.len()))
        });
        reference.truncate(cap);
        let kept: Vec<(Vec<u32>, u32, f64)> = cands
            .order
            .iter()
            .map(|&id| {
                let m = cands.metas[id as usize];
                (cands.slot_leaves(id).to_vec(), m.depth, m.area_flow)
            })
            .collect();
        assert_eq!(kept, reference);
    }

    #[test]
    fn var_patterns_encode_index_bits() {
        for v in 0..MAX_LUT_INPUTS {
            let p = var_pattern(v);
            for idx in 0..(1usize << MAX_LUT_INPUTS) {
                assert_eq!(p.bit(idx), (idx >> v) & 1 == 1, "var {v}, entry {idx}");
            }
        }
    }

    #[test]
    fn xor8_fits_one_wide_lut() {
        // On a k=8 fabric an 8-input XOR is a single LUT; the truth
        // table lives in all four words and must still verify.
        let net = xor_tree(8);
        let mapped = map_to_luts(&net, &opts(8));
        assert_eq!(mapped.num_luts(), 1, "{mapped}");
        assert_eq!(mapped.depth(), 1);
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn narrow_k4_mapping_never_exceeds_four_inputs() {
        let net = xor_tree(24);
        let mapped = map_to_luts(&net, &opts(4));
        assert!(mapped.luts().iter().all(|l| l.inputs.len() <= 4));
        assert_eq!(verify_equivalent(&net, &mapped), Ok(()));
    }

    #[test]
    fn default_cut_budget_narrows_for_wide_luts() {
        assert_eq!(MapOptions::default_cuts_for(4), 8);
        assert_eq!(MapOptions::default_cuts_for(6), 8);
        assert_eq!(MapOptions::default_cuts_for(8), 4);
    }
}
