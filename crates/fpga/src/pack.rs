//! Slice packing: grouping LUTs into slices (4 LUT6 per 7-series slice).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::lut::{LutNetlist, Signal};

/// A packing of LUTs into slices.
#[derive(Debug, Clone)]
pub struct Packing {
    /// `slices[s]` = LUT ids packed into slice `s`.
    slices: Vec<Vec<u32>>,
    /// `slice_of[l]` = slice index of LUT `l`.
    slice_of: Vec<u32>,
}

impl Packing {
    /// The slices, each a list of LUT ids.
    pub fn slices(&self) -> &[Vec<u32>] {
        &self.slices
    }

    /// Number of slices used — the paper's second area metric.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// The slice containing LUT `l`.
    pub fn slice_of(&self, l: u32) -> u32 {
        self.slice_of[l as usize]
    }
}

/// Packs LUTs into slices with a connectivity-driven greedy heuristic.
///
/// LUTs are visited in topological order; each is placed into the open
/// slice sharing the most signals with it (driver/sink or common input),
/// or into a fresh slice when no open slice has affinity or capacity.
/// This mirrors how Xilinx `map` clusters related LUTs, and produces the
/// LUT/slice ratios (≈ 2.5–4) seen in the paper's Table V.
///
/// # Examples
///
/// ```
/// use netlist::Netlist;
/// use rgf2m_fpga::{pack, Pipeline};
///
/// let mut net = Netlist::new("t");
/// let ins: Vec<_> = (0..12).map(|i| net.input(format!("x{i}"))).collect();
/// let root = net.xor_balanced(&ins);
/// net.output("y", root);
/// let mapped = Pipeline::new().map(&net)?;
/// let packing = pack::pack_slices(&mapped, 4);
/// assert!(packing.num_slices() >= mapped.num_luts().div_ceil(4));
/// # Ok::<(), rgf2m_fpga::FlowError>(())
/// ```
pub fn pack_slices(lutnet: &LutNetlist, luts_per_slice: usize) -> Packing {
    assert!(luts_per_slice >= 1);
    let (mut slices, mut slice_of) = open_slices(lutnet, luts_per_slice);
    consolidate(&mut slices, &mut slice_of, luts_per_slice);
    compact(slices, slice_of)
}

/// The affinity phase: each LUT, in topological order, joins the open
/// slice sharing the most signals with it, or opens a fresh slice.
/// Returns the slices and each LUT's slice.
fn open_slices(lutnet: &LutNetlist, luts_per_slice: usize) -> (Vec<Vec<u32>>, Vec<u32>) {
    let n = lutnet.num_luts();
    let mut slices: Vec<Vec<u32>> = Vec::new();
    let mut slice_of = vec![u32::MAX; n];
    // Signals used by each open slice, for affinity scoring.
    const MAX_OPEN: usize = 24;
    let mut open: Vec<(usize, Vec<Signal>)> = Vec::new(); // (slice idx, signals)

    for (l, lut) in lutnet.luts().iter().enumerate() {
        let mut my_signals: Vec<Signal> = lut.inputs.clone();
        my_signals.push(Signal::Lut(l as u32));
        // Score open slices.
        let mut best: Option<(usize, usize)> = None; // (open idx, score)
        for (oi, (si, signals)) in open.iter().enumerate() {
            if slices[*si].len() >= luts_per_slice {
                continue;
            }
            let score = my_signals.iter().filter(|s| signals.contains(s)).count();
            if score > 0 && best.is_none_or(|(_, bs)| score > bs) {
                best = Some((oi, score));
            }
        }
        let si = match best {
            Some((oi, _)) => {
                let (si, signals) = &mut open[oi];
                signals.extend(my_signals);
                *si
            }
            None => {
                let si = slices.len();
                slices.push(Vec::new());
                open.push((si, my_signals));
                if open.len() > MAX_OPEN {
                    open.remove(0);
                }
                si
            }
        };
        slices[si].push(l as u32);
        slice_of[l] = si as u32;
        // Retire full slices from the open list.
        open.retain(|(s, _)| slices[*s].len() < luts_per_slice);
    }
    (slices, slice_of)
}

/// Consolidation pass: the affinity phase leaves many underfull slices
/// on designs wider than the open window. Real packers fill slices under
/// area pressure even without affinity, so merge underfull slices
/// greedily until no two can be combined. This is what produces the
/// LUT/slice ratios (≈ 3) of the paper's Table V.
///
/// Slices are poured largest first (ties by higher index) into the
/// first fill target, in the order targets were opened, that has room;
/// a slice with no such target becomes a target itself. Targets are
/// kept in buckets by fill level, each a min-heap of opening indices, so
/// the first target with room is the smallest head over the buckets of
/// low enough level: O(slices × capacity × log slices) in all.
fn consolidate(slices: &mut [Vec<u32>], slice_of: &mut [u32], luts_per_slice: usize) {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by_key(|&s| slices[s].len());
    // `buckets[f]`: the targets holding `f` LUTs, as (opening index,
    // slice). Full targets leave, so every bucket has room for one more.
    let mut buckets = vec![BinaryHeap::<Reverse<(usize, usize)>>::new(); luts_per_slice];
    let mut opened = 0;
    for &s in order.iter().rev() {
        let need = slices[s].len();
        if need == 0 {
            continue;
        }
        let first_fit = (1..=luts_per_slice - need)
            .filter_map(|f| buckets[f].peek().map(|&Reverse((k, t))| (k, t, f)))
            .min();
        if let Some((k, t, f)) = first_fit {
            buckets[f].pop();
            let moved = std::mem::take(&mut slices[s]);
            for &l in &moved {
                slice_of[l as usize] = t as u32;
            }
            slices[t].extend(moved);
            if f + need < luts_per_slice {
                buckets[f + need].push(Reverse((k, t)));
            }
        } else if need < luts_per_slice {
            buckets[need].push(Reverse((opened, s)));
            opened += 1;
        }
    }
}

/// Drops the slices consolidation emptied and renumbers the rest.
fn compact(slices: Vec<Vec<u32>>, mut slice_of: Vec<u32>) -> Packing {
    let mut remap = vec![u32::MAX; slices.len()];
    let mut compact: Vec<Vec<u32>> = Vec::new();
    for (s, luts) in slices.into_iter().enumerate() {
        if !luts.is_empty() {
            remap[s] = compact.len() as u32;
            compact.push(luts);
        }
    }
    for so in slice_of.iter_mut() {
        *so = remap[*so as usize];
        debug_assert_ne!(*so, u32::MAX);
    }
    Packing {
        slices: compact,
        slice_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;

    fn chain(n: usize) -> LutNetlist {
        let mut net = LutNetlist::new("c".into(), 6, vec!["a".into()]);
        let mut prev = Signal::Input(0);
        for _ in 0..n {
            let id = net.push_lut(Lut {
                inputs: vec![prev],
                truth: crate::lut::Truth::of(0b01),
            });
            prev = Signal::Lut(id);
        }
        net.push_output("y".into(), prev);
        net
    }

    #[test]
    fn chain_packs_densely() {
        // A connected chain should fill slices to capacity.
        let net = chain(16);
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 4);
        for s in p.slices() {
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn every_lut_is_assigned_exactly_once() {
        let net = chain(10);
        let p = pack_slices(&net, 4);
        let mut seen = [false; 10];
        for (si, luts) in p.slices().iter().enumerate() {
            for &l in luts {
                assert!(!seen[l as usize], "LUT {l} packed twice");
                seen[l as usize] = true;
                assert_eq!(p.slice_of(l), si as u32);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn capacity_is_respected() {
        let net = chain(23);
        let p = pack_slices(&net, 4);
        for s in p.slices() {
            assert!(s.len() <= 4);
        }
        assert!(p.num_slices() >= 6);
    }

    #[test]
    fn disconnected_luts_consolidate_under_area_pressure() {
        // LUTs with disjoint supports have no affinity — the greedy
        // phase opens a slice each, and the consolidation pass then
        // fills them into one full slice (like `map` under pressure).
        let mut net = LutNetlist::new("d".into(), 6, (0..8).map(|i| format!("x{i}")).collect());
        for i in 0..4 {
            let id = net.push_lut(Lut {
                inputs: vec![Signal::Input(2 * i), Signal::Input(2 * i + 1)],
                truth: crate::lut::Truth::of(0b0110),
            });
            net.push_output(format!("y{i}"), Signal::Lut(id));
        }
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 1);
        assert_eq!(p.slices()[0].len(), 4);
    }

    #[test]
    fn consolidation_respects_capacity_and_assignment_consistency() {
        // 7 disconnected LUTs with capacity 4 → exactly 2 slices.
        let mut net = LutNetlist::new("d7".into(), 6, (0..14).map(|i| format!("x{i}")).collect());
        for i in 0..7 {
            let id = net.push_lut(Lut {
                inputs: vec![Signal::Input(2 * i), Signal::Input(2 * i + 1)],
                truth: crate::lut::Truth::of(0b1000),
            });
            net.push_output(format!("y{i}"), Signal::Lut(id));
        }
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 2);
        for (si, luts) in p.slices().iter().enumerate() {
            assert!(luts.len() <= 4);
            for &l in luts {
                assert_eq!(p.slice_of(l), si as u32);
            }
        }
    }

    #[test]
    fn single_lut_single_slice() {
        let net = chain(1);
        assert_eq!(pack_slices(&net, 4).num_slices(), 1);
    }

    /// The first-fit consolidation `consolidate` replaced, kept as its
    /// oracle: a linear scan of every target ever opened, full or not.
    fn consolidate_first_fit(slices: &mut [Vec<u32>], slice_of: &mut [u32], luts_per_slice: usize) {
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by_key(|&s| slices[s].len());
        let mut fill_targets: Vec<usize> = Vec::new();
        for &s in order.iter().rev() {
            if slices[s].is_empty() {
                continue;
            }
            let need = slices[s].len();
            if let Some(pos) = fill_targets
                .iter()
                .position(|&t| t != s && slices[t].len() + need <= luts_per_slice)
            {
                let t = fill_targets[pos];
                let moved = std::mem::take(&mut slices[s]);
                for &l in &moved {
                    slice_of[l as usize] = t as u32;
                }
                slices[t].extend(moved);
            } else if slices[s].len() < luts_per_slice {
                fill_targets.push(s);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The bucketed consolidation makes the first-fit scan's every
        /// choice: on random LUT netlists (each LUT reading up to three
        /// inputs or earlier LUTs, so affinity leaves a spread of fill
        /// levels) and every capacity from 1 to 10, both give the same
        /// slices, in the same order, with the same contents.
        #[test]
        fn bucketed_consolidation_matches_first_fit(
            n_in in 1u32..40,
            luts in proptest::collection::vec((0u32..10_000, 0u32..10_000, 0u32..10_000, 1usize..4), 1..300),
            luts_per_slice in 1usize..11,
        ) {
            let names = (0..n_in).map(|i| format!("x{i}")).collect();
            let mut net = LutNetlist::new("r".into(), 3, names);
            for (i, &(a, b, c, arity)) in luts.iter().enumerate() {
                let avail = n_in + i as u32;
                let signal = |pick: u32| match pick % avail {
                    k if k < n_in => Signal::Input(k),
                    k => Signal::Lut(k - n_in),
                };
                let inputs = [a, b, c][..arity].iter().map(|&p| signal(p)).collect();
                net.push_lut(Lut { inputs, truth: crate::lut::Truth::of(0b0110) });
            }
            let got = pack_slices(&net, luts_per_slice);
            let (mut slices, mut slice_of) = open_slices(&net, luts_per_slice);
            consolidate_first_fit(&mut slices, &mut slice_of, luts_per_slice);
            let want = compact(slices, slice_of);
            proptest::prop_assert_eq!(got.slices(), want.slices());
            for l in 0..net.num_luts() as u32 {
                proptest::prop_assert_eq!(got.slice_of(l), want.slice_of(l));
            }
        }
    }
}
