//! Deterministic simulated-annealing placement on a slice grid.
//!
//! The annealer refines a snake-order initial placement by proposing
//! swaps of two grid cells and accepting them under the usual Metropolis
//! criterion. Three properties matter to the rest of the workspace:
//!
//! * **Exact budgets** — [`MAX_TOTAL_MOVES`] is an exact
//!   cap on evaluated proposals (including the initial-temperature
//!   probe); whenever the budget rather than the cooling floor ends the
//!   anneal, exactly that many real proposals have been evaluated.
//! * **Determinism** — results depend only on the netlist and
//!   [`PlaceOptions::seed`]: one sequential loop draws every proposal
//!   and acceptance from a single seeded RNG.
//! * **Incremental cost** — each proposal pays only for what its
//!   nets' shapes need, in one of four ways. A two-pin net caches
//!   nothing: its change is the length from its far pin (a slice, or a
//!   fixed pad stored after the slices in the position array) to the
//!   mover's destination, minus that to the mover's origin. Every other
//!   net keeps a cached box, numbered densely over those nets alone,
//!   with how many pins sit on each of its four edges. *Small* nets (at
//!   most 5 slices, `SMALL_PINS`) are priced by a fresh box over their
//!   few pins with the mover at its destination, compared with the
//!   cached one: a branch-free scan of a handful of points costs less
//!   than the mispredicted edge tests of an update, most of which end
//!   in a rescan anyway. On larger nets moving one pin updates the box
//!   in O(1); only a pin that was the last on an edge it leaves inward
//!   forces a rescan. A net holding both slices of a swap is skipped,
//!   since its pin multiset (and so its box) is unchanged. *Wide* nets
//!   (more than 32 pins, `WIDE_PINS`: the 2m operand nets of a
//!   bit-parallel multiplier) are skipped as a class when both swap
//!   cells lie strictly inside every wide box, where no swap can change
//!   one. That interior follows each accepted wide box exactly; only a
//!   binding edge moving outward makes the next proposal intersect the
//!   boxes afresh. One-pin nets have zero wirelength wherever their
//!   slice goes and are dropped. The boxes equal a fresh scan bit for
//!   bit, and every net HPWL is a multiple of 2^-23 below 2^11 (0, an
//!   integer, or an `f32` of at least 1, since a net with a pad spans
//!   x ≥ 1), so every term and partial sum of a delta is an exact `f64`
//!   and no order of summation changes a bit: the deltas, and every
//!   placement, are those of recomputing each touched box from scratch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lut::{LutNetlist, Signal};
use crate::pack::Packing;

/// Cooling floor: annealing stops once the temperature drops below this.
const T_MIN: f64 = 0.01;
/// Geometric cooling factor applied after every temperature step.
const COOLING: f64 = 0.85;
/// Proposals sampled (and charged) to pick the initial temperature.
const PROBE_PROPOSALS: usize = 64;
/// Nets with more pins than this are *wide*. In the paper's
/// multipliers these are exactly the 2m operand nets (each bit of `a`
/// or `b` feeds m AND gates of the product matrix) on every m = 163 and
/// m = 571 design, and no net at m = 8. Their boxes span most of the
/// grid, so the annealer skips them as a class whenever a swap stays
/// strictly inside all of them ([`Annealer::propose`]). The cut only
/// decides which nets take that test; the deltas are exact under any
/// cut.
const WIDE_PINS: usize = 32;
/// Boxed nets on at most this many slices are *small*, and are priced
/// by a fresh box over their pins ([`Topology::rescan`]) rather than by
/// [`Span::shift`]. On the paper's m = 163 designs most boxed nets span
/// a handful of slices (~3.6 on average), and more than half of the
/// one-pin updates of such nets end in a rescan anyway: scanning a few
/// points without a branch costs less than the update's unpredictable
/// edge tests. The cut is needed because the scan's cost grows with the
/// net while an update's does not: at m = 8 the operand nets carry up
/// to 32 pins, and rescanning every net of at most [`WIDE_PINS`] pins
/// made the (8, 2) placements a quarter slower. Cuts of 4 to 8 slices
/// gave the same m = 163 saving to within 2%; 5 was fastest at m = 8.
/// Like [`WIDE_PINS`], the cut only decides how a net is priced; the
/// deltas are exact under any cut.
const SMALL_PINS: usize = 5;

/// A placed design: grid dimensions, one grid cell per slice, and fixed
/// virtual pad positions for the primary inputs/outputs.
#[derive(Debug, Clone)]
pub struct Placement {
    grid_w: usize,
    grid_h: usize,
    /// `pos[s]` = (x, y) of slice `s`.
    pos: Vec<(f32, f32)>,
    /// Input pad positions (left edge).
    input_pos: Vec<(f32, f32)>,
    /// Output pad positions (right edge).
    output_pos: Vec<(f32, f32)>,
}

impl Placement {
    /// Grid width in slice columns.
    pub fn grid_w(&self) -> usize {
        self.grid_w
    }

    /// Grid height in slice rows.
    pub fn grid_h(&self) -> usize {
        self.grid_h
    }

    /// Position of slice `s`.
    pub fn slice_pos(&self, s: u32) -> (f32, f32) {
        self.pos[s as usize]
    }

    /// Position of input pad `i`.
    pub fn input_pos(&self, i: u32) -> (f32, f32) {
        self.input_pos[i as usize]
    }

    /// Position of output pad `o`.
    pub fn output_pos(&self, o: usize) -> (f32, f32) {
        self.output_pos[o]
    }

    /// Total half-perimeter wirelength of the placement under `nets`.
    pub fn total_hpwl(&self, nets: &[Net]) -> f64 {
        nets.iter().map(|n| self.net_hpwl(n)).sum()
    }

    fn net_hpwl(&self, net: &Net) -> f64 {
        NetBox::compute(net, &self.pos).hpwl()
    }
}

/// A placement net: the slices it touches plus fixed pad points.
#[derive(Debug, Clone)]
pub struct Net {
    /// Slices containing the driver and sink LUTs (deduplicated).
    pub slices: Vec<u32>,
    /// Fixed pad positions on the net (primary I/O).
    pub pads: Vec<(f32, f32)>,
}

/// The placement netlist in slice coordinates: one net per signal
/// driver that has sinks, except nets of a single slice and no pad,
/// whose wirelength is zero wherever that slice goes.
fn build_nets(lutnet: &LutNetlist, packing: &Packing) -> Vec<Net> {
    // Driver key: input index or LUT id.
    use std::collections::HashMap;
    #[derive(PartialEq, Eq, Hash, Clone, Copy)]
    enum Driver {
        In(u32),
        Lut(u32),
    }
    let mut sinks: HashMap<Driver, Vec<SinkRef>> = HashMap::new();
    #[derive(Clone, Copy)]
    enum SinkRef {
        Slice(u32),
        OutPad(u32),
    }
    for (l, lut) in lutnet.luts().iter().enumerate() {
        for s in &lut.inputs {
            let d = match s {
                Signal::Input(i) => Driver::In(*i),
                Signal::Lut(j) => Driver::Lut(*j),
                Signal::Const(_) => continue,
            };
            sinks
                .entry(d)
                .or_default()
                .push(SinkRef::Slice(packing.slice_of(l as u32)));
        }
    }
    for (o, (_, s)) in lutnet.outputs().iter().enumerate() {
        let d = match s {
            Signal::Input(i) => Driver::In(*i),
            Signal::Lut(j) => Driver::Lut(*j),
            Signal::Const(_) => continue,
        };
        sinks.entry(d).or_default().push(SinkRef::OutPad(o as u32));
    }
    let n_in = lutnet.input_names().len();
    let n_out = lutnet.outputs().len();
    let grid = grid_size(packing.num_slices());
    let mut nets = Vec::with_capacity(sinks.len());
    let mut keys: Vec<Driver> = sinks.keys().copied().collect();
    keys.sort_by_key(|d| match d {
        Driver::In(i) => (0u8, *i),
        Driver::Lut(j) => (1u8, *j),
    });
    for d in keys {
        let sink_list = &sinks[&d];
        let mut slices: Vec<u32> = Vec::new();
        let mut pads: Vec<(f32, f32)> = Vec::new();
        match d {
            Driver::In(i) => pads.push(input_pad_pos(i as usize, n_in, grid)),
            Driver::Lut(j) => slices.push(packing.slice_of(j)),
        }
        for s in sink_list {
            match s {
                SinkRef::Slice(sl) => slices.push(*sl),
                SinkRef::OutPad(o) => pads.push(output_pad_pos(*o as usize, n_out, grid)),
            }
        }
        slices.sort_unstable();
        slices.dedup();
        if slices.len() == 1 && pads.is_empty() {
            continue;
        }
        nets.push(Net { slices, pads });
    }
    nets
}

fn grid_size(num_slices: usize) -> (usize, usize) {
    let w = (num_slices.max(1) as f64).sqrt().ceil() as usize;
    let h = num_slices.max(1).div_ceil(w);
    (w, h)
}

fn input_pad_pos(i: usize, n: usize, (_, h): (usize, usize)) -> (f32, f32) {
    let y = if n <= 1 {
        0.0
    } else {
        (i as f32 / (n - 1) as f32) * h.max(1) as f32
    };
    (-1.0, y)
}

fn output_pad_pos(o: usize, n: usize, (w, h): (usize, usize)) -> (f32, f32) {
    let y = if n <= 1 {
        0.0
    } else {
        (o as f32 / (n - 1) as f32) * h.max(1) as f32
    };
    (w as f32, y)
}

/// The placement seed of every run that names none: the paper's
/// year. Harness runs and seedless daemon requests both anneal with it,
/// so they share store keys.
pub const DEFAULT_SEED: u64 = 2018;

/// Options for the annealer.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// RNG seed (placement is fully deterministic for a given seed).
    pub seed: u64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions { seed: DEFAULT_SEED }
    }
}

/// Moves per temperature step ≈ `MOVES_FACTOR × num_slices` (at least
/// 64).
pub const MOVES_FACTOR: usize = 8;

/// Exact cap on evaluated swap proposals, including the
/// initial-temperature probe. Whenever this budget (rather than the
/// cooling floor) ends the anneal, exactly this many real proposals
/// have been evaluated.
pub const MAX_TOTAL_MOVES: usize = 1_200_000;

/// Counters of one [`place_with_stats`] run.
#[derive(Debug, Clone)]
pub struct PlaceStats {
    /// Real proposals evaluated, including the initial-temperature
    /// probe. Never exceeds [`MAX_TOTAL_MOVES`], and equals
    /// it exactly whenever the budget (not the cooling floor) ended the
    /// anneal.
    pub proposals: usize,
    /// Proposals accepted and applied.
    pub accepted: usize,
    /// Total HPWL of the initial snake placement.
    pub initial_hpwl: f64,
    /// Total HPWL of the returned placement.
    pub final_hpwl: f64,
}

/// Places the packed design: snake-order initial placement refined by
/// simulated annealing on total HPWL.
///
/// Deterministic for a fixed seed; returns the final [`Placement`].
pub fn place(lutnet: &LutNetlist, packing: &Packing, opts: &PlaceOptions) -> Placement {
    place_with_stats(lutnet, packing, opts).0
}

/// Like [`place`], additionally returning proposal/acceptance counters
/// and the initial and final HPWL.
pub fn place_with_stats(
    lutnet: &LutNetlist,
    packing: &Packing,
    opts: &PlaceOptions,
) -> (Placement, PlaceStats) {
    anneal(lutnet, packing, opts.seed, MAX_TOTAL_MOVES)
}

/// [`place_with_stats`] under an explicit proposal `budget`.
fn anneal(
    lutnet: &LutNetlist,
    packing: &Packing,
    seed: u64,
    budget: usize,
) -> (Placement, PlaceStats) {
    let num_slices = packing.num_slices();
    let (w, h) = grid_size(num_slices);
    // Initial snake placement in slice id order (ids are topological-ish
    // because packing visits LUTs in topological order).
    let mut cells: Vec<Option<u32>> = vec![None; w * h];
    let mut pos: Vec<(f32, f32)> = vec![(0.0, 0.0); num_slices];
    for (s, p) in pos.iter_mut().enumerate() {
        let row = s / w;
        let col = if row.is_multiple_of(2) {
            s % w
        } else {
            w - 1 - (s % w)
        };
        cells[row * w + col] = Some(s as u32);
        *p = (col as f32, row as f32);
    }
    let n_in = lutnet.input_names().len();
    let n_out = lutnet.outputs().len();
    let mut placement = Placement {
        grid_w: w,
        grid_h: h,
        pos,
        input_pos: (0..n_in).map(|i| input_pad_pos(i, n_in, (w, h))).collect(),
        output_pos: (0..n_out)
            .map(|o| output_pad_pos(o, n_out, (w, h)))
            .collect(),
    };
    let nets = build_nets(lutnet, packing);
    let mut stats = PlaceStats {
        proposals: 0,
        accepted: 0,
        initial_hpwl: 0.0,
        final_hpwl: 0.0,
    };
    if num_slices < 2 || nets.is_empty() {
        let hp = placement.total_hpwl(&nets);
        stats.initial_hpwl = hp;
        stats.final_hpwl = hp;
        return (placement, stats);
    }
    let mut ann = Annealer::new(&nets, w, std::mem::take(&mut placement.pos), cells);
    stats.initial_hpwl = ann.total_hpwl();

    let mut spent = 0usize;
    let n_cells = w * h;
    let mut rng = StdRng::seed_from_u64(seed);

    // Initial temperature from sampled (and charged) probe proposals.
    let probe = PROBE_PROPOSALS.min(budget);
    let mut t = if probe == 0 {
        0.0
    } else {
        let mut acc = 0.0;
        for _ in 0..probe {
            let (ca, cb) = draw_pair(&mut rng, n_cells);
            acc += ann.propose(ca, cb).abs();
        }
        spent += probe;
        (acc / probe as f64).max(0.5) * 2.0
    };

    let moves_per_temp = (MOVES_FACTOR * num_slices).max(64);
    while t > T_MIN && spent < budget {
        let alloc = moves_per_temp.min(budget - spent);
        let mut accepted = 0usize;
        for _ in 0..alloc {
            let (ca, cb) = draw_pair(&mut rng, n_cells);
            let delta = ann.propose(ca, cb);
            if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
                ann.accept(ca, cb);
                accepted += 1;
            }
        }
        debug_assert!(ann.boxes_are_fresh(), "cached net boxes drifted");
        debug_assert!(ann.interior_is_fresh(), "cached wide interior drifted");
        spent += alloc;
        stats.accepted += accepted;
        t *= COOLING;
    }
    stats.proposals = spent;
    stats.final_hpwl = ann.total_hpwl();
    placement.pos = ann.pos;
    placement.pos.truncate(num_slices);
    (placement, stats)
}

/// Draws a pair of distinct cell indices in `[0, n)`; `n` must be ≥ 2.
fn draw_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let ca = rng.gen_range(0..n);
    let mut cb = rng.gen_range(0..n - 1);
    if cb >= ca {
        cb += 1;
    }
    (ca, cb)
}

/// Grid position of cell `c` on a grid of width `w`.
fn cell_pos(c: usize, w: usize) -> (f32, f32) {
    ((c % w) as f32, (c / w) as f32)
}

/// One axis of a net's bounding box: the extreme pin coordinates and
/// how many pins sit on each of the two edges. The counts are what make
/// a one-pin move an O(1) update ([`Span::shift`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    lo: f32,
    hi: f32,
    /// Pins whose coordinate equals `lo`.
    n_lo: u32,
    /// Pins whose coordinate equals `hi`.
    n_hi: u32,
}

impl Span {
    const EMPTY: Span = Span {
        lo: f32::INFINITY,
        hi: f32::NEG_INFINITY,
        n_lo: 0,
        n_hi: 0,
    };

    /// Adds one pin. Written as selects rather than branches: rescans
    /// of small nets feed it pins in no predictable order.
    fn add(&mut self, v: f32) {
        self.n_lo = if v < self.lo {
            1
        } else {
            self.n_lo + u32::from(v == self.lo)
        };
        self.lo = self.lo.min(v);
        self.n_hi = if v > self.hi {
            1
        } else {
            self.n_hi + u32::from(v == self.hi)
        };
        self.hi = self.hi.max(v);
    }

    /// Moves one pin of this span from `from` to `to`, keeping the
    /// edges and their counts exact, and says what changed.
    fn shift(&mut self, from: f32, to: f32) -> Shift {
        let mut out = Shift::Same;
        if to < self.lo {
            self.lo = to;
            self.n_lo = 1;
            out = Shift::Changed;
        } else if to == self.lo {
            if from != self.lo {
                self.n_lo += 1;
                out = Shift::Changed;
            }
        } else if from == self.lo {
            self.n_lo -= 1;
            if self.n_lo == 0 {
                return Shift::Rescan;
            }
            out = Shift::Changed;
        }
        if to > self.hi {
            self.hi = to;
            self.n_hi = 1;
            out = Shift::Changed;
        } else if to == self.hi {
            if from != self.hi {
                self.n_hi += 1;
                out = Shift::Changed;
            }
        } else if from == self.hi {
            self.n_hi -= 1;
            if self.n_hi == 0 {
                return Shift::Rescan;
            }
            out = Shift::Changed;
        }
        out
    }
}

/// What a one-pin move did to a [`Span`] or [`NetBox`], in increasing
/// order of work for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shift {
    /// Neither an edge nor an edge count moved.
    Same,
    /// The edges or edge counts moved, and are exact.
    Changed,
    /// The pin was the last one on an edge it left inward: the new
    /// extreme is unknown without a rescan of the net.
    Rescan,
}

/// Cached axis-aligned bounding box of one net's pins, with per-edge
/// pin counts. Edges are min/max over the same `f32` points however the
/// box was reached, so an incrementally maintained box equals
/// [`NetBox::compute`] over the current positions bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetBox {
    x: Span,
    y: Span,
}

impl NetBox {
    const EMPTY: NetBox = NetBox {
        x: Span::EMPTY,
        y: Span::EMPTY,
    };

    fn add(&mut self, (x, y): (f32, f32)) {
        self.x.add(x);
        self.y.add(y);
    }

    /// Box over a net's pins with slice positions taken from `pos`.
    fn compute(net: &Net, pos: &[(f32, f32)]) -> NetBox {
        let mut b = NetBox::EMPTY;
        for &s in &net.slices {
            b.add(pos[s as usize]);
        }
        for &p in &net.pads {
            b.add(p);
        }
        b
    }

    /// Moves one pin from `from` to `to` ([`Span::shift`] per axis).
    /// On [`Shift::Rescan`] `self` is stale and must be recomputed.
    fn shift(&mut self, from: (f32, f32), to: (f32, f32)) -> Shift {
        self.x.shift(from.0, to.0).max(self.y.shift(from.1, to.1))
    }

    /// Half-perimeter wirelength of this box (0 for empty nets).
    fn hpwl(&self) -> f64 {
        if self.x.lo > self.x.hi {
            0.0
        } else {
            ((self.x.hi - self.x.lo) + (self.y.hi - self.y.lo)) as f64
        }
    }
}

/// Half-perimeter wirelength of a two-pin net with pins at `a` and `b`:
/// the [`NetBox::hpwl`] of their box bit for bit, since `|a − b|` is
/// `max − min` exactly (IEEE subtraction is sign-symmetric).
fn pair_hpwl(a: (f32, f32), b: (f32, f32)) -> f64 {
    ((a.0 - b.0).abs() + (a.1 - b.1).abs()) as f64
}

/// How the annealer prices one net.
#[derive(Debug, Clone, Copy)]
enum Cost {
    /// A two-pin net: its two pins as indices into the annealer's
    /// positions (a slice, or a fixed pad stored past the slices).
    Pair(u32, u32),
    /// Any other net: its index into the cached boxes. Which of the
    /// three incidence classes ([`SMALL`], [`OTHER`], [`WIDE`]) the box
    /// belongs to decides how a move is priced against it.
    Box(u32),
}

/// Incidence class of boxed nets on at most [`SMALL_PINS`] slices,
/// priced by a fresh box.
const SMALL: usize = 0;
/// Incidence class of the remaining boxed nets with at most
/// [`WIDE_PINS`] pins, priced by [`NetBox::shift`].
const OTHER: usize = 1;
/// Incidence class of nets with more than [`WIDE_PINS`] pins, priced
/// like [`OTHER`] but skipped inside the wide [`Interior`].
const WIDE: usize = 2;
/// Number of incidence classes.
const CLASSES: usize = 3;

/// The open rectangle strictly inside every wide net's box (the
/// intersection of the boxes, without its edges). A swap of two cells
/// inside it moves each wide pin from a point strictly inside its box
/// to another, which changes no edge and no edge count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Interior {
    x: (f32, f32),
    y: (f32, f32),
}

impl Interior {
    /// The interior of `boxes`; the whole plane if there are none.
    fn of<'b>(boxes: impl Iterator<Item = &'b NetBox>) -> Interior {
        let all = Interior {
            x: (f32::NEG_INFINITY, f32::INFINITY),
            y: (f32::NEG_INFINITY, f32::INFINITY),
        };
        boxes.fold(all, |r, b| Interior {
            x: (r.x.0.max(b.x.lo), r.x.1.min(b.x.hi)),
            y: (r.y.0.max(b.y.lo), r.y.1.min(b.y.hi)),
        })
    }

    fn contains(&self, (x, y): (f32, f32)) -> bool {
        self.x.0 < x && x < self.x.1 && self.y.0 < y && y < self.y.1
    }

    /// Follows one wide box from `old` to `new`. Each bound is a max
    /// (low edges) or min (high edges) over the boxes, so an edge that
    /// moves inward, or outward without being the binding one, leaves
    /// the bound exact. Returns `false`, leaving `self` stale, when a
    /// binding edge moves outward and the next bound is unknown.
    fn follow(&mut self, old: &NetBox, new: &NetBox) -> bool {
        fn low(bound: &mut f32, old: f32, new: f32) -> bool {
            if new < old && old == *bound {
                return false;
            }
            *bound = bound.max(new);
            true
        }
        fn high(bound: &mut f32, old: f32, new: f32) -> bool {
            if new > old && old == *bound {
                return false;
            }
            *bound = bound.min(new);
            true
        }
        low(&mut self.x.0, old.x.lo, new.x.lo)
            && high(&mut self.x.1, old.x.hi, new.x.hi)
            && low(&mut self.y.0, old.y.lo, new.y.lo)
            && high(&mut self.y.1, old.y.hi, new.y.hi)
    }
}

/// The annealer's fixed view of the netlist, in flat offset/data
/// arrays: how each net is priced, each boxed net's slices, and each
/// slice's nets split by shape: two-pin, then the boxed nets of each
/// incidence class. Splitting the classes here, once, lets each
/// proposal walk a class with one pricing rule and no per-net test.
/// Boxes are numbered densely over the nets that are not two-pin, wide
/// ones first.
struct Topology {
    /// How each net, in netlist order, is priced.
    cost: Vec<Cost>,
    /// Boxes `0..n_wide` are the wide nets' ([`WIDE`]).
    n_wide: usize,
    /// `pins[pin_off[b]..pin_off[b + 1]]`: the slices of box `b`'s net.
    pin_off: Vec<u32>,
    pins: Vec<u32>,
    /// The box of each boxed net's fixed pads alone, where a rescan
    /// starts.
    pad_boxes: Vec<NetBox>,
    /// `two[two_off[s]..two_off[s + 1]]`: the far pin of each two-pin
    /// net on slice `s`, as an index into the annealer's positions.
    two_off: Vec<u32>,
    two: Vec<u32>,
    /// `multi[multi_off[CLASSES·s + c]..multi_off[CLASSES·s + c + 1]]`:
    /// the boxes of class `c` ([`SMALL`], [`OTHER`] or [`WIDE`]) on
    /// slice `s`.
    multi_off: Vec<u32>,
    multi: Vec<u32>,
}

/// Concatenates `lists`, returning the offset of each list's start (and
/// of the end) alongside the data.
fn flatten<'b, T: Copy + 'b>(lists: impl Iterator<Item = &'b [T]>) -> (Vec<u32>, Vec<T>) {
    let mut off = vec![0];
    let mut data = Vec::new();
    for list in lists {
        data.extend_from_slice(list);
        off.push(data.len() as u32);
    }
    (off, data)
}

impl Topology {
    /// The topology of `nets` over `num_slices` slices, and the fixed
    /// pads of its two-pin nets, which the annealer's positions hold
    /// from index `num_slices` on.
    fn new(nets: &[Net], num_slices: usize) -> (Topology, Vec<(f32, f32)>) {
        let pins = |n: &Net| n.slices.len() + n.pads.len();
        let is_wide = |n: &Net| pins(n) > WIDE_PINS && !n.slices.is_empty();
        // Boxed nets, wide ones first, so boxes `0..n_wide` are the wide
        // class; each class keeps netlist order.
        let (wide, other): (Vec<usize>, Vec<usize>) = (0..nets.len())
            .filter(|&n| pins(&nets[n]) != 2)
            .partition(|&n| is_wide(&nets[n]));
        let n_wide = wide.len();
        let boxed: Vec<&Net> = wide.iter().chain(&other).map(|&n| &nets[n]).collect();
        let mut cost = vec![Cost::Box(0); nets.len()];
        for (b, &n) in wide.iter().chain(&other).enumerate() {
            cost[n] = Cost::Box(b as u32);
        }
        let mut far_pads = Vec::new();
        let mut two: Vec<Vec<u32>> = vec![Vec::new(); num_slices];
        for (n, net) in nets.iter().enumerate().filter(|(_, n)| pins(n) == 2) {
            let mut pad = |p| {
                far_pads.push(p);
                (num_slices + far_pads.len() - 1) as u32
            };
            let (a, b) = match *net.slices.as_slice() {
                [a, b] => (a, b),
                [a] => (a, pad(net.pads[0])),
                _ => (pad(net.pads[0]), pad(net.pads[1])),
            };
            for (s, far) in [(a, b), (b, a)] {
                if let Some(list) = two.get_mut(s as usize) {
                    list.push(far);
                }
            }
            cost[n] = Cost::Pair(a, b);
        }
        let mut multi: Vec<Vec<u32>> = vec![Vec::new(); CLASSES * num_slices];
        for (b, net) in boxed.iter().enumerate() {
            let class = if b < n_wide {
                WIDE
            } else if net.slices.len() <= SMALL_PINS {
                SMALL
            } else {
                OTHER
            };
            for &s in &net.slices {
                multi[CLASSES * s as usize + class].push(b as u32);
            }
        }
        let (pin_off, pins) = flatten(boxed.iter().map(|n| n.slices.as_slice()));
        let (two_off, two) = flatten(two.iter().map(Vec::as_slice));
        let (multi_off, multi) = flatten(multi.iter().map(Vec::as_slice));
        let pad_boxes = boxed
            .iter()
            .map(|n| {
                let mut b = NetBox::EMPTY;
                n.pads.iter().for_each(|&p| b.add(p));
                b
            })
            .collect();
        let topo = Topology {
            cost,
            n_wide,
            pin_off,
            pins,
            pad_boxes,
            two_off,
            two,
            multi_off,
            multi,
        };
        (topo, far_pads)
    }

    /// The far pins of the two-pin nets on slice `s`.
    fn two_pin(&self, s: u32) -> &[u32] {
        let s = s as usize;
        &self.two[self.two_off[s] as usize..self.two_off[s + 1] as usize]
    }

    /// The boxes of `class` on slice `s`.
    fn multi(&self, s: u32, class: usize) -> &[u32] {
        let i = CLASSES * s as usize + class;
        &self.multi[self.multi_off[i] as usize..self.multi_off[i + 1] as usize]
    }

    /// The slices of box `b`'s net.
    fn slices(&self, b: usize) -> &[u32] {
        &self.pins[self.pin_off[b] as usize..self.pin_off[b + 1] as usize]
    }

    /// Box `b` with each slice `p` at `at(p)`.
    fn rescan(&self, b: usize, at: impl Fn(u32) -> (f32, f32)) -> NetBox {
        let mut nb = self.pad_boxes[b];
        for &p in self.slices(b) {
            nb.add(at(p));
        }
        nb
    }
}

/// The annealing work area: the netlist structure plus mutable
/// positions, cell contents and the cached boxes of the nets that are
/// not two-pin. All per-proposal scratch (`updates`, the `stamp` epoch
/// map) lives here, allocated once and reused for every proposal — the
/// inner annealing loop never allocates.
struct Annealer {
    topo: Topology,
    w: usize,
    /// Each slice's position, then the fixed pads of two-pin nets.
    pos: Vec<(f32, f32)>,
    cells: Vec<Option<u32>>,
    boxes: Vec<NetBox>,
    /// The [`Interior`] of the wide nets' cached boxes, unless stale.
    interior: Interior,
    /// Set once an accepted move takes a binding wide edge outward; the
    /// next proposal recomputes `interior`.
    interior_stale: bool,
    /// Scratch: box → the epoch mark it last received (see
    /// [`Annealer::price_class`]); marks of earlier walks are stale.
    stamp: Vec<u64>,
    epoch: u64,
    /// The new values of the boxes whose edges or edge counts the
    /// current proposal changes.
    updates: Vec<(u32, NetBox)>,
}

impl Annealer {
    fn new(nets: &[Net], w: usize, mut pos: Vec<(f32, f32)>, cells: Vec<Option<u32>>) -> Self {
        let (topo, far_pads) = Topology::new(nets, pos.len());
        pos.extend(far_pads);
        let boxes: Vec<NetBox> = (0..topo.pad_boxes.len())
            .map(|b| topo.rescan(b, |s| pos[s as usize]))
            .collect();
        Annealer {
            topo,
            w,
            pos,
            cells,
            stamp: vec![0; boxes.len()],
            boxes,
            interior: Interior::of(std::iter::empty()),
            interior_stale: true,
            epoch: 0,
            updates: Vec::new(),
        }
    }

    /// Total HPWL, summed over the nets in netlist order.
    fn total_hpwl(&self) -> f64 {
        self.topo
            .cost
            .iter()
            .map(|&c| match c {
                Cost::Pair(a, b) => pair_hpwl(self.pos[a as usize], self.pos[b as usize]),
                Cost::Box(b) => self.boxes[b as usize].hpwl(),
            })
            .sum()
    }

    /// Whether every cached box, edge counts included, equals a fresh
    /// scan over the current positions.
    fn boxes_are_fresh(&self) -> bool {
        self.boxes
            .iter()
            .enumerate()
            .all(|(b, nb)| self.topo.rescan(b, |s| self.pos[s as usize]) == *nb)
    }

    /// The [`Interior`] of the wide nets' cached boxes.
    fn fresh_interior(&self) -> Interior {
        Interior::of(self.boxes[..self.topo.n_wide].iter())
    }

    /// Whether the cached interior, unless marked stale, equals a fresh
    /// intersection of the wide nets' boxes.
    fn interior_is_fresh(&self) -> bool {
        self.interior_stale || self.interior == self.fresh_interior()
    }

    /// Evaluates the HPWL delta of swapping the contents of cells `ca`
    /// and `cb` (either may be empty). Mutates nothing but internal
    /// scratch and the cached interior; call [`Annealer::accept`] with
    /// the same pair to apply. The delta sums the HPWL changes of the
    /// changed nets, two-pin nets first, then the small, the other and
    /// the wide classes; each sum is exact, so the order changes no bit.
    fn propose(&mut self, ca: usize, cb: usize) -> f64 {
        self.updates.clear();
        let sa = self.cells[ca];
        let sb = self.cells[cb];
        let pa = cell_pos(ca, self.w);
        let pb = cell_pos(cb, self.w);
        // A two-pin net spans its far pin and the mover, before and
        // after the move. One joining the two movers keeps its length.
        let mut delta = 0.0;
        for (s, from, to, mate) in [(sa, pa, pb, sb), (sb, pb, pa, sa)] {
            let Some(s) = s else { continue };
            for &far in self.topo.two_pin(s) {
                if Some(far) == mate {
                    continue;
                }
                let f = self.pos[far as usize];
                delta += pair_hpwl(f, to) - pair_hpwl(f, from);
            }
        }
        let movers = [(sa, pb), (sb, pa)];
        delta += self.price_class::<SMALL>(movers);
        delta += self.price_class::<OTHER>(movers);
        if self.interior_stale {
            self.interior = self.fresh_interior();
            self.interior_stale = false;
        }
        // With both cells strictly inside every wide box, each mover
        // goes from one interior point of its wide boxes to another, so
        // none of them changes: the whole class is skipped.
        if !(self.interior.contains(pa) && self.interior.contains(pb)) {
            delta += self.price_class::<WIDE>(movers);
        }
        delta
    }

    /// Prices every `CLASS` box on a mover with its one moving pin at
    /// the mover's destination, records the boxes whose edges or edge
    /// counts change, and returns the sum of their HPWL changes. A
    /// [`SMALL`] box is rescanned; any other is shifted, and rescanned
    /// only when [`NetBox::shift`] says so. `movers` holds the slice
    /// leaving `ca` with its destination, then the one leaving `cb`.
    fn price_class<const CLASS: usize>(&mut self, movers: [(Option<u32>, (f32, f32)); 2]) -> f64 {
        // A net holding both movers keeps its pin multiset, hence its
        // box, so it is skipped. Mark the boxes of the slice leaving
        // `cb` first; walking the other mover's boxes then relabels the
        // shared ones, which the second walk skips in turn.
        self.epoch += 2;
        let (of_b, of_both) = (self.epoch, self.epoch + 1);
        if let Some(s) = movers[1].0 {
            for &b in self.topo.multi(s, CLASS) {
                self.stamp[b as usize] = of_b;
            }
        }
        let mut delta = 0.0;
        for ((s, to), shared) in movers.into_iter().zip([of_b, of_both]) {
            let Some(s) = s else { continue };
            let from = self.pos[s as usize];
            for &b in self.topo.multi(s, CLASS) {
                let bu = b as usize;
                if self.stamp[bu] == shared {
                    self.stamp[bu] = of_both;
                    continue;
                }
                let cached = self.boxes[bu];
                let pos = &self.pos;
                let rescan = || {
                    self.topo
                        .rescan(bu, |p| if p == s { to } else { pos[p as usize] })
                };
                let nb = if CLASS == SMALL {
                    let nb = rescan();
                    if nb == cached {
                        continue;
                    }
                    nb
                } else {
                    let mut nb = cached;
                    match nb.shift(from, to) {
                        Shift::Same => continue,
                        Shift::Changed => nb,
                        Shift::Rescan => rescan(),
                    }
                };
                delta += nb.hpwl() - cached.hpwl();
                self.updates.push((b, nb));
            }
        }
        delta
    }

    /// Applies the swap most recently evaluated by [`Annealer::propose`]
    /// for the same `(ca, cb)` pair, updating positions, cell contents,
    /// the cached boxes of the affected nets and the wide interior.
    fn accept(&mut self, ca: usize, cb: usize) {
        let sa = self.cells[ca];
        let sb = self.cells[cb];
        if let Some(s) = sa {
            self.pos[s as usize] = cell_pos(cb, self.w);
        }
        if let Some(s) = sb {
            self.pos[s as usize] = cell_pos(ca, self.w);
        }
        self.cells.swap(ca, cb);
        for &(b, nb) in &self.updates {
            let old = std::mem::replace(&mut self.boxes[b as usize], nb);
            if (b as usize) < self.topo.n_wide && !self.interior_stale {
                self.interior_stale = !self.interior.follow(&old, &nb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::pack::pack_slices;

    fn sample_lutnet(luts: usize) -> LutNetlist {
        let mut net = LutNetlist::new("p".into(), 6, vec!["a".into(), "b".into()]);
        let mut prev = Signal::Input(0);
        for i in 0..luts {
            let id = net.push_lut(Lut {
                inputs: vec![prev, Signal::Input((i % 2) as u32)],
                truth: crate::lut::Truth::of(0b0110),
            });
            prev = Signal::Lut(id);
        }
        net.push_output("y".into(), prev);
        net
    }

    /// A denser netlist: several fan-in trees over shared inputs, so
    /// nets have a spread of fanouts.
    fn dense_lutnet(luts: usize) -> LutNetlist {
        let mut net = LutNetlist::new("d".into(), 6, vec!["a".into(), "b".into(), "c".into()]);
        let mut ids: Vec<Signal> = vec![Signal::Input(0), Signal::Input(1), Signal::Input(2)];
        for i in 0..luts {
            let x = ids[i % ids.len()];
            let y = ids[(i * 7 + 3) % ids.len()];
            let id = net.push_lut(Lut {
                inputs: vec![x, y],
                truth: crate::lut::Truth::of(0b0110),
            });
            ids.push(Signal::Lut(id));
        }
        net.push_output("y".into(), *ids.last().unwrap());
        net
    }

    fn snake_pos(s: usize, w: usize) -> (f32, f32) {
        let row = s / w;
        let col = if row.is_multiple_of(2) {
            s % w
        } else {
            w - 1 - (s % w)
        };
        (col as f32, row as f32)
    }

    #[test]
    fn placement_is_deterministic() {
        // Same seed => identical placement; a different seed draws
        // different moves and lands elsewhere.
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let opts = |seed| PlaceOptions { seed };
        let a1 = place(&net, &packing, &opts(7));
        let a2 = place(&net, &packing, &opts(7));
        let b = place(&net, &packing, &opts(8));
        let mut same_as_b = true;
        for s in 0..packing.num_slices() {
            assert_eq!(a1.slice_pos(s as u32), a2.slice_pos(s as u32));
            same_as_b &= a1.slice_pos(s as u32) == b.slice_pos(s as u32);
        }
        assert!(!same_as_b, "seed change had no effect on the placement");
    }

    #[test]
    fn annealing_does_not_worsen_wirelength() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        // Snake-only placement (zero-move annealer):
        let (frozen, _) = anneal(&net, &packing, 1, 0);
        let refined = place(&net, &packing, &PlaceOptions::default());
        assert!(refined.total_hpwl(&nets) <= frozen.total_hpwl(&nets) * 1.001);
    }

    #[test]
    fn every_slice_gets_a_unique_cell() {
        let net = sample_lutnet(33);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        let mut seen = std::collections::HashSet::new();
        for s in 0..packing.num_slices() {
            let pos = p.slice_pos(s as u32);
            assert!(
                seen.insert((pos.0 as i64, pos.1 as i64)),
                "slice {s} shares cell {pos:?}"
            );
            assert!(pos.0 >= 0.0 && (pos.0 as usize) < p.grid_w());
            assert!(pos.1 >= 0.0 && (pos.1 as usize) < p.grid_h());
        }
    }

    #[test]
    fn pads_sit_on_the_edges() {
        let net = sample_lutnet(10);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        assert_eq!(p.input_pos(0).0, -1.0);
        assert_eq!(p.output_pos(0).0, p.grid_w() as f32);
    }

    #[test]
    fn single_slice_design_places_trivially() {
        let net = sample_lutnet(2);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        assert_eq!(p.grid_w(), 1);
        assert_eq!(p.slice_pos(0), (0.0, 0.0));
    }

    // ---- budget accounting (the `MAX_TOTAL_MOVES` contract) ----

    #[test]
    fn budget_is_exact_when_it_binds() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        // The probe plus several temperature steps, the last one cut
        // short by the budget.
        let (_, stats) = anneal(&net, &packing, 7, 500);
        assert_eq!(stats.proposals, 500, "budget must be spent exactly");
        assert!(stats.accepted > 0);
    }

    #[test]
    fn budget_smaller_than_probe_truncates_the_probe() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (_, stats) = anneal(&net, &packing, 7, 10);
        assert_eq!(stats.proposals, 10);
        // No temperature step ran, so nothing was accepted.
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn zero_budget_returns_the_snake_placement() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (p, stats) = anneal(&net, &packing, 7, 0);
        assert_eq!(stats.proposals, 0);
        assert_eq!(stats.accepted, 0);
        for s in 0..packing.num_slices() {
            assert_eq!(p.slice_pos(s as u32), snake_pos(s, p.grid_w()));
        }
    }

    #[test]
    fn stats_are_consistent_with_the_returned_placement() {
        let net = dense_lutnet(80);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        let (p, stats) = place_with_stats(&net, &packing, &PlaceOptions::default());
        // The incrementally updated cached boxes must agree with a
        // from-scratch HPWL over the returned placement.
        assert!(
            (stats.final_hpwl - p.total_hpwl(&nets)).abs() < 1e-6,
            "cached {} vs fresh {}",
            stats.final_hpwl,
            p.total_hpwl(&nets)
        );
        // The running total starts from the snake placement's HPWL,
        // summed in the same net order, bit for bit.
        let (snake, _) = anneal(&net, &packing, PlaceOptions::default().seed, 0);
        assert_eq!(
            stats.initial_hpwl.to_bits(),
            snake.total_hpwl(&nets).to_bits()
        );
        assert!(stats.final_hpwl <= stats.initial_hpwl * 1.001);
        assert!(stats.accepted <= stats.proposals);
    }

    // ---- proposal evaluation is side-effect free ----

    /// The annealer over `nets` at the snake placement of `num_slices`
    /// slices, with its cell count.
    fn snake_annealer(nets: &[Net], num_slices: usize) -> (Annealer, usize) {
        let (w, h) = grid_size(num_slices);
        let mut cells: Vec<Option<u32>> = vec![None; w * h];
        let mut pos = vec![(0.0, 0.0); num_slices];
        for (s, p) in pos.iter_mut().enumerate() {
            let sp = snake_pos(s, w);
            cells[(sp.1 as usize) * w + sp.0 as usize] = Some(s as u32);
            *p = sp;
        }
        (Annealer::new(nets, w, pos, cells), w * h)
    }

    /// The delta of swapping cells `ca` and `cb` as full rescans give
    /// it: fresh boxes of every net holding a mover, before and after
    /// the swap, their HPWL changes summed in net order.
    fn rescanned_delta(ann: &Annealer, nets: &[Net], ca: usize, cb: usize) -> f64 {
        let movers = [ann.cells[ca], ann.cells[cb]];
        let mut after = ann.pos.clone();
        if let Some(s) = movers[0] {
            after[s as usize] = cell_pos(cb, ann.w);
        }
        if let Some(s) = movers[1] {
            after[s as usize] = cell_pos(ca, ann.w);
        }
        nets.iter()
            .filter(|net| net.slices.iter().any(|&s| movers.contains(&Some(s))))
            .fold(0.0, |acc, net| {
                acc + (NetBox::compute(net, &after).hpwl() - NetBox::compute(net, &ann.pos).hpwl())
            })
    }

    /// Net `n`'s box as the annealer holds it: the cached box, or the
    /// box over a two-pin net's pins at the positions it prices them at.
    fn net_box(ann: &Annealer, n: usize) -> NetBox {
        match ann.topo.cost[n] {
            Cost::Box(b) => ann.boxes[b as usize],
            Cost::Pair(a, b) => {
                let mut nb = NetBox::EMPTY;
                nb.add(ann.pos[a as usize]);
                nb.add(ann.pos[b as usize]);
                nb
            }
        }
    }

    /// The cells of the two slices of each two-pin net that has no pad.
    fn mate_cells(ann: &Annealer, nets: &[Net]) -> Vec<(usize, usize)> {
        let cell = |s: u32| ann.cells.iter().position(|&c| c == Some(s)).unwrap();
        nets.iter()
            .filter(|n| n.slices.len() == 2 && n.pads.is_empty())
            .map(|n| (cell(n.slices[0]), cell(n.slices[1])))
            .collect()
    }

    #[test]
    fn rejected_proposal_leaves_placement_bit_identical() {
        let lutnet = dense_lutnet(50);
        let packing = pack_slices(&lutnet, 4);
        let nets = build_nets(&lutnet, &packing);
        let (mut ann, n_cells) = snake_annealer(&nets, packing.num_slices());
        let before_pos: Vec<(u32, u32)> = ann
            .pos
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        let before_cells = ann.cells.clone();
        let before_boxes = ann.boxes.clone();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let (ca, cb) = draw_pair(&mut rng, n_cells);
            let _delta = ann.propose(ca, cb);
            // Never accept: evaluation alone must not move anything.
        }
        let after_pos: Vec<(u32, u32)> = ann
            .pos
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        assert_eq!(before_pos, after_pos);
        assert_eq!(before_cells, ann.cells);
        assert_eq!(before_boxes, ann.boxes);
    }

    /// `count` nets of `len` slices each, strided over `num_slices`
    /// slices from `start`, every other one with a pad.
    fn strided_nets(count: u32, len: usize, start: u32, num_slices: u32) -> Vec<Net> {
        (0..count)
            .map(|i| {
                let stride = 1 + 2 * i;
                let mut slices: Vec<u32> = (0..len as u32)
                    .map(|j| (start + 5 * i + j * stride) % num_slices)
                    .collect();
                slices.sort_unstable();
                slices.dedup();
                let pads = if i % 2 == 0 {
                    Vec::new()
                } else {
                    vec![(-1.0, 2.0)]
                };
                Net { slices, pads }
            })
            .collect()
    }

    /// Every net shape the annealer tells apart, on one design: wide
    /// operand nets, two-pin nets between slices and to a pad, nets of
    /// three or more pins on both sides of the [`SMALL_PINS`] cut, and
    /// (handed in directly, since `build_nets` drops them) one-pin nets
    /// and nets of exactly `SMALL_PINS` and `SMALL_PINS + 1` slices.
    /// Random swaps are mixed with swaps of the two slices of a two-pin
    /// net and swaps into empty cells, and land both inside and outside
    /// the wide nets' interior.
    #[test]
    fn proposal_deltas_match_recomputed_hpwl() {
        let mut rng = StdRng::seed_from_u64(5);
        let luts: Vec<_> = (0..40)
            .map(|_| (rng.gen(), rng.gen(), rng.gen(), 3))
            .collect();
        let lutnet = random_lutnet(3, &luts, &[7, 11], 3, 40);
        let packing = pack_slices(&lutnet, 1);
        let mut nets = build_nets(&lutnet, &packing);
        let pins = |n: &Net| n.slices.len() + n.pads.len();
        assert!(nets.iter().filter(|n| pins(n) > WIDE_PINS).count() >= 3);
        assert!(nets
            .iter()
            .any(|n| n.slices.len() == 1 && n.pads.len() == 1));
        assert!(nets.iter().any(|n| (3..=WIDE_PINS).contains(&pins(n))));
        nets.extend((0..packing.num_slices() as u32).step_by(7).map(|s| Net {
            slices: vec![s],
            pads: Vec::new(),
        }));
        let num_slices = packing.num_slices() as u32;
        for len in [SMALL_PINS, SMALL_PINS + 1] {
            nets.extend(strided_nets(4, len, 3, num_slices));
        }
        let (mut ann, n_cells) = snake_annealer(&nets, packing.num_slices());
        // Nets at the cut on both sides of it, with and without a pad.
        let shapes = |class| -> Vec<(usize, bool)> {
            (0..num_slices)
                .flat_map(|s| ann.topo.multi(s, class))
                .map(|&b| {
                    let b = b as usize;
                    (
                        ann.topo.slices(b).len(),
                        ann.topo.pad_boxes[b] != NetBox::EMPTY,
                    )
                })
                .collect()
        };
        for pad in [false, true] {
            assert!(shapes(SMALL).contains(&(SMALL_PINS, pad)));
            assert!(shapes(OTHER).contains(&(SMALL_PINS + 1, pad)));
        }
        let empty: Vec<usize> = (0..n_cells).filter(|&c| ann.cells[c].is_none()).collect();
        assert!(!empty.is_empty(), "test needs empty cells");
        let mut total = ann.total_hpwl();
        let (mut inside, mut outside, mut mates, mut into_empty) = (0, 0, 0, 0);
        for i in 0..1500 {
            let (ca, cb) = match i % 6 {
                0 => {
                    let pairs = mate_cells(&ann, &nets);
                    mates += 1;
                    pairs[rng.gen_range(0..pairs.len())]
                }
                1 => {
                    // An empty cell and any other, in either order.
                    let e = empty[rng.gen_range(0..empty.len())];
                    let c = (e + 1 + rng.gen_range(0..n_cells - 1)) % n_cells;
                    into_empty += 1;
                    if rng.gen::<bool>() {
                        (e, c)
                    } else {
                        (c, e)
                    }
                }
                _ => draw_pair(&mut rng, n_cells),
            };
            let delta = ann.propose(ca, cb);
            assert!(ann.interior_is_fresh());
            let interior = ann.fresh_interior();
            if interior.contains(cell_pos(ca, ann.w)) && interior.contains(cell_pos(cb, ann.w)) {
                inside += 1;
            } else {
                outside += 1;
            }
            assert_eq!(
                delta.to_bits(),
                rescanned_delta(&ann, &nets, ca, cb).to_bits(),
                "proposal {i}: ({ca}, {cb})"
            );
            if i % 3 != 0 {
                ann.accept(ca, cb);
                assert!(ann.boxes_are_fresh(), "stale box after move {i}");
                total += delta;
                // The cached running total must match a from-scratch
                // recomputation over the moved positions.
                let fresh: f64 = nets
                    .iter()
                    .map(|n| NetBox::compute(n, &ann.pos).hpwl())
                    .sum();
                assert_eq!(total.to_bits(), fresh.to_bits(), "move {i}");
                assert_eq!(ann.total_hpwl().to_bits(), fresh.to_bits());
            }
        }
        assert!(
            inside > 100 && outside > 100,
            "{inside} inside, {outside} outside"
        );
        assert!(mates > 0 && into_empty > 0);
    }

    #[test]
    fn swapping_two_pins_of_one_net_leaves_its_box_untouched() {
        let lutnet = dense_lutnet(70);
        let packing = pack_slices(&lutnet, 4);
        let nets = build_nets(&lutnet, &packing);
        let (mut ann, _) = snake_annealer(&nets, packing.num_slices());
        let ni = (0..nets.len())
            .max_by_key(|&ni| nets[ni].slices.len())
            .unwrap();
        let (&first, &last) = (
            nets[ni].slices.first().unwrap(),
            nets[ni].slices.last().unwrap(),
        );
        assert_ne!(first, last, "test needs a net on two slices");
        let cell = |s: u32| ann.cells.iter().position(|&c| c == Some(s)).unwrap();
        let (ca, cb) = (cell(first), cell(last));
        let Cost::Box(bi) = ann.topo.cost[ni] else {
            panic!("test needs a net of three or more pins")
        };
        let before = net_box(&ann, ni);
        // Either pin moving alone would change the box or its counts.
        let (pf, pl) = (ann.pos[first as usize], ann.pos[last as usize]);
        for (from, to) in [(pf, pl), (pl, pf)] {
            let mut alone = before;
            assert_ne!(alone.shift(from, to), Shift::Same);
        }
        ann.propose(ca, cb);
        assert!(
            ann.updates.iter().all(|&(b, _)| b != bi),
            "a net holding both movers was updated"
        );
        ann.accept(ca, cb);
        assert_eq!(net_box(&ann, ni), before);
        assert!(ann.boxes_are_fresh());
    }

    #[test]
    fn one_pin_nets_leave_the_placement_netlist() {
        // Two slices of two chained LUTs each, on constants, with no
        // output: every signal stays inside its slice.
        let mut lutnet = LutNetlist::new("o".into(), 6, vec!["a".into()]);
        for _ in 0..2 {
            let id = lutnet.push_lut(Lut {
                inputs: vec![Signal::Const(true)],
                truth: crate::lut::Truth::of(0b01),
            });
            lutnet.push_lut(Lut {
                inputs: vec![Signal::Lut(id)],
                truth: crate::lut::Truth::of(0b01),
            });
        }
        let packing = pack_slices(&lutnet, 2);
        assert_eq!(packing.num_slices(), 2);
        assert!(build_nets(&lutnet, &packing).is_empty());
        // With no nets left, the seed placement comes back unannealed.
        let (p, stats) = place_with_stats(&lutnet, &packing, &PlaceOptions::default());
        assert_eq!(stats.proposals, 0);
        for s in 0..2 {
            assert_eq!(p.slice_pos(s as u32), snake_pos(s, p.grid_w()));
        }
    }

    /// A random LUT netlist over `n_in` inputs. Each `luts` entry
    /// `(a, b, c, arity)` is one LUT reading the first `arity` of its
    /// three picks, each resolved to an input, an earlier LUT or (now
    /// and then) a constant; `outs` picks the outputs the same way, so
    /// inputs can drive output pads directly. Then `ops` operand rows of
    /// `fan` products each follow, as in [`push_operand_rows`].
    fn random_lutnet(
        n_in: u32,
        luts: &[(u32, u32, u32, usize)],
        outs: &[u32],
        ops: u32,
        fan: u32,
    ) -> LutNetlist {
        let names = (0..n_in + ops).map(|i| format!("x{i}")).collect();
        let mut net = LutNetlist::new("r".into(), 3, names);
        let signal = |pick: u32, avail: u32| {
            let k = pick % (avail + 1);
            if k == avail {
                Signal::Const(pick.is_multiple_of(2))
            } else if k < n_in {
                Signal::Input(k)
            } else {
                Signal::Lut(k - n_in)
            }
        };
        for (i, &(a, b, c, arity)) in luts.iter().enumerate() {
            let avail = n_in + i as u32;
            let inputs: Vec<Signal> = [a, b, c][..arity]
                .iter()
                .map(|&p| signal(p, avail))
                .collect();
            net.push_lut(Lut {
                inputs,
                truth: crate::lut::Truth::of(0b0110),
            });
        }
        let avail = n_in + luts.len() as u32;
        for (o, &p) in outs.iter().enumerate() {
            net.push_output(format!("y{o}"), signal(p, avail));
        }
        push_operand_rows(&mut net, n_in, ops, fan);
        net
    }

    /// Appends the shape of a product matrix over operand inputs
    /// `first..first + ops`: row `i` has `fan` product LUTs, each reading
    /// operand `i` and (when it differs) operand `j % ops`, chained
    /// pairwise into one output. Each operand input feeds at least `fan`
    /// LUTs, so it spans at least `fan / luts_per_slice` slices; the
    /// products and chain links are two-pin nets when packed one LUT a
    /// slice, and each chain end is a two-pin net to its pad.
    fn push_operand_rows(net: &mut LutNetlist, first: u32, ops: u32, fan: u32) {
        for i in 0..ops {
            let mut acc = None;
            for j in 0..fan {
                let mut inputs = vec![Signal::Input(first + i)];
                if j % ops != i {
                    inputs.push(Signal::Input(first + j % ops));
                }
                let p = net.push_lut(Lut {
                    inputs,
                    truth: crate::lut::Truth::of(0b1000),
                });
                acc = Some(match acc {
                    None => p,
                    Some(a) => net.push_lut(Lut {
                        inputs: vec![Signal::Lut(a), Signal::Lut(p)],
                        truth: crate::lut::Truth::of(0b0110),
                    }),
                });
            }
            if let Some(a) = acc {
                net.push_output(format!("c{i}"), Signal::Lut(a));
            }
        }
    }

    /// A swap taking a pin on a binding edge of the wide interior
    /// beyond that edge, so the binding wide box grows outward there, or
    /// `None` if no edge has such a pin and cell. `pick` chooses the
    /// first edge tried, the pin and the destination.
    fn outward_swap(ann: &Annealer, pick: usize) -> Option<(usize, usize)> {
        let interior = ann.fresh_interior();
        (0..4).find_map(|k| {
            // Edges in order: low x, high x, low y, high y.
            let edge = (pick + k) % 4;
            let (on_x, low) = (edge < 2, edge.is_multiple_of(2));
            let coord = |p: (f32, f32)| if on_x { p.0 } else { p.1 };
            let side = |lo: f32, hi: f32| if low { lo } else { hi };
            let bound = if on_x {
                side(interior.x.0, interior.x.1)
            } else {
                side(interior.y.0, interior.y.1)
            };
            let binds = |nb: &NetBox| {
                let span = if on_x { nb.x } else { nb.y };
                side(span.lo, span.hi) == bound
            };
            // The pins on the bound of the boxes that bind it.
            let on_edge: Vec<u32> = (0..ann.topo.n_wide)
                .filter(|&b| binds(&ann.boxes[b]))
                .flat_map(|b| ann.topo.slices(b))
                .copied()
                .filter(|&s| coord(ann.pos[s as usize]) == bound)
                .collect();
            let beyond: Vec<usize> = (0..ann.cells.len())
                .filter(|&c| {
                    let v = coord(cell_pos(c, ann.w));
                    if low {
                        v < bound
                    } else {
                        v > bound
                    }
                })
                .collect();
            if on_edge.is_empty() || beyond.is_empty() {
                return None;
            }
            let s = on_edge[(pick / 4) % on_edge.len()];
            let from = ann.cells.iter().position(|&c| c == Some(s)).unwrap();
            Some((from, beyond[(pick / 64) % beyond.len()]))
        })
    }

    /// A net's box and edge counts straight from the definition:
    /// min/max over all pins, then a count of the pins on each edge.
    fn box_by_definition(net: &Net, pos: &[(f32, f32)]) -> NetBox {
        let pins: Vec<(f32, f32)> = net
            .slices
            .iter()
            .map(|&s| pos[s as usize])
            .chain(net.pads.iter().copied())
            .collect();
        let span = |coord: fn(&(f32, f32)) -> f32| {
            let lo = pins.iter().map(coord).fold(f32::INFINITY, f32::min);
            let hi = pins.iter().map(coord).fold(f32::NEG_INFINITY, f32::max);
            let on = |edge: f32| pins.iter().filter(|p| coord(p) == edge).count() as u32;
            Span {
                lo,
                hi,
                n_lo: on(lo),
                n_hi: on(hi),
            }
        };
        NetBox {
            x: span(|p| p.0),
            y: span(|p| p.1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random netlists (pads, constants, empty cells, wide operand
        /// nets, two-pin nets, and one-pin nets and nets of
        /// [`SMALL_PINS`] and `SMALL_PINS + 1` slices handed in directly)
        /// under random swap sequences, with some swaps of the two
        /// slices of a two-pin net: every delta equals a rescan's bit
        /// for bit, every cached box equals a fresh scan after each
        /// accepted move, the cached interior is never stale unmarked,
        /// and a full anneal's cached total HPWL equals a fresh one over
        /// the returned placement.
        #[test]
        fn incremental_boxes_match_fresh_scans(
            n_in in 1u32..5,
            luts in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000, 1usize..4), 2..60),
            outs in proptest::collection::vec(0u32..1000, 1..5),
            (lps, ops) in (1usize..5, 0u32..3),
            (one_pin, at_cut) in (
                proptest::collection::vec(0u32..1000, 0..4),
                proptest::collection::vec((0u32..1000, 0usize..2), 0..4),
            ),
            swaps in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3, 0u32..4), 1..200),
        ) {
            // Enough products that every operand spans > WIDE_PINS slices.
            let fan = (WIDE_PINS * lps) as u32 + 1;
            let lutnet = random_lutnet(n_in, &luts, &outs, ops, fan);
            let packing = pack_slices(&lutnet, lps);
            let num_slices = packing.num_slices() as u32;
            let mut nets = build_nets(&lutnet, &packing);
            let wide = nets.iter().filter(|n| n.slices.len() + n.pads.len() > WIDE_PINS).count();
            proptest::prop_assert!(wide >= ops as usize);
            nets.extend(one_pin.iter().map(|&s| Net { slices: vec![s % num_slices], pads: Vec::new() }));
            for &(start, over) in &at_cut {
                nets.extend(strided_nets(2, SMALL_PINS + over, start, num_slices));
            }
            let (mut ann, n_cells) = snake_annealer(&nets, num_slices as usize);
            for &(a, b, verdict, kind) in &swaps {
                let pairs = if kind == 0 { mate_cells(&ann, &nets) } else { Vec::new() };
                let (ca, cb) = if !pairs.is_empty() {
                    pairs[a as usize % pairs.len()]
                } else {
                    (a as usize % n_cells, b as usize % n_cells)
                };
                if ca == cb {
                    continue;
                }
                let delta = ann.propose(ca, cb);
                proptest::prop_assert_eq!(delta.to_bits(), rescanned_delta(&ann, &nets, ca, cb).to_bits());
                if verdict != 0 {
                    ann.accept(ca, cb);
                }
                proptest::prop_assert!(ann.boxes_are_fresh());
                proptest::prop_assert!(ann.interior_is_fresh());
            }
            for (n, net) in nets.iter().enumerate() {
                proptest::prop_assert_eq!(net_box(&ann, n), box_by_definition(net, &ann.pos));
            }
            let (p, stats) = anneal(&lutnet, &packing, u64::from(swaps[0].0), 3_000);
            let nets = build_nets(&lutnet, &packing);
            proptest::prop_assert_eq!(stats.final_hpwl.to_bits(), p.total_hpwl(&nets).to_bits());
        }

        /// Wide nets on random windows of a full `w × w` grid, plus
        /// random two-pin and three-pin nets and pads, under accepted
        /// swaps that take a pin on a binding edge of the wide interior
        /// outward, mixed with random ones: after every accept the cached
        /// interior is marked stale or equals a fresh intersection, and
        /// deltas and boxes stay exact.
        #[test]
        fn wide_interior_follows_binding_edges_outward(
            w in 8usize..14,
            windows in proptest::collection::vec((0usize..100, 0usize..100, 0usize..100, 0usize..100, 0u32..2), 1..5),
            small in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 0..40),
            steps in proptest::collection::vec((0usize..1 << 16, 0u32..3, 0u32..1000, 0u32..1000), 1..80),
        ) {
            let n = (w * w) as u32;
            let slice_at = |x: usize, y: usize| (y * w + if y.is_multiple_of(2) { x } else { w - 1 - x }) as u32;
            // A window of at least 6 × 6 cells; the first ends below the
            // top row, so its high y edge can move outward.
            let span = |a: usize, b: usize, end: usize| {
                let lo = a % (end - 5);
                (lo, lo + 5 + b % (end - lo - 5))
            };
            let mut nets: Vec<Net> = windows
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c, d, pad))| {
                    let (x0, x1) = span(a, b, w);
                    let (y0, y1) = span(c, d, if i == 0 { w - 1 } else { w });
                    let slices = (y0..=y1)
                        .flat_map(|y| (x0..=x1).map(move |x| (x, y)))
                        .map(|(x, y)| slice_at(x, y))
                        .collect::<std::collections::BTreeSet<u32>>()
                        .into_iter()
                        .collect();
                    let pads = if pad == 1 { vec![(-1.0, y0 as f32)] } else { Vec::new() };
                    Net { slices, pads }
                })
                .collect();
            nets.extend(small.iter().map(|&(a, b, c)| {
                let mut slices = vec![a % n, b % n];
                let mut pads = Vec::new();
                match c % 3 {
                    0 => {}
                    1 => pads.push((w as f32, (c % w as u32) as f32)),
                    _ => slices.push(c % n),
                }
                slices.sort_unstable();
                slices.dedup();
                Net { slices, pads }
            }));
            let (mut ann, n_cells) = snake_annealer(&nets, n as usize);
            proptest::prop_assert_eq!(ann.topo.n_wide, windows.len());
            proptest::prop_assert!(outward_swap(&ann, 0).is_some());
            for &(pick, kind, a, b) in &steps {
                let (ca, cb) = match outward_swap(&ann, pick).filter(|_| kind != 0) {
                    Some(pair) => pair,
                    None => (a as usize % n_cells, b as usize % n_cells),
                };
                if ca == cb {
                    continue;
                }
                let delta = ann.propose(ca, cb);
                proptest::prop_assert_eq!(delta.to_bits(), rescanned_delta(&ann, &nets, ca, cb).to_bits());
                ann.accept(ca, cb);
                proptest::prop_assert!(ann.interior_is_fresh());
                proptest::prop_assert!(ann.boxes_are_fresh());
            }
        }
    }
}
