//! Deterministic simulated-annealing placement on a slice grid.
//!
//! The annealer refines a snake-order initial placement by proposing
//! swaps of two grid cells and accepting them under the usual Metropolis
//! criterion. Three properties matter to the rest of the workspace:
//!
//! * **Exact budgets** — [`PlaceOptions::max_total_moves`] is an exact
//!   cap on evaluated proposals (including the initial-temperature
//!   probe); whenever the budget rather than the cooling floor ends the
//!   anneal, exactly that many real proposals have been evaluated.
//! * **Determinism** — results depend only on the netlist, the seed and
//!   the thread count, never on scheduling. The parallel mode shards each
//!   temperature step's move batch across disjoint horizontal bands of
//!   the grid, each worker seeded from [`PlaceOptions::seed`], the step
//!   index and its shard index, with a merge barrier per step. Band
//!   boundaries *rotate* (deterministically) from one temperature step
//!   to the next, so a slice is never locked into one band for the
//!   whole anneal — moves proposed in step `i+1` can carry it across
//!   the boundaries of step `i`.
//! * **Incremental cost** — per-net bounding boxes are cached together
//!   with how many pins sit on each of their four edges, so moving one
//!   pin updates its net's box in O(1); only a pin that was the last on
//!   an edge it leaves inward forces a rescan of that net. A net holding
//!   both slices of a swap is skipped, since its pin multiset (and so
//!   its box) is unchanged. The incremental boxes equal a fresh scan bit
//!   for bit, so the deltas, and every placement, are those of
//!   recomputing each touched box from scratch.

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

/// The placement netlist (one net per signal driver that has sinks) in
/// slice coordinates.
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

/// Options for the annealer.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// RNG seed (placement is fully deterministic for a given seed and
    /// thread count).
    pub seed: u64,
    /// Moves per temperature step ≈ `moves_factor × num_slices`.
    pub moves_factor: usize,
    /// Exact cap on evaluated swap proposals, including the
    /// initial-temperature probe. Whenever this budget (rather than the
    /// cooling floor) ends the anneal, exactly this many real proposals
    /// have been evaluated.
    pub max_total_moves: usize,
    /// Annealing worker threads. `1` (and `0`) run the sequential
    /// annealer; `n > 1` shards each temperature step across up to `n`
    /// disjoint horizontal grid bands (with boundaries rotating per
    /// step so slices can migrate between bands), deterministically for
    /// a fixed seed and thread count.
    pub threads: usize,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 2018,
            moves_factor: 8,
            max_total_moves: 1_200_000,
            threads: 1,
        }
    }
}

/// One temperature step of the annealing trajectory.
#[derive(Debug, Clone)]
pub struct TempStep {
    /// Temperature during the step.
    pub temperature: f64,
    /// Total HPWL after the step's accepted moves were applied.
    pub hpwl: f64,
    /// Real proposals evaluated in the step.
    pub proposed: usize,
    /// Proposals accepted (and applied).
    pub accepted: usize,
}

/// Counters and the cooling trajectory of one [`place_with_stats`] run.
#[derive(Debug, Clone)]
pub struct PlaceStats {
    /// Real proposals evaluated, including the initial-temperature
    /// probe. Never exceeds [`PlaceOptions::max_total_moves`], and equals
    /// it exactly whenever the budget (not the cooling floor) ended the
    /// anneal.
    pub proposals: usize,
    /// Proposals accepted and applied.
    pub accepted: usize,
    /// Total HPWL of the initial snake placement.
    pub initial_hpwl: f64,
    /// Total HPWL of the returned placement.
    pub final_hpwl: f64,
    /// One entry per temperature step (empty if the budget ran out
    /// during the probe).
    pub trajectory: Vec<TempStep>,
}

/// Places the packed design: snake-order initial placement refined by
/// simulated annealing on total HPWL.
///
/// Deterministic for a fixed seed and thread count; returns the final
/// [`Placement`].
pub fn place(lutnet: &LutNetlist, packing: &Packing, opts: &PlaceOptions) -> Placement {
    place_with_stats(lutnet, packing, opts).0
}

/// Like [`place`], additionally returning proposal/acceptance counters
/// and the per-temperature-step HPWL trajectory.
pub fn place_with_stats(
    lutnet: &LutNetlist,
    packing: &Packing,
    opts: &PlaceOptions,
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
        trajectory: Vec::new(),
    };
    if num_slices < 2 || nets.is_empty() {
        let hp = placement.total_hpwl(&nets);
        stats.initial_hpwl = hp;
        stats.final_hpwl = hp;
        return (placement, stats);
    }
    // Slice → incident net indices.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); num_slices];
    for (ni, net) in nets.iter().enumerate() {
        for &s in &net.slices {
            incident[s as usize].push(ni as u32);
        }
    }

    let mut ann = Annealer::new(
        &nets,
        &incident,
        w,
        std::mem::take(&mut placement.pos),
        cells,
    );
    stats.initial_hpwl = ann.total_hpwl();

    let budget = opts.max_total_moves;
    let mut spent = 0usize;
    let n_cells = w * h;
    let mut rng = StdRng::seed_from_u64(opts.seed);

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

    let moves_per_temp = (opts.moves_factor * num_slices).max(64);
    let shards = effective_shards(opts.threads, w, h);
    if shards <= 1 {
        // Sequential annealer (the `threads = 1` reference path).
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
            spent += alloc;
            stats.accepted += accepted;
            stats.trajectory.push(TempStep {
                temperature: t,
                hpwl: ann.total_hpwl(),
                proposed: alloc,
                accepted,
            });
            t *= COOLING;
        }
    } else {
        // Parallel annealer: shard each step over disjoint row bands
        // whose boundaries rotate (deterministically) per step, so
        // slices can migrate between bands across steps. Each shard's
        // work area (and its result buffers) is allocated once and
        // re-synced with the merged master state at every step barrier.
        let bands = band_ranges(h, shards);
        let mut workers: Vec<Annealer> = (0..shards).map(|_| ann.fork()).collect();
        let mut shard_out: Vec<ShardResult> = (0..shards).map(|_| ShardResult::default()).collect();
        let mut step: u64 = 0;
        while t > T_MIN && spent < budget {
            let alloc = moves_per_temp.min(budget - spent);
            let offset = band_offset(opts.seed, step, h);
            for worker in workers.iter_mut() {
                worker.sync_from(&ann);
            }
            std::thread::scope(|scope| {
                for (k, ((&(r0, r1), worker), out)) in bands
                    .iter()
                    .zip(workers.iter_mut())
                    .zip(shard_out.iter_mut())
                    .enumerate()
                {
                    let n_moves = alloc / shards + usize::from(k < alloc % shards);
                    let rng = StdRng::seed_from_u64(shard_seed(opts.seed, step, k as u64));
                    let band = Band {
                        start_row: (r0 + offset) % h,
                        rows: r1 - r0,
                        h,
                    };
                    scope.spawn(move || anneal_shard(worker, out, band, t, rng, n_moves));
                }
            });
            // Merge: band cells and positions first (boxes span bands,
            // so they can only be recomputed once every pin has landed),
            // then refresh exactly the nets some shard's accepted moves
            // dirtied. Every other net kept its edges and edge counts in
            // every shard, so its cached box is still exact.
            let mut accepted = 0usize;
            for (&(r0, _), res) in bands.iter().zip(shard_out.iter()) {
                let start_row = (r0 + offset) % h;
                for (local_row, chunk) in res.cells.chunks_exact(w).enumerate() {
                    let row = (start_row + local_row) % h;
                    ann.cells[row * w..row * w + w].copy_from_slice(chunk);
                }
                for &(s, p) in &res.moved {
                    ann.pos[s as usize] = p;
                }
                accepted += res.accepted;
            }
            for worker in &workers {
                for &ni in &worker.dirty {
                    ann.boxes[ni as usize] = NetBox::compute(&ann.nets[ni as usize], &ann.pos);
                }
            }
            debug_assert!(ann.boxes_are_fresh(), "cached net boxes drifted");
            spent += alloc;
            stats.accepted += accepted;
            stats.trajectory.push(TempStep {
                temperature: t,
                hpwl: ann.total_hpwl(),
                proposed: alloc,
                accepted,
            });
            t *= COOLING;
            step += 1;
        }
    }
    stats.proposals = spent;
    stats.final_hpwl = ann.total_hpwl();
    placement.pos = ann.pos;
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

/// How many disjoint row bands `threads` workers can anneal: every band
/// needs at least two cells so a swap pair can be drawn inside it.
fn effective_shards(threads: usize, w: usize, h: usize) -> usize {
    let cap = if w >= 2 { h } else { h / 2 };
    threads.max(1).min(cap.max(1))
}

/// Splits `h` rows into `shards` contiguous, non-empty `(start, end)`
/// bands, sizes differing by at most one row.
fn band_ranges(h: usize, shards: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(shards);
    let mut row = 0;
    for k in 0..shards {
        let rows = h / shards + usize::from(k < h % shards);
        out.push((row, row + rows));
        row += rows;
    }
    out
}

/// The deterministic row offset all band boundaries rotate by in one
/// temperature step. Derived from the seed and step index alone, so a
/// fixed (seed, thread count) still fully determines the anneal; varying
/// per step, so band boundaries land somewhere new each step and slices
/// near a boundary can migrate into the neighbouring band.
fn band_offset(seed: u64, step: u64, h: usize) -> usize {
    (shard_seed(seed, step, 0xB0B0) % h as u64) as usize
}

/// Decorrelated per-shard RNG seed (splitmix64-style finalizer over the
/// user seed, the temperature-step index and the shard index).
fn shard_seed(seed: u64, step: u64, shard: u64) -> u64 {
    let mut z =
        seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shard.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    /// Like [`NetBox::compute`], with slice `moved` taken to sit at `to`.
    fn compute_moved(net: &Net, pos: &[(f32, f32)], moved: u32, to: (f32, f32)) -> NetBox {
        let mut b = NetBox::EMPTY;
        for &s in &net.slices {
            b.add(if s == moved { to } else { pos[s as usize] });
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

/// The annealing work area one worker owns while proposing swaps: the
/// shared netlist structure plus mutable positions, cell contents and
/// cached per-net bounding boxes. All per-proposal scratch
/// (`updates`, the `stamp` epoch map) lives here, allocated once per
/// work area and reused for every proposal — the inner annealing loop
/// never allocates.
struct Annealer<'a> {
    nets: &'a [Net],
    incident: &'a [Vec<u32>],
    w: usize,
    pos: Vec<(f32, f32)>,
    cells: Vec<Option<u32>>,
    boxes: Vec<NetBox>,
    /// Scratch: net → the proposal epoch mark it last received (see
    /// [`Annealer::propose`]); marks of earlier proposals are stale.
    stamp: Vec<u64>,
    epoch: u64,
    /// The new boxes of the nets whose edges or edge counts the current
    /// proposal changes.
    updates: Vec<(u32, NetBox)>,
    /// Nets whose cached box or edge counts an accepted move has
    /// rewritten since this work area was created or last re-synced
    /// (deduplicated via `dirty_flag`); the parallel merge reads this
    /// so it only refreshes those boxes.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
}

impl<'a> Annealer<'a> {
    fn new(
        nets: &'a [Net],
        incident: &'a [Vec<u32>],
        w: usize,
        pos: Vec<(f32, f32)>,
        cells: Vec<Option<u32>>,
    ) -> Self {
        let boxes = nets.iter().map(|n| NetBox::compute(n, &pos)).collect();
        Annealer {
            nets,
            incident,
            w,
            pos,
            cells,
            boxes,
            stamp: vec![0; nets.len()],
            epoch: 0,
            updates: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; nets.len()],
        }
    }

    /// A clone of this work area for a parallel shard (shares the
    /// netlist structure, copies the mutable state). Created once per
    /// shard and re-synced with [`Annealer::sync_from`] between
    /// temperature steps, so the per-step cost is a buffer copy, not an
    /// allocation.
    fn fork(&self) -> Annealer<'a> {
        Annealer {
            nets: self.nets,
            incident: self.incident,
            w: self.w,
            pos: self.pos.clone(),
            cells: self.cells.clone(),
            boxes: self.boxes.clone(),
            stamp: vec![0; self.nets.len()],
            epoch: 0,
            updates: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; self.nets.len()],
        }
    }

    /// Re-syncs this shard work area with the merged master state at a
    /// temperature-step barrier, reusing every buffer: positions, cell
    /// contents and boxes are copied in place, the dirty set is
    /// drained. The epoch scratch carries over (stamps from earlier
    /// steps are simply stale).
    fn sync_from(&mut self, master: &Annealer<'a>) {
        self.pos.copy_from_slice(&master.pos);
        self.cells.copy_from_slice(&master.cells);
        self.boxes.copy_from_slice(&master.boxes);
        for ni in self.dirty.drain(..) {
            self.dirty_flag[ni as usize] = false;
        }
    }

    /// Total HPWL from the cached boxes.
    fn total_hpwl(&self) -> f64 {
        self.boxes.iter().map(NetBox::hpwl).sum()
    }

    /// Whether every cached box, edge counts included, equals a fresh
    /// scan over the current positions.
    fn boxes_are_fresh(&self) -> bool {
        self.nets
            .iter()
            .zip(&self.boxes)
            .all(|(net, b)| NetBox::compute(net, &self.pos) == *b)
    }

    /// Evaluates the HPWL delta of swapping the contents of cells `ca`
    /// and `cb` (either may be empty). Mutates nothing but internal
    /// scratch; call [`Annealer::accept`] with the same pair to apply.
    fn propose(&mut self, ca: usize, cb: usize) -> f64 {
        self.updates.clear();
        let sa = self.cells[ca];
        let sb = self.cells[cb];
        let pa = cell_pos(ca, self.w);
        let pb = cell_pos(cb, self.w);
        // A net holding both movers keeps its pin multiset, hence its
        // box, so it is skipped. Mark the nets of the slice leaving `cb`
        // first; walking the other mover's nets then relabels the shared
        // ones, which the second walk skips in turn.
        self.epoch += 2;
        let (of_b, of_both) = (self.epoch, self.epoch + 1);
        if let Some(s) = sb {
            for &ni in &self.incident[s as usize] {
                self.stamp[ni as usize] = of_b;
            }
        }
        // Shift every other incident net's box by its one moving pin,
        // recording the nets whose edges or edge counts change. The
        // delta sums their HPWL changes in incidence order, the mover
        // leaving `ca` first.
        let mut delta = 0.0;
        for (s, to, shared) in [(sa, pb, of_b), (sb, pa, of_both)] {
            let Some(s) = s else { continue };
            let from = self.pos[s as usize];
            for &ni in &self.incident[s as usize] {
                let nu = ni as usize;
                if self.stamp[nu] == shared {
                    self.stamp[nu] = of_both;
                    continue;
                }
                let cached = self.boxes[nu];
                let mut nb = cached;
                match nb.shift(from, to) {
                    Shift::Same => continue,
                    Shift::Changed => {}
                    Shift::Rescan => nb = NetBox::compute_moved(&self.nets[nu], &self.pos, s, to),
                }
                delta += nb.hpwl() - cached.hpwl();
                self.updates.push((ni, nb));
            }
        }
        delta
    }

    /// Applies the swap most recently evaluated by [`Annealer::propose`]
    /// for the same `(ca, cb)` pair, updating positions, cell contents
    /// and the cached boxes of the affected nets.
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
        for &(ni, nb) in &self.updates {
            self.boxes[ni as usize] = nb;
            if !self.dirty_flag[ni as usize] {
                self.dirty_flag[ni as usize] = true;
                self.dirty.push(ni);
            }
        }
    }
}

/// What one parallel shard hands back at the temperature-step barrier.
/// Owned by the caller and reused across steps (the buffers are cleared
/// and refilled, never reallocated in steady state). The shard's dirty
/// net set stays on its [`Annealer`], where the next
/// [`Annealer::sync_from`] drains it.
#[derive(Default)]
struct ShardResult {
    /// The shard's band of the cell grid after its moves.
    cells: Vec<Option<u32>>,
    /// Final positions of the slices living in this band.
    moved: Vec<(u32, (f32, f32))>,
    /// Accepted proposals.
    accepted: usize,
}

/// One shard's band of full grid rows for a single temperature step:
/// `rows` rows starting at `start_row`, wrapping modulo `h` (bands
/// rotate across steps, so a band may span the bottom and top of the
/// grid).
#[derive(Clone, Copy)]
struct Band {
    start_row: usize,
    rows: usize,
    h: usize,
}

/// Runs one shard's slice of a temperature step: `n_moves` proposals
/// confined to `band`.
fn anneal_shard(
    ann: &mut Annealer<'_>,
    out: &mut ShardResult,
    band: Band,
    t: f64,
    mut rng: StdRng,
    n_moves: usize,
) {
    let Band { start_row, rows, h } = band;
    let w = ann.w;
    let len = rows * w;
    let cell_at = |local: usize| ((start_row + local / w) % h) * w + local % w;
    let mut accepted = 0usize;
    for _ in 0..n_moves {
        let (a, b) = draw_pair(&mut rng, len);
        let (ca, cb) = (cell_at(a), cell_at(b));
        let delta = ann.propose(ca, cb);
        if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
            ann.accept(ca, cb);
            accepted += 1;
        }
    }
    // Cells handed back in band-local row order; the merge rotates them
    // back into grid position.
    out.cells.clear();
    out.cells
        .extend((0..len).map(|local| ann.cells[cell_at(local)]));
    out.moved.clear();
    out.moved.extend(
        out.cells
            .iter()
            .filter_map(|c| c.map(|s| (s, ann.pos[s as usize]))),
    );
    out.accepted = accepted;
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
        let net = sample_lutnet(40);
        let packing = pack_slices(&net, 4);
        let p1 = place(&net, &packing, &PlaceOptions::default());
        let p2 = place(&net, &packing, &PlaceOptions::default());
        for s in 0..packing.num_slices() {
            assert_eq!(p1.slice_pos(s as u32), p2.slice_pos(s as u32));
        }
    }

    #[test]
    fn annealing_does_not_worsen_wirelength() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        // Snake-only placement (zero-move annealer):
        let frozen = place(
            &net,
            &packing,
            &PlaceOptions {
                seed: 1,
                moves_factor: 0,
                max_total_moves: 0,
                threads: 1,
            },
        );
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

    // ---- budget accounting (the `max_total_moves` contract) ----

    #[test]
    fn budget_is_exact_when_it_binds() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        for threads in [1, 4] {
            let (_, stats) = place_with_stats(
                &net,
                &packing,
                &PlaceOptions {
                    seed: 7,
                    moves_factor: 1_000,
                    max_total_moves: 500,
                    threads,
                },
            );
            assert_eq!(
                stats.proposals, 500,
                "threads={threads}: budget must be spent exactly"
            );
            let stepped: usize = stats.trajectory.iter().map(|s| s.proposed).sum();
            assert_eq!(stepped + PROBE_PROPOSALS, 500);
        }
    }

    #[test]
    fn budget_smaller_than_probe_truncates_the_probe() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (_, stats) = place_with_stats(
            &net,
            &packing,
            &PlaceOptions {
                seed: 7,
                moves_factor: 8,
                max_total_moves: 10,
                threads: 1,
            },
        );
        assert_eq!(stats.proposals, 10);
        assert!(stats.trajectory.is_empty());
    }

    #[test]
    fn zero_budget_returns_the_snake_placement() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (p, stats) = place_with_stats(
            &net,
            &packing,
            &PlaceOptions {
                seed: 7,
                moves_factor: 8,
                max_total_moves: 0,
                threads: 1,
            },
        );
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
        for threads in [1, 4] {
            let opts = PlaceOptions {
                threads,
                ..PlaceOptions::default()
            };
            let (p, stats) = place_with_stats(&net, &packing, &opts);
            // The cached boxes (incrementally updated sequentially,
            // dirty-refreshed at parallel merges) must agree with a
            // from-scratch HPWL over the returned placement.
            assert!(
                (stats.final_hpwl - p.total_hpwl(&nets)).abs() < 1e-6,
                "threads={threads}: cached {} vs fresh {}",
                stats.final_hpwl,
                p.total_hpwl(&nets)
            );
            assert!(stats.final_hpwl <= stats.initial_hpwl * 1.001);
            assert!(stats.accepted <= stats.proposals);
            if let Some(last) = stats.trajectory.last() {
                assert!((last.hpwl - stats.final_hpwl).abs() < 1e-6);
            }
        }
    }

    // ---- proposal evaluation is side-effect free ----

    fn build_annealer(
        lutnet: &LutNetlist,
        packing: &Packing,
    ) -> (Vec<Net>, Vec<Vec<u32>>, usize, usize) {
        let num_slices = packing.num_slices();
        let (w, h) = grid_size(num_slices);
        let nets = build_nets(lutnet, packing);
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); num_slices];
        for (ni, net) in nets.iter().enumerate() {
            for &s in &net.slices {
                incident[s as usize].push(ni as u32);
            }
        }
        (nets, incident, w, h)
    }

    fn snake_state(num_slices: usize, w: usize, h: usize) -> (Vec<(f32, f32)>, Vec<Option<u32>>) {
        let mut cells: Vec<Option<u32>> = vec![None; w * h];
        let mut pos = vec![(0.0, 0.0); num_slices];
        for (s, p) in pos.iter_mut().enumerate() {
            let sp = snake_pos(s, w);
            cells[(sp.1 as usize) * w + sp.0 as usize] = Some(s as u32);
            *p = sp;
        }
        (pos, cells)
    }

    /// The delta of swapping cells `ca` and `cb` as full rescans give
    /// it: fresh boxes of every net incident to a mover, before and
    /// after the swap, their HPWL changes summed in incidence order,
    /// the slice leaving `ca` first. A net on both movers is visited
    /// twice but its box does not change, so it adds +0.0 both times.
    fn rescanned_delta(ann: &Annealer<'_>, ca: usize, cb: usize) -> f64 {
        let mut after = ann.pos.clone();
        if let Some(s) = ann.cells[ca] {
            after[s as usize] = cell_pos(cb, ann.w);
        }
        if let Some(s) = ann.cells[cb] {
            after[s as usize] = cell_pos(ca, ann.w);
        }
        [ann.cells[ca], ann.cells[cb]]
            .into_iter()
            .flatten()
            .flat_map(|s| &ann.incident[s as usize])
            .fold(0.0, |acc, &ni| {
                let net = &ann.nets[ni as usize];
                acc + (NetBox::compute(net, &after).hpwl() - NetBox::compute(net, &ann.pos).hpwl())
            })
    }

    #[test]
    fn rejected_proposal_leaves_placement_bit_identical() {
        let lutnet = dense_lutnet(50);
        let packing = pack_slices(&lutnet, 4);
        let (nets, incident, w, h) = build_annealer(&lutnet, &packing);
        let (pos, cells) = snake_state(packing.num_slices(), w, h);
        let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
        let before_pos: Vec<(u32, u32)> = ann
            .pos
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        let before_cells = ann.cells.clone();
        let before_boxes = ann.boxes.clone();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let (ca, cb) = draw_pair(&mut rng, w * h);
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

    #[test]
    fn proposal_deltas_match_recomputed_hpwl() {
        let lutnet = dense_lutnet(70);
        let packing = pack_slices(&lutnet, 4);
        let (nets, incident, w, h) = build_annealer(&lutnet, &packing);
        let (pos, cells) = snake_state(packing.num_slices(), w, h);
        let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = ann.total_hpwl();
        for i in 0..500 {
            let (ca, cb) = draw_pair(&mut rng, w * h);
            let delta = ann.propose(ca, cb);
            assert_eq!(delta.to_bits(), rescanned_delta(&ann, ca, cb).to_bits());
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
                assert!(
                    (total - fresh).abs() < 1e-6,
                    "incremental total {total} diverged from fresh {fresh} at move {i}"
                );
                assert!((ann.total_hpwl() - fresh).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn swapping_two_pins_of_one_net_leaves_its_box_untouched() {
        let lutnet = dense_lutnet(70);
        let packing = pack_slices(&lutnet, 4);
        let (nets, incident, w, h) = build_annealer(&lutnet, &packing);
        let (pos, cells) = snake_state(packing.num_slices(), w, h);
        let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
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
        let before = ann.boxes[ni];
        // Either pin moving alone would change the box or its counts.
        let (pf, pl) = (ann.pos[first as usize], ann.pos[last as usize]);
        for (from, to) in [(pf, pl), (pl, pf)] {
            let mut alone = before;
            assert_ne!(alone.shift(from, to), Shift::Same);
        }
        ann.propose(ca, cb);
        assert!(
            ann.updates.iter().all(|&(n, _)| n as usize != ni),
            "a net holding both movers was updated"
        );
        ann.accept(ca, cb);
        assert_eq!(ann.boxes[ni], before);
        assert!(ann.boxes_are_fresh());
    }

    /// A random LUT netlist over `n_in` inputs. Each `luts` entry
    /// `(a, b, c, arity)` is one LUT reading the first `arity` of its
    /// three picks, each resolved to an input, an earlier LUT or (now
    /// and then) a constant; `outs` picks the outputs the same way, so
    /// inputs can drive output pads directly.
    fn random_lutnet(n_in: u32, luts: &[(u32, u32, u32, usize)], outs: &[u32]) -> LutNetlist {
        let names = (0..n_in).map(|i| format!("x{i}")).collect();
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
        net
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

        /// Random netlists (pads, constants, empty cells) under random
        /// swap sequences: every delta equals a rescan's bit for bit,
        /// every cached box equals a fresh scan after each accepted
        /// move, and a full anneal's cached total HPWL equals a fresh
        /// one over the returned placement — sequentially and through
        /// the parallel merge's box recompute.
        #[test]
        fn incremental_boxes_match_fresh_scans(
            n_in in 1u32..5,
            luts in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000, 1usize..4), 2..60),
            outs in proptest::collection::vec(0u32..1000, 1..5),
            lps in 1usize..5,
            swaps in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 1..200),
        ) {
            let lutnet = random_lutnet(n_in, &luts, &outs);
            let packing = pack_slices(&lutnet, lps);
            let (nets, incident, w, h) = build_annealer(&lutnet, &packing);
            let n_cells = w * h;
            let (pos, cells) = snake_state(packing.num_slices(), w, h);
            let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
            for &(a, b, verdict) in &swaps {
                let (ca, cb) = (a as usize % n_cells, b as usize % n_cells);
                if ca == cb {
                    continue;
                }
                let delta = ann.propose(ca, cb);
                proptest::prop_assert_eq!(delta.to_bits(), rescanned_delta(&ann, ca, cb).to_bits());
                if verdict != 0 {
                    ann.accept(ca, cb);
                }
                proptest::prop_assert!(ann.boxes_are_fresh());
            }
            for (net, b) in nets.iter().zip(&ann.boxes) {
                proptest::prop_assert_eq!(*b, box_by_definition(net, &ann.pos));
            }
            for threads in [1, 3] {
                let opts = PlaceOptions {
                    seed: u64::from(swaps[0].0),
                    moves_factor: 4,
                    max_total_moves: 3_000,
                    threads,
                };
                let (p, stats) = place_with_stats(&lutnet, &packing, &opts);
                proptest::prop_assert_eq!(stats.final_hpwl.to_bits(), p.total_hpwl(&nets).to_bits());
            }
        }
    }

    // ---- parallel mode ----

    #[test]
    fn parallel_placement_is_deterministic() {
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let opts = PlaceOptions {
            threads: 4,
            ..PlaceOptions::default()
        };
        let p1 = place(&net, &packing, &opts);
        let p2 = place(&net, &packing, &opts);
        for s in 0..packing.num_slices() {
            assert_eq!(p1.slice_pos(s as u32), p2.slice_pos(s as u32));
        }
    }

    #[test]
    fn parallel_placement_beats_snake_wirelength() {
        let net = dense_lutnet(120);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        let snake = place(
            &net,
            &packing,
            &PlaceOptions {
                seed: 1,
                moves_factor: 0,
                max_total_moves: 0,
                threads: 1,
            },
        );
        let parallel = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 4,
                ..PlaceOptions::default()
            },
        );
        assert!(parallel.total_hpwl(&nets) <= snake.total_hpwl(&nets));
    }

    #[test]
    fn parallel_keeps_every_slice_in_a_unique_cell() {
        let net = dense_lutnet(75);
        let packing = pack_slices(&net, 4);
        let p = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 3,
                ..PlaceOptions::default()
            },
        );
        let mut seen = std::collections::HashSet::new();
        for s in 0..packing.num_slices() {
            let pos = p.slice_pos(s as u32);
            assert!(seen.insert((pos.0 as i64, pos.1 as i64)));
        }
    }

    #[test]
    fn rotating_bands_let_slices_migrate_between_bands() {
        // Without rotation, a slice could never leave the band it
        // started in (ROADMAP open item from PR 2). With per-step
        // boundary rotation, some slice must end up outside its
        // starting band of step-0 geometry.
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let num_slices = packing.num_slices();
        let (w, h) = grid_size(num_slices);
        let shards = effective_shards(2, w, h);
        assert!(shards > 1, "test needs a real multi-band grid");
        let bands = band_ranges(h, shards);
        let band_of = |row: usize| bands.iter().position(|&(r0, r1)| (r0..r1).contains(&row));
        let p = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 2,
                ..PlaceOptions::default()
            },
        );
        let migrated = (0..num_slices).any(|s| {
            let initial_row = s / w; // snake placement row
            let final_row = p.slice_pos(s as u32).1 as usize;
            band_of(initial_row) != band_of(final_row)
        });
        assert!(migrated, "no slice ever left its initial band");
    }

    #[test]
    fn rotated_band_placement_is_deterministic_per_seed() {
        // Same seed + thread count => identical placement; a different
        // seed rotates differently and (with overwhelming likelihood)
        // lands elsewhere.
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let opts = |seed| PlaceOptions {
            seed,
            threads: 3,
            ..PlaceOptions::default()
        };
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
    fn band_offset_is_deterministic_and_varies_with_step() {
        for h in [2usize, 5, 31] {
            let offsets: Vec<usize> = (0..16).map(|s| band_offset(42, s, h)).collect();
            assert_eq!(
                offsets,
                (0..16).map(|s| band_offset(42, s, h)).collect::<Vec<_>>()
            );
            assert!(offsets.iter().all(|&o| o < h));
            if h > 2 {
                assert!(
                    offsets.windows(2).any(|w| w[0] != w[1]),
                    "offsets never changed across steps for h = {h}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_zero_and_one_agree() {
        let net = sample_lutnet(40);
        let packing = pack_slices(&net, 4);
        let p0 = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 0,
                ..PlaceOptions::default()
            },
        );
        let p1 = place(&net, &packing, &PlaceOptions::default());
        for s in 0..packing.num_slices() {
            assert_eq!(p0.slice_pos(s as u32), p1.slice_pos(s as u32));
        }
    }

    #[test]
    fn band_ranges_partition_all_rows() {
        for h in [1usize, 2, 5, 54, 57] {
            for shards in [1usize, 2, 3, 4, 7] {
                let shards = shards.min(h);
                let bands = band_ranges(h, shards);
                assert_eq!(bands.len(), shards);
                assert_eq!(bands[0].0, 0);
                assert_eq!(bands.last().unwrap().1, h);
                for w in bands.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].1 > w[0].0);
                }
            }
        }
    }

    #[test]
    fn effective_shards_guarantee_two_cells_per_band() {
        assert_eq!(effective_shards(4, 1, 1), 1);
        assert_eq!(effective_shards(4, 1, 8), 4);
        assert_eq!(effective_shards(8, 1, 8), 4);
        assert_eq!(effective_shards(4, 10, 2), 2);
        assert_eq!(effective_shards(1, 10, 10), 1);
        assert_eq!(effective_shards(0, 10, 10), 1);
    }
}
