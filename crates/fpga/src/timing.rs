//! Static timing analysis over the placed design.
//!
//! The delay model mirrors the cost structure of a post-P&R FPGA timing
//! report: IOB delays at the boundary, a fixed LUT logic delay, and net
//! delays growing with driver fanout and placed wire length. The paper's
//! Table V "Time (ns)" column is the critical combinational path of each
//! multiplier through exactly these components.
//!
//! [`analyze_sta`] runs the full subsystem: a forward arrival pass, a
//! backward required-time pass (per-LUT and per-endpoint slack), a slack
//! histogram, and top-K critical path enumeration with per-segment
//! IBUF/net/LUT/OBUF decomposition — all in a typed [`StaReport`].
//! [`analyze`] is the same analysis under default [`StaOptions`], where
//! the required time is the critical delay itself, so every slack is
//! ≥ 0 and the critical endpoints sit at exactly 0.
//!
//! Slack semantics: with [`StaOptions::target_ns`] unset, the required
//! time at every primary output is the worst endpoint arrival, making
//! slack a measure of *margin against the critical path*. Setting a
//! target turns the analysis into a constraint check — slacks go
//! negative when the design misses it, which is what the `sta` bin's
//! nonzero exit gates on.

use std::fmt;

use crate::device::Device;
use crate::lut::{LutAnalysis, LutNetlist, Signal};
use crate::pack::Packing;
use crate::place::Placement;

/// Options for [`analyze_sta`].
#[derive(Debug, Clone)]
pub struct StaOptions {
    /// Required arrival time at every primary output, in ns. `None`
    /// uses the design's own critical delay (all slacks ≥ 0, critical
    /// endpoints at exactly 0).
    pub target_ns: Option<f64>,
    /// How many critical paths to enumerate (worst endpoints first).
    pub max_paths: usize,
    /// Two endpoints within this margin of the critical delay count as
    /// tied for critical.
    pub epsilon_ns: f64,
}

impl Default for StaOptions {
    fn default() -> Self {
        StaOptions {
            target_ns: None,
            max_paths: 4,
            epsilon_ns: 1e-9,
        }
    }
}

/// One element along a traced critical path.
#[derive(Debug, Clone, PartialEq)]
pub enum PathElement {
    /// The input buffer of the named primary input.
    Ibuf(String),
    /// A routed net: driver fanout and placed Manhattan length.
    Net {
        /// Fanout of the driving signal.
        fanout: usize,
        /// Manhattan distance between the placed endpoints.
        length: f64,
    },
    /// The logic delay of LUT `.0`.
    Lut(u32),
    /// The output buffer of the named primary output.
    Obuf(String),
}

impl fmt::Display for PathElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathElement::Ibuf(name) => write!(f, "IBUF {name}"),
            PathElement::Net { fanout, length } => {
                write!(f, "net (fanout {fanout}, length {length:.1})")
            }
            PathElement::Lut(id) => write!(f, "LUT {id}"),
            PathElement::Obuf(name) => write!(f, "OBUF {name}"),
        }
    }
}

/// One delay increment along a traced path: the element, its delay
/// contribution, and the cumulative arrival after it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// What contributes the delay.
    pub element: PathElement,
    /// This element's delay, in ns.
    pub delay_ns: f64,
    /// Cumulative arrival after this element, in ns.
    pub at_ns: f64,
}

/// A fully decomposed input-pad → LUT-chain → output-pad path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Index of the terminating primary output.
    pub output_index: usize,
    /// Name of the terminating primary output.
    pub output: String,
    /// Arrival time at the output pad, in ns.
    pub arrival_ns: f64,
    /// Slack of this endpoint against the required time, in ns.
    pub slack_ns: f64,
    /// The segments, source first; their `delay_ns` sum to
    /// `arrival_ns`.
    pub segments: Vec<PathSegment>,
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "path to {} : arrival {:.4} ns, slack {:+.4} ns",
            self.output, self.arrival_ns, self.slack_ns
        )?;
        for seg in &self.segments {
            writeln!(
                f,
                "  +{:>8.4} ns  = {:>9.4} ns  {}",
                seg.delay_ns, seg.at_ns, seg.element
            )?;
        }
        Ok(())
    }
}

/// A fixed-width histogram over every slack in the design (per-LUT and
/// per-endpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct SlackHistogram {
    /// Lower edge of the first bin, in ns (the worst slack).
    pub min_ns: f64,
    /// Width of each bin, in ns.
    pub bin_width_ns: f64,
    /// Number of slacks falling into each bin, ascending.
    pub counts: Vec<usize>,
}

impl SlackHistogram {
    const BINS: usize = 8;

    fn of(slacks: &[f64]) -> SlackHistogram {
        if slacks.is_empty() {
            return SlackHistogram {
                min_ns: 0.0,
                bin_width_ns: 0.0,
                counts: Vec::new(),
            };
        }
        let min = slacks.iter().copied().fold(f64::INFINITY, f64::min);
        let max = slacks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = (max - min) / Self::BINS as f64;
        if width <= 0.0 {
            return SlackHistogram {
                min_ns: min,
                bin_width_ns: 0.0,
                counts: vec![slacks.len()],
            };
        }
        let mut counts = vec![0usize; Self::BINS];
        for &s in slacks {
            let bin = (((s - min) / width) as usize).min(Self::BINS - 1);
            counts[bin] += 1;
        }
        SlackHistogram {
            min_ns: min,
            bin_width_ns: width,
            counts,
        }
    }

    /// Total number of slacks binned.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

impl fmt::Display for SlackHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counts.is_empty() {
            return write!(f, "(no slacks)");
        }
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &count) in self.counts.iter().enumerate() {
            let lo = self.min_ns + self.bin_width_ns * i as f64;
            let hi = lo + self.bin_width_ns;
            let bar = "#".repeat(count * 40 / peak);
            writeln!(f, "  [{lo:>8.3}, {hi:>8.3}) {count:>5} {bar}")?;
        }
        Ok(())
    }
}

/// The result of static timing analysis: the critical number plus the
/// slack and path machinery.
#[derive(Debug, Clone)]
pub struct StaReport {
    /// Critical-path delay in nanoseconds (worst endpoint arrival).
    pub critical_ns: f64,
    /// Name of the output terminating the critical path (the first of
    /// [`StaReport::critical_outputs`]).
    pub critical_output: String,
    /// *All* outputs whose arrival is within `epsilon_ns` of the
    /// critical delay, in output-declaration order — ties are reported,
    /// not dropped.
    pub critical_outputs: Vec<String>,
    /// Arrival time of every LUT output, in ns.
    pub arrival_ns: Vec<f64>,
    /// Required time at every LUT output, in ns (LUTs reaching no
    /// endpoint are pinned to the target).
    pub required_ns: Vec<f64>,
    /// Per-LUT slack (`required − arrival`), in ns.
    pub slack_ns: Vec<f64>,
    /// Arrival time at every primary output pad, in ns.
    pub output_arrival_ns: Vec<f64>,
    /// Per-endpoint slack (`target − arrival`), in ns.
    pub output_slack_ns: Vec<f64>,
    /// The resolved required time at the outputs, in ns.
    pub target_ns: f64,
    /// The worst slack anywhere in the design, in ns (0 when the
    /// default target is used, negative iff an explicit target is
    /// missed).
    pub worst_slack_ns: f64,
    /// Histogram over every per-LUT and per-endpoint slack.
    pub histogram: SlackHistogram,
    /// The top-K critical paths, worst endpoint first.
    pub paths: Vec<CriticalPath>,
}

/// Runs STA on a placed design under default [`StaOptions`].
pub fn analyze(
    lutnet: &LutNetlist,
    packing: &Packing,
    placement: &Placement,
    device: &Device,
) -> StaReport {
    analyze_sta(lutnet, packing, placement, device, &StaOptions::default())
}

/// Runs full STA — forward arrivals, backward required times, slack,
/// histogram, and critical path enumeration — on a placed design.
pub fn analyze_sta(
    lutnet: &LutNetlist,
    packing: &Packing,
    placement: &Placement,
    device: &Device,
    options: &StaOptions,
) -> StaReport {
    let analysis = LutAnalysis::of(lutnet);
    let fanouts = &analysis.lut_fanouts;
    let input_fanouts = &analysis.input_fanouts;
    let lut_pos = |l: u32| placement.slice_pos(packing.slice_of(l));

    // Forward pass: arrival at every LUT output, then at every pad.
    let mut arrival = vec![0.0f64; lutnet.num_luts()];
    for (l, lut) in lutnet.luts().iter().enumerate() {
        let sink_pos = lut_pos(l as u32);
        let mut worst: f64 = 0.0;
        for s in &lut.inputs {
            let t = match s {
                Signal::Const(_) => 0.0,
                Signal::Input(i) => {
                    let src = placement.input_pos(*i);
                    device.t_ibuf_ns + net_delay(device, input_fanouts[*i as usize], src, sink_pos)
                }
                Signal::Lut(j) => {
                    arrival[*j as usize]
                        + net_delay(device, fanouts[*j as usize], lut_pos(*j), sink_pos)
                }
            };
            worst = worst.max(t);
        }
        arrival[l] = worst + device.t_lut_ns;
    }

    let mut critical_ns: f64 = 0.0;
    let mut critical_output = String::new();
    let mut output_arrival = Vec::with_capacity(lutnet.outputs().len());
    for (o, (name, s)) in lutnet.outputs().iter().enumerate() {
        let pad = placement.output_pos(o);
        let t = match s {
            Signal::Const(_) => device.t_obuf_ns,
            Signal::Input(i) => {
                device.t_ibuf_ns
                    + net_delay(
                        device,
                        input_fanouts[*i as usize],
                        placement.input_pos(*i),
                        pad,
                    )
                    + device.t_obuf_ns
            }
            Signal::Lut(j) => {
                arrival[*j as usize]
                    + net_delay(device, fanouts[*j as usize], lut_pos(*j), pad)
                    + device.t_obuf_ns
            }
        };
        output_arrival.push(t);
        if t > critical_ns {
            critical_ns = t;
            critical_output = name.clone();
        }
    }

    // All endpoints tied for critical, in declaration order.
    let critical_outputs: Vec<String> = lutnet
        .outputs()
        .iter()
        .zip(&output_arrival)
        .filter(|(_, &t)| t >= critical_ns - options.epsilon_ns)
        .map(|((name, _), _)| name.clone())
        .collect();

    // Backward pass: required time at every LUT output. Endpoints seed
    // the recursion at `target − t_obuf − net`; interior LUTs take the
    // min over their consumers. LUTs reaching no endpoint at all stay
    // at +∞ and are pinned to the target (their slack is then simply
    // the margin of their own arrival).
    let target_ns = options.target_ns.unwrap_or(critical_ns);
    let mut required = vec![f64::INFINITY; lutnet.num_luts()];
    for (o, (_, s)) in lutnet.outputs().iter().enumerate() {
        if let Signal::Lut(j) = s {
            let pad = placement.output_pos(o);
            let req = target_ns
                - device.t_obuf_ns
                - net_delay(device, fanouts[*j as usize], lut_pos(*j), pad);
            let slot = &mut required[*j as usize];
            *slot = slot.min(req);
        }
    }
    for (l, lut) in lutnet.luts().iter().enumerate().rev() {
        let req_l = required[l];
        if req_l == f64::INFINITY {
            continue;
        }
        let sink_pos = lut_pos(l as u32);
        for s in &lut.inputs {
            if let Signal::Lut(j) = s {
                let req = req_l
                    - device.t_lut_ns
                    - net_delay(device, fanouts[*j as usize], lut_pos(*j), sink_pos);
                let slot = &mut required[*j as usize];
                *slot = slot.min(req);
            }
        }
    }
    for r in &mut required {
        if *r == f64::INFINITY {
            *r = target_ns;
        }
    }

    let slack: Vec<f64> = required.iter().zip(&arrival).map(|(r, a)| r - a).collect();
    let output_slack: Vec<f64> = output_arrival.iter().map(|a| target_ns - a).collect();
    let worst_slack_ns = slack
        .iter()
        .chain(&output_slack)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let worst_slack_ns = if worst_slack_ns == f64::INFINITY {
        0.0
    } else {
        worst_slack_ns
    };

    let all_slacks: Vec<f64> = slack.iter().chain(&output_slack).copied().collect();
    let histogram = SlackHistogram::of(&all_slacks);

    // Top-K paths: worst endpoints first, declaration order on ties.
    let mut order: Vec<usize> = (0..output_arrival.len()).collect();
    order.sort_by(|&a, &b| {
        output_arrival[b]
            .partial_cmp(&output_arrival[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let paths: Vec<CriticalPath> = order
        .iter()
        .take(options.max_paths)
        .map(|&o| {
            trace_path(
                lutnet,
                packing,
                placement,
                device,
                &analysis,
                &arrival,
                o,
                output_arrival[o],
                target_ns,
            )
        })
        .collect();

    StaReport {
        critical_ns,
        critical_output,
        critical_outputs,
        arrival_ns: arrival,
        required_ns: required,
        slack_ns: slack,
        output_arrival_ns: output_arrival,
        output_slack_ns: output_slack,
        target_ns,
        worst_slack_ns,
        histogram,
        paths,
    }
}

/// Backtracks the worst path into output `o`, reconstructing the same
/// argmax decisions the forward pass took (first max wins, matching
/// `f64::max`'s left bias under strict improvement).
#[allow(clippy::too_many_arguments)]
fn trace_path(
    lutnet: &LutNetlist,
    packing: &Packing,
    placement: &Placement,
    device: &Device,
    analysis: &LutAnalysis,
    arrival: &[f64],
    o: usize,
    arrival_ns: f64,
    target_ns: f64,
) -> CriticalPath {
    let lut_pos = |l: u32| placement.slice_pos(packing.slice_of(l));
    let (name, source) = &lutnet.outputs()[o];
    let pad = placement.output_pos(o);

    // Collect the chain from the endpoint back to its source, then
    // reverse into pad→pad order.
    let mut rev: Vec<(PathElement, f64)> =
        vec![(PathElement::Obuf(name.clone()), device.t_obuf_ns)];
    let mut cursor = *source;
    let mut sink = pad;
    loop {
        match cursor {
            Signal::Const(_) => break,
            Signal::Input(i) => {
                let src = placement.input_pos(i);
                let fanout = analysis.input_fanouts[i as usize];
                rev.push((
                    PathElement::Net {
                        fanout,
                        length: manhattan(src, sink),
                    },
                    net_delay(device, fanout, src, sink),
                ));
                rev.push((
                    PathElement::Ibuf(lutnet.input_names()[i as usize].clone()),
                    device.t_ibuf_ns,
                ));
                break;
            }
            Signal::Lut(j) => {
                let src = lut_pos(j);
                let fanout = analysis.lut_fanouts[j as usize];
                rev.push((
                    PathElement::Net {
                        fanout,
                        length: manhattan(src, sink),
                    },
                    net_delay(device, fanout, src, sink),
                ));
                rev.push((PathElement::Lut(j), device.t_lut_ns));
                // Which input dominated this LUT's arrival? Replay the
                // forward pass's max (first maximum wins, like the
                // forward pass's strict-improvement update).
                let mut best: Option<(Signal, f64)> = None;
                for s in &lutnet.luts()[j as usize].inputs {
                    let t = match s {
                        Signal::Const(_) => 0.0,
                        Signal::Input(i) => {
                            device.t_ibuf_ns
                                + net_delay(
                                    device,
                                    analysis.input_fanouts[*i as usize],
                                    placement.input_pos(*i),
                                    src,
                                )
                        }
                        Signal::Lut(k) => {
                            arrival[*k as usize]
                                + net_delay(
                                    device,
                                    analysis.lut_fanouts[*k as usize],
                                    lut_pos(*k),
                                    src,
                                )
                        }
                    };
                    if best.as_ref().is_none_or(|&(_, bt)| t > bt) {
                        best = Some((*s, t));
                    }
                }
                match best {
                    Some((s, _)) => {
                        cursor = s;
                        sink = src;
                    }
                    None => break, // LUT with no inputs: constant driver
                }
            }
        }
    }

    let mut segments = Vec::with_capacity(rev.len());
    let mut at = 0.0f64;
    for (element, delay_ns) in rev.into_iter().rev() {
        at += delay_ns;
        segments.push(PathSegment {
            element,
            delay_ns,
            at_ns: at,
        });
    }
    CriticalPath {
        output_index: o,
        output: name.clone(),
        arrival_ns,
        slack_ns: target_ns - arrival_ns,
        segments,
    }
}

fn manhattan(src: (f32, f32), dst: (f32, f32)) -> f64 {
    ((src.0 - dst.0).abs() + (src.1 - dst.1).abs()) as f64
}

fn net_delay(device: &Device, fanout: usize, src: (f32, f32), dst: (f32, f32)) -> f64 {
    device.t_net_ns
        + device.t_net_per_fanout_ns * fanout.saturating_sub(1) as f64
        + device.t_net_per_unit_ns * manhattan(src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::pack::pack_slices;
    use crate::place::{place, PlaceOptions};
    use crate::Target;

    fn timed(net: &LutNetlist) -> StaReport {
        let packing = pack_slices(net, 4);
        let placement = place(net, &packing, &PlaceOptions::default());
        analyze(net, &packing, &placement, Target::Artix7.device())
    }

    fn timed_with(net: &LutNetlist, options: &StaOptions) -> StaReport {
        let packing = pack_slices(net, 4);
        let placement = place(net, &packing, &PlaceOptions::default());
        analyze_sta(net, &packing, &placement, Target::Artix7.device(), options)
    }

    #[test]
    fn single_lut_path_has_all_components() {
        let mut net = LutNetlist::new("t".into(), 6, vec!["a".into(), "b".into()]);
        let id = net.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: crate::lut::Truth::of(0b0110),
        });
        net.push_output("y".into(), Signal::Lut(id));
        let d = Target::Artix7.device();
        let r = timed(&net);
        // At least IBUF + net + LUT + net + OBUF.
        let floor = d.t_ibuf_ns + d.t_net_ns + d.t_lut_ns + d.t_net_ns + d.t_obuf_ns;
        assert!(r.critical_ns >= floor, "{} < {floor}", r.critical_ns);
        assert_eq!(r.critical_output, "y");
    }

    #[test]
    fn deeper_chain_is_slower() {
        let build = |depth: usize| {
            let mut net = LutNetlist::new("c".into(), 6, vec!["a".into()]);
            let mut prev = Signal::Input(0);
            for _ in 0..depth {
                let id = net.push_lut(Lut {
                    inputs: vec![prev],
                    truth: crate::lut::Truth::of(0b01),
                });
                prev = Signal::Lut(id);
            }
            net.push_output("y".into(), prev);
            net
        };
        let short = timed(&build(2)).critical_ns;
        let long = timed(&build(8)).critical_ns;
        assert!(long > short, "{long} <= {short}");
    }

    #[test]
    fn high_fanout_penalizes_delay() {
        let build = |fanout: usize| {
            let mut net = LutNetlist::new("f".into(), 6, vec!["a".into()]);
            let driver = net.push_lut(Lut {
                inputs: vec![Signal::Input(0)],
                truth: crate::lut::Truth::of(0b01),
            });
            let mut last = driver;
            for _ in 0..fanout {
                last = net.push_lut(Lut {
                    inputs: vec![Signal::Lut(driver)],
                    truth: crate::lut::Truth::of(0b01),
                });
            }
            net.push_output("y".into(), Signal::Lut(last));
            net
        };
        let lo = timed(&build(1)).critical_ns;
        let hi = timed(&build(12)).critical_ns;
        assert!(hi > lo, "{hi} <= {lo}");
    }

    #[test]
    fn passthrough_output_is_fast_but_nonzero() {
        let mut net = LutNetlist::new("p".into(), 6, vec!["a".into()]);
        net.push_output("y".into(), Signal::Input(0));
        let r = timed(&net);
        let d = Target::Artix7.device();
        assert!(r.critical_ns >= d.t_ibuf_ns + d.t_obuf_ns);
    }

    #[test]
    fn arrival_times_are_monotone_along_chains() {
        let mut net = LutNetlist::new("m".into(), 6, vec!["a".into()]);
        let l0 = net.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: crate::lut::Truth::of(0b01),
        });
        let l1 = net.push_lut(Lut {
            inputs: vec![Signal::Lut(l0)],
            truth: crate::lut::Truth::of(0b01),
        });
        net.push_output("y".into(), Signal::Lut(l1));
        let r = timed(&net);
        assert!(r.arrival_ns[l1 as usize] > r.arrival_ns[l0 as usize]);
    }

    fn diamond_net() -> LutNetlist {
        // a → l0 → {l1 fast, l2+l3 slow} → l4 → y, plus a side output.
        let mut net = LutNetlist::new("d".into(), 6, vec!["a".into(), "b".into()]);
        let inv = crate::lut::Truth::of(0b01);
        let l0 = net.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: inv,
        });
        let l1 = net.push_lut(Lut {
            inputs: vec![Signal::Lut(l0)],
            truth: inv,
        });
        let l2 = net.push_lut(Lut {
            inputs: vec![Signal::Lut(l0)],
            truth: inv,
        });
        let l3 = net.push_lut(Lut {
            inputs: vec![Signal::Lut(l2)],
            truth: inv,
        });
        let l4 = net.push_lut(Lut {
            inputs: vec![Signal::Lut(l1), Signal::Lut(l3)],
            truth: crate::lut::Truth::of(0b0110),
        });
        net.push_output("y".into(), Signal::Lut(l4));
        net.push_output("side".into(), Signal::Lut(l1));
        net
    }

    #[test]
    fn default_target_makes_all_slacks_nonnegative_and_critical_zero() {
        let r = timed(&diamond_net());
        for (l, &s) in r.slack_ns.iter().enumerate() {
            assert!(s >= -1e-9, "LUT {l} slack {s}");
        }
        for (o, &s) in r.output_slack_ns.iter().enumerate() {
            assert!(s >= -1e-9, "output {o} slack {s}");
        }
        // The critical endpoint's slack is exactly 0 (target − target).
        let worst = r
            .output_slack_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(worst, 0.0);
        assert!(r.worst_slack_ns.abs() < 1e-9, "{}", r.worst_slack_ns);
        assert_eq!(r.target_ns, r.critical_ns);
    }

    #[test]
    fn required_and_arrival_agree_on_the_critical_path() {
        let r = timed(&diamond_net());
        // Along the critical path, every LUT's slack is ≈ 0; off-path
        // LUTs (the fast branch) have strictly positive slack.
        let min_lut_slack = r.slack_ns.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min_lut_slack.abs() < 1e-9, "{min_lut_slack}");
        assert!(
            r.slack_ns.iter().any(|&s| s > 0.01),
            "expected an off-path LUT with real margin, got {:?}",
            r.slack_ns
        );
    }

    #[test]
    fn explicit_target_produces_negative_slack() {
        let net = diamond_net();
        let tight = timed_with(
            &net,
            &StaOptions {
                target_ns: Some(0.5),
                ..StaOptions::default()
            },
        );
        assert!(tight.worst_slack_ns < 0.0, "{}", tight.worst_slack_ns);
        let loose = timed_with(
            &net,
            &StaOptions {
                target_ns: Some(1e3),
                ..StaOptions::default()
            },
        );
        assert!(loose.worst_slack_ns > 0.0, "{}", loose.worst_slack_ns);
    }

    #[test]
    fn critical_path_trace_decomposes_the_critical_delay() {
        let r = timed(&diamond_net());
        assert!(!r.paths.is_empty());
        let path = &r.paths[0];
        assert_eq!(path.output, r.critical_output);
        assert!((path.arrival_ns - r.critical_ns).abs() < 1e-9);
        // Segments sum to the endpoint arrival...
        let sum: f64 = path.segments.iter().map(|s| s.delay_ns).sum();
        assert!((sum - path.arrival_ns).abs() < 1e-9, "{sum}");
        // ...start at the input pad, end at the output pad, and pass
        // through the slow branch (l0, l2, l3, l4 = 4 LUTs).
        assert!(matches!(path.segments[0].element, PathElement::Ibuf(_)));
        assert!(matches!(
            path.segments.last().unwrap().element,
            PathElement::Obuf(_)
        ));
        let luts: Vec<u32> = path
            .segments
            .iter()
            .filter_map(|s| match s.element {
                PathElement::Lut(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(luts, vec![0, 2, 3, 4]);
        // Cumulative times are monotone.
        for w in path.segments.windows(2) {
            assert!(w[1].at_ns >= w[0].at_ns);
        }
        // Display renders the full trace.
        let text = path.to_string();
        assert!(text.contains("IBUF a"), "{text}");
        assert!(text.contains("OBUF y"), "{text}");
        assert!(text.contains("LUT 3"), "{text}");
    }

    #[test]
    fn paths_are_ordered_worst_first_and_capped() {
        let net = diamond_net();
        let r = timed_with(
            &net,
            &StaOptions {
                max_paths: 1,
                ..StaOptions::default()
            },
        );
        assert_eq!(r.paths.len(), 1);
        let r = timed_with(
            &net,
            &StaOptions {
                max_paths: 10,
                ..StaOptions::default()
            },
        );
        assert_eq!(r.paths.len(), 2); // only two endpoints exist
        assert!(r.paths[0].arrival_ns >= r.paths[1].arrival_ns);
        assert_eq!(r.paths[0].output, "y");
        assert_eq!(r.paths[1].output, "side");
    }

    #[test]
    fn tied_critical_outputs_are_all_reported() {
        // Two identical single-LUT cones; with a generous epsilon both
        // outputs count as critical, in declaration order.
        let mut net = LutNetlist::new("tie".into(), 6, vec!["a".into()]);
        let l0 = net.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: crate::lut::Truth::of(0b01),
        });
        net.push_output("y0".into(), Signal::Lut(l0));
        net.push_output("y1".into(), Signal::Lut(l0));
        let r = timed_with(
            &net,
            &StaOptions {
                epsilon_ns: 10.0, // pad placement differs; swallow it
                ..StaOptions::default()
            },
        );
        assert_eq!(r.critical_outputs, vec!["y0".to_string(), "y1".into()]);
        // The compatibility field is the first critical output by the
        // historical strict-max rule.
        assert!(r.critical_outputs.contains(&r.critical_output));
    }

    #[test]
    fn histogram_covers_every_slack() {
        let r = timed(&diamond_net());
        let expected = r.slack_ns.len() + r.output_slack_ns.len();
        assert_eq!(r.histogram.total(), expected);
        assert!(r.histogram.min_ns <= 1e-9);
        let text = r.histogram.to_string();
        assert!(text.contains('#'), "{text}");
    }

    #[test]
    fn dead_lut_required_time_is_pinned_to_target() {
        let mut net = LutNetlist::new("dead".into(), 6, vec!["a".into()]);
        let l0 = net.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: crate::lut::Truth::of(0b01),
        });
        let _dead = net.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: crate::lut::Truth::of(0b01),
        });
        net.push_output("y".into(), Signal::Lut(l0));
        let r = timed(&net);
        assert_eq!(r.required_ns[1], r.target_ns);
        assert!(r.slack_ns[1] >= 0.0);
    }
}
