//! `flow-cold`: one caller runs a closed loop of cold
//! `Pipeline::run_report` calls, each design through a fresh
//! `harness_pipeline().with_target(t)`. Netlists and their Table V
//! specs are built in set-up.
//!
//! Two design sets use the placer differently:
//! * `large`: ProposedFlat at (163, 68) on every target plus Rashidi on
//!   artix7. The k ≤ 6 fabrics spend the whole annealing budget.
//! * `small`: all six methods on all four targets at (8, 2). Each
//!   anneal stops at the cooling floor long before the budget.
//!
//! A round is one `large` pass and [`SMALL_PASSES_PER_ROUND`] `small`
//! passes, each in a seeded order; the untraced run interleaves them
//! (see [`untraced`]), the traced run keeps each set's passes apart so
//! it can split every layer by set. The traced run repeats every design
//! stage by stage, with a span around each layer call, next to its
//! untraced cold run, and proves each mapped netlist formally.

use std::time::{Duration, Instant};

use gf2m::Field;
use netlist::{Depth, MulSpec, Netlist};
use rgf2m_bench::{field_for, harness_pipeline};
use rgf2m_core::{area_spec, delay_spec, generate, multiplier_spec, Method};
use rgf2m_fpga::place::place_with_stats;
use rgf2m_fpga::timing::analyze;
use rgf2m_fpga::{lint_mapped, ImplReport, Pipeline, PlaceStats, Target};

use crate::common::{
    job_stats, ms, spread_ms, timed_setup, warm_up, Config, Outcome, Rng, Window, WARM_UP_S,
};
use crate::stats::{fastest, geomean, median};
use crate::trace::{self, Tracer};

/// `small` passes per round: enough repeats of each `small` design for
/// its fastest to miss the machine's slow spells, without crowding out
/// the `large` pass.
const SMALL_PASSES_PER_ROUND: usize = 20;

/// `small` passes the untraced run makes after each `large` design, so
/// that a round still holds [`SMALL_PASSES_PER_ROUND`] of them.
const SMALL_PASSES_PER_LARGE: usize = SMALL_PASSES_PER_ROUND / crate::metrics::LARGE_DESIGNS.len();

/// Set-up repetitions whose fastest is `setup_s`: enough to span a few
/// seconds, so one short slow spell of the machine cannot set it.
const SETUP_REPS: usize = 25;

/// The span around one traced design flow.
const ROOT: &str = "fpga.pipeline.cold";

/// The two design sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Set {
    Large,
    Small,
}

impl Set {
    fn tag(self) -> &'static str {
        match self {
            Set::Large => "large",
            Set::Small => "small",
        }
    }
}

/// One design: a netlist on a target, with the Table V claims its
/// report must meet.
struct Design {
    set: Set,
    method: Method,
    target: Target,
    net: usize,
    spec: usize,
    ands: usize,
    xors: usize,
    depth: Depth,
}

impl Design {
    fn label(&self) -> String {
        format!("{}_{}", self.method.name(), self.target.name())
    }
}

/// Everything set-up builds.
struct Inputs {
    nets: Vec<Netlist>,
    specs: Vec<MulSpec>,
    designs: Vec<Design>,
}

/// The `large` netlists at (163, 68) and the fabrics each runs on. The
/// `small` set is every method on every fabric at (8, 2).
const LARGE: [(Method, &[Target]); 2] = [
    (Method::ProposedFlat, &Target::ALL),
    (Method::Rashidi, &[Target::Artix7]),
];

/// Generates every netlist once and derives its specs.
fn setup(mut tracer: Option<&mut Tracer>) -> Inputs {
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
        Some(t) => t.time(name, f),
        None => f(),
    };
    let mut fields: Vec<((usize, usize), Field)> = Vec::new();
    let mut specs = Vec::new();
    let mut nets = Vec::new();
    let mut designs = Vec::new();
    let plan = LARGE
        .into_iter()
        .map(|(method, targets)| (Set::Large, (163, 68), method, targets))
        .chain(
            Method::ALL
                .into_iter()
                .map(|method| (Set::Small, (8, 2), method, &Target::ALL[..])),
        );
    for (set, (m, n), method, targets) in plan {
        let spec = match fields.iter().position(|(pair, _)| *pair == (m, n)) {
            Some(i) => i,
            None => {
                let field = field_for(m, n);
                span("core.spec", &mut || specs.push(multiplier_spec(&field)));
                fields.push(((m, n), field));
                fields.len() - 1
            }
        };
        let field = &fields[spec].1;
        span("core.gen", &mut || nets.push(generate(field, method)));
        let (mut area, mut depth) = (None, None);
        span("core.spec", &mut || {
            area = Some(area_spec(field, method));
            depth = Some(delay_spec(field, method).worst());
        });
        let (area, depth) = (area.expect("spec ran"), depth.expect("spec ran"));
        for &target in targets {
            designs.push(Design {
                set,
                method,
                target,
                net: nets.len() - 1,
                spec,
                ands: area.ands(),
                xors: area.xors(),
                depth,
            });
        }
    }
    Inputs {
        nets,
        specs,
        designs,
    }
}

/// Checks a report against the design's Table V area and delay claims.
fn check(d: &Design, r: &ImplReport) -> Result<(), String> {
    if (r.and_gates, r.xor_gates) != (d.ands, d.xors) {
        return Err(format!(
            "{}: {} AND / {} XOR gates, area_spec says {} / {}",
            d.label(),
            r.and_gates,
            r.xor_gates,
            d.ands,
            d.xors
        ));
    }
    if r.and_depth > d.depth.ands || r.xor_depth > d.depth.xors {
        return Err(format!(
            "{}: depth ({}, {}) exceeds delay_spec ({}, {})",
            d.label(),
            r.and_depth,
            r.xor_depth,
            d.depth.ands,
            d.depth.xors
        ));
    }
    if r.luts == 0 || r.time_ns.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("{}: empty report {r:?}", d.label()));
    }
    Ok(())
}

/// One cold flow, timed from pipeline construction to the report. The
/// pipeline is returned so the caller can time a warm hit on it and
/// drop it outside the timed section.
fn cold(d: &Design, net: &Netlist) -> (Pipeline, Result<ImplReport, String>, Duration) {
    let t = Instant::now();
    let p = harness_pipeline().with_target(d.target);
    let r = p.run_report(net).map_err(|e| format!("{}: {e}", d.label()));
    let dt = t.elapsed();
    (p, r, dt)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    warm_up(WARM_UP_S, || drop(setup(None)));
    let (inputs, setup_times) = timed_setup(SETUP_REPS, || Ok(setup(None)))?;
    if cfg.trace {
        traced(cfg, inputs)
    } else {
        untraced(cfg, &inputs, setup_times)
    }
}

fn indices(inputs: &Inputs, set: Set) -> Vec<usize> {
    (0..inputs.designs.len())
        .filter(|&i| inputs.designs[i].set == set)
        .collect()
}

/// The untraced run's order: each `large` design, in a seeded order
/// that is drawn again once all have run, followed by
/// [`SMALL_PASSES_PER_LARGE`] `small` passes, each in a seeded order.
/// So every design repeats across the whole run, and the `small`
/// samples do not bunch into a few seconds between two long `large`
/// passes, where one slow spell of the machine would set them all.
/// Each unit (a `large` design and its `small` passes) also times the
/// set-up once more, so `setup_s`, the fastest set-up, spreads over
/// the run too.
fn untraced(cfg: &Config, inputs: &Inputs, mut setup_times: Vec<f64>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed, 1);
    let mut small_pass_ms = Vec::new();
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); inputs.designs.len()];
    let mut luts: Vec<Option<usize>> = vec![None; inputs.designs.len()];
    let mut large: Vec<usize> = Vec::new();
    let mut units = 0;
    let mut slowest_unit = 0.0f64;
    let window = Window::open(cfg.seconds);
    while units == 0 || window.fits(slowest_unit) {
        let unit = Instant::now();
        if large.is_empty() {
            large = indices(inputs, Set::Large);
            rng.shuffle(&mut large);
        }
        let first = large.pop().expect("the large set is not empty");
        let mut passes = vec![vec![first]];
        for _ in 0..SMALL_PASSES_PER_LARGE {
            let mut order = indices(inputs, Set::Small);
            rng.shuffle(&mut order);
            passes.push(order);
        }
        for (k, order) in passes.into_iter().enumerate() {
            let pass = Instant::now();
            for i in order {
                let d = &inputs.designs[i];
                let (p, r, dt) = cold(d, &inputs.nets[d.net]);
                drop(p);
                per_design[i].push(ms(dt));
                out.attempted += 1;
                match r.and_then(|r| check(d, &r).map(|()| r)) {
                    Ok(r) => luts[i] = Some(r.luts),
                    Err(e) => out.fail(e),
                }
            }
            if k > 0 {
                small_pass_ms.push(ms(pass.elapsed()));
            }
        }
        let t = Instant::now();
        drop(setup(None));
        setup_times.push(t.elapsed().as_secs_f64());
        units += 1;
        slowest_unit = slowest_unit.max(unit.elapsed().as_secs_f64());
    }
    let st = job_stats(&per_design);
    let luts: Vec<f64> = luts.iter().flatten().map(|&l| l as f64).collect();
    let large_runs: Vec<usize> = indices(inputs, Set::Large)
        .into_iter()
        .map(|i| per_design[i].len())
        .collect();
    out.notes.push(format!(
        "flow-cold: {} jobs; each large design ran {:?} times; {} small passes, {}; job latency over {} designs, tail is p{}",
        out.attempted,
        large_runs,
        small_pass_ms.len(),
        spread_ms(&small_pass_ms),
        st.jobs,
        st.tail_p,
    ));
    out.set("setup_s", fastest(&setup_times).expect("set-up ran"));
    out.set("pass_s", st.pass / 1e3);
    out.set("job_p50_ms", st.p50);
    out.set("job_tail_ms", st.tail);
    // A whole round at each design's typical time: where a run stops
    // inside a round depends on the seed's order, so the run's own
    // jobs per wall second would too.
    let (mut round_jobs, mut round_ms) = (0.0, 0.0);
    for (d, times) in inputs.designs.iter().zip(&per_design) {
        let reps = match d.set {
            Set::Large => 1.0,
            Set::Small => SMALL_PASSES_PER_ROUND as f64,
        };
        round_jobs += reps;
        round_ms += reps * fastest(times).unwrap_or(0.0);
    }
    out.set("jobs_per_s", round_jobs / (round_ms / 1e3));
    out.set("luts_geomean", geomean(&luts).unwrap_or(0.0));
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    Ok(out)
}

/// What the staged replica of one design's flow produced.
struct Staged {
    report: ImplReport,
    gates_out: usize,
    place: PlaceStats,
}

/// Runs one design stage by stage, one span per layer call, the way
/// `Pipeline::run_report` composes them on a cold miss.
fn staged(
    t: &mut Tracer,
    d: &Design,
    net: &Netlist,
) -> Result<(Staged, rgf2m_fpga::LutNetlist, Pipeline), String> {
    let err = |e: rgf2m_fpga::FlowError| format!("{}: {e}", d.label());
    let root = t.enter(ROOT);
    let p = harness_pipeline().with_target(d.target);
    let synth = t.time("fpga.resynth", || p.resynth(net)).map_err(err)?;
    let mapped = t.time("fpga.map", || p.map(&synth)).map_err(err)?;
    let lint = t.time("fpga.lint", || lint_mapped(&mapped));
    if let Some(first) = lint.first_error() {
        return Err(format!("{}: mapped lint error {first}", d.label()));
    }
    t.time("fpga.verify", || p.verify(net, &mapped))
        .map_err(err)?;
    let packing = t.time("fpga.pack", || p.pack(&mapped)).map_err(err)?;
    let (placement, place) = t.time("fpga.place", || {
        place_with_stats(&mapped, &packing, p.place_options())
    });
    let timing = t.time("fpga.timing", || {
        analyze(&mapped, &packing, &placement, p.device())
    });
    let depth = t.time("netlist.depth", || {
        netlist::output_depths(net)
            .into_iter()
            .fold(Depth::default(), |w, d| Depth {
                ands: w.ands.max(d.ands),
                xors: w.xors.max(d.xors),
            })
    });
    let (gates, (_, dedup_saved)) = t.time("netlist.census.strash", || {
        (net.stats(), netlist::strash_dedup(net))
    });
    t.exit(root);
    let synth_stats = synth.stats();
    let report = ImplReport {
        name: net.name().to_string(),
        luts: mapped.num_luts(),
        slices: packing.num_slices(),
        depth: mapped.depth(),
        time_ns: timing.critical_ns,
        dup_gates: lint.duplicate_gates(),
        dead_nodes: lint.dead_nodes(),
        worst_slack_ns: timing.worst_slack_ns,
        and_depth: depth.ands,
        xor_depth: depth.xors,
        and_gates: gates.ands,
        xor_gates: gates.xors,
        dedup_saved,
    };
    Ok((
        Staged {
            report,
            gates_out: synth_stats.ands + synth_stats.xors,
            place,
        },
        mapped,
        p,
    ))
}

/// The per-design facts a traced pass aggregates.
struct Record {
    design: usize,
    staged: Staged,
    cold_ns: u64,
}

fn traced(cfg: &Config, inputs: Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    // One traced set-up for the core.* layers (setup_s comes from the
    // untraced run).
    t.set_request(u64::MAX);
    let _ = setup(Some(&mut t));
    let mut rng = Rng::new(cfg.seed, 1);
    let mut records: Vec<Record> = Vec::new();
    let mut passes: Vec<Set> = Vec::new();
    let mut warm_us = Vec::new();
    let mut request_pass = Vec::new();
    let mut request = 0u64;
    let window = Window::open(cfg.seconds);
    let mut last_round = 0.0;
    while passes.is_empty() || window.fits(last_round) {
        let round = Instant::now();
        for set in std::iter::once(Set::Large)
            .chain(std::iter::repeat_n(Set::Small, SMALL_PASSES_PER_ROUND))
        {
            let pass = passes.len();
            passes.push(set);
            let mut order = indices(&inputs, set);
            rng.shuffle(&mut order);
            for i in order {
                let d = &inputs.designs[i];
                let net = &inputs.nets[d.net];
                request += 1;
                request_pass.push(pass);
                t.set_request(request);
                out.attempted += 1;
                // Alternate which side runs first so neither always
                // meets warm caches.
                let (c, s) = if request.is_multiple_of(2) {
                    let c = cold(d, net);
                    (c, staged(&mut t, d, net))
                } else {
                    let s = staged(&mut t, d, net);
                    (cold(d, net), s)
                };
                let (p, cold_report, cold_dt) = c;
                let w = Instant::now();
                let warm = p.run_report(net);
                warm_us.push(w.elapsed().as_secs_f64() * 1e6);
                let (s, mapped, sp) = match s {
                    Ok(s) => s,
                    Err(e) => {
                        out.fail(e);
                        continue;
                    }
                };
                let proof = t.time("fpga.formal.mapped", || {
                    sp.verify_formal_mapped(&inputs.specs[d.spec], &mapped)
                });
                let verdict = cold_report
                    .and_then(|r| check(d, &r).map(|()| r))
                    .and_then(|r| {
                        if r != s.report {
                            Err(format!(
                                "{}: staged report differs from run_report",
                                d.label()
                            ))
                        } else if warm.as_ref() != Ok(&r) {
                            Err(format!(
                                "{}: warm hit differs from the cold report",
                                d.label()
                            ))
                        } else {
                            proof.map_err(|e| format!("{}: {e}", d.label()))
                        }
                    });
                if let Err(e) = verdict {
                    out.fail(e);
                }
                records.push(Record {
                    design: i,
                    staged: s,
                    cold_ns: cold_dt.as_nanos() as u64,
                });
            }
        }
        last_round = round.elapsed().as_secs_f64();
    }
    aggregate(
        &mut out,
        &inputs,
        &t,
        &records,
        &passes,
        &request_pass,
        &warm_us,
    );
    out.spans = t.spans().to_vec();
    Ok(out)
}

/// Folds the traced records and spans into the per-layer metrics.
fn aggregate(
    out: &mut Outcome,
    inputs: &Inputs,
    t: &Tracer,
    records: &[Record],
    passes: &[Set],
    request_pass: &[usize],
    warm_us: &[f64],
) {
    let spans = t.spans();
    let selfs = trace::self_times(spans);
    let by_pass = trace::self_by_pass(spans, &selfs, request_pass, passes.len());
    let setup_self = trace::self_by_name(spans, &selfs, |s| s.request == u64::MAX);
    out.set(
        "core.gen.self_ms",
        setup_self.get("core.gen").copied().unwrap_or(0) as f64 / 1e6,
    );
    out.set(
        "core.spec.self_ms",
        setup_self.get("core.spec").copied().unwrap_or(0) as f64 / 1e6,
    );

    let span_metric = [
        ("fpga.resynth", "fpga.resynth.self_ms"),
        ("fpga.map", "fpga.map.self_ms"),
        ("fpga.lint", "fpga.lint.self_ms"),
        ("fpga.verify", "fpga.verify.self_ms"),
        ("fpga.pack", "fpga.pack.self_ms"),
        ("fpga.place", "fpga.place.self_ms"),
        ("fpga.timing", "fpga.timing.self_ms"),
        ("netlist.depth", "netlist.depth.self_ms"),
        ("netlist.census.strash", "netlist.census.strash_ms"),
        ("fpga.formal.mapped", "fpga.formal.mapped_ms"),
    ];
    let set_median = |set: Set, span: &str| {
        let per_pass: Vec<f64> = passes
            .iter()
            .zip(&by_pass)
            .filter(|(s, _)| **s == set)
            .map(|(_, m)| m.get(span).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        median(&per_pass).unwrap_or(0.0)
    };
    for (span, metric) in span_metric {
        let (l, s) = (set_median(Set::Large, span), set_median(Set::Small, span));
        if span != "fpga.formal.mapped" && span != "netlist.census.strash" {
            out.set(format!("{metric}.large"), l);
            out.set(format!("{metric}.small"), s);
        }
        out.set(metric, l + s);
    }

    // Work counters: deterministic per design, so one record each.
    let mut first: Vec<Option<&Record>> = vec![None; inputs.designs.len()];
    for r in records {
        first[r.design].get_or_insert(r);
    }
    let place_ms = |set: Option<Set>| match set {
        Some(s) => set_median(s, "fpga.place"),
        None => set_median(Set::Large, "fpga.place") + set_median(Set::Small, "fpga.place"),
    };
    for set in [Some(Set::Large), Some(Set::Small), None] {
        let rs: Vec<&Record> = first
            .iter()
            .flatten()
            .copied()
            .filter(|r| set.is_none_or(|s| inputs.designs[r.design].set == s))
            .collect();
        let suffix = set.map_or(String::new(), |s| format!(".{}", s.tag()));
        let sum = |f: &dyn Fn(&Record) -> f64| rs.iter().map(|r| f(r)).sum::<f64>();
        let geo = |f: &dyn Fn(&Record) -> f64| {
            geomean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let proposals = sum(&|r| r.staged.place.proposals as f64);
        out.set(
            format!("fpga.resynth.gates_out{suffix}"),
            sum(&|r| r.staged.gates_out as f64),
        );
        out.set(
            format!("fpga.map.luts{suffix}"),
            sum(&|r| r.staged.report.luts as f64),
        );
        out.set(
            format!("fpga.map.depth{suffix}"),
            geo(&|r| r.staged.report.depth as f64),
        );
        out.set(
            format!("fpga.pack.slices{suffix}"),
            sum(&|r| r.staged.report.slices as f64),
        );
        out.set(format!("fpga.place.proposals{suffix}"), proposals);
        out.set(
            format!("fpga.place.accept_ratio{suffix}"),
            sum(&|r| r.staged.place.accepted as f64) / proposals,
        );
        out.set(
            format!("fpga.place.ns_per_proposal{suffix}"),
            place_ms(set) * 1e6 / proposals,
        );
        out.set(
            format!("fpga.place.hpwl_ratio{suffix}"),
            geo(&|r| r.staged.place.final_hpwl / r.staged.place.initial_hpwl),
        );
        out.set(
            format!("fpga.place.melted{suffix}"),
            sum(&|r| {
                f64::from(u8::from(
                    r.staged.place.final_hpwl > r.staged.place.initial_hpwl,
                ))
            }),
        );
        out.set(
            format!("fpga.timing.critical_ns{suffix}"),
            geo(&|r| r.staged.report.time_ns),
        );
        out.set(
            format!("fpga.timing.axt_geomean{suffix}"),
            geo(&|r| r.staged.report.area_time()),
        );
    }
    for r in first.iter().flatten() {
        let d = &inputs.designs[r.design];
        let ratio = r.staged.place.final_hpwl / r.staged.place.initial_hpwl;
        if d.set == Set::Large {
            out.set(format!("fpga.place.hpwl_ratio.large.{}", d.label()), ratio);
        }
        if ratio > 1.0 {
            out.notes.push(format!(
                "placement melt ({} set): {} HPWL {:.0} -> {:.0} ({:.3}x)",
                d.set.tag(),
                d.label(),
                r.staged.place.initial_hpwl,
                r.staged.place.final_hpwl,
                ratio
            ));
        }
    }

    out.set("fpga.pipeline.warm_us", median(warm_us).unwrap_or(0.0));
    let cold_ns: u64 = records.iter().map(|r| r.cold_ns).sum();
    out.set(
        "bench.trace.coverage",
        trace::coverage(spans, &selfs, ROOT, cold_ns),
    );
    out.set(
        "bench.trace.overhead_pct",
        trace::overhead_pct(spans, ROOT, cold_ns),
    );
    out.notes.push(format!(
        "flow-cold traced: {} designs over {} passes; stage self times cover {:.3} of the untraced cold time",
        records.len(),
        passes.len(),
        trace::coverage(spans, &selfs, ROOT, cold_ns)
    ));
}
