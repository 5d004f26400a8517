//! `audit`: the static certificate gate over six methods × four targets
//! at (163, 68). No placement runs; formal verification, the netlist
//! certificates and the Table V specs do most of the work.
//!
//! A job is one grid cell: `run_audit` with one method and one target,
//! so each cell is timed on its own. A pass is the whole grid in a
//! seeded order. The traced run repeats each cell call by call, the way
//! `run_audit` composes them, with a span around each layer call.

use std::time::Instant;

use rgf2m_bench::{field_for, harness_pipeline, run_audit, AuditCell, AuditOptions};
use rgf2m_core::{area_spec, delay_spec, generate, multiplier_spec, Method};
use rgf2m_fpga::Target;

use crate::common::{
    job_stats, ms, spread_ms, timed_setup, warm_up, Config, Outcome, Rng, Window, WARM_UP_S,
};
use crate::stats::{fastest, geomean, median};
use crate::trace::{self, Tracer};

/// The audited field.
const FIELD: (usize, usize) = (163, 68);

/// Set-up repetitions whose fastest is `setup_s`: enough to span about
/// a second, so one short slow spell of the machine cannot set it.
const SETUP_REPS: usize = 25;

/// The span around one traced cell.
const ROOT: &str = "bench.audit.cell";

/// The certificates every cell carries, in `run_audit`'s order.
const CHECKS: [&str; 6] = ["lint", "formal", "depth", "area", "strash", "mapped"];

fn cells() -> Vec<(Method, Target)> {
    Method::ALL
        .into_iter()
        .flat_map(|m| Target::ALL.into_iter().map(move |t| (m, t)))
        .collect()
}

fn options(method: Method, target: Target) -> AuditOptions {
    AuditOptions {
        m: FIELD.0,
        n: FIELD.1,
        methods: vec![method],
        targets: vec![target],
        fault: None,
    }
}

/// Set-up: one full audit of the GF(2^8) grid, so lazy state and code
/// paths are warm before the timed cells. Its verdict must be clean.
fn setup() -> Result<(), String> {
    let warm = run_audit(&AuditOptions {
        targets: Target::ALL.to_vec(),
        ..AuditOptions::default()
    });
    if warm.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "GF(2^8) warm-up audit has {} violation(s)",
            warm.violations()
        ))
    }
}

/// Checks one cell's verdict; returns its mapped LUT count.
fn check(method: Method, target: Target, cells: &[AuditCell]) -> Result<usize, String> {
    let label = format!("{}_{}", method.name(), target.name());
    let [cell] = cells else {
        return Err(format!("{label}: {} cells, expected 1", cells.len()));
    };
    let names: Vec<&str> = cell.checks.iter().map(|c| c.check).collect();
    if names != CHECKS {
        return Err(format!("{label}: checks {names:?}"));
    }
    if let Some(bad) = cell.checks.iter().find(|c| !c.ok) {
        return Err(format!("{label}: {} violated: {}", bad.check, bad.detail));
    }
    // The mapped certificate reads "<n> LUTs match the spec on <target>".
    cell.checks[5]
        .detail
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            format!(
                "{label}: unreadable mapped detail {:?}",
                cell.checks[5].detail
            )
        })
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    warm_up(WARM_UP_S, || drop(setup()));
    let ((), setup_times) = timed_setup(SETUP_REPS, setup)?;
    if cfg.trace {
        Ok(traced(cfg))
    } else {
        Ok(untraced(cfg, setup_times))
    }
}

/// Cells between two more timings of the set-up, so `setup_s`, the
/// fastest set-up, spreads over the run like the cells.
const CELLS_PER_SETUP: usize = 4;

fn untraced(cfg: &Config, mut setup_times: Vec<f64>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed, 2);
    let grid = cells();
    let mut luts: Vec<Option<usize>> = vec![None; grid.len()];
    let mut pass_ms = Vec::new();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); grid.len()];
    let mut slowest_cell = 0.0f64;
    let window = Window::open(cfg.seconds);
    // The run stops cell by cell rather than pass by pass, so it
    // measures for the whole window; a cut pass still samples every
    // cell it reached.
    'run: loop {
        let mut order: Vec<usize> = (0..grid.len()).collect();
        rng.shuffle(&mut order);
        let pass = Instant::now();
        for i in order {
            if out.attempted > 0 && !window.fits(slowest_cell) {
                break 'run;
            }
            let (method, target) = grid[i];
            let t = Instant::now();
            let report = run_audit(&options(method, target));
            let dt = t.elapsed();
            slowest_cell = slowest_cell.max(dt.as_secs_f64());
            per_cell[i].push(ms(dt));
            out.attempted += 1;
            match check(method, target, &report.cells) {
                Ok(n) => luts[i] = Some(n),
                Err(e) => out.fail(e),
            }
            if out.attempted.is_multiple_of(CELLS_PER_SETUP) {
                let t = Instant::now();
                let warm = setup();
                setup_times.push(t.elapsed().as_secs_f64());
                if let Err(e) = warm {
                    out.fail(e);
                }
            }
        }
        pass_ms.push(ms(pass.elapsed()));
    }
    let st = job_stats(&per_cell);
    let luts: Vec<f64> = luts.iter().flatten().map(|&l| l as f64).collect();
    out.notes.push(format!(
        "audit: {} cells, {} whole passes, {} violation(s); pass {}; job latency over {} cells, tail is p{}",
        out.attempted,
        pass_ms.len(),
        out.failed,
        spread_ms(&pass_ms),
        st.jobs,
        st.tail_p,
    ));
    out.set("setup_s", fastest(&setup_times).expect("set-up ran"));
    out.set("pass_s", st.pass / 1e3);
    out.set("job_p50_ms", st.p50);
    out.set("job_tail_ms", st.tail);
    // A whole pass at each cell's typical time, since where the run
    // stops inside a pass depends on the seed's order.
    out.set("jobs_per_s", st.jobs as f64 / (st.pass / 1e3));
    out.set("luts_geomean", geomean(&luts).unwrap_or(0.0));
    out.set("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
    out
}

/// Work counters of one staged cell.
struct Counts {
    luts: usize,
    depth: u32,
    gates_out: usize,
    strash_saved: usize,
}

/// Repeats one `run_audit` cell call by call, one span per layer call,
/// and returns each certificate's verdict in `CHECKS` order.
fn staged(t: &mut Tracer, method: Method, target: Target) -> (Vec<bool>, Option<Counts>) {
    let root = t.enter(ROOT);
    let field = field_for(FIELD.0, FIELD.1);
    let spec = t.time("core.spec", || multiplier_spec(&field));
    let net = t.time("core.gen", || generate(&field, method));
    let (depth_spec, area) = t.time("core.spec", || {
        (delay_spec(&field, method), area_spec(&field, method))
    });
    let pipeline = harness_pipeline().with_target(target);
    let lint = t.time("netlist.lint", || netlist::lint_netlist(&net));
    let formal = t.time("fpga.formal", || pipeline.verify_formal(&spec, &net));
    let depth = t.time("netlist.depth", || pipeline.verify_depth(&depth_spec, &net));
    let area_ok = t.time("netlist.census.area", || pipeline.verify_area(&area, &net));
    let (deduped, saved) = t.time("netlist.census.strash", || netlist::strash_dedup(&net));
    let rewrite = t.time("fpga.formal", || pipeline.verify_formal(&spec, &deduped));
    let mapped = t
        .time("fpga.resynth", || pipeline.resynth(&net))
        .and_then(|synth| {
            let stats = synth.stats();
            t.time("fpga.map", || pipeline.map(&synth))
                .map(|mapped| (mapped, stats.ands + stats.xors))
        });
    let (mapped_ok, counts) = match mapped {
        Ok((mapped, gates_out)) => {
            let ok = t
                .time("fpga.formal.mapped", || {
                    pipeline.verify_formal_mapped(&spec, &mapped)
                })
                .is_ok();
            let counts = Counts {
                luts: mapped.num_luts(),
                depth: mapped.depth(),
                gates_out,
                strash_saved: saved,
            };
            (ok, Some(counts))
        }
        Err(_) => (false, None),
    };
    t.exit(root);
    let verdicts = vec![
        !lint.has_errors(),
        formal.is_ok(),
        depth.is_ok(),
        area_ok.is_ok(),
        saved == 0 && rewrite.is_ok(),
        mapped_ok,
    ];
    (verdicts, counts)
}

fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed, 2);
    let grid = cells();
    let mut t = Tracer::new(Instant::now());
    let mut counts: Vec<Option<Counts>> = (0..grid.len()).map(|_| None).collect();
    let mut request_pass = Vec::new();
    let mut passes = 0;
    let mut cold_ns = 0u64;
    let window = Window::open(cfg.seconds);
    let mut last_pass = 0.0;
    while passes == 0 || window.fits(last_pass) {
        let mut order: Vec<usize> = (0..grid.len()).collect();
        rng.shuffle(&mut order);
        let pass = Instant::now();
        for i in order {
            let (method, target) = grid[i];
            request_pass.push(passes);
            t.set_request(request_pass.len() as u64);
            out.attempted += 1;
            let run_cold = || {
                let c = Instant::now();
                let report = run_audit(&options(method, target));
                (report, c.elapsed().as_nanos() as u64)
            };
            let ((report, dt), (verdicts, c)) = if request_pass.len().is_multiple_of(2) {
                let cold = run_cold();
                (cold, staged(&mut t, method, target))
            } else {
                let s = staged(&mut t, method, target);
                (run_cold(), s)
            };
            cold_ns += dt;
            let untraced: Vec<bool> = report
                .cells
                .iter()
                .flat_map(|c| c.checks.iter().map(|k| k.ok))
                .collect();
            let verdict = check(method, target, &report.cells).and_then(|luts| {
                if untraced != verdicts {
                    Err(format!(
                        "{}_{}: staged verdicts {verdicts:?} differ",
                        method.name(),
                        target.name()
                    ))
                } else if c.as_ref().map(|c| c.luts) != Some(luts) {
                    Err(format!(
                        "{}_{}: staged mapping differs",
                        method.name(),
                        target.name()
                    ))
                } else {
                    Ok(())
                }
            });
            if let Err(e) = verdict {
                out.fail(e);
            }
            if counts[i].is_none() {
                counts[i] = c;
            }
        }
        passes += 1;
        last_pass = pass.elapsed().as_secs_f64();
    }

    let spans = t.spans();
    let selfs = trace::self_times(spans);
    let by_pass = trace::self_by_pass(spans, &selfs, &request_pass, passes);
    for (span, metric) in [
        ("core.gen", "core.gen.self_ms"),
        ("core.spec", "core.spec.self_ms"),
        ("netlist.lint", "netlist.lint.self_ms"),
        ("fpga.formal", "fpga.formal.self_ms"),
        ("netlist.depth", "netlist.depth.self_ms"),
        ("netlist.census.area", "netlist.census.area_ms"),
        ("netlist.census.strash", "netlist.census.strash_ms"),
        ("fpga.resynth", "fpga.resynth.self_ms"),
        ("fpga.map", "fpga.map.self_ms"),
        ("fpga.formal.mapped", "fpga.formal.mapped_ms"),
    ] {
        let per_pass: Vec<f64> = by_pass
            .iter()
            .map(|m| m.get(span).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        out.set(metric, median(&per_pass).unwrap_or(0.0));
    }
    let cs: Vec<&Counts> = counts.iter().flatten().collect();
    out.set("fpga.map.luts", cs.iter().map(|c| c.luts as f64).sum());
    out.set(
        "fpga.map.depth",
        geomean(&cs.iter().map(|c| f64::from(c.depth)).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    out.set(
        "fpga.resynth.gates_out",
        cs.iter().map(|c| c.gates_out as f64).sum(),
    );
    out.set(
        "netlist.census.strash_saved",
        cs.iter().map(|c| c.strash_saved as f64).sum(),
    );
    let coverage = trace::coverage(spans, &selfs, ROOT, cold_ns);
    out.set("bench.trace.coverage", coverage);
    out.set(
        "bench.trace.overhead_pct",
        trace::overhead_pct(spans, ROOT, cold_ns),
    );
    out.notes.push(format!(
        "audit traced: {} cells over {passes} passes; call self times cover {coverage:.3} of the untraced cells",
        out.attempted
    ));
    out.spans = spans.to_vec();
    out
}
