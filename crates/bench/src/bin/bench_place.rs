//! Measures placement wall-time and emits the `BENCH_place.json`
//! trajectory artifact, so placement performance is comparable
//! run-over-run and machine-to-machine — per target fabric, so
//! target-specific placement drift (different slice counts per k and
//! slice capacity) is tracked separately.
//!
//! Usage:
//!   bench_place                   # m = 163 (largest bundled Table V field)
//!   bench_place --quick           # m = 64, reduced budget (~seconds)
//!   bench_place --out PATH        # artifact path (default BENCH_place.json)
//!   bench_place --threads 1,2,4   # thread counts to sweep
//!   bench_place --reps N          # timed repetitions per configuration
//!   bench_place --targets a,b     # fabrics to sweep (default: all; --quick: artix7)
//!
//! The artifact records, per target and thread count: the mapped/packed
//! design shape on that fabric, best/mean wall-time, the
//! proposal/acceptance counters and the per-temperature-step HPWL
//! trajectory of the best run. Wall-clock numbers are only comparable on
//! the same machine; the file embeds the measured parallelism available.

use std::fmt::Write as _;
use std::time::Instant;

use netlist::Netlist;
use rgf2m_bench::{arg_value, field_for, harness_pipeline};
use rgf2m_core::{generate, Method};
use rgf2m_fpga::pack::Packing;
use rgf2m_fpga::place::{place_with_stats, PlaceOptions, PlaceStats};
use rgf2m_fpga::{LutNetlist, Target};

struct RunResult {
    threads: usize,
    best_ms: f64,
    mean_ms: f64,
    stats: PlaceStats,
}

/// Per-proposal cost probe on a deliberately tiny design (GF(2^8) on
/// artix7, a 4×3 grid), where fixed per-proposal overhead dominates and
/// any fattening of the annealer inner loop shows up immediately.
struct SmallGridResult {
    luts: usize,
    slices: usize,
    reps: usize,
    proposals: usize,
    best_us: f64,
    mean_us: f64,
}

/// Timed repetitions of the small-grid probe (milliseconds each).
const SMALL_GRID_REPS: usize = 25;

/// Best-of-30 wall time (µs) and proposal count of the pre-PR-2 annealer
/// (commit 9ebd585) on the same GF(2^8)/artix7 design: the reference the
/// per-proposal regression is measured against. Same caveat as
/// `seed_baseline`: only comparable on the machine that produced the
/// committed artifact.
const PRE_PR2_SMALL_GRID_US_PROPOSALS: (f64, usize) = (3326.5, 3784);

/// Builds `net` for `target` through the production flow stages
/// (`resynth`, `map`, `pack` of the harness pipeline), so the placer
/// sees exactly the design `Pipeline::run_report` would place.
fn build_design(net: &Netlist, target: Target) -> (LutNetlist, Packing) {
    let pipeline = harness_pipeline().with_target(target);
    let synth = pipeline
        .resynth(net)
        .expect("harness pipeline resynthesizes");
    let mapped = pipeline.map(&synth).expect("harness pipeline maps");
    let packing = pipeline.pack(&mapped).expect("harness pipeline packs");
    (mapped, packing)
}

fn measure_small_grid() -> SmallGridResult {
    let field = field_for(8, 2);
    let net = generate(&field, Method::ProposedFlat);
    let (mapped, packing) = build_design(&net, Target::Artix7);
    let opts = PlaceOptions {
        threads: 1,
        ..PlaceOptions::default()
    };
    let mut best_us = f64::INFINITY;
    let mut sum_us = 0.0;
    let mut proposals = 0;
    for _ in 0..SMALL_GRID_REPS {
        let start = Instant::now();
        let (_, stats) = place_with_stats(&mapped, &packing, &opts);
        let us = start.elapsed().as_secs_f64() * 1e6;
        sum_us += us;
        if us < best_us {
            best_us = us;
        }
        proposals = stats.proposals;
    }
    SmallGridResult {
        luts: mapped.num_luts(),
        slices: packing.num_slices(),
        reps: SMALL_GRID_REPS,
        proposals,
        best_us,
        mean_us: sum_us / SMALL_GRID_REPS as f64,
    }
}

struct TargetResult {
    target: Target,
    mapped: LutNetlist,
    packing: Packing,
    runs: Vec<RunResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_place.json".to_string());
    let threads: Vec<usize> = arg_value(&args, "--threads")
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().expect("--threads wants integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    let reps: usize = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps wants an integer"))
        .unwrap_or(if quick { 1 } else { 2 });
    let targets: Vec<Target> = arg_value(&args, "--targets")
        .map(|v| {
            v.split(',')
                .map(|t| {
                    Target::from_name(t.trim())
                        .unwrap_or_else(|| panic!("unknown target {t:?} in --targets"))
                })
                .collect()
        })
        .unwrap_or_else(|| {
            if quick {
                vec![Target::Artix7]
            } else {
                Target::ALL.to_vec()
            }
        });

    let (m, n) = if quick { (64, 23) } else { (163, 68) };
    let opts_base = PlaceOptions {
        max_total_moves: if quick { 100_000 } else { 1_200_000 },
        ..PlaceOptions::default()
    };

    eprintln!("building GF(2^{m}) proposed multiplier ...");
    let field = field_for(m, n);
    let net = generate(&field, Method::ProposedFlat);

    let mut results: Vec<TargetResult> = Vec::new();
    for &target in &targets {
        let k = target.lut_inputs();
        eprintln!(
            "[{}] resynthesizing and mapping (k = {k}) ...",
            target.name()
        );
        let (mapped, packing) = build_design(&net, target);
        eprintln!(
            "[{}] design: {} LUTs, {} slices",
            target.name(),
            mapped.num_luts(),
            packing.num_slices()
        );

        let mut runs: Vec<RunResult> = Vec::new();
        for &t in &threads {
            let opts = PlaceOptions {
                threads: t,
                ..opts_base.clone()
            };
            let mut best_ms = f64::INFINITY;
            let mut sum_ms = 0.0;
            let mut best_stats = None;
            for rep in 0..reps.max(1) {
                let start = Instant::now();
                let (_, stats) = place_with_stats(&mapped, &packing, &opts);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                eprintln!(
                    "[{}] threads={t} rep={rep}: {ms:.1} ms, {} proposals, {} accepted, final HPWL {:.1}",
                    target.name(),
                    stats.proposals,
                    stats.accepted,
                    stats.final_hpwl
                );
                sum_ms += ms;
                if ms < best_ms {
                    best_ms = ms;
                    best_stats = Some(stats);
                }
            }
            runs.push(RunResult {
                threads: t,
                best_ms,
                mean_ms: sum_ms / reps.max(1) as f64,
                stats: best_stats.expect("at least one rep ran"),
            });
        }
        results.push(TargetResult {
            target,
            mapped,
            packing,
            runs,
        });
    }

    eprintln!("probing small-grid per-proposal cost (GF(2^8) on artix7) ...");
    let small = measure_small_grid();
    let ns_per_proposal = small.best_us * 1e3 / small.proposals as f64;
    let (pre_us, pre_proposals) = PRE_PR2_SMALL_GRID_US_PROPOSALS;
    let pre_ns = pre_us * 1e3 / pre_proposals as f64;
    eprintln!(
        "small grid: {} LUTs, {} slices; best-of-{}: {:.1} us / {} proposals = {:.1} ns/proposal ({:+.1}% vs pre-PR-2 {:.1})",
        small.luts,
        small.slices,
        small.reps,
        small.best_us,
        small.proposals,
        ns_per_proposal,
        (ns_per_proposal / pre_ns - 1.0) * 100.0,
        pre_ns
    );

    let json = render_json(m, n, &opts_base, &results, &small);
    std::fs::write(&out_path, json).expect("writing the artifact");
    eprintln!("wrote {out_path}");
    for tr in &results {
        if let Some(base) = tr.runs.iter().find(|r| r.threads == 1) {
            for r in tr.runs.iter().filter(|r| r.threads != 1) {
                eprintln!(
                    "[{}] speedup vs threads=1: threads={} -> {:.2}x (best-of-{reps})",
                    tr.target.name(),
                    r.threads,
                    base.best_ms / r.best_ms
                );
            }
        }
    }
}

fn render_json(
    m: usize,
    n: usize,
    opts: &PlaceOptions,
    results: &[TargetResult],
    small: &SmallGridResult,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"rgf2m-bench-place/3\",");
    let _ = writeln!(
        s,
        "  \"note\": \"wall-clock ms; comparable only within one machine/run\","
    );
    let _ = writeln!(
        s,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let _ = writeln!(s, "  \"field\": {{\"m\": {m}, \"n\": {n}}},");
    let _ = writeln!(
        s,
        "  \"place_options\": {{\"seed\": {}, \"moves_factor\": {}, \"max_total_moves\": {}}},",
        opts.seed, opts.moves_factor, opts.max_total_moves
    );
    let (pre_us, pre_proposals) = PRE_PR2_SMALL_GRID_US_PROPOSALS;
    let _ = writeln!(s, "  \"small_grid\": {{");
    let _ = writeln!(
        s,
        "    \"description\": \"per-proposal annealer cost on a tiny grid: GF(2^8) ProposedFlat on artix7, threads = 1, default options; fixed per-proposal overhead dominates here\","
    );
    let _ = writeln!(s, "    \"field\": {{\"m\": 8, \"n\": 2}},");
    let _ = writeln!(s, "    \"target\": \"artix7\",");
    let _ = writeln!(
        s,
        "    \"design\": {{\"luts\": {}, \"slices\": {}}},",
        small.luts, small.slices
    );
    let _ = writeln!(s, "    \"reps\": {},", small.reps);
    let _ = writeln!(s, "    \"proposals\": {},", small.proposals);
    let _ = writeln!(s, "    \"best_wall_us\": {:.1},", small.best_us);
    let _ = writeln!(s, "    \"mean_wall_us\": {:.1},", small.mean_us);
    let _ = writeln!(
        s,
        "    \"ns_per_proposal\": {:.1},",
        small.best_us * 1e3 / small.proposals as f64
    );
    let _ = writeln!(
        s,
        "    \"pre_pr2_baseline\": {{\"description\": \"pre-PR-2 annealer (commit 9ebd585) on the same design; only comparable on the machine that produced the committed artifact\", \"best_wall_us\": {:.1}, \"proposals\": {}, \"ns_per_proposal\": {:.1}}}",
        pre_us,
        pre_proposals,
        pre_us * 1e3 / pre_proposals as f64
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"targets\": [");
    for (ti, tr) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"target\": \"{}\",", tr.target.name());
        let _ = writeln!(
            s,
            "      \"design\": {{\"method\": \"ProposedFlat\", \"k\": {}, \"luts_per_slice\": {}, \"luts\": {}, \"slices\": {}}},",
            tr.target.lut_inputs(),
            tr.target.luts_per_slice(),
            tr.mapped.num_luts(),
            tr.packing.num_slices()
        );
        let _ = writeln!(s, "      \"runs\": [");
        for (i, r) in tr.runs.iter().enumerate() {
            let st = &r.stats;
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"threads\": {},", r.threads);
            let _ = writeln!(s, "          \"best_wall_ms\": {:.1},", r.best_ms);
            let _ = writeln!(s, "          \"mean_wall_ms\": {:.1},", r.mean_ms);
            let _ = writeln!(s, "          \"proposals\": {},", st.proposals);
            let _ = writeln!(s, "          \"accepted\": {},", st.accepted);
            let _ = writeln!(s, "          \"initial_hpwl\": {:.2},", st.initial_hpwl);
            let _ = writeln!(s, "          \"final_hpwl\": {:.2},", st.final_hpwl);
            let _ = write!(s, "          \"trajectory\": [");
            for (j, step) in st.trajectory.iter().enumerate() {
                if j > 0 {
                    let _ = write!(s, ", ");
                }
                let _ = write!(
                    s,
                    "{{\"t\": {:.4}, \"hpwl\": {:.2}, \"proposed\": {}, \"accepted\": {}}}",
                    step.temperature, step.hpwl, step.proposed, step.accepted
                );
            }
            let _ = writeln!(s, "]");
            let _ = writeln!(
                s,
                "        }}{}",
                if i + 1 < tr.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      ],");
        let speedups: Vec<String> = tr
            .runs
            .iter()
            .filter(|r| r.threads != 1)
            .filter_map(|r| {
                tr.runs
                    .iter()
                    .find(|b| b.threads == 1)
                    .map(|b| format!("        \"{}\": {:.2}", r.threads, b.best_ms / r.best_ms))
            })
            .collect();
        let _ = writeln!(s, "      \"speedup_vs_threads1\": {{");
        let _ = writeln!(s, "{}", speedups.join(",\n"));
        // The seed-commit reference point is only meaningful for the
        // exact configuration it was measured under (full m = 163 run
        // on artix7, the machine/session that produced the committed
        // artifact) — never attach it to --quick runs, other fields or
        // other fabrics.
        if m == 163 && opts.max_total_moves == 1_200_000 && tr.target == Target::Artix7 {
            let _ = writeln!(s, "      }},");
            let _ = writeln!(
                s,
                "      \"seed_baseline\": {{\"description\": \"place() wall-time at the seed commit (PR 1 annealer); only comparable on the machine that produced the committed artifact\", \"best_wall_ms\": 31226.8, \"mean_wall_ms\": 33041.0}}"
            );
        } else {
            let _ = writeln!(s, "      }}");
        }
        let _ = writeln!(s, "    }}{}", if ti + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
