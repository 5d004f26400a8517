//! Criterion benchmark backing Table V: the end-to-end implementation
//! flow per method on representative fields. The printed table itself is
//! produced by the `table5` binary; this bench tracks the cost of
//! regenerating it and guards against flow regressions.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rgf2m_bench::{field_for, table_v_generators};
use rgf2m_fpga::place::PlaceOptions;
use rgf2m_fpga::Pipeline;

/// A pipeline with a light annealing budget, to keep bench wall-time
/// sane; the printed Table V uses the full-budget pipeline (see the
/// `table5` bin). Built fresh per iteration so the artifact cache never
/// turns the bench into a no-op.
fn bench_pipeline() -> Pipeline {
    Pipeline::new().with_place_options(PlaceOptions {
        seed: 2018,
        moves_factor: 2,
        max_total_moves: 40_000,
    })
}

fn bench_table5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5_flow");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let field8 = field_for(8, 2);
    for gen in table_v_generators() {
        let net = gen.generate(&field8);
        group.bench_with_input(BenchmarkId::new("m8", gen.name()), &net, |b, net| {
            b.iter(|| std::hint::black_box(bench_pipeline().run_report(net).unwrap()))
        });
    }
    // One large-field datapoint (the proposed method).
    let field64 = field_for(64, 23);
    let net64 = rgf2m_core::generate(&field64, rgf2m_core::Method::ProposedFlat);
    group.bench_with_input(BenchmarkId::new("m64", "proposed"), &net64, |b, net| {
        b.iter(|| std::hint::black_box(bench_pipeline().run_report(net).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_table5);
criterion_main!(benches);
