//! Criterion benchmarks: the FPGA implementation flow, per stage and end
//! to end, on the GF(2^8) proposed multiplier.

use criterion::{criterion_group, criterion_main, Criterion};
use rgf2m_bench::field_for;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::{map_to_luts, MapOptions};
use rgf2m_fpga::pack::pack_slices;
use rgf2m_fpga::place::{place, PlaceOptions};
use rgf2m_fpga::resynth::rebalance_xors;
use rgf2m_fpga::{Pipeline, Target};

fn bench_flow_stages(c: &mut Criterion) {
    let field = field_for(8, 2);
    let net = generate(&field, Method::ProposedFlat);
    let resynth = rebalance_xors(&net, 6);
    let mapped = map_to_luts(&resynth, &MapOptions::new());
    let packing = pack_slices(&mapped, 4);
    let resynth8 = rebalance_xors(&net, 8);

    let mut group = c.benchmark_group("fpga_flow_gf256");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("resynth", |b| {
        b.iter(|| std::hint::black_box(rebalance_xors(&net, 6)))
    });
    group.bench_function("map", |b| {
        b.iter(|| std::hint::black_box(map_to_luts(&resynth, &MapOptions::new())))
    });
    // The k = 8 mapper (stratix_alm, the widest cut space) is the hot spot;
    // keep it under the same save/compare baseline as the k = 6 one.
    group.bench_function("map_k8", |b| {
        b.iter(|| std::hint::black_box(map_to_luts(&resynth8, &Target::StratixAlm.map_options())))
    });
    group.bench_function("pack", |b| {
        b.iter(|| std::hint::black_box(pack_slices(&mapped, 4)))
    });
    group.bench_function("place", |b| {
        b.iter(|| std::hint::black_box(place(&mapped, &packing, &PlaceOptions::default())))
    });
    group.bench_function("full_flow", |b| {
        b.iter(|| std::hint::black_box(Pipeline::new().run_report(&net).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_flow_stages);
criterion_main!(benches);
