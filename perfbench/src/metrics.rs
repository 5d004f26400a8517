//! The metric registry: every end-to-end and per-layer metric the
//! benchmark prints, with its unit. `BENCHMARK.json` at the repository
//! root and `GLOSSARY.md` list the same names (tests pin all three
//! together).

/// End-to-end metrics, printed by every untraced run. Each workload
/// measures each of them on its own unit of work (a cold flow, an
/// audit cell, a daemon request); see `GLOSSARY.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("luts_geomean", "LUT"),
    ("ok_frac", "ratio"),
];

/// Flow-layer metrics. `flow-cold` reports each for its `large` and
/// `small` design sets (suffixed `.large` / `.small`) and for the whole
/// pass (unsuffixed); `audit` fills the unsuffixed form of the layers it
/// calls.
pub const FLOW_LAYER: [(&str, &str); 19] = [
    ("fpga.resynth.self_ms", "ms"),
    ("fpga.resynth.gates_out", "count"),
    ("fpga.map.self_ms", "ms"),
    ("fpga.map.luts", "count"),
    ("fpga.map.depth", "levels"),
    ("fpga.lint.self_ms", "ms"),
    ("fpga.verify.self_ms", "ms"),
    ("fpga.pack.self_ms", "ms"),
    ("fpga.pack.slices", "count"),
    ("fpga.place.self_ms", "ms"),
    ("fpga.place.proposals", "count"),
    ("fpga.place.accept_ratio", "ratio"),
    ("fpga.place.ns_per_proposal", "ns"),
    ("fpga.place.hpwl_ratio", "ratio"),
    ("fpga.place.melted", "count"),
    ("fpga.timing.self_ms", "ms"),
    ("fpga.timing.critical_ns", "ns"),
    ("fpga.timing.axt_geomean", "LUT.ns"),
    ("netlist.depth.self_ms", "ms"),
];

/// The flow-cold `large` designs whose placement HPWL ratio is
/// reported one by one (`fpga.place.hpwl_ratio.large.<design>`).
pub const LARGE_DESIGNS: [&str; 5] = [
    "proposed_artix7",
    "proposed_spartan3",
    "proposed_virtex5",
    "proposed_stratix_alm",
    "rashidi_artix7",
];

/// Layer metrics without a set split.
pub const OTHER_LAYER: [(&str, &str); 23] = [
    ("core.gen.self_ms", "ms"),
    ("core.spec.self_ms", "ms"),
    ("netlist.lint.self_ms", "ms"),
    ("netlist.census.area_ms", "ms"),
    ("netlist.census.strash_ms", "ms"),
    ("netlist.census.strash_saved", "count"),
    ("fpga.formal.self_ms", "ms"),
    ("fpga.formal.mapped_ms", "ms"),
    ("fpga.pipeline.warm_us", "us"),
    ("bench.trace.coverage", "ratio"),
    ("bench.trace.overhead_pct", "%"),
    ("serve.tier.memory_p50_us", "us"),
    ("serve.tier.store_p50_us", "us"),
    ("serve.tier.computed_p50_us", "us"),
    ("serve.tier.memory_count", "count"),
    ("serve.tier.store_count", "count"),
    ("serve.tier.computed_count", "count"),
    ("serve.server.generate_us_per_job", "us"),
    ("serve.server.synth_us_per_job", "us"),
    ("serve.store.load_us", "us"),
    ("serve.protocol.parse_request_us", "us"),
    ("serve.protocol.encode_synth_ok_us", "us"),
    ("serve.protocol.parse_response_us", "us"),
];

/// Every per-layer metric with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in FLOW_LAYER {
        out.push((name.to_string(), unit));
        out.push((format!("{name}.large"), unit));
        out.push((format!("{name}.small"), unit));
    }
    for design in LARGE_DESIGNS {
        out.push((format!("fpga.place.hpwl_ratio.large.{design}"), "ratio"));
    }
    for (name, unit) in OTHER_LAYER {
        out.push((name.to_string(), unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgf2m_serve::json::{parse_json, JsonValue};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(all.len() <= 7 + 128);
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layer);
    }

    #[test]
    fn glossary_defines_every_metric() {
        let glossary = include_str!("../GLOSSARY.md");
        for (name, _) in END_TO_END {
            assert!(glossary.contains(&format!("`{name}`")), "{name}");
        }
        for (name, _) in FLOW_LAYER.iter().chain(&OTHER_LAYER) {
            assert!(glossary.contains(&format!("`{name}")), "{name}");
        }
    }
}
