//! CLI: generate any multiplier and dump it as HDL.
//!
//! Usage: `export_hdl <m> <n> <method> [vhdl|verilog|dot|blif]`
//! where `<method>` is one of `mastrovito`, `rashidi`, `reyhani_hasan`,
//! `imana2012`, `imana2016`, `proposed`, `karatsuba`, `school`.
//!
//! Prints the chosen backend's output to stdout (pipe it to a file).

use rgf2m_baselines::{Karatsuba, School};
use rgf2m_bench::field_for;
use rgf2m_core::gen::MultiplierGenerator;
use rgf2m_core::{MastrovitoPaar, Method, Rashidi, ReyhaniHasan};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (m, n, method, backend) = match args.as_slice() {
        [m, n, method] => (m, n, method.as_str(), "vhdl".to_string()),
        [m, n, method, backend] => (m, n, method.as_str(), backend.clone()),
        _ => {
            eprintln!("usage: export_hdl <m> <n> <method> [vhdl|verilog|dot|blif]");
            std::process::exit(2);
        }
    };
    let (m, n): (usize, usize) = match (m.parse(), n.parse()) {
        (Ok(m), Ok(n)) => (m, n),
        _ => {
            eprintln!("m and n must be integers");
            std::process::exit(2);
        }
    };
    let generator: Box<dyn MultiplierGenerator> = match method {
        "mastrovito" => Box::new(MastrovitoPaar),
        "rashidi" => Box::new(Rashidi),
        "reyhani_hasan" => Box::new(ReyhaniHasan),
        "imana2012" => Method::Imana2012.generator(),
        "imana2016" => Method::Imana2016.generator(),
        "proposed" => Method::ProposedFlat.generator(),
        "karatsuba" => Box::new(Karatsuba::default()),
        "school" => Box::new(School),
        other => {
            eprintln!("unknown method '{other}'");
            std::process::exit(2);
        }
    };
    let field = field_for(m, n);
    let net = generator.generate(&field);
    eprintln!(
        "generated {} for GF(2^{m}) (n = {n}): {}",
        generator.name(),
        net.stats()
    );
    let text = match backend.as_str() {
        "vhdl" => net.to_vhdl(),
        "verilog" => net.to_verilog(),
        "dot" => net.to_dot(),
        "blif" => net.to_blif(),
        other => {
            eprintln!("unknown backend '{other}'");
            std::process::exit(2);
        }
    };
    print!("{text}");
}
