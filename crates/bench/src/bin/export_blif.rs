//! Generates one multiplier and prints it as BLIF on stdout (pipe it to
//! a file), the netlist format outside synthesis and place-and-route
//! flows read.
//!
//! Run `export_blif --help` for its flags (declared in
//! `rgf2m_bench::cli`); an unknown or malformed flag, an `--only M,N`
//! that is no type II pentanomial, or an unknown method exits 1 before
//! any work.

use rgf2m_baselines::{karatsuba, school};
use rgf2m_bench::{cli, field_for};
use rgf2m_core::{generate, Method};

fn main() {
    let args = cli::EXPORT_BLIF.parse();
    let (m, n) = args.field();
    let name = args.value("--method").unwrap_or("proposed");
    let method = Method::from_name(name);
    if method.is_none() && name != "school" && name != "karatsuba" {
        args.fail(&format!(
            "unknown method {name:?}; known: {}, school, karatsuba",
            Method::ALL.map(|m| m.name()).join(", ")
        ));
    }

    let field = field_for(m, n);
    let net = match method {
        Some(method) => generate(&field, method),
        None if name == "school" => school(&field),
        None => karatsuba(&field),
    };
    eprintln!("generated {name} for GF(2^{m}) (n = {n}): {}", net.stats());
    print!("{}", net.to_blif());
}
