//! Regenerates Table II of the paper: the split atoms S^j_i / T^j_i for
//! GF(2^8), each a complete binary XOR tree over 2^j products.

use rgf2m_core::{SiTi, SplitAtom};

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    println!("TABLE II");
    println!("TERMS S^j_i AND T^j_i FOR GF(2^8).");
    println!();
    for atom in SplitAtom::split_all(8) {
        println!("{atom}");
    }
    println!();
    println!("Underlying S_i/T_i functions (paper §II, eq. (1)):");
    print!("{}", SiTi::new(8));
}
