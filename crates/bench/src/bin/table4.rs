//! Regenerates Table IV of the paper: the *new* (flat, non-parenthesised)
//! coefficients of the product for type II GF(2^8) — the form handed to
//! the synthesis tool by the proposed method.

use rgf2m_bench::field_for;
use rgf2m_core::FlatCoefficientTable;

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    let field = field_for(8, 2);
    println!("TABLE IV");
    println!("NEW COEFFICIENTS OF THE PRODUCT FOR TYPE II GF(2^8).");
    println!();
    print!("{}", FlatCoefficientTable::new(&field));
    println!();
    println!("(Matches the published table verbatim — see");
    println!(" rgf2m_core::coeffs::tests::table_iv_exact.)");
}
