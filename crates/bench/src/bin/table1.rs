//! Regenerates Table I of the paper: coefficients of the product for
//! GF(2^8) with (m, n) = (8, 2), as sums of S_i/T_i functions.

use rgf2m_bench::field_for;
use rgf2m_core::CoefficientTable;

fn main() {
    rgf2m_bench::cli::NO_FLAGS.parse();
    let field = field_for(8, 2);
    println!("TABLE I");
    println!("COEFFICIENTS OF THE PRODUCT FOR GF(2^8) WITH (m,n) = (8,2).");
    println!();
    print!("{}", CoefficientTable::new(&field));
    println!();
    println!("(Derived from the reduction matrix of y^8+y^4+y^3+y^2+1;");
    println!(" matches the published table verbatim — see");
    println!(" rgf2m_core::coeffs::tests::table_i_exact.)");
}
