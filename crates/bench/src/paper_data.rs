//! The paper's Table V, transcribed verbatim for side-by-side
//! comparison with our measurements, and the A×T rule that judges a
//! published block and a measured one alike.
//!
//! Source: Imaña, "Reconfigurable implementation of GF(2^m) bit-parallel
//! multipliers", DATE 2018, Table V (post-place-and-route results on
//! Xilinx Artix-7 XC7A200T-FFG1156 with ISE 14.7 / XST).

use rgf2m_core::Method;

/// One Table V row: method citation + LUTs / Slices / Time. A published
/// row and a measured one
/// ([`BatchRow::table_v_row`](crate::BatchRow::table_v_row)) alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// The paper's citation tag.
    pub citation: &'static str,
    /// LUT count.
    pub luts: usize,
    /// Slice count.
    pub slices: usize,
    /// Critical path in ns.
    pub time_ns: f64,
}

impl PaperRow {
    /// LUTs × ns (matches the paper's printed A×T column to rounding).
    pub fn area_time(&self) -> f64 {
        self.luts as f64 * self.time_ns
    }
}

/// The A×T verdict on one field block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxtVerdict {
    /// The citation of the row with the lowest LUTs × ns (the first of
    /// a tie); `None` for an empty block.
    pub winner: Option<&'static str>,
    /// Whether 'This work' has a lower LUTs × ns than \[7\], its
    /// parenthesised predecessor; `false` unless both rows are present.
    pub beats_paren: bool,
}

impl AxtVerdict {
    /// Whether 'This work' wins the block on A×T.
    pub fn this_work_wins(&self) -> bool {
        self.winner == Some(Method::ProposedFlat.citation())
    }
}

/// The paper's A×T rule over one field block's rows, published or
/// measured: who wins, and whether 'This work' beats \[7\].
pub fn axt_verdict(rows: &[PaperRow]) -> AxtVerdict {
    let area_time = |method: Method| {
        rows.iter()
            .find(|r| r.citation == method.citation())
            .map(PaperRow::area_time)
    };
    AxtVerdict {
        winner: rows
            .iter()
            .min_by(|a, b| a.area_time().total_cmp(&b.area_time()))
            .map(|r| r.citation),
        beats_paren: matches!(
            (area_time(Method::ProposedFlat), area_time(Method::Imana2016)),
            (Some(this_work), Some(paren)) if this_work < paren
        ),
    }
}

/// One published field block: the `(m, n)` pair and its six rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperBlock {
    /// Extension degree.
    pub m: usize,
    /// Pentanomial offset.
    pub n: usize,
    /// Standard body that recommends this field, if any.
    pub standard: Option<&'static str>,
    /// The six method rows, in the paper's order.
    pub rows: [PaperRow; 6],
}

const fn row(citation: &'static str, luts: usize, slices: usize, time_ns: f64) -> PaperRow {
    PaperRow {
        citation,
        luts,
        slices,
        time_ns,
    }
}

/// The full published Table V.
pub const PAPER_TABLE_V: [PaperBlock; 9] = [
    PaperBlock {
        m: 8,
        n: 2,
        standard: None,
        rows: [
            row("[2]", 34, 11, 9.86),
            row("[8]", 35, 14, 9.62),
            row("[3]", 35, 13, 10.10),
            row("[6]", 37, 14, 9.68),
            row("[7]", 40, 13, 9.90),
            row("This work", 33, 12, 9.77),
        ],
    },
    PaperBlock {
        m: 64,
        n: 23,
        standard: None,
        rows: [
            row("[2]", 1836, 586, 22.63),
            row("[8]", 1794, 585, 20.37),
            row("[3]", 1749, 566, 20.91),
            row("[6]", 1825, 580, 20.21),
            row("[7]", 1854, 642, 21.28),
            row("This work", 1769, 541, 20.18),
        ],
    },
    PaperBlock {
        m: 113,
        n: 4,
        standard: Some("SECG"),
        rows: [
            row("[2]", 5747, 2672, 21.39),
            row("[8]", 5501, 2864, 23.29),
            row("[3]", 5424, 2637, 21.77),
            row("[6]", 5778, 2469, 21.28),
            row("[7]", 5944, 2115, 21.30),
            row("This work", 5420, 2571, 20.94),
        ],
    },
    PaperBlock {
        m: 113,
        n: 34,
        standard: Some("SECG"),
        rows: [
            row("[2]", 5560, 2849, 23.58),
            row("[8]", 5505, 2682, 23.38),
            row("[3]", 5445, 2563, 20.84),
            row("[6]", 5813, 2361, 20.36),
            row("[7]", 5909, 2073, 21.73),
            row("This work", 5474, 2507, 21.59),
        ],
    },
    PaperBlock {
        m: 122,
        n: 49,
        standard: None,
        rows: [
            row("[2]", 6487, 3122, 23.47),
            row("[8]", 6420, 3045, 23.75),
            row("[3]", 6305, 2024, 21.15),
            row("[6]", 6834, 2287, 21.83),
            row("[7]", 6858, 1992, 21.86),
            row("This work", 6361, 1951, 20.95),
        ],
    },
    PaperBlock {
        m: 139,
        n: 59,
        standard: None,
        rows: [
            row("[2]", 8370, 3511, 23.54),
            row("[8]", 8301, 3915, 23.77),
            row("[3]", 8139, 2657, 21.63),
            row("[6]", 8900, 2960, 22.29),
            row("[7]", 8998, 3031, 21.55),
            row("This work", 8222, 2543, 21.35),
        ],
    },
    PaperBlock {
        m: 148,
        n: 72,
        standard: None,
        rows: [
            row("[2]", 9466, 3888, 25.27),
            row("[8]", 9406, 3804, 23.91),
            row("[3]", 9252, 3156, 21.98),
            row("[6]", 9996, 3329, 22.40),
            row("[7]", 9943, 3112, 22.31),
            row("This work", 9314, 3104, 21.76),
        ],
    },
    PaperBlock {
        m: 163,
        n: 66,
        standard: Some("NIST"),
        rows: [
            row("[2]", 11425, 4053, 25.20),
            row("[8]", 11379, 4433, 23.52),
            row("[3]", 11179, 3361, 23.66),
            row("[6]", 12155, 4056, 22.48),
            row("[7]", 12293, 4015, 22.95),
            row("This work", 11295, 3621, 22.77),
        ],
    },
    PaperBlock {
        m: 163,
        n: 68,
        standard: Some("NIST"),
        rows: [
            row("[2]", 11422, 4205, 24.20),
            row("[8]", 11379, 4349, 24.01),
            row("[3]", 11172, 3105, 22.40),
            row("[6]", 12187, 3876, 22.83),
            row("[7]", 12334, 4430, 23.82),
            row("This work", 11330, 3697, 22.39),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_axt_matches_product_to_rounding() {
        // Spot-check the paper's printed A×T column against LUTs × ns.
        // (8,2) This work: 33 × 9.77 = 322.41.
        let block = &PAPER_TABLE_V[0];
        let tw = block.rows[5];
        assert!((tw.area_time() - 322.41).abs() < 0.01);
        // (64,23) [7]: 1854 × 21.28 = 39453.12.
        let b64 = &PAPER_TABLE_V[1];
        assert!((b64.rows[4].area_time() - 39453.12).abs() < 0.01);
    }

    #[test]
    fn this_work_beats_paren_method_everywhere() {
        // The paper's §IV claim: "the new approach is more area and time
        // efficient [than [7]] in all implemented fields".
        for block in &PAPER_TABLE_V {
            assert!(
                axt_verdict(&block.rows).beats_paren,
                "({},{})",
                block.m,
                block.n
            );
        }
    }

    #[test]
    fn axt_verdict_of_a_block_missing_rows() {
        // A measured block loses the rows of failed jobs.
        let rows = &PAPER_TABLE_V[0].rows;
        let without_paren = [rows[0], rows[5]];
        let verdict = axt_verdict(&without_paren);
        assert!(verdict.this_work_wins() && !verdict.beats_paren);
        let empty = axt_verdict(&[]);
        assert_eq!(empty.winner, None);
        assert!(!empty.this_work_wins() && !empty.beats_paren);
    }

    #[test]
    fn lowest_delay_mostly_this_work() {
        // §IV: lowest delay for most fields, except (163,66) and
        // (113,34) where [6] is fastest ((8,2) is [8]'s).
        let mut fastest: Vec<(usize, usize, &str)> = Vec::new();
        for block in &PAPER_TABLE_V {
            let best = block
                .rows
                .iter()
                .min_by(|a, b| a.time_ns.partial_cmp(&b.time_ns).unwrap())
                .unwrap();
            fastest.push((block.m, block.n, best.citation));
        }
        assert!(fastest.contains(&(8, 2, "[8]")));
        assert!(fastest.contains(&(113, 34, "[6]")));
        assert!(fastest.contains(&(163, 66, "[6]")));
        let tw_count = fastest.iter().filter(|(_, _, c)| *c == "This work").count();
        assert_eq!(tw_count, 6, "{fastest:?}");
    }

    #[test]
    fn fields_match_catalogue_order() {
        for (block, &(m, n)) in PAPER_TABLE_V
            .iter()
            .zip(&gf2poly::catalogue::TABLE_V_FIELDS)
        {
            assert_eq!((block.m, block.n), (m, n));
        }
    }
}
