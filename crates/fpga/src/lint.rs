//! Structural lint for mapped (LUT-level) netlists — the counterpart
//! of [`netlist::lint::lint_netlist`], sharing its typed
//! [`LintReport`].
//!
//! Errors mean the LUT netlist is not a valid combinational design
//! (forward/self references breaking topological order, reads of
//! missing LUTs or out-of-range primary inputs, outputs depending on
//! such signals); warnings flag hygiene defects the mapper should not
//! produce (dead LUTs, duplicate LUTs, truth tables that ignore a
//! connected input). The pipeline runs this pass after every mapping —
//! before any verification — and surfaces the duplicate/dead counts in
//! `ImplReport`. The error passes run first and are also exposed alone
//! as [`lint_mapped_errors`], the precondition of the formal checks
//! (only a hard finding can fail them).

use std::cell::OnceCell;
use std::collections::HashMap;

use netlist::lint::{LintKind, LintReport};

use crate::lut::{LutAnalysis, LutNetlist, Signal, Truth};

/// Lints a mapped LUT netlist: the hard findings of
/// [`lint_mapped_errors`], then the warning passes (dead LUTs,
/// duplicate LUTs, ignored inputs) appended in that order.
///
/// Every LUT-anchored finding carries the name of the output cone the
/// LUT belongs to (the first declared output whose transitive fanin
/// contains it), so a `LUT 17` message can be traced back to a
/// coefficient bit without replaying the mapper.
pub fn lint_mapped(mapped: &LutNetlist) -> LintReport {
    let cones = ConeNames::new(mapped);
    let mut report = errors(mapped, &cones);
    push_warnings(mapped, &cones, &mut report);
    report
}

/// The error half of [`lint_mapped`]: signal validity, topological
/// order and outputs depending on invalid signals — exactly the full
/// lint's error-severity findings, in its order and with the same
/// "(cone of cK)" attribution. The formal checks run this half alone
/// as their precondition; warnings come from the full lint.
pub fn lint_mapped_errors(mapped: &LutNetlist) -> LintReport {
    errors(mapped, &ConeNames::new(mapped))
}

/// The output cone each LUT belongs to, walked on first use (a clean
/// netlist's error half never needs it).
struct ConeNames<'a> {
    mapped: &'a LutNetlist,
    owner: OnceCell<Vec<Option<usize>>>,
}

impl<'a> ConeNames<'a> {
    fn new(mapped: &'a LutNetlist) -> ConeNames<'a> {
        ConeNames {
            mapped,
            owner: OnceCell::new(),
        }
    }

    /// `" (cone of <output>)"` for LUT `i`, or nothing for a LUT no
    /// output reaches.
    fn label(&self, i: usize) -> String {
        match self.owner.get_or_init(|| owners(self.mapped))[i] {
            Some(k) => format!(" (cone of {})", self.mapped.outputs()[k].0),
            None => String::new(),
        }
    }
}

/// Owning cone per LUT: the first declared output that reaches it.
/// The walk is defensive — out-of-range and forward references (the
/// very defects linted below) are skipped, and the visited check
/// terminates even on reference cycles.
fn owners(mapped: &LutNetlist) -> Vec<Option<usize>> {
    let luts = mapped.luts();
    let mut cone: Vec<Option<usize>> = vec![None; luts.len()];
    for (k, (_, s)) in mapped.outputs().iter().enumerate() {
        let mut stack = match *s {
            Signal::Lut(j) if (j as usize) < luts.len() => vec![j as usize],
            _ => continue,
        };
        while let Some(i) = stack.pop() {
            if cone[i].is_some() {
                continue;
            }
            cone[i] = Some(k);
            for s in &luts[i].inputs {
                if let Signal::Lut(j) = *s {
                    if (j as usize) < luts.len() {
                        stack.push(j as usize);
                    }
                }
            }
        }
    }
    cone
}

/// The error passes of [`lint_mapped`].
fn errors(mapped: &LutNetlist, cones: &ConeNames<'_>) -> LintReport {
    let mut report = LintReport::new();
    let luts = mapped.luts();
    let n_inputs = mapped.input_names().len();
    let cone_of = |i: usize| cones.label(i);

    // Signal validity + topological order, per LUT input.
    let mut invalid = vec![false; luts.len()];
    for (i, lut) in luts.iter().enumerate() {
        for (slot, s) in lut.inputs.iter().enumerate() {
            match *s {
                Signal::Input(v) if v as usize >= n_inputs => {
                    invalid[i] = true;
                    report.push(
                        LintKind::UndrivenInput,
                        i,
                        format!(
                            "LUT {i} input {slot} reads primary input {v}, but only {n_inputs} are declared{}",
                            cone_of(i)
                        ),
                    );
                }
                Signal::Lut(j) if j as usize >= luts.len() => {
                    invalid[i] = true;
                    report.push(
                        LintKind::UndrivenInput,
                        i,
                        format!(
                            "LUT {i} input {slot} reads LUT {j}, which does not exist{}",
                            cone_of(i)
                        ),
                    );
                }
                Signal::Lut(j) if j as usize >= i => {
                    invalid[i] = true;
                    report.push(
                        LintKind::CombinationalCycle,
                        i,
                        format!(
                            "LUT {i} input {slot} reads LUT {j}, which does not precede it{}",
                            cone_of(i)
                        ),
                    );
                }
                _ => {}
            }
        }
    }

    // Output signal validity.
    let mut bad_outputs = vec![false; mapped.outputs().len()];
    for (k, (name, s)) in mapped.outputs().iter().enumerate() {
        match *s {
            Signal::Input(v) if v as usize >= n_inputs => {
                bad_outputs[k] = true;
                report.push(
                    LintKind::UndrivenInput,
                    k,
                    format!(
                        "output {k} ({name}) reads primary input {v}, but only {n_inputs} are declared"
                    ),
                );
            }
            Signal::Lut(j) if j as usize >= luts.len() => {
                bad_outputs[k] = true;
                report.push(
                    LintKind::UndrivenInput,
                    k,
                    format!("output {k} ({name}) reads LUT {j}, which does not exist"),
                );
            }
            _ => {}
        }
    }

    // Outputs transitively depending on an invalid signal. A visited
    // set guards the walk, so it terminates even on cyclic references.
    if invalid.iter().any(|&b| b) || bad_outputs.iter().any(|&b| b) {
        let mut tainted = vec![false; luts.len()];
        let mut visited = vec![false; luts.len()];
        fn taints(
            luts: &[crate::lut::Lut],
            invalid: &[bool],
            tainted: &mut [bool],
            visited: &mut [bool],
            i: usize,
        ) -> bool {
            if visited[i] {
                return tainted[i];
            }
            visited[i] = true;
            let mut t = invalid[i];
            for s in &luts[i].inputs {
                if let Signal::Lut(j) = *s {
                    let j = j as usize;
                    if j < luts.len() && taints(luts, invalid, tainted, visited, j) {
                        t = true;
                    }
                }
            }
            tainted[i] = t;
            t
        }
        for (k, (name, s)) in mapped.outputs().iter().enumerate() {
            let bad = bad_outputs[k]
                || match *s {
                    Signal::Lut(j) if (j as usize) < luts.len() => {
                        taints(luts, &invalid, &mut tainted, &mut visited, j as usize)
                    }
                    _ => false,
                };
            if bad && !bad_outputs[k] {
                report.push(
                    LintKind::UndrivenOutput,
                    k,
                    format!("output {k} ({name}) transitively depends on an invalid signal"),
                );
            }
        }
    }

    report
}

/// The warning passes of [`lint_mapped`], appended to `report`.
fn push_warnings(mapped: &LutNetlist, cones: &ConeNames<'_>, report: &mut LintReport) {
    let luts = mapped.luts();
    let cone_of = |i: usize| cones.label(i);

    // Dead LUTs: drive neither a LUT input nor a primary output.
    // `LutAnalysis` skips the invalid references this pass just
    // reported, so it is safe to share with timing analysis here.
    let fanouts = LutAnalysis::of(mapped).lut_fanouts;
    for (i, f) in fanouts.iter().enumerate() {
        if *f == 0 {
            report.push(
                LintKind::DeadNode,
                i,
                format!(
                    "LUT {i} drives neither a LUT input nor a primary output{}",
                    cone_of(i)
                ),
            );
        }
    }

    // Duplicate LUTs: same input signals, same (masked) truth table.
    let mut seen: HashMap<(Vec<Signal>, Truth), usize> = HashMap::new();
    for (i, lut) in luts.iter().enumerate() {
        let key = (lut.inputs.clone(), lut.truth.mask(lut.inputs.len()));
        match seen.get(&key) {
            Some(&first) => report.push(
                LintKind::DuplicateGate,
                i,
                format!(
                    "LUT {i} has the same inputs and truth table as LUT {first}{}",
                    cone_of(i)
                ),
            ),
            None => {
                seen.insert(key, i);
            }
        }
    }

    // Truth tables constant in a connected input.
    for (i, lut) in luts.iter().enumerate() {
        let n = lut.inputs.len();
        for v in 0..n {
            let step = 1usize << v;
            let ignored = (0..1usize << n)
                .filter(|idx| idx & step == 0)
                .all(|idx| lut.truth.bit(idx) == lut.truth.bit(idx | step));
            if ignored {
                report.push(
                    LintKind::IgnoredLutInput,
                    i,
                    format!(
                        "LUT {i} truth table ignores connected input {v}{}",
                        cone_of(i)
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use netlist::lint::Severity;

    fn fresh(k: usize, n_inputs: usize) -> LutNetlist {
        let names: Vec<String> = (0..n_inputs).map(|i| format!("x{i}")).collect();
        LutNetlist::new("t".into(), k, names)
    }

    #[test]
    fn clean_mapped_netlist() {
        let mut n = fresh(4, 2);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b0110),
        });
        n.push_output("y".into(), Signal::Lut(l0));
        let report = lint_mapped(&n);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn forward_reference_is_a_cycle_error() {
        let mut n = fresh(4, 1);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Lut(1)], // reads a later LUT
            truth: Truth::of(0b10),
        });
        n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Lut(l0)],
            truth: Truth::of(0b0110),
        });
        n.push_output("y".into(), Signal::Lut(1));
        let report = lint_mapped(&n);
        assert!(report.has_errors());
        assert_eq!(report.count(LintKind::CombinationalCycle), 1);
        // The output depends on the broken LUT.
        assert_eq!(report.count(LintKind::UndrivenOutput), 1);
        assert_eq!(
            report.first_error().unwrap().kind,
            LintKind::CombinationalCycle
        );
    }

    #[test]
    fn out_of_range_reads_are_undriven_inputs() {
        let mut n = fresh(4, 1);
        n.push_lut(Lut {
            inputs: vec![Signal::Input(7)],
            truth: Truth::of(0b10),
        });
        n.push_output("y".into(), Signal::Lut(5));
        let report = lint_mapped(&n);
        assert_eq!(report.count(LintKind::UndrivenInput), 2);
        assert!(report.has_errors());
    }

    #[test]
    fn dead_and_duplicate_luts_are_warnings() {
        let mut n = fresh(4, 2);
        let and = Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b1000),
        };
        let l0 = n.push_lut(and.clone());
        let _dup = n.push_lut(and); // duplicate AND — and dead, too
        n.push_output("y".into(), Signal::Lut(l0));
        let report = lint_mapped(&n);
        assert!(!report.has_errors());
        assert_eq!(report.duplicate_gates(), 1);
        assert_eq!(report.dead_nodes(), 1);
        assert!(report
            .findings()
            .iter()
            .all(|f| f.severity() == Severity::Warning));
    }

    #[test]
    fn ignored_input_detected_and_masked_truth_compared() {
        let mut n = fresh(4, 2);
        // Truth 0b0101 over 2 vars: output = NOT input0, ignores input1.
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b0101),
        });
        n.push_output("y".into(), Signal::Lut(l0));
        let report = lint_mapped(&n);
        assert_eq!(report.count(LintKind::IgnoredLutInput), 1);
        assert!(report.findings()[0].message.contains("input 1"));
    }

    #[test]
    fn constant_zero_lut_ignores_everything() {
        let mut n = fresh(4, 1);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: Truth::ZERO,
        });
        n.push_output("y".into(), Signal::Lut(l0));
        let report = lint_mapped(&n);
        assert_eq!(report.count(LintKind::IgnoredLutInput), 1);
    }

    #[test]
    fn lut_findings_name_their_output_cone() {
        let mut n = fresh(4, 2);
        let and = Lut {
            inputs: vec![Signal::Input(0), Signal::Input(1)],
            truth: Truth::of(0b1000),
        };
        let l0 = n.push_lut(and.clone());
        let l1 = n.push_lut(and); // duplicate of l0, but drives c1
        n.push_output("c0".into(), Signal::Lut(l0));
        n.push_output("c1".into(), Signal::Lut(l1));
        let report = lint_mapped(&n);
        let dup = report
            .findings()
            .iter()
            .find(|f| f.kind == LintKind::DuplicateGate)
            .unwrap();
        assert!(dup.message.contains("LUT 1"), "{}", dup.message);
        assert!(dup.message.contains("(cone of c1)"), "{}", dup.message);

        // A dead LUT belongs to no cone: its finding stays unlabelled.
        let mut n = fresh(4, 1);
        let l0 = n.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: Truth::of(0b10),
        });
        n.push_lut(Lut {
            inputs: vec![Signal::Input(0)],
            truth: Truth::of(0b01),
        });
        n.push_output("y".into(), Signal::Lut(l0));
        let report = lint_mapped(&n);
        let dead = report
            .findings()
            .iter()
            .find(|f| f.kind == LintKind::DeadNode)
            .unwrap();
        assert!(!dead.message.contains("cone of"), "{}", dead.message);
    }

    /// The error-severity findings of the full lint, in order.
    fn full_errors(n: &LutNetlist) -> Vec<netlist::lint::LintFinding> {
        lint_mapped(n)
            .findings()
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .cloned()
            .collect()
    }

    #[test]
    fn error_half_is_the_full_lints_error_subset() {
        // Each hard defect on its own, inside a netlist that also has
        // warnings: a forward reference, a reference to a missing LUT,
        // an undeclared primary input, an output reading a missing LUT.
        let defects: [(Signal, Signal); 4] = [
            (Signal::Lut(3), Signal::Lut(1)),
            (Signal::Lut(40), Signal::Lut(1)),
            (Signal::Input(9), Signal::Lut(1)),
            (Signal::Input(0), Signal::Lut(77)),
        ];
        for (bad_input, bad_output) in defects {
            let mut n = fresh(4, 2);
            let l0 = n.push_lut(Lut {
                inputs: vec![Signal::Input(0), bad_input],
                truth: Truth::of(0b0110),
            });
            n.push_lut(Lut {
                inputs: vec![Signal::Lut(l0), Signal::Input(1)],
                truth: Truth::of(0b1000),
            });
            n.push_lut(Lut {
                inputs: vec![Signal::Input(1)],
                truth: Truth::of(0b10),
            }); // dead
            n.push_output("c0".into(), bad_output);
            n.push_output("c1".into(), Signal::Lut(l0));
            let errors = lint_mapped_errors(&n);
            assert!(errors.has_errors(), "{bad_input:?} {bad_output:?}");
            assert_eq!(errors.findings(), full_errors(&n).as_slice());
            assert_eq!(errors.warnings(), 0);
            assert!(lint_mapped(&n).warnings() > 0);
        }
    }

    #[test]
    fn error_half_matches_on_random_defective_netlists() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(bound)) as u32
        };
        // Mostly valid signals; sometimes an undeclared input, a
        // forward or self reference, or a missing LUT.
        let signal =
            |next: &mut dyn FnMut(u32) -> u32, n_inputs: u32, luts: u32, i: u32| match next(12) {
                0 => Signal::Input(n_inputs + next(3)),
                1 => Signal::Lut(i + next(3)),
                2 => Signal::Lut(luts + next(3)),
                3 => Signal::Const(next(2) == 1),
                4..=7 if i > 0 => Signal::Lut(next(i)),
                _ => Signal::Input(next(n_inputs)),
            };
        for _ in 0..300 {
            let n_inputs = 1 + next(4);
            let mut n = fresh(4, n_inputs as usize);
            let luts = 1 + next(8);
            for i in 0..luts {
                let k = 1 + next(4);
                let inputs = (0..k)
                    .map(|_| signal(&mut next, n_inputs, luts, i))
                    .collect();
                let truth = Truth::of(u64::from(next(u32::MAX)));
                n.push_lut(Lut { inputs, truth });
            }
            for k in 0..1 + next(3) {
                let s = signal(&mut next, n_inputs, luts, luts);
                n.push_output(format!("c{k}"), s);
            }
            assert_eq!(
                lint_mapped_errors(&n).findings(),
                full_errors(&n).as_slice()
            );
        }
    }

    #[test]
    fn output_reading_missing_lut_is_an_error() {
        let mut n = fresh(4, 1);
        n.push_output("y".into(), Signal::Lut(0));
        let report = lint_mapped(&n);
        assert!(report.has_errors());
        assert_eq!(report.count(LintKind::UndrivenInput), 1);
    }
}
