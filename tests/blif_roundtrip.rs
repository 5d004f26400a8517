//! `Netlist::to_blif` proved by a round trip: a strict BLIF reader,
//! which accepts exactly the covers the writer emits and panics with
//! the line number on anything else, reads every export back into a
//! netlist computing the same output polynomials.

use std::collections::HashMap;

use proptest::prelude::*;
use rgf2m::baselines::{karatsuba, school};
use rgf2m::netlist::algebra::output_polys;
use rgf2m::prelude::*;

/// Reads BLIF as `to_blif` writes it: `.model`, `.inputs`, `.outputs`,
/// then `.names` blocks whose covers are an AND (`11 1`), an XOR
/// (`01 1`, `10 1`), a buffer (`1 1`) or a constant (no cover, or `1`),
/// then `.end`. Every signal is driven exactly once, before its first
/// use; each output names a driven signal.
fn read(blif: &str) -> Netlist {
    let mut lines = blif.lines().zip(1..).peekable();
    let mut header = |directive: &str| {
        let (text, no) = lines
            .next()
            .unwrap_or_else(|| panic!("missing {directive}"));
        let rest = text
            .strip_prefix(directive)
            .unwrap_or_else(|| panic!("line {no}: expected {directive}, got {text:?}"));
        (tokens(rest, no), no)
    };
    let (model, model_line) = header(".model");
    let [name] = model[..] else {
        panic!("line {model_line}: .model takes one name")
    };
    let (inputs, inputs_line) = header(".inputs");
    let (outputs, outputs_line) = header(".outputs");

    let mut net = Netlist::new(name);
    let mut driven: HashMap<&str, NodeId> = HashMap::new();
    for &input in &inputs {
        let node = net.input(input);
        drive(&mut driven, input, node, inputs_line);
    }
    loop {
        let (text, no) = lines.next().expect("missing .end");
        if text == ".end" {
            break;
        }
        let signals = tokens(
            text.strip_prefix(".names")
                .unwrap_or_else(|| panic!("line {no}: expected .names or .end, got {text:?}")),
            no,
        );
        let mut cover = Vec::new();
        while let Some(&(row, _)) = lines.peek().filter(|(l, _)| !l.starts_with('.')) {
            cover.push(row);
            lines.next();
        }
        let Some((&target, operands)) = signals.split_last() else {
            panic!("line {no}: .names without a signal")
        };
        let operands: Vec<NodeId> = operands
            .iter()
            .map(|s| {
                *driven
                    .get(s)
                    .unwrap_or_else(|| panic!("line {no}: {s} is used before it is driven"))
            })
            .collect();
        let node = match (&operands[..], &cover[..]) {
            (&[], []) => net.push_raw(Gate::Const(false)),
            (&[], ["1"]) => net.push_raw(Gate::Const(true)),
            (&[a], ["1 1"]) => a,
            (&[a, b], ["11 1"]) => net.push_raw(Gate::And(a, b)),
            (&[a, b], ["01 1", "10 1"]) => net.push_raw(Gate::Xor(a, b)),
            _ => panic!("line {no}: unsupported cover {cover:?} of {text:?}"),
        };
        drive(&mut driven, target, node, no);
    }
    if let Some((text, no)) = lines.next() {
        panic!("line {no}: {text:?} after .end");
    }
    for (k, &output) in outputs.iter().enumerate() {
        if outputs[..k].contains(&output) {
            panic!("line {outputs_line}: output {output} listed twice");
        }
        let node = *driven
            .get(output)
            .unwrap_or_else(|| panic!("line {outputs_line}: output {output} is not driven"));
        net.output(output, node);
    }
    net
}

/// The space-separated tokens after a directive: none, or a space and
/// then non-empty tokens one space apart.
fn tokens(rest: &str, no: usize) -> Vec<&str> {
    if rest.is_empty() {
        return Vec::new();
    }
    let list: Vec<&str> = rest
        .strip_prefix(' ')
        .unwrap_or_else(|| panic!("line {no}: no space after the directive"))
        .split(' ')
        .collect();
    if list.contains(&"") {
        panic!("line {no}: empty token in {rest:?}");
    }
    list
}

/// Records `token` as driven by `node`, refusing a second driver.
fn drive<'a>(driven: &mut HashMap<&'a str, NodeId>, token: &'a str, node: NodeId, no: usize) {
    if driven.insert(token, node).is_some() {
        panic!("line {no}: {token} is driven twice");
    }
}

/// Reads `net`'s BLIF back and requires the same port counts and
/// output polynomials; returns the netlist read.
fn round_trip(net: &Netlist) -> Netlist {
    let blif = net.to_blif();
    let back = read(&blif);
    assert_eq!(back.num_inputs(), net.num_inputs(), "{blif}");
    assert_eq!(back.outputs().len(), net.outputs().len(), "{blif}");
    assert_eq!(
        output_polys(&back).unwrap(),
        output_polys(net).unwrap(),
        "{blif}"
    );
    back
}

#[test]
fn every_generator_round_trips_with_its_ports_and_passes_formal_verification() {
    let pipeline = Pipeline::new();
    for (m, n) in [(8, 2), (13, 5)] {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let spec = multiplier_spec(&field);
        let nets = Method::ALL
            .map(|method| generate(&field, method))
            .into_iter()
            .chain([school(&field), karatsuba(&field)]);
        for net in nets {
            let back = round_trip(&net);
            assert_eq!(back.name(), net.name());
            assert_eq!(back.input_names(), net.input_names(), "{}", net.name());
            let names = |n: &Netlist| {
                n.outputs()
                    .iter()
                    .map(|(o, _)| o.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&back), names(&net), "{}", net.name());
            pipeline
                .verify_formal(&spec, &back)
                .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        }
    }
}

#[test]
fn constants_and_shared_or_direct_outputs_round_trip() {
    let mut net = Netlist::new("edges");
    let a = net.input("a");
    let b = net.input("b");
    let zero = net.constant(false);
    let one = net.constant(true);
    let not_a = net.xor(a, one);
    let ab = net.and(a, b);
    net.output("zero", zero);
    net.output("one", one);
    net.output("not_a", not_a);
    net.output("same_a", a);
    net.output("p", ab);
    net.output("q", ab);
    let blif = net.to_blif();
    assert!(blif.contains(".names n2\n.names n3\n1\n"), "{blif}");
    round_trip(&net);
}

#[test]
fn names_needing_sanitising_round_trip() {
    let mut net = Netlist::new("gf(2^2) mul");
    let a = net.input("a[0]");
    let b = net.input("0b");
    let y = net.and(a, b);
    net.output("c 0", y);
    let back = round_trip(&net);
    assert_eq!(back.name(), "gf_2_2__mul");
    assert_eq!(back.input_names(), ["a_0_", "n0b"]);
    assert_eq!(back.outputs()[0].0, "c_0");
}

/// An input named like an internal signal: the writer must not emit
/// `.names n2 b n2`.
#[test]
fn an_input_named_like_an_internal_signal_round_trips() {
    let mut net = Netlist::new("clash");
    let n2 = net.input("n2");
    let b = net.input("b");
    let y = net.and(n2, b);
    net.output("y", y);
    round_trip(&net);
}

/// An output named like an input: the writer must not drive the input
/// a second time.
#[test]
fn an_output_named_like_an_input_round_trips() {
    let mut net = Netlist::new("clash");
    let a = net.input("a");
    let b = net.input("b");
    let y = net.xor(a, b);
    net.output("a", y);
    round_trip(&net);
}

#[test]
fn two_names_that_sanitise_alike_round_trip() {
    let mut net = Netlist::new("clash");
    let x = net.input("a-b");
    let y = net.input("a_b");
    let z = net.and(x, y);
    net.output("a.b", z);
    net.output("a_b", x);
    round_trip(&net);
}

/// A name pool built to collide: with each other once sanitised, and
/// with the writer's internal `n<index>` names.
const NAMES: [&str; 12] = [
    "a", "b", "a-b", "a_b", "a_b_", "n0", "n1", "n2", "n3", "n_4", "0", "",
];

#[derive(Debug, Clone)]
struct Recipe {
    inputs: Vec<usize>,
    /// (op, lhs, rhs): 0 AND, 1 XOR, 2 constant false, 3 constant true.
    steps: Vec<(u8, usize, usize)>,
    outputs: Vec<(usize, usize)>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(0..NAMES.len(), 1..5),
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..12),
        proptest::collection::vec((0..NAMES.len(), 0usize..64), 1..5),
    )
        .prop_map(|(inputs, steps, outputs)| Recipe {
            inputs,
            steps,
            outputs,
        })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut net = Netlist::new("random");
    let mut nodes: Vec<NodeId> = recipe.inputs.iter().map(|&i| net.input(NAMES[i])).collect();
    for &(op, a, b) in &recipe.steps {
        let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
        nodes.push(match op {
            0 => net.and(a, b),
            1 => net.xor(a, b),
            op => net.constant(op == 3),
        });
    }
    for &(name, node) in &recipe.outputs {
        net.output(NAMES[name], nodes[node % nodes.len()]);
    }
    net
}

proptest! {
    #[test]
    fn random_netlists_with_colliding_names_round_trip(recipe in arb_recipe()) {
        round_trip(&build(&recipe));
    }
}
