//! The optional static-typing layer (§2.3, §6) end to end: schema audits
//! over derived models, and the static-type membership reading as rules.

use clogic::core::schema::{Schema, Violation};
use clogic::core::transform::Transformer;
use clogic::core::{object_type, Program};
use clogic::session::{Session, Strategy};
use clogic_parser::parse_program;
use folog::builtins::builtin_symbols;
use folog::{evaluate, CompiledProgram, FixpointOptions};

mod common;

fn audit(src: &str, schema: &Schema) -> Vec<Violation> {
    let p: Program = parse_program(src).unwrap();
    let fo = Transformer::new().program(&p);
    let compiled = CompiledProgram::compile(&fo, builtin_symbols());
    let ev = evaluate(&compiled, FixpointOptions::default()).unwrap();
    let mut sig = p.signature();
    sig.types.insert(object_type());
    schema.check(&ev.ground_atoms(), &sig)
}

#[test]
fn audit_covers_derived_facts_not_just_asserted_ones() {
    // The schema is checked against the least model, so violations can
    // come from rule-derived membership.
    let mut schema = Schema::new();
    schema.require("vip", "discount", "object");
    let src = r#"
        customer: ann[orders => 12].
        vip: X :- customer: X[orders => N], N >= 10.
    "#;
    // ann becomes a vip by rule but has no discount ⇒ violation
    let violations = audit(src, &schema);
    assert_eq!(violations.len(), 1);
    assert!(matches!(&violations[0],
        Violation::MissingProperty { object, .. } if object == "ann"));
    // giving her one (piecewise! §2.2) clears the audit
    let fixed = format!("{src}\ncustomer: ann[discount => gold].");
    assert!(audit(&fixed, &schema).is_empty());
}

#[test]
fn functional_label_audit_sees_rule_derived_values() {
    let mut schema = Schema::new();
    schema.declare_functional("head_of");
    let src = r#"
        dept: cs[head_of => turing].
        dept: cs[acting => hopper].
        head_of_rule: X :- dept: X.
        dept: X[head_of => Y] :- dept: X[acting => Y].
    "#;
    let violations = audit(src, &schema);
    assert_eq!(violations.len(), 1);
    assert!(matches!(&violations[0],
        Violation::MultipleValues { object, values, .. }
            if object == "cs" && values.len() == 2));
}

#[test]
fn membership_rules_close_the_static_reading() {
    // §2.3: "every object with all properties specified by a type will
    // automatically belong to the type" — realize it by adding the
    // generated membership rules to the program.
    let mut schema = Schema::new();
    schema.require("person", "name", "object");
    schema.require("person", "age", "object");
    let mut p = parse_program(
        r#"thing: t1[name => "Ann", age => 30].
           thing: t2[name => "NoAge"].
        "#,
    )
    .unwrap();
    for rule in schema.membership_rules() {
        p.push(rule);
    }
    let mut s = Session::new();
    s.load_program(p);
    for strategy in [
        Strategy::BottomUpSemiNaive,
        Strategy::Tabled,
        Strategy::Magic,
    ] {
        let r = common::evaluate(&mut s, "person: X", strategy).unwrap();
        assert_eq!(r.rows.len(), 1, "{strategy:?}");
        assert_eq!(r.rows[0].get("X").unwrap(), "t1");
    }
}

#[test]
fn schema_layer_is_optional() {
    // Without a schema, multiply-defined labels and missing properties
    // are simply fine (the paper's core stance).
    let schema = Schema::new();
    let src = "person: p[name => a].\nperson: p[name => b].\nperson: q.";
    assert!(audit(src, &schema).is_empty());
}
