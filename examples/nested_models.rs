//! Data-model extensibility (Section 2.1): define *new data models* as
//! specifications — nested relations and complex objects — then add an
//! operator to one of them with a Rust implementation.
//!
//! This is the paper's headline claim: the framework is a meta-model.
//! No code in the system knows about `nrel` or `oset`; they are data.
//!
//! ```sh
//! cargo run --example nested_models
//! ```

use sos_exec::Value;
use sos_system::Database;

fn main() {
    let mut db = Database::builder().build();

    // --- Nested relations (the paper's second type system) -------------
    db.load_spec(
        r##"
        kinds NREL
        model cons nrel : (ident x (DATA | NREL))+ -> NREL
        "##,
    )
    .expect("nested-relational spec loads");

    db.run(
        r#"
        type author_rel = nrel(<(name, string), (country, string)>);
        type book_rel = nrel(<(title, string), (authors, author_rel),
                              (publisher, string), (year, int)>);
        create books : book_rel;
    "#,
    )
    .expect("the paper's books type defines");
    println!(
        "books : {}",
        db.catalog()
            .object(&sos_core::Symbol::new("books"))
            .unwrap()
            .ty
    );

    // --- Complex objects in the spirit of [BaK86] ----------------------
    db.load_spec(
        r##"
        kinds OBJ
        cons obottom, otop, oint, ostring : -> OBJ
        cons otuple : (ident x OBJ)+ -> OBJ
        cons oset : OBJ -> OBJ
        "##,
    )
    .expect("complex-object spec loads");

    db.run(
        r#"
        type person = otuple(<(name, ostring), (children, oset(ostring)),
                              (address, otuple(<(city, ostring), (street, ostring)>))>);
        create people : oset(person);
    "#,
    )
    .expect("the paper's person type defines");
    println!(
        "people : {}",
        db.catalog()
            .object(&sos_core::Symbol::new("people"))
            .unwrap()
            .ty
    );

    // --- Adding an operator to a loaded model --------------------------
    // A polymorphic cardinality operator over any oset, with a syntax
    // pattern, plus its Rust implementation.
    db.load_spec(
        r##"
        op ocard : forall s: oset(el) in OBJ . s -> int syntax "_ #"
        "##,
    )
    .expect("operator spec loads");
    db.add_op_impl("ocard", |_, _, args| match &args[0] {
        Value::List(items) => Ok(Value::Int(items.len() as i64)),
        Value::Undefined => Ok(Value::Int(0)),
        other => Err(sos_exec::ExecError::TypeMismatch {
            op: "ocard".into(),
            expected: "a set value".into(),
            found: other.kind_name().into(),
        }),
    })
    .expect("ocard is declared");

    let n = db.query("people ocard").expect("ocard runs");
    println!("people ocard = {n:?}");

    // Type errors in the new models are caught by the same checker.
    let bad = db.run("create bad : oset(int);");
    println!(
        "oset(int) rejected as expected: {}",
        bad.err().map(|e| e.to_string()).unwrap_or_default()
    );
}
