//! Engine-level tests: evaluation of closures, captured environments,
//! attribute access, key extraction, the operator table and operator
//! registration — exercised without the system façade.

use sos_catalog::Catalog;
use sos_core::spec::OpName;
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{sym, Const, DataType, Signature, Symbol};
use sos_exec::{EvalCtx, ExecEngine, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn builtin() -> &'static Signature {
    static SIG: OnceLock<Signature> = OnceLock::new();
    SIG.get_or_init(sos_system::builtin::builtin_signature)
}

fn engine() -> ExecEngine {
    let mut e = ExecEngine::new(sos_storage::mem_pool(64));
    e.bind_signature(builtin());
    e
}

fn city_ty() -> DataType {
    DataType::tuple(vec![
        (sym("name"), DataType::atom("string")),
        (sym("pop"), DataType::atom("int")),
    ])
}

fn int_const(v: i64) -> TypedExpr {
    TypedExpr::new(TypedNode::Const(Const::Int(v)), DataType::atom("int"))
}

/// `op(args)` resolved to the first spec the built-in signature declares
/// for `op` — for an undeclared name, the attribute-access spec, which
/// no operator implements.
fn apply(op: &str, args: Vec<TypedExpr>, ty: DataType) -> TypedExpr {
    let op = Symbol::new(op);
    let spec = builtin().candidates(&op)[0];
    TypedExpr::new(TypedNode::Apply { op, spec, args }, ty)
}

#[test]
fn arithmetic_and_comparison_dispatch() {
    let e = engine();
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    let sum = apply("+", vec![int_const(2), int_const(3)], DataType::atom("int"));
    assert_eq!(ctx.eval(&sum).unwrap(), Value::Int(5));
    let cmp = apply(
        "<",
        vec![int_const(2), int_const(3)],
        DataType::atom("bool"),
    );
    assert_eq!(ctx.eval(&cmp).unwrap(), Value::Bool(true));
}

#[test]
fn closures_capture_outer_parameters() {
    // fun (x: int) fun (y: int) x + y — the inner closure must capture x.
    let e = engine();
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    let int = DataType::atom("int");
    let var = |n: &str| TypedExpr::new(TypedNode::Var(Symbol::new(n)), int.clone());
    let inner = TypedExpr::new(
        TypedNode::Lambda {
            params: [(sym("y"), int.clone())].into(),
            body: Arc::new(apply("+", vec![var("x"), var("y")], int.clone())),
        },
        DataType::Fun(vec![int.clone()], Box::new(int.clone())),
    );
    let outer = TypedExpr::new(
        TypedNode::Lambda {
            params: [(sym("x"), int.clone())].into(),
            body: Arc::new(inner),
        },
        DataType::Fun(
            vec![int.clone()],
            Box::new(DataType::Fun(vec![int.clone()], Box::new(int.clone()))),
        ),
    );
    let f = ctx.eval(&outer).unwrap();
    let Value::Closure(fc) = f else { panic!() };
    let g = ctx.call(&fc, vec![Value::Int(10)]).unwrap();
    let Value::Closure(gc) = g else { panic!() };
    assert_eq!(ctx.call(&gc, vec![Value::Int(32)]).unwrap(), Value::Int(42));
    // Each closure shares its lambda's parameters with the term instead
    // of copying them.
    let TypedNode::Lambda { params, body } = &outer.node else {
        unreachable!()
    };
    assert!(Arc::ptr_eq(&fc.params, params));
    let TypedNode::Lambda { params, .. } = &body.node else {
        unreachable!()
    };
    assert!(Arc::ptr_eq(&gc.params, params));
}

#[test]
fn attribute_access_loads_the_checked_field() {
    let mut e = engine();
    // A registered operator of the same name does not shadow the field:
    // the checker resolved the access, and the engine follows it.
    e.add_op("pop", |_, _, _| Ok(Value::Int(-1)));
    let mut store = HashMap::new();
    store.insert(
        sym("c"),
        Value::tuple(vec![Value::Str("Hagen".into()), Value::Int(190_000)]),
    );
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    let env: HashMap<Symbol, DataType> = HashMap::from([(sym("c"), city_ty())]);
    let checker = sos_core::check::Checker::new(builtin(), &env);
    let access = checker
        .check_expr(&sos_core::Expr::Apply {
            op: sym("pop"),
            args: vec![sos_core::Expr::Name(sym("c"))],
        })
        .unwrap();
    assert!(matches!(access.node, TypedNode::Field { idx: 1, .. }));
    assert_eq!(ctx.eval(&access).unwrap(), Value::Int(190_000));
    // A tuple shorter than its checked type errors instead of panicking.
    ctx.store
        .insert(sym("c"), Value::tuple(vec![Value::Str("x".into())]));
    let err = ctx.eval(&access).unwrap_err();
    assert_eq!(err.to_string(), "tuple too short for attribute `pop`");
}

/// The signature and the operator table cover each other: every fixed
/// operator of the built-in signature has a table entry, every entry
/// names a signature operator, and each spec of an operator binds to
/// that operator's one entry.
#[test]
fn operator_table_covers_the_builtin_signature() {
    let e = engine();
    let sig = builtin();
    let ops = e.ops();
    for name in sig.op_names() {
        assert!(ops.get(&name).is_some(), "`{name}` has no implementation");
    }
    for entry in ops.entries() {
        assert!(
            sig.is_fixed_op(&entry.name),
            "`{}` implements no signature operator",
            entry.name
        );
    }
    for (i, spec) in sig.specs().iter().enumerate() {
        let bound = ops.of_spec(i).map(|(_, entry)| &entry.name);
        match &spec.name {
            OpName::Fixed(n) => assert_eq!(bound, Some(n), "spec #{i}"),
            OpName::Var(_) => assert_eq!(bound, None, "spec #{i}"),
        }
    }
}

#[test]
fn unknown_operator_reports_no_impl() {
    let e = engine();
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    let bad = apply("mystery", vec![int_const(1)], DataType::atom("int"));
    let err = ctx.eval(&bad).unwrap_err();
    assert!(err.to_string().contains("mystery"));
}

#[test]
fn registered_overrides_take_effect() {
    let mut e = engine();
    e.add_op("+", |_, _, _| Ok(Value::Int(-1))); // override!
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    let sum = apply("+", vec![int_const(2), int_const(3)], DataType::atom("int"));
    assert_eq!(ctx.eval(&sum).unwrap(), Value::Int(-1));
}

#[test]
fn init_value_builds_representation_structures() {
    let e = engine();
    let sig = sos_system::builtin::builtin_signature();
    let env: HashMap<Symbol, DataType> = HashMap::new();
    let city = city_ty();
    // rel -> empty model relation
    let v = e
        .init_value(&sig, &env, &DataType::rel(city.clone()))
        .unwrap();
    assert_eq!(v, Value::Rel(vec![]));
    // tidrel -> heap handle
    let tid_ty = DataType::Cons(sym("tidrel"), vec![sos_core::TypeArg::Type(city.clone())]);
    assert!(matches!(
        e.init_value(&sig, &env, &tid_ty).unwrap(),
        Value::TidRel(_)
    ));
    // btree -> handle with the right key attribute
    let btree_ty = DataType::Cons(
        sym("btree"),
        vec![
            sos_core::TypeArg::Type(city.clone()),
            sos_core::TypeArg::Expr(sos_core::Expr::ident("pop")),
            sos_core::TypeArg::Type(DataType::atom("int")),
        ],
    );
    let v = e.init_value(&sig, &env, &btree_ty).unwrap();
    let Value::BTree(h) = v else { panic!() };
    assert!(matches!(h.key, sos_exec::KeyExtractor::Attr(1)));
    // btree over a bogus attribute errors
    let bad = DataType::Cons(
        sym("btree"),
        vec![
            sos_core::TypeArg::Type(city),
            sos_core::TypeArg::Expr(sos_core::Expr::ident("nope")),
            sos_core::TypeArg::Type(DataType::atom("int")),
        ],
    );
    assert!(e.init_value(&sig, &env, &bad).is_err());
}

#[test]
fn division_by_zero_is_an_error_not_a_panic() {
    let e = engine();
    let mut store = HashMap::new();
    let mut cat = Catalog::new();
    let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
    for op in ["div", "mod", "/"] {
        let d = apply(op, vec![int_const(1), int_const(0)], DataType::atom("int"));
        assert!(ctx.eval(&d).is_err(), "`{op}` by zero must error");
    }
    // Overflow too.
    let o = apply(
        "+",
        vec![int_const(i64::MAX), int_const(1)],
        DataType::atom("int"),
    );
    assert!(ctx.eval(&o).is_err());
}
