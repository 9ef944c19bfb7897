//! Checker tests against a hand-built miniature of the paper's relational
//! and representation signatures (the full signature is written in the
//! specification language and lives in `sos-system`; here we exercise the
//! matching machinery directly).

use sos_core::check::{Checker, ObjectEnv};
use sos_core::pattern::{SortPattern, TypePattern};
use sos_core::spec::{
    ArgCount, Level, OpName, OperatorSpec, Quantifier, ResultSpec, SubtypeRule, SyntaxPattern,
    TypeConstructorDef,
};
use sos_core::typed::TypedNode;
use sos_core::{sym, CheckError, DataType, Expr, SeqAtom, Signature, Symbol, TypeArg};
use std::collections::HashMap;

fn sp_var(v: &str) -> SortPattern {
    SortPattern::var(v)
}

/// Build the miniature signature: kinds, constructors, and the paper's
/// Section 2/4 operators.
fn mini_sig() -> Signature {
    let mut sig = Signature::new();
    for k in [
        "IDENT", "DATA", "ORD", "TUPLE", "REL", "STREAM", "SREL", "BTREE", "RELREP",
    ] {
        sig.add_kind(k);
    }
    sig.add_constructor(TypeConstructorDef::atom("ident", "IDENT", Level::Hybrid));
    for a in ["int", "real", "string", "bool"] {
        sig.add_constructor(TypeConstructorDef::atom(a, "DATA", Level::Hybrid));
    }
    // tuple : (ident x DATA)+ -> TUPLE
    sig.add_constructor(TypeConstructorDef {
        name: sym("tuple"),
        quantifiers: vec![],
        args: vec![SortPattern::List(Box::new(SortPattern::Product(vec![
            SortPattern::atom("ident"),
            SortPattern::kind("DATA"),
        ])))],
        kind: sym("TUPLE"),
        level: Level::Hybrid,
    });
    // rel : TUPLE -> REL ; stream/srel similar
    for (name, kind) in [("rel", "REL"), ("stream", "STREAM"), ("srel", "SREL")] {
        sig.add_constructor(TypeConstructorDef {
            name: sym(name),
            quantifiers: vec![],
            args: vec![SortPattern::kind("TUPLE")],
            kind: sym(kind),
            level: Level::Hybrid,
        });
    }
    // relrep : TUPLE -> RELREP
    sig.add_constructor(TypeConstructorDef {
        name: sym("relrep"),
        quantifiers: vec![],
        args: vec![SortPattern::kind("TUPLE")],
        kind: sym("RELREP"),
        level: Level::Representation,
    });
    // btree : TUPLE x ident x ORD -> BTREE  with constructor spec
    sig.add_constructor(TypeConstructorDef {
        name: sym("btree"),
        quantifiers: vec![
            Quantifier::kind_pat(
                "tuple",
                TypePattern::cons("tuple", vec![TypePattern::var("list")]),
                "TUPLE",
            ),
            Quantifier::in_list(&["attrname", "dtype"], "list"),
        ],
        args: vec![sp_var("tuple"), sp_var("attrname"), sp_var("dtype")],
        kind: sym("BTREE"),
        level: Level::Representation,
    });
    // ORD types (int, string) — model ORD as separate constructors is not
    // possible (one constructor, one kind), so give `btree`'s dtype no ORD
    // restriction here; the full spec uses a union. Instead add int/string
    // also to ORD via a wrapper kind test below (omitted in the mini sig).

    // subtype: btree(tuple, attrname, dtype) < relrep(tuple)
    sig.add_subtype(SubtypeRule {
        sub: TypePattern::cons(
            "btree",
            vec![
                TypePattern::var("tuple"),
                TypePattern::var("attrname"),
                TypePattern::var("dtype"),
            ],
        ),
        sup: SortPattern::cons("relrep", vec![sp_var("tuple")]),
    });

    // comparisons: forall data in DATA. data x data -> bool  =, <, >
    for op in ["=", "<", ">", "<=", ">=", "!="] {
        sig.add_spec(OperatorSpec {
            name: OpName::Fixed(sym(op)),
            quantifiers: vec![Quantifier::kind("data", "DATA")],
            args: vec![sp_var("data"), sp_var("data")],
            result: ResultSpec::Pattern(SortPattern::atom("bool")),
            syntax: SyntaxPattern::infix(3),
            is_update: false,
            level: Level::Hybrid,
        });
    }
    // select: forall rel: rel(tuple) in REL. rel x (tuple -> bool) -> rel
    sig.add_spec(OperatorSpec {
        name: OpName::Fixed(sym("select")),
        quantifiers: vec![Quantifier::kind_pat(
            "rel",
            TypePattern::cons("rel", vec![TypePattern::var("tuple")]),
            "REL",
        )],
        args: vec![
            sp_var("rel"),
            SortPattern::Fun(vec![sp_var("tuple")], Box::new(SortPattern::atom("bool"))),
        ],
        result: ResultSpec::Pattern(sp_var("rel")),
        syntax: SyntaxPattern::postfix_brackets(1, ArgCount::Exact(1)),
        is_update: false,
        level: Level::Model,
    });
    // attribute access: forall tuple: tuple(list) in TUPLE.
    //   (attrname, dtype) in list.  tuple -> dtype   attrname   _ #
    sig.add_spec(OperatorSpec {
        name: OpName::Var(sym("attrname")),
        quantifiers: vec![
            Quantifier::kind_pat(
                "tuple",
                TypePattern::cons("tuple", vec![TypePattern::var("list")]),
                "TUPLE",
            ),
            Quantifier::in_list(&["attrname", "dtype"], "list"),
        ],
        args: vec![sp_var("tuple")],
        result: ResultSpec::Pattern(sp_var("dtype")),
        syntax: SyntaxPattern::postfix(1),
        is_update: false,
        level: Level::Hybrid,
    });
    // union: forall rel in REL. rel+ -> rel
    sig.add_spec(OperatorSpec {
        name: OpName::Fixed(sym("union")),
        quantifiers: vec![Quantifier::kind("rel", "REL")],
        args: vec![SortPattern::List(Box::new(sp_var("rel")))],
        result: ResultSpec::Pattern(sp_var("rel")),
        syntax: SyntaxPattern::postfix(1),
        is_update: false,
        level: Level::Model,
    });
    // join: rel1 x rel2 x (tuple1 x tuple2 -> bool) -> rel: REL
    sig.add_spec(OperatorSpec {
        name: OpName::Fixed(sym("join")),
        quantifiers: vec![
            Quantifier::kind_pat(
                "rel1",
                TypePattern::cons("rel", vec![TypePattern::var("tuple1")]),
                "REL",
            ),
            Quantifier::kind_pat(
                "rel2",
                TypePattern::cons("rel", vec![TypePattern::var("tuple2")]),
                "REL",
            ),
        ],
        args: vec![
            sp_var("rel1"),
            sp_var("rel2"),
            SortPattern::Fun(
                vec![sp_var("tuple1"), sp_var("tuple2")],
                Box::new(SortPattern::atom("bool")),
            ),
        ],
        result: ResultSpec::TypeOperator {
            var: sym("rel"),
            kind: sym("REL"),
        },
        syntax: SyntaxPattern::postfix_brackets(2, ArgCount::Exact(1)),
        is_update: false,
        level: Level::Model,
    });
    sig.add_type_op("join", |ctx| {
        let t1 = match ctx.bindings.get(&Symbol::new("tuple1")) {
            Some(TypeArg::Type(t)) => t.clone(),
            _ => return Err("tuple1 unbound".into()),
        };
        let t2 = match ctx.bindings.get(&Symbol::new("tuple2")) {
            Some(TypeArg::Type(t)) => t.clone(),
            _ => return Err("tuple2 unbound".into()),
        };
        let mut attrs = t1.tuple_attrs().ok_or("tuple1 not a tuple")?;
        attrs.extend(t2.tuple_attrs().ok_or("tuple2 not a tuple")?);
        Ok(DataType::rel(DataType::tuple(attrs)))
    });
    // feed: forall relrep: relrep(tuple) in RELREP. relrep -> stream(tuple)
    sig.add_spec(OperatorSpec {
        name: OpName::Fixed(sym("feed")),
        quantifiers: vec![Quantifier::kind_pat(
            "relrep",
            TypePattern::cons("relrep", vec![TypePattern::var("tuple")]),
            "RELREP",
        )],
        args: vec![sp_var("relrep")],
        result: ResultSpec::Pattern(SortPattern::cons("stream", vec![sp_var("tuple")])),
        syntax: SyntaxPattern::postfix(1),
        is_update: false,
        level: Level::Representation,
    });
    // insert (update): forall rel: rel(tuple) in REL. rel x tuple -> rel
    sig.add_spec(OperatorSpec {
        name: OpName::Fixed(sym("insert")),
        quantifiers: vec![Quantifier::kind_pat(
            "rel",
            TypePattern::cons("rel", vec![TypePattern::var("tuple")]),
            "REL",
        )],
        args: vec![sp_var("rel"), sp_var("tuple")],
        result: ResultSpec::Pattern(sp_var("rel")),
        syntax: SyntaxPattern::prefix(),
        is_update: true,
        level: Level::Model,
    });
    sig
}

fn city() -> DataType {
    DataType::tuple(vec![
        (sym("name"), DataType::atom("string")),
        (sym("pop"), DataType::atom("int")),
    ])
}

fn state() -> DataType {
    DataType::tuple(vec![
        (sym("sname"), DataType::atom("string")),
        (sym("area"), DataType::atom("int")),
    ])
}

fn objects() -> HashMap<Symbol, DataType> {
    let mut m = HashMap::new();
    m.insert(sym("cities"), DataType::rel(city()));
    m.insert(sym("states"), DataType::rel(state()));
    m.insert(
        sym("cities_rep"),
        DataType::Cons(
            sym("btree"),
            vec![
                TypeArg::Type(city()),
                TypeArg::Expr(Expr::ident("pop")),
                TypeArg::Type(DataType::atom("int")),
            ],
        ),
    );
    m.insert(
        sym("french_cities"),
        DataType::Fun(vec![], Box::new(DataType::rel(city()))),
    );
    m.insert(
        sym("cities_in"),
        DataType::Fun(
            vec![DataType::atom("string")],
            Box::new(DataType::rel(city())),
        ),
    );
    m
}

fn word(name: &str) -> SeqAtom {
    SeqAtom::Word {
        name: sym(name),
        brackets: None,
        parens: None,
    }
}

fn word_br(name: &str, args: Vec<Expr>) -> SeqAtom {
    SeqAtom::Word {
        name: sym(name),
        brackets: Some(args),
        parens: None,
    }
}

#[test]
fn well_formed_types_check() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    c.check_type(&city()).unwrap();
    c.check_type(&DataType::rel(city())).unwrap();
    c.check_type(&DataType::Fun(
        vec![DataType::atom("string")],
        Box::new(DataType::rel(city())),
    ))
    .unwrap();
}

#[test]
fn btree_constructor_spec_enforced() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    // valid: pop is an int attribute of city
    let good = DataType::Cons(
        sym("btree"),
        vec![
            TypeArg::Type(city()),
            TypeArg::Expr(Expr::ident("pop")),
            TypeArg::Type(DataType::atom("int")),
        ],
    );
    c.check_type(&good).unwrap();
    // invalid: pop declared as string
    let bad = DataType::Cons(
        sym("btree"),
        vec![
            TypeArg::Type(city()),
            TypeArg::Expr(Expr::ident("pop")),
            TypeArg::Type(DataType::atom("string")),
        ],
    );
    assert!(matches!(
        c.check_type(&bad),
        Err(CheckError::BadTypeArgs { .. })
    ));
    // invalid: no such attribute
    let bad2 = DataType::Cons(
        sym("btree"),
        vec![
            TypeArg::Type(city()),
            TypeArg::Expr(Expr::ident("height")),
            TypeArg::Type(DataType::atom("int")),
        ],
    );
    assert!(c.check_type(&bad2).is_err());
}

#[test]
fn unknown_constructor_rejected() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    assert!(matches!(
        c.check_type(&DataType::atom("mystery")),
        Err(CheckError::UnknownConstructor(_))
    ));
}

#[test]
fn wrong_arity_rejected() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let bad = DataType::Cons(sym("rel"), vec![]);
    assert!(c.check_type(&bad).is_err());
}

#[test]
fn comparison_resolves_polymorphically() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let t = c
        .check_expr(&Expr::apply(">", vec![Expr::int(5), Expr::int(3)]))
        .unwrap();
    assert_eq!(t.ty, DataType::atom("bool"));
    let t2 = c
        .check_expr(&Expr::apply("=", vec![Expr::str("a"), Expr::str("b")]))
        .unwrap();
    assert_eq!(t2.ty, DataType::atom("bool"));
    // mixed types must fail (same variable bound twice)
    assert!(c
        .check_expr(&Expr::apply("<", vec![Expr::int(5), Expr::str("x")]))
        .is_err());
}

#[test]
fn select_with_explicit_lambda() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::apply(
        "select",
        vec![
            Expr::name("cities"),
            Expr::Lambda {
                params: vec![(sym("p"), city())],
                body: Box::new(Expr::apply(
                    ">",
                    vec![Expr::apply("pop", vec![Expr::name("p")]), Expr::int(30)],
                )),
            },
        ],
    );
    let t = c.check_expr(&e).unwrap();
    assert_eq!(t.ty, DataType::rel(city()));
}

#[test]
fn attribute_access_binds_via_operator_name() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    // pop on a city tuple -> int; name -> string; missing -> error
    let mk = |attr: &str| Expr::Lambda {
        params: vec![(sym("p"), city())],
        body: Box::new(Expr::apply(attr, vec![Expr::name("p")])),
    };
    let t = c.check_expr(&mk("pop")).unwrap();
    assert_eq!(
        t.ty,
        DataType::Fun(vec![city()], Box::new(DataType::atom("int")))
    );
    let t2 = c.check_expr(&mk("name")).unwrap();
    assert_eq!(
        t2.ty,
        DataType::Fun(vec![city()], Box::new(DataType::atom("string")))
    );
    assert!(c.check_expr(&mk("height")).is_err());
}

#[test]
fn implicit_lambda_select_like_the_paper() {
    // persons select[pop > 100000] — written as a concrete sequence.
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![
        word("cities"),
        word_br(
            "select",
            vec![Expr::apply(
                ">",
                vec![Expr::Seq(vec![word("pop")]), Expr::int(100000)],
            )],
        ),
    ]);
    let t = c.check_expr(&e).unwrap();
    assert_eq!(t.ty, DataType::rel(city()));
    // The elaborated term contains a synthesized lambda.
    let shown = t.to_string();
    assert!(shown.contains("fun ("), "expected lambda in `{shown}`");
    assert!(
        shown.contains("pop(%p0)"),
        "expected attr rewrite in `{shown}`"
    );
}

#[test]
fn union_requires_equal_schemas() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let ok = Expr::apply(
        "union",
        vec![Expr::List(vec![Expr::name("cities"), Expr::name("cities")])],
    );
    assert_eq!(c.check_expr(&ok).unwrap().ty, DataType::rel(city()));
    let bad = Expr::apply(
        "union",
        vec![Expr::List(vec![Expr::name("cities"), Expr::name("states")])],
    );
    let err = c.check_expr(&bad).unwrap_err();
    assert!(matches!(err, CheckError::NoMatchingSpec { .. }));
}

#[test]
fn join_result_computed_by_type_operator() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![
        word("cities"),
        word("states"),
        word_br(
            "join",
            vec![Expr::apply(
                "=",
                vec![
                    Expr::Seq(vec![word("name")]),
                    Expr::Seq(vec![word("sname")]),
                ],
            )],
        ),
    ]);
    let t = c.check_expr(&e).unwrap();
    let mut attrs = city().tuple_attrs().unwrap();
    attrs.extend(state().tuple_attrs().unwrap());
    assert_eq!(t.ty, DataType::rel(DataType::tuple(attrs)));
}

#[test]
fn implicit_join_predicate_ambiguity_detected() {
    // Both city and a copy of city share attribute names -> ambiguous.
    let sig = mini_sig();
    let mut env = objects();
    env.insert(sym("cities2"), DataType::rel(city()));
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![
        word("cities"),
        word("cities2"),
        word_br(
            "join",
            vec![Expr::apply(
                "=",
                vec![Expr::Seq(vec![word("pop")]), Expr::int(1)],
            )],
        ),
    ]);
    assert!(c.check_expr(&e).is_err());
}

#[test]
fn subtype_widening_lets_feed_accept_btree() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![word("cities_rep"), word("feed")]);
    let t = c.check_expr(&e).unwrap();
    assert_eq!(t.ty, DataType::stream(city()));
}

#[test]
fn feed_rejects_plain_relation() {
    // rel(tuple) is not a relrep — no subtype rule covers it.
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![word("cities"), word("feed")]);
    assert!(c.check_expr(&e).is_err());
}

#[test]
fn nullary_view_is_auto_applied() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![
        word("french_cities"),
        word_br(
            "select",
            vec![Expr::apply(
                ">",
                vec![Expr::Seq(vec![word("pop")]), Expr::int(100000)],
            )],
        ),
    ]);
    let t = c.check_expr(&e).unwrap();
    assert_eq!(t.ty, DataType::rel(city()));
}

#[test]
fn parameterized_view_application() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![SeqAtom::Word {
        name: sym("cities_in"),
        brackets: None,
        parens: Some(vec![Expr::str("Germany")]),
    }]);
    let t = c.check_expr(&e).unwrap();
    assert_eq!(t.ty, DataType::rel(city()));
    assert!(matches!(t.node, TypedNode::ApplyFun { .. }));
}

#[test]
fn view_application_wrong_argument_type_fails() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![SeqAtom::Word {
        name: sym("cities_in"),
        brackets: None,
        parens: Some(vec![Expr::int(7)]),
    }]);
    assert!(c.check_expr(&e).is_err());
}

#[test]
fn update_requires_object_first_argument() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    // cities is an object: fine. A computed relation: rejected.
    let tuple_value_missing = Expr::apply(
        "insert",
        vec![
            Expr::Seq(vec![
                word("cities"),
                word_br(
                    "select",
                    vec![Expr::apply(
                        ">",
                        vec![Expr::Seq(vec![word("pop")]), Expr::int(0)],
                    )],
                ),
            ]),
            Expr::name("cities"),
        ],
    );
    assert!(c.check_expr(&tuple_value_missing).is_err());
}

#[test]
fn sequences_with_leftover_operands_fail() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![word("cities"), word("states")]);
    assert!(matches!(c.check_expr(&e), Err(CheckError::BadSequence(_))));
}

#[test]
fn unknown_names_are_reported() {
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    let e = Expr::name("nonexistent");
    assert!(matches!(c.check_expr(&e), Err(CheckError::UnknownName(_))));
}

#[test]
fn object_env_trait_objects_work() {
    struct Two;
    impl ObjectEnv for Two {
        fn object_type(&self, name: &Symbol) -> Option<DataType> {
            (name.as_str() == "r")
                .then(|| DataType::rel(DataType::tuple(vec![(sym("a"), DataType::atom("int"))])))
        }
    }
    let sig = mini_sig();
    let c = Checker::new(&sig, &Two);
    let t = c.check_expr(&Expr::name("r")).unwrap();
    assert!(t.ty.to_string().starts_with("rel("));
}

#[test]
fn subtype_widening_is_transitive() {
    // Add a two-step chain: special_btree < btree < relrep. feed on a
    // special_btree must widen twice.
    let mut sig = mini_sig();
    sig.add_kind("SBTREE");
    sig.add_constructor(TypeConstructorDef {
        name: sym("special_btree"),
        quantifiers: vec![],
        args: vec![
            SortPattern::kind("TUPLE"),
            SortPattern::atom("ident"),
            SortPattern::kind("DATA"),
        ],
        kind: sym("SBTREE"),
        level: Level::Representation,
    });
    sig.add_subtype(SubtypeRule {
        sub: TypePattern::cons(
            "special_btree",
            vec![
                TypePattern::var("tuple"),
                TypePattern::var("attrname"),
                TypePattern::var("dtype"),
            ],
        ),
        sup: SortPattern::cons(
            "btree",
            vec![sp_var("tuple"), sp_var("attrname"), sp_var("dtype")],
        ),
    });
    let mut env = objects();
    env.insert(
        sym("special"),
        DataType::Cons(
            sym("special_btree"),
            vec![
                TypeArg::Type(city()),
                TypeArg::Expr(Expr::ident("pop")),
                TypeArg::Type(DataType::atom("int")),
            ],
        ),
    );
    let c = Checker::new(&sig, &env);
    let t = c
        .check_expr(&Expr::Seq(vec![word("special"), word("feed")]))
        .unwrap();
    assert_eq!(t.ty, DataType::stream(city()));
}

#[test]
fn object_names_shadowed_by_operators_prefer_the_operator() {
    // An object named like a fixed operator: in sequences the operator
    // interpretation wins only when the name does not resolve as an
    // operand — here `feed` resolves as an object, so it is an operand
    // and the sequence is unresolvable (documented behaviour).
    let sig = mini_sig();
    let mut env = objects();
    env.insert(sym("feed"), DataType::rel(city()));
    let c = Checker::new(&sig, &env);
    let e = Expr::Seq(vec![word("cities_rep"), word("feed")]);
    assert!(c.check_expr(&e).is_err());
    // Abstract syntax still reaches the operator unambiguously.
    let e2 = Expr::apply("feed", vec![Expr::name("cities_rep")]);
    assert!(c.check_expr(&e2).is_ok());
}

/// A sequence error quotes its input as a cut of the whole rendering:
/// the first 80 bytes, whole characters only, then `… (N more bytes)`.
/// The checker streams the rendering through a bounded sink; this pins
/// it to the plain cut byte for byte, at every length around the limit
/// and with characters of every UTF-8 width straddling it.
#[test]
fn sequence_error_excerpts_are_a_cut_of_the_whole_rendering() {
    const EXCERPT_BYTES: usize = 80;
    let cut_whole = |text: &str| {
        if text.len() <= EXCERPT_BYTES {
            return text.to_string();
        }
        let cut = (0..=EXCERPT_BYTES)
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}… ({} more bytes)", &text[..cut], text.len() - cut)
    };
    let sig = mini_sig();
    let env = objects();
    let c = Checker::new(&sig, &env);
    for unit in ["a", "é", "日", "𝄞", "ab日", "日a"] {
        for n in 0..=60 {
            let atoms = vec![
                SeqAtom::Operand(Expr::str(&unit.repeat(n))),
                SeqAtom::Operand(Expr::int(7)),
                SeqAtom::Operand(Expr::str(unit)),
            ];
            let whole = atoms
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            match c.check_expr(&Expr::Seq(atoms)) {
                Err(CheckError::BadSequence(m)) => assert_eq!(
                    m,
                    format!(
                        "sequence leaves 3 operands (expected exactly 1): {}",
                        cut_whole(&whole)
                    )
                ),
                other => panic!("expected a sequence error, got {other:?}"),
            }
        }
    }
}
