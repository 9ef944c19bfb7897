//! Plan validation: is a rewritten plan's result type still the one the
//! original plan had?
//!
//! Query-translation rules preserve types exactly (`consume` brings a
//! representation stream back to `rel(tuple)`), but the Section 6
//! *update* translations legitimately change the result constructor:
//! `insert(cities, c) : rel(city)` rewrites to
//! `insert(cities_rep, c) : btree(city, ...)`. The equivalence used
//! here is therefore *modulo representation*: two types are equivalent
//! when they are equal, or when both are relation-like (the model `rel`
//! constructor, or a representation declared a subtype of
//! `relrep(tuple)`) over the same tuple type. `stream(tuple)` is *not*
//! relation-like — a rule that drops the closing `consume` is flagged.

use sos_core::pattern::PatternNode;
use sos_core::{DataType, Signature, Symbol, TypeArg};

/// Are two plan result types equivalent modulo representation?
pub fn types_equivalent(sig: &Signature, a: &DataType, b: &DataType) -> bool {
    if a == b {
        return true;
    }
    match (relational_content(sig, a), relational_content(sig, b)) {
        (Some(ta), Some(tb)) => ta == tb,
        _ => false,
    }
}

/// The tuple type a relation-like type is "about", or `None` when the
/// type is not relation-like. Relation-like means the model `rel`
/// constructor, `relrep` itself, or any constructor the signature
/// declares a subtype of something (the representation structures:
/// `srel`, `btree`, `lsdtree`, ... are all `< relrep(tuple)`).
pub fn relational_content<'t>(sig: &Signature, ty: &'t DataType) -> Option<&'t DataType> {
    let DataType::Cons(name, args) = ty else {
        return None;
    };
    let relation_like = name.as_str() == "rel"
        || name.as_str() == "relrep"
        || sig
            .subtypes()
            .iter()
            .any(|r| matches!(&r.sub.node, PatternNode::Cons(n, _) if n == name));
    if !relation_like {
        return None;
    }
    args.iter().find_map(|a| match a {
        TypeArg::Type(t @ DataType::Cons(c, _)) if c == &Symbol::new("tuple") => Some(t),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::pattern::{SortPattern, TypePattern};
    use sos_core::spec::SubtypeRule;

    fn sig_with_btree_subtype() -> Signature {
        let mut sig = Signature::default();
        sig.add_subtype(SubtypeRule {
            sub: TypePattern::bound_cons(
                "b",
                "btree",
                vec![
                    TypePattern::var("tuple"),
                    TypePattern::var("a"),
                    TypePattern::var("d"),
                ],
            ),
            sup: SortPattern::cons("relrep", vec![SortPattern::var("tuple")]),
        });
        sig
    }

    fn tuple_ty(attr: &str) -> DataType {
        DataType::Cons(
            Symbol::new("tuple"),
            vec![TypeArg::List(vec![TypeArg::Pair(vec![
                TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(Symbol::new(
                    attr,
                )))),
                TypeArg::Type(DataType::atom("int")),
            ])])],
        )
    }

    #[test]
    fn rel_is_equivalent_to_declared_representations_but_not_streams() {
        let sig = sig_with_btree_subtype();
        let t = tuple_ty("k");
        let rel = DataType::Cons(Symbol::new("rel"), vec![TypeArg::Type(t.clone())]);
        let btree = DataType::Cons(
            Symbol::new("btree"),
            vec![
                TypeArg::Type(t.clone()),
                TypeArg::Expr(sos_core::Expr::Const(sos_core::Const::Ident(Symbol::new(
                    "k",
                )))),
                TypeArg::Type(DataType::atom("int")),
            ],
        );
        let stream = DataType::Cons(Symbol::new("stream"), vec![TypeArg::Type(t.clone())]);
        assert!(types_equivalent(&sig, &rel, &rel));
        assert!(types_equivalent(&sig, &rel, &btree));
        assert!(!types_equivalent(&sig, &rel, &stream));
        assert!(!types_equivalent(&sig, &rel, &DataType::atom("int")));
        let rel2 = DataType::Cons(Symbol::new("rel"), vec![TypeArg::Type(tuple_ty("other"))]);
        assert!(!types_equivalent(&sig, &rel, &rel2));
    }
}
