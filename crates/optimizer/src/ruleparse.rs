//! The textual rule language — Section 5's optimization rules as data.
//!
//! The paper writes rules as quantified term patterns with an arrow and
//! catalog conditions. The concrete grammar here keeps that structure
//! with explicit variable declarations (the paper's quantifier prelude):
//!
//! ```text
//! rule join-inside-lsdtree:
//!   vars rel1 obj, rel2 obj;
//!   funvars pointf(t1), regionf(t2);
//!   lhs join(rel1, rel2, fun (t1, t2) inside(pointf(t1), regionf(t2)));
//!   rhs consume(search_join(feed(rep1),
//!         fun (t1: $t1) filter(point_search(lsd2, pointf(t1)),
//!           fun (t2: $t2) inside(pointf(t1), regionf(t2)))));
//!   where rep(rel1, rep1), rep(rel2, lsd2),
//!         lsd2 : lsdtree(tuple2, f), lsdbbox(lsd2, regionf);
//! ```
//!
//! * `vars v obj` declares an object variable (matches a named object),
//!   `vars v const` a constant variable, `vars v op` an operator-name
//!   variable; undeclared names in the LHS are plain term variables
//!   unless they are lambda parameters.
//! * `funvars f(p, ...)` declares the paper's function variables
//!   (`point: (tuple1 -> point)`): `f(p)` in the LHS matches any subterm
//!   whose free variables are within the listed lambda parameters.
//! * LHS and RHS are written in abstract (prefix) syntax. In the RHS a
//!   lambda parameter type `$v` splices the type bound to `v` (lambda
//!   parameters bind their types; `TypeIs` conditions bind more).
//! * `where` conditions: `rep(model, repvar)` (or any catalog via
//!   `link(catalog, model, repvar)`), `v : <type pattern>`, `key(b, a)`,
//!   `not key(b, a)`, `lsdbbox(lsd, funvar)`, `const(v)`.
//! * A rule name is dashed identifiers (`select-scan`) or a quoted
//!   string for names with operator characters (`"select-btree->="`).
//! * In the LHS, `v as p` binds the whole subterm matched by `p` to `v`,
//!   and `f(t) as p` (a declared funvar) binds `f` to the lambda
//!   abstraction of a subterm that also matches `p`.

use crate::condition::Condition;
use crate::pattern::{OpPat, TermPattern};
use crate::rewrite::Rule;
use sos_core::pattern::{PatternNode, TypePattern};
use sos_core::{sym, DataType, Expr, Symbol, TypeArg};
use sos_parser::cursor::Cursor;
use sos_parser::{tokenize, ParseError, TokenKind};
use std::collections::{HashMap, HashSet};

/// Parse a rule file into rules (to wrap in a
/// [`crate::RuleStep`]).
pub fn parse_rules(src: &str) -> Result<Vec<Rule>, ParseError> {
    parse_rules_with_spans(src).map(|(rules, _)| rules)
}

/// Like [`parse_rules`], also returning the byte offset of each rule's
/// `rule` keyword (parallel to the rules), so diagnostics can name lines.
pub fn parse_rules_with_spans(src: &str) -> Result<(Vec<Rule>, Vec<usize>), ParseError> {
    let mut cur = Cursor::new(tokenize(src)?);
    let mut rules = Vec::new();
    let mut offsets = Vec::new();
    while !cur.at_eof() {
        offsets.push(cur.pos());
        rules.push(parse_rule(&mut cur)?);
    }
    Ok((rules, offsets))
}

#[derive(Default)]
struct Decls {
    objects: HashSet<Symbol>,
    consts: HashSet<Symbol>,
    opvars: HashSet<Symbol>,
    /// funvar -> its lambda-parameter argument names
    funvars: HashMap<Symbol, Vec<Symbol>>,
    /// lambda parameters seen in the LHS
    params: HashSet<Symbol>,
}

fn parse_rule(cur: &mut Cursor) -> Result<Rule, ParseError> {
    cur.expect_keyword("rule")?;
    let name = rule_name(cur)?;
    cur.expect(&TokenKind::Colon)?;

    let mut decls = Decls::default();
    if cur.eat_keyword("vars") {
        loop {
            let v = sym(&cur.ident()?);
            let kind = cur.ident()?;
            match kind.as_str() {
                "obj" => {
                    decls.objects.insert(v);
                }
                "const" => {
                    decls.consts.insert(v);
                }
                "op" => {
                    decls.opvars.insert(v);
                }
                other => {
                    return Err(cur.error(&format!(
                        "unknown variable sort `{other}` (expected obj/const/op)"
                    )))
                }
            }
            if !cur.eat(&TokenKind::Comma) {
                break;
            }
        }
        cur.expect(&TokenKind::Semicolon)?;
    }
    if cur.eat_keyword("funvars") {
        loop {
            let f = sym(&cur.ident()?);
            cur.expect(&TokenKind::LParen)?;
            let mut params = Vec::new();
            if *cur.peek() != TokenKind::RParen {
                params.push(sym(&cur.ident()?));
                while cur.eat(&TokenKind::Comma) {
                    params.push(sym(&cur.ident()?));
                }
            }
            cur.expect(&TokenKind::RParen)?;
            decls.funvars.insert(f, params);
            if !cur.eat(&TokenKind::Comma) {
                break;
            }
        }
        cur.expect(&TokenKind::Semicolon)?;
    }

    cur.expect_keyword("lhs")?;
    let lhs = parse_lhs(cur, &mut decls)?;
    cur.expect(&TokenKind::Semicolon)?;

    cur.expect_keyword("rhs")?;
    let rhs = parse_rhs(cur)?;
    cur.expect(&TokenKind::Semicolon)?;

    let mut conditions = Vec::new();
    if cur.eat_keyword("where") {
        conditions = parse_conditions(cur)?;
        cur.expect(&TokenKind::Semicolon)?;
    }

    Ok(Rule {
        name,
        lhs,
        conditions,
        rhs,
    })
}

/// A quoted name (`"select-btree->="`) or dashed identifiers
/// (`ident - ident ...`).
fn rule_name(cur: &mut Cursor) -> Result<String, ParseError> {
    if let TokenKind::Str(s) = cur.peek().clone() {
        cur.next();
        return Ok(s);
    }
    let mut name = cur.ident()?;
    while cur.eat(&TokenKind::Minus) {
        name.push('-');
        name.push_str(&cur.ident()?);
    }
    Ok(name)
}

/// LHS patterns in abstract prefix syntax, each optionally followed by
/// `as <pattern>` when it is a term variable or a funvar application.
fn parse_lhs(cur: &mut Cursor, decls: &mut Decls) -> Result<TermPattern, ParseError> {
    let pat = parse_lhs_term(cur, decls)?;
    if !cur.at_keyword("as") {
        return Ok(pat);
    }
    let misplaced = cur.error("`as` must follow a term variable or a funvar application");
    cur.next();
    match pat {
        TermPattern::Var(v) => Ok(TermPattern::As(v, Box::new(parse_lhs(cur, decls)?))),
        TermPattern::FunApp { fvar, args } => Ok(TermPattern::AsFun {
            fvar,
            args,
            inner: Box::new(parse_lhs(cur, decls)?),
        }),
        _ => Err(misplaced),
    }
}

fn parse_lhs_term(cur: &mut Cursor, decls: &mut Decls) -> Result<TermPattern, ParseError> {
    match cur.peek().clone() {
        TokenKind::Int(v) => {
            cur.next();
            Ok(TermPattern::Const(sos_core::Const::Int(v)))
        }
        TokenKind::Str(s) => {
            cur.next();
            Ok(TermPattern::Const(sos_core::Const::Str(s)))
        }
        TokenKind::Ident(ref s) if s == "fun" => {
            cur.next();
            cur.expect(&TokenKind::LParen)?;
            let mut params = Vec::new();
            if *cur.peek() != TokenKind::RParen {
                params.push(sym(&cur.ident()?));
                while cur.eat(&TokenKind::Comma) {
                    params.push(sym(&cur.ident()?));
                }
            }
            cur.expect(&TokenKind::RParen)?;
            for p in &params {
                decls.params.insert(p.clone());
            }
            let body = parse_lhs(cur, decls)?;
            Ok(TermPattern::Lambda {
                params,
                body: Box::new(body),
            })
        }
        TokenKind::Ident(name) => {
            cur.next();
            let name = sym(&name);
            if cur.eat(&TokenKind::LParen) {
                // funvar application, opvar application, or operator.
                let mut args = Vec::new();
                if *cur.peek() != TokenKind::RParen {
                    args.push(parse_lhs(cur, decls)?);
                    while cur.eat(&TokenKind::Comma) {
                        args.push(parse_lhs(cur, decls)?);
                    }
                }
                cur.expect(&TokenKind::RParen)?;
                if let Some(fparams) = decls.funvars.get(&name) {
                    // Arguments must be exactly the declared parameters.
                    let ok = args.len() == fparams.len()
                        && args.iter().zip(fparams).all(|(a, p)| {
                            matches!(a, TermPattern::Param(q) if q == p)
                                || matches!(a, TermPattern::Var(q) if q == p)
                        });
                    if !ok {
                        return Err(cur.error(&format!(
                            "funvar `{name}` must be applied to its declared parameters"
                        )));
                    }
                    return Ok(TermPattern::FunApp {
                        fvar: name,
                        args: fparams.clone(),
                    });
                }
                let op = if decls.opvars.contains(&name) {
                    OpPat::Var(name)
                } else {
                    OpPat::Exact(name)
                };
                return Ok(TermPattern::Apply { op, args });
            }
            // A bare name: lambda parameter, declared variable, or a
            // plain term variable.
            if decls.params.contains(&name) {
                Ok(TermPattern::Param(name))
            } else if decls.objects.contains(&name) {
                Ok(TermPattern::ObjectVar(name))
            } else if decls.consts.contains(&name) {
                Ok(TermPattern::ConstVar(name))
            } else {
                Ok(TermPattern::Var(name))
            }
        }
        other => {
            // Symbol operators (`=`, `<`, ...) as application heads.
            if let Some(opname) = other.infix_name() {
                let opname = opname.to_string();
                cur.next();
                cur.expect(&TokenKind::LParen)?;
                let mut args = vec![parse_lhs(cur, decls)?];
                while cur.eat(&TokenKind::Comma) {
                    args.push(parse_lhs(cur, decls)?);
                }
                cur.expect(&TokenKind::RParen)?;
                return Ok(TermPattern::Apply {
                    op: OpPat::Exact(sym(&opname)),
                    args,
                });
            }
            Err(cur.error(&format!("unexpected token `{other}` in rule pattern")))
        }
    }
}

/// RHS templates in abstract prefix syntax with `$type` placeholders.
fn parse_rhs(cur: &mut Cursor) -> Result<Expr, ParseError> {
    match cur.peek().clone() {
        TokenKind::Int(v) => {
            cur.next();
            Ok(Expr::int(v))
        }
        TokenKind::Str(s) => {
            cur.next();
            Ok(Expr::Const(sos_core::Const::Str(s)))
        }
        TokenKind::Ident(ref s) if s == "fun" => {
            cur.next();
            cur.expect(&TokenKind::LParen)?;
            let mut params = Vec::new();
            if *cur.peek() != TokenKind::RParen {
                loop {
                    let p = sym(&cur.ident()?);
                    cur.expect(&TokenKind::Colon)?;
                    let ty = parse_template_type(cur)?;
                    params.push((p, ty));
                    if !cur.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            cur.expect(&TokenKind::RParen)?;
            let body = parse_rhs(cur)?;
            Ok(Expr::Lambda {
                params,
                body: Box::new(body),
            })
        }
        TokenKind::Ident(name) => {
            cur.next();
            if cur.eat(&TokenKind::LParen) {
                let mut args = Vec::new();
                if *cur.peek() != TokenKind::RParen {
                    args.push(parse_rhs(cur)?);
                    while cur.eat(&TokenKind::Comma) {
                        args.push(parse_rhs(cur)?);
                    }
                }
                cur.expect(&TokenKind::RParen)?;
                Ok(Expr::Apply {
                    op: sym(&name),
                    args,
                })
            } else {
                Ok(Expr::Name(sym(&name)))
            }
        }
        other => {
            if let Some(opname) = other.infix_name() {
                let opname = opname.to_string();
                cur.next();
                cur.expect(&TokenKind::LParen)?;
                let mut args = vec![parse_rhs(cur)?];
                while cur.eat(&TokenKind::Comma) {
                    args.push(parse_rhs(cur)?);
                }
                cur.expect(&TokenKind::RParen)?;
                return Ok(Expr::Apply {
                    op: sym(&opname),
                    args,
                });
            }
            Err(cur.error(&format!("unexpected token `{other}` in rule template")))
        }
    }
}

/// A template type: `$var` placeholder, `stream($var)`, or a plain type
/// name applied to template types.
fn parse_template_type(cur: &mut Cursor) -> Result<DataType, ParseError> {
    if let TokenKind::DollarIdent(v) = cur.peek().clone() {
        cur.next();
        return Ok(DataType::atom(&format!("${v}")));
    }
    let name = cur.ident()?;
    if cur.eat(&TokenKind::LParen) {
        let mut args = Vec::new();
        args.push(TypeArg::Type(parse_template_type(cur)?));
        while cur.eat(&TokenKind::Comma) {
            args.push(TypeArg::Type(parse_template_type(cur)?));
        }
        cur.expect(&TokenKind::RParen)?;
        return Ok(DataType::Cons(sym(&name), args));
    }
    Ok(DataType::Cons(sym(&name), Vec::new()))
}

/// A comma-separated condition list (the body of a `where` clause).
fn parse_conditions(cur: &mut Cursor) -> Result<Vec<Condition>, ParseError> {
    let mut conditions = vec![parse_condition(cur)?];
    while cur.eat(&TokenKind::Comma) {
        conditions.push(parse_condition(cur)?);
    }
    Ok(conditions)
}

fn parse_condition(cur: &mut Cursor) -> Result<Condition, ParseError> {
    if cur.eat_keyword("not") {
        let inner = parse_condition(cur)?;
        return Ok(Condition::negated(inner));
    }
    let first = cur.ident()?;
    match first.as_str() {
        "rep" => {
            cur.expect(&TokenKind::LParen)?;
            let model = cur.ident()?;
            cur.expect(&TokenKind::Comma)?;
            let rep = cur.ident()?;
            cur.expect(&TokenKind::RParen)?;
            Ok(Condition::catalog_link("rep", &model, &rep))
        }
        // link(catalog, model, repvar) — like rep(...) for any catalog.
        "link" => {
            cur.expect(&TokenKind::LParen)?;
            let cat = cur.ident()?;
            cur.expect(&TokenKind::Comma)?;
            let model = cur.ident()?;
            cur.expect(&TokenKind::Comma)?;
            let rep = cur.ident()?;
            cur.expect(&TokenKind::RParen)?;
            Ok(Condition::catalog_link(&cat, &model, &rep))
        }
        "key" => {
            cur.expect(&TokenKind::LParen)?;
            let rep = cur.ident()?;
            cur.expect(&TokenKind::Comma)?;
            let attr = cur.ident()?;
            cur.expect(&TokenKind::RParen)?;
            Ok(Condition::btree_key_is(&rep, &attr))
        }
        "lsdbbox" => {
            cur.expect(&TokenKind::LParen)?;
            let lsd = cur.ident()?;
            cur.expect(&TokenKind::Comma)?;
            let f = cur.ident()?;
            cur.expect(&TokenKind::RParen)?;
            Ok(Condition::lsd_indexes_bbox_of(&lsd, &f))
        }
        "const" => {
            cur.expect(&TokenKind::LParen)?;
            let v = cur.ident()?;
            cur.expect(&TokenKind::RParen)?;
            Ok(Condition::IsConst(sym(&v)))
        }
        var => {
            // `v : typepattern`
            cur.expect(&TokenKind::Colon)?;
            let pattern = parse_cond_type_pattern(cur)?;
            Ok(Condition::type_is(var, pattern))
        }
    }
}

/// `tp := IDENT | IDENT ( tp, ... )` — binders-by-name as in quantifier
/// patterns.
fn parse_cond_type_pattern(cur: &mut Cursor) -> Result<TypePattern, ParseError> {
    let name = cur.ident()?;
    if cur.eat(&TokenKind::LParen) {
        let mut args = vec![parse_cond_type_pattern(cur)?];
        while cur.eat(&TokenKind::Comma) {
            args.push(parse_cond_type_pattern(cur)?);
        }
        cur.expect(&TokenKind::RParen)?;
        Ok(TypePattern {
            binder: None,
            node: PatternNode::Cons(sym(&name), args),
        })
    } else {
        Ok(TypePattern {
            binder: Some(sym(&name)),
            node: PatternNode::Any,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_select_rule() {
        let rules = parse_rules(
            "rule select-scan:
               vars rel1 obj;
               lhs select(rel1, pred);
               rhs consume(filter(feed(rep1), pred));
               where rep(rel1, rep1);",
        )
        .unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name, "select-scan");
        assert!(matches!(rules[0].lhs, TermPattern::Apply { .. }));
        assert_eq!(rules[0].conditions.len(), 1);
    }

    #[test]
    fn parses_the_section5_rule() {
        let rules = parse_rules(
            "rule join-inside-lsdtree:
               vars rel1 obj, rel2 obj;
               funvars pointf(t1), regionf(t2);
               lhs join(rel1, rel2, fun (t1, t2) inside(pointf(t1), regionf(t2)));
               rhs consume(search_join(feed(rep1),
                     fun (t1: $t1) filter(point_search(lsd2, pointf(t1)),
                       fun (t2: $t2) inside(pointf(t1), regionf(t2)))));
               where rep(rel1, rep1), rep(rel2, lsd2),
                     lsd2 : lsdtree(tuple2, f), lsdbbox(lsd2, regionf);",
        )
        .unwrap();
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.conditions.len(), 4);
        // The lambda in the LHS binds t1/t2, and the funvars became
        // FunApp patterns.
        let shown = format!("{:?}", r.lhs);
        assert!(shown.contains("FunApp"), "{shown}");
    }

    #[test]
    fn parses_key_and_negated_conditions() {
        let rules = parse_rules(
            "rule modify-nonkey:
               vars rel1 obj, a const;
               lhs modify(rel1, pred, a, f);
               rhs modify(b1, filter(feed(b1), pred), fun (s: stream($tuple1)) replace(s, a, f));
               where rel1 : rel(tuple1), rep(rel1, b1), not key(b1, a);",
        )
        .unwrap();
        assert!(matches!(rules[0].conditions[2], Condition::Not(_)));
    }

    #[test]
    fn rejects_misapplied_funvars() {
        let err = parse_rules(
            "rule bad:
               funvars f(t1);
               lhs select(r, fun (t1) f(x));
               rhs r;",
        );
        assert!(err.is_err());
    }

    #[test]
    fn parses_quoted_rule_names() {
        let rules = parse_rules(
            r#"rule "select-btree->=": lhs f(x); rhs x;
               rule "a->b": lhs g(x); rhs x;"#,
        )
        .unwrap();
        assert_eq!(rules[0].name, "select-btree->=");
        assert_eq!(rules[1].name, "a->b");
    }

    #[test]
    fn parses_as_over_a_lambda() {
        let rules = parse_rules(
            "rule r:
               vars rel1 obj, a op, c const;
               lhs select(rel1, pred as fun (t) >=(a(t), c));
               rhs consume(filter(feed(rel1), pred));",
        )
        .unwrap();
        let TermPattern::Apply { args, .. } = &rules[0].lhs else {
            panic!("{:?}", rules[0].lhs)
        };
        assert!(
            matches!(&args[1], TermPattern::As(v, inner)
                if v.as_str() == "pred" && matches!(**inner, TermPattern::Lambda { .. })),
            "{:?}",
            args[1]
        );
    }

    #[test]
    fn parses_as_over_a_funvar_application() {
        let rules = parse_rules(
            "rule r:
               vars rel1 obj, a op, c const;
               funvars cmpf(t), restf(t);
               lhs select(rel1, fun (t) and(cmpf(t) as =(a(t), c), restf(t)));
               rhs rel1;",
        )
        .unwrap();
        let shown = format!("{:?}", rules[0].lhs);
        assert!(shown.contains("AsFun { fvar: `cmpf`"), "{shown}");
    }

    #[test]
    fn rejects_an_or_clause_at_its_token() {
        let src = r#"rule "select-btree-=":
                 vars rel1 obj, a op, c const;
                 lhs select(rel1, pred as fun (t) =(a(t), c));
                 rhs consume(exactmatch(b1, c));
                 where rep(rel1, b1), key(b1, a);
                 or "select-btree-=-scan": consume(filter(feed(rep1), pred))
                   where rep(rel1, rep1);"#;
        let err = parse_rules(src).unwrap_err();
        assert_eq!(err.pos, src.find("or \"").unwrap(), "{err:?}");
    }

    #[test]
    fn rejects_as_after_a_non_funvar_application() {
        let err = parse_rules(
            "rule bad:
               lhs select(r, fun (t) g(t) as =(t, 1));
               rhs r;",
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_an_alternative_before_rhs() {
        let err = parse_rules(
            r#"rule bad:
                 lhs f(x);
                 or "alt": x;
                 rhs x;"#,
        );
        assert!(err.is_err());
    }

    #[test]
    fn multiple_rules_in_one_file() {
        let rules = parse_rules(
            "rule a: lhs f(x); rhs x;
             rule b: lhs g(x); rhs x;",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
    }
}
