//! Signature analyses: L001 (pattern overlap), L002 (unreachable
//! operators, dead constructors), and the spec side of L003
//! (unbound/unused type variables).

use crate::{Anchor, Diagnostic, Severity};
use sos_core::pattern::{PatternNode, SortPattern, TypePattern};
use sos_core::spec::{OpName, OperatorSpec, Quantifier, ResultSpec, TypeConstructorDef};
use sos_core::{Signature, Symbol};
use std::collections::{HashMap, HashSet};

pub(crate) fn lint_signature(sig: &Signature) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_overlap(sig, &mut out);
    lint_reachability(sig, &mut out);
    lint_type_vars(sig, &mut out);
    out
}

fn spec_name(spec: &OperatorSpec) -> String {
    match &spec.name {
        OpName::Fixed(n) => n.to_string(),
        OpName::Var(v) => format!("${v}"),
    }
}

fn spec_loc(idx: usize, spec: &OperatorSpec) -> String {
    format!("op `{}` (spec #{idx})", spec_name(spec))
}

fn cons_loc(def: &TypeConstructorDef) -> String {
    format!("type constructor `{}`", def.name)
}

/// Sorted-by-name view of the constructors, for deterministic reports.
fn sorted_constructors(sig: &Signature) -> Vec<&TypeConstructorDef> {
    let mut defs: Vec<&TypeConstructorDef> = sig.constructors().collect();
    defs.sort_by(|a, b| a.name.cmp(&b.name));
    defs
}

// ---------------------------------------------------------------- L001

/// What a quantifier tells us about a type variable: the kind it ranges
/// over and/or the constructor root its pattern requires.
#[derive(Default, Clone)]
struct VarInfo {
    kind: Option<Symbol>,
    root: Option<Symbol>,
}

type VarMap = HashMap<Symbol, VarInfo>;

fn pattern_root(p: &TypePattern) -> Option<Symbol> {
    match &p.node {
        PatternNode::Cons(n, _) => Some(n.clone()),
        PatternNode::Any => None,
    }
}

fn collect_binder_infos(p: &TypePattern, kind: Option<&Symbol>, m: &mut VarMap) {
    if let Some(b) = &p.binder {
        m.insert(
            b.clone(),
            VarInfo {
                kind: kind.cloned(),
                root: pattern_root(p),
            },
        );
    }
    if let PatternNode::Cons(_, args) = &p.node {
        for a in args {
            collect_binder_infos(a, None, m);
        }
    }
}

fn var_infos(quants: &[Quantifier]) -> VarMap {
    let mut m = VarMap::new();
    for q in quants {
        match q {
            Quantifier::Kind {
                var, pattern, kind, ..
            } => {
                m.insert(
                    var.clone(),
                    VarInfo {
                        kind: Some(kind.clone()),
                        root: pattern.as_ref().and_then(pattern_root),
                    },
                );
                if let Some(p) = pattern {
                    collect_binder_infos(p, Some(kind), &mut m);
                }
            }
            Quantifier::InList { vars, .. } => {
                for v in vars {
                    m.insert(v.clone(), VarInfo::default());
                }
            }
        }
    }
    m
}

fn kinds_intersect(k1: &Symbol, k2: &Symbol, sig: &Signature) -> bool {
    k1 == k2
        || sig
            .constructors()
            .any(|c| sig.constructor_in_kind(&c.name, k1) && sig.constructor_in_kind(&c.name, k2))
}

fn cons_fits(info: &VarInfo, cons: &Symbol, sig: &Signature) -> bool {
    if let Some(r) = &info.root {
        return r == cons;
    }
    if let Some(k) = &info.kind {
        return sig.constructor_in_kind(cons, k);
    }
    true
}

fn vars_compatible(a: &VarInfo, b: &VarInfo, sig: &Signature) -> bool {
    match (&a.root, &b.root) {
        (Some(r1), Some(r2)) => r1 == r2,
        (Some(r), None) => b
            .kind
            .as_ref()
            .is_none_or(|k| sig.constructor_in_kind(r, k)),
        (None, Some(r)) => a
            .kind
            .as_ref()
            .is_none_or(|k| sig.constructor_in_kind(r, k)),
        (None, None) => match (&a.kind, &b.kind) {
            (Some(k1), Some(k2)) => kinds_intersect(k1, k2, sig),
            _ => true,
        },
    }
}

fn var_overlaps(info: Option<&VarInfo>, other: &SortPattern, vo: &VarMap, sig: &Signature) -> bool {
    let Some(info) = info else {
        // Nothing known about the variable: it may match anything.
        return true;
    };
    match other {
        SortPattern::Var(y) => match vo.get(y) {
            Some(o) => vars_compatible(info, o, sig),
            None => true,
        },
        SortPattern::Cons(n, _) => cons_fits(info, n, sig),
        SortPattern::Kind(k) => {
            if let Some(r) = &info.root {
                return sig.constructor_in_kind(r, k);
            }
            if let Some(ik) = &info.kind {
                return kinds_intersect(ik, k, sig);
            }
            true
        }
        SortPattern::Union(items) => items.iter().any(|i| var_overlaps(Some(info), i, vo, sig)),
        // A kind-quantified variable ranges over proper types; the
        // extended sorts (lists, products, functions) are not members of
        // any kind, so a constrained variable cannot match them.
        SortPattern::List(_) | SortPattern::Product(_) | SortPattern::Fun(..) => {
            info.kind.is_none() && info.root.is_none()
        }
    }
}

/// Conservative unification: can some ground type satisfy both patterns?
/// `true` means "may overlap" — false positives are possible for exotic
/// cross-variable constraints, false negatives are not.
fn may_overlap(
    a: &SortPattern,
    b: &SortPattern,
    va: &VarMap,
    vb: &VarMap,
    sig: &Signature,
) -> bool {
    match (a, b) {
        (SortPattern::Union(items), _) => items.iter().any(|i| may_overlap(i, b, va, vb, sig)),
        (_, SortPattern::Union(items)) => items.iter().any(|i| may_overlap(a, i, va, vb, sig)),
        (SortPattern::Var(x), _) => var_overlaps(va.get(x), b, vb, sig),
        (_, SortPattern::Var(y)) => var_overlaps(vb.get(y), a, va, sig),
        (SortPattern::Kind(k), SortPattern::Cons(n, _)) => sig.constructor_in_kind(n, k),
        (SortPattern::Cons(n, _), SortPattern::Kind(k)) => sig.constructor_in_kind(n, k),
        (SortPattern::Kind(k1), SortPattern::Kind(k2)) => kinds_intersect(k1, k2, sig),
        (SortPattern::Kind(_), _) | (_, SortPattern::Kind(_)) => false,
        (SortPattern::Cons(n1, a1), SortPattern::Cons(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1
                    .iter()
                    .zip(a2)
                    .all(|(x, y)| may_overlap(x, y, va, vb, sig))
        }
        (SortPattern::List(x), SortPattern::List(y)) => may_overlap(x, y, va, vb, sig),
        (SortPattern::Product(xs), SortPattern::Product(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| may_overlap(x, y, va, vb, sig))
        }
        (SortPattern::Fun(p1, r1), SortPattern::Fun(p2, r2)) => {
            p1.len() == p2.len()
                && p1
                    .iter()
                    .zip(p2)
                    .all(|(x, y)| may_overlap(x, y, va, vb, sig))
                && may_overlap(r1, r2, va, vb, sig)
        }
        _ => false,
    }
}

fn args_str(spec: &OperatorSpec) -> String {
    if spec.args.is_empty() {
        return "()".to_string();
    }
    spec.args
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(" x ")
}

fn lint_overlap(sig: &Signature, out: &mut Vec<Diagnostic>) {
    for name in sig.op_names() {
        let idxs: Vec<usize> = sig
            .candidates(&name)
            .into_iter()
            .filter(|&i| matches!(&sig.spec(i).name, OpName::Fixed(n) if n == &name))
            .collect();
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                let (si, sj) = (sig.spec(i), sig.spec(j));
                if si.args.len() != sj.args.len() {
                    continue;
                }
                let va = var_infos(&si.quantifiers);
                let vb = var_infos(&sj.quantifiers);
                let overlap = si
                    .args
                    .iter()
                    .zip(&sj.args)
                    .all(|(x, y)| may_overlap(x, y, &va, &vb, sig));
                if overlap {
                    out.push(
                        Diagnostic::new(
                            "L001",
                            Severity::Warning,
                            Anchor::Spec(j),
                            format!("op `{name}`"),
                            format!(
                                "specs #{i} and #{j} have unifiable argument patterns \
                                 (`{}` vs `{}`); dispatch resolves the ambiguity by \
                                 declaration order",
                                args_str(si),
                                args_str(sj)
                            ),
                        )
                        .suggest(
                            "make the argument sorts disjoint (different constructors \
                             or disjoint kinds) or merge the alternatives",
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L002

#[derive(Default)]
struct Unknowns {
    cons: Vec<Symbol>,
    kinds: Vec<Symbol>,
}

fn scan_sort(p: &SortPattern, sig: &Signature, u: &mut Unknowns) {
    match p {
        SortPattern::Var(_) => {}
        SortPattern::Cons(n, args) => {
            if sig.constructor(n).is_none() {
                u.cons.push(n.clone());
            }
            for a in args {
                scan_sort(a, sig, u);
            }
        }
        SortPattern::Kind(k) => {
            if !sig.has_kind(k) {
                u.kinds.push(k.clone());
            }
        }
        SortPattern::List(el) => scan_sort(el, sig, u),
        SortPattern::Product(items) | SortPattern::Union(items) => {
            for a in items {
                scan_sort(a, sig, u);
            }
        }
        SortPattern::Fun(params, res) => {
            for a in params {
                scan_sort(a, sig, u);
            }
            scan_sort(res, sig, u);
        }
    }
}

fn scan_type_pattern(p: &TypePattern, sig: &Signature, u: &mut Unknowns) {
    if let PatternNode::Cons(n, args) = &p.node {
        if sig.constructor(n).is_none() {
            u.cons.push(n.clone());
        }
        for a in args {
            scan_type_pattern(a, sig, u);
        }
    }
}

/// A kind is inhabited if a declared constructor lives in it, or if some
/// operator's type-operator result (`-> s : KIND`) mints types into it:
/// a spec may declare a stream kind that no constructor produces and
/// only such an operator's result inhabits.
fn kind_inhabited(kind: &Symbol, sig: &Signature) -> bool {
    sig.constructors()
        .any(|c| sig.constructor_in_kind(&c.name, kind))
        || sig
            .specs()
            .iter()
            .any(|s| matches!(&s.result, ResultSpec::TypeOperator { kind: k, .. } if k == kind))
}

/// Emit the L002 findings for one declaration's collected unknowns and
/// quantifiers.
fn report_decl_reachability(
    sig: &Signature,
    anchor: &Anchor,
    loc: &str,
    quants: &[Quantifier],
    mut u: Unknowns,
    out: &mut Vec<Diagnostic>,
) {
    for q in quants {
        if let Quantifier::Kind { kind, .. } = q {
            if !sig.has_kind(kind) {
                out.push(
                    Diagnostic::new(
                        "L002",
                        Severity::Error,
                        anchor.clone(),
                        loc.to_string(),
                        format!("quantifies over undeclared kind `{kind}`"),
                    )
                    .suggest(format!(
                        "declare `{kind}` in a kinds section or fix the spelling"
                    )),
                );
            } else if !kind_inhabited(kind, sig) {
                out.push(
                    Diagnostic::new(
                        "L002",
                        Severity::Error,
                        anchor.clone(),
                        loc.to_string(),
                        format!(
                            "quantifies over kind `{kind}`, which no declared constructor \
                             or type-operator result inhabits; no ground type can ever \
                             instantiate it"
                        ),
                    )
                    .suggest(format!(
                        "declare a constructor of kind `{kind}` or remove the declaration"
                    )),
                );
            }
        }
    }
    u.cons.sort();
    u.cons.dedup();
    for c in u.cons {
        out.push(
            Diagnostic::new(
                "L002",
                Severity::Error,
                anchor.clone(),
                loc.to_string(),
                format!("references undeclared type constructor `{c}`; no ground type can match"),
            )
            .suggest(format!(
                "declare `{c}` in a type constructors section or fix the spelling"
            )),
        );
    }
    u.kinds.sort();
    u.kinds.dedup();
    for k in u.kinds {
        out.push(
            Diagnostic::new(
                "L002",
                Severity::Error,
                anchor.clone(),
                loc.to_string(),
                format!("references undeclared kind `{k}`"),
            )
            .suggest(format!(
                "declare `{k}` in a kinds section or fix the spelling"
            )),
        );
    }
}

fn lint_reachability(sig: &Signature, out: &mut Vec<Diagnostic>) {
    // (a) per-declaration: undeclared constructors/kinds, uninhabited
    // quantifier kinds — each makes the declaration unmatchable.
    for (idx, spec) in sig.specs().iter().enumerate() {
        let mut u = Unknowns::default();
        for a in &spec.args {
            scan_sort(a, sig, &mut u);
        }
        match &spec.result {
            ResultSpec::Pattern(p) => scan_sort(p, sig, &mut u),
            ResultSpec::TypeOperator { kind, .. } => {
                if !sig.has_kind(kind) {
                    u.kinds.push(kind.clone());
                }
            }
        }
        for q in &spec.quantifiers {
            if let Quantifier::Kind {
                pattern: Some(p), ..
            } = q
            {
                scan_type_pattern(p, sig, &mut u);
            }
        }
        report_decl_reachability(
            sig,
            &Anchor::Spec(idx),
            &spec_loc(idx, spec),
            &spec.quantifiers,
            u,
            out,
        );
    }
    for def in sorted_constructors(sig) {
        let mut u = Unknowns::default();
        for a in &def.args {
            scan_sort(a, sig, &mut u);
        }
        for q in &def.quantifiers {
            if let Quantifier::Kind {
                pattern: Some(p), ..
            } = q
            {
                scan_type_pattern(p, sig, &mut u);
            }
        }
        if !sig.has_kind(&def.kind) {
            u.kinds.push(def.kind.clone());
        }
        report_decl_reachability(
            sig,
            &Anchor::Constructor(def.name.clone()),
            &cons_loc(def),
            &def.quantifiers,
            u,
            out,
        );
    }
    for (idx, st) in sig.subtypes().iter().enumerate() {
        let mut u = Unknowns::default();
        scan_type_pattern(&st.sub, sig, &mut u);
        scan_sort(&st.sup, sig, &mut u);
        report_decl_reachability(
            sig,
            &Anchor::Subtype(idx),
            &format!("subtype rule #{idx} (`{} < {}`)", st.sub, st.sup),
            &[],
            u,
            out,
        );
    }

    // (b) dead constructors: reachable from no operator signature,
    // constructor argument, subtype rule, or quantified kind.
    let mut used_cons: HashSet<Symbol> = HashSet::new();
    let mut used_kinds: HashSet<Symbol> = HashSet::new();
    let use_sort = |p: &SortPattern, uc: &mut HashSet<Symbol>, uk: &mut HashSet<Symbol>| {
        let mut stack = vec![p];
        while let Some(p) = stack.pop() {
            match p {
                SortPattern::Var(_) => {}
                SortPattern::Cons(n, args) => {
                    uc.insert(n.clone());
                    stack.extend(args.iter());
                }
                SortPattern::Kind(k) => {
                    uk.insert(k.clone());
                }
                SortPattern::List(el) => stack.push(el),
                SortPattern::Product(items) | SortPattern::Union(items) => {
                    stack.extend(items.iter())
                }
                SortPattern::Fun(params, res) => {
                    stack.extend(params.iter());
                    stack.push(res);
                }
            }
        }
    };
    fn use_type_pattern(p: &TypePattern, uc: &mut HashSet<Symbol>) {
        if let PatternNode::Cons(n, args) = &p.node {
            uc.insert(n.clone());
            for a in args {
                use_type_pattern(a, uc);
            }
        }
    }
    let use_quants = |qs: &[Quantifier], uc: &mut HashSet<Symbol>, uk: &mut HashSet<Symbol>| {
        for q in qs {
            if let Quantifier::Kind { pattern, kind, .. } = q {
                uk.insert(kind.clone());
                if let Some(p) = pattern {
                    use_type_pattern(p, uc);
                }
            }
        }
    };
    for spec in sig.specs() {
        for a in &spec.args {
            use_sort(a, &mut used_cons, &mut used_kinds);
        }
        match &spec.result {
            ResultSpec::Pattern(p) => use_sort(p, &mut used_cons, &mut used_kinds),
            ResultSpec::TypeOperator { kind, .. } => {
                used_kinds.insert(kind.clone());
            }
        }
        use_quants(&spec.quantifiers, &mut used_cons, &mut used_kinds);
    }
    for def in sig.constructors() {
        for a in &def.args {
            use_sort(a, &mut used_cons, &mut used_kinds);
        }
        use_quants(&def.quantifiers, &mut used_cons, &mut used_kinds);
    }
    for st in sig.subtypes() {
        use_type_pattern(&st.sub, &mut used_cons);
        use_sort(&st.sup, &mut used_cons, &mut used_kinds);
    }
    for def in sorted_constructors(sig) {
        if used_cons.contains(&def.name) {
            continue;
        }
        if used_kinds
            .iter()
            .any(|k| sig.constructor_in_kind(&def.name, k))
        {
            continue;
        }
        out.push(
            Diagnostic::new(
                "L002",
                Severity::Warning,
                Anchor::Constructor(def.name.clone()),
                cons_loc(def),
                "is dead: no operator signature, constructor argument, subtype rule, \
                 or quantified kind can ever reach it"
                    .to_string(),
            )
            .suggest("remove it, or add an operator that produces or consumes it"),
        );
    }
}

// ----------------------------------------------------------- L003/spec

/// Variables a quantifier binds.
fn quant_bound(q: &Quantifier) -> Vec<Symbol> {
    match q {
        Quantifier::Kind { var, pattern, .. } => {
            let mut vs = vec![var.clone()];
            if let Some(p) = pattern {
                p.vars(&mut vs);
            }
            vs
        }
        Quantifier::InList { vars, .. } => vars.clone(),
    }
}

/// Shared L003 logic for operator specs and constructor definitions:
/// `args`/`result_vars` are the referenced variables, `skip_unused`
/// suppresses the unused-quantifier warning (type-operator results may
/// consume any binding from inside their Δ function).
#[allow(clippy::too_many_arguments)]
fn check_decl_vars(
    anchor: &Anchor,
    loc: &str,
    quants: &[Quantifier],
    refs: &[Symbol],
    extra_used: &[Symbol],
    skip_unused: bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut bound: HashSet<Symbol> = HashSet::new();
    for q in quants {
        bound.extend(quant_bound(q));
    }
    let list_refs: Vec<Symbol> = quants
        .iter()
        .filter_map(|q| match q {
            Quantifier::InList { list, .. } => Some(list.clone()),
            _ => None,
        })
        .collect();

    let mut unbound: Vec<&Symbol> = refs.iter().filter(|v| !bound.contains(*v)).collect();
    unbound.sort();
    unbound.dedup();
    for v in unbound {
        out.push(
            Diagnostic::new(
                "L003",
                Severity::Error,
                anchor.clone(),
                loc.to_string(),
                format!("type variable `{v}` is not bound by any quantifier"),
            )
            .suggest(format!("add `forall {v} in <KIND>` or fix the name")),
        );
    }
    for l in &list_refs {
        if !bound.contains(l) {
            out.push(
                Diagnostic::new(
                    "L003",
                    Severity::Error,
                    anchor.clone(),
                    loc.to_string(),
                    format!("list quantifier ranges over `{l}`, which no pattern binds"),
                )
                .suggest(format!(
                    "bind `{l}` in an earlier quantifier pattern (e.g. `tuple: tuple({l})`)"
                )),
            );
        }
    }

    if skip_unused {
        return;
    }
    let mut used: HashSet<Symbol> = refs.iter().cloned().collect();
    used.extend(list_refs);
    used.extend(extra_used.iter().cloned());
    // A variable bound by two quantifiers is a cross-quantifier
    // constraint (`forall dtype in NUM . forall (a, dtype) in list`
    // restricts the attribute's type to NUM), not an unused binding.
    let mut seen: HashSet<Symbol> = HashSet::new();
    for q in quants {
        for v in quant_bound(q) {
            if !seen.insert(v.clone()) {
                used.insert(v);
            }
        }
    }
    for q in quants {
        let qb = quant_bound(q);
        if qb.iter().all(|v| !used.contains(v)) {
            out.push(
                Diagnostic::new(
                    "L003",
                    Severity::Warning,
                    anchor.clone(),
                    loc.to_string(),
                    format!("quantifier `{q:?}` binds no variable the declaration uses"),
                )
                .suggest("remove the quantifier, or use one of its variables"),
            );
        }
    }
}

fn lint_type_vars(sig: &Signature, out: &mut Vec<Diagnostic>) {
    for (idx, spec) in sig.specs().iter().enumerate() {
        let mut refs = Vec::new();
        for a in &spec.args {
            a.vars(&mut refs);
        }
        let skip_unused = match &spec.result {
            ResultSpec::Pattern(p) => {
                p.vars(&mut refs);
                false
            }
            ResultSpec::TypeOperator { .. } => true,
        };
        let extra_used: Vec<Symbol> = match &spec.name {
            OpName::Var(v) => vec![v.clone()],
            OpName::Fixed(_) => vec![],
        };
        check_decl_vars(
            &Anchor::Spec(idx),
            &spec_loc(idx, spec),
            &spec.quantifiers,
            &refs,
            &extra_used,
            skip_unused,
            out,
        );
    }
    for def in sorted_constructors(sig) {
        let mut refs = Vec::new();
        for a in &def.args {
            a.vars(&mut refs);
        }
        check_decl_vars(
            &Anchor::Constructor(def.name.clone()),
            &cons_loc(def),
            &def.quantifiers,
            &refs,
            &[],
            false,
            out,
        );
    }
    for (idx, st) in sig.subtypes().iter().enumerate() {
        let mut sub_binders = Vec::new();
        st.sub.vars(&mut sub_binders);
        let mut sup_vars = Vec::new();
        st.sup.vars(&mut sup_vars);
        sup_vars.sort();
        sup_vars.dedup();
        for v in sup_vars {
            if !sub_binders.contains(&v) {
                out.push(
                    Diagnostic::new(
                        "L003",
                        Severity::Error,
                        Anchor::Subtype(idx),
                        format!("subtype rule #{idx} (`{} < {}`)", st.sub, st.sup),
                        format!(
                            "supertype side references `{v}`, which the subtype pattern \
                             does not bind"
                        ),
                    )
                    .suggest(format!("bind `{v}` in the subtype pattern")),
                );
            }
        }
    }
}
