//! The rule fuzzer: differential testing of rewrite rules on live data.
//!
//! The static verifier (`sos_optimizer::synth`, surfaced as lint L006)
//! proves that a rule preserves plan *types*; this module closes the
//! loop on plan *semantics*. For every rule it synthesizes well-typed
//! plan fragments matching the rule's LHS against the canonical fuzz
//! scenario, installs the scenario's objects into a real database,
//! seeds them with deterministic pseudo-random rows (every model
//! relation and its representation objects hold the same bag), and then
//! executes each witness twice — once as written and once after firing
//! the rule — asserting the two results are equal as bags.
//!
//! Update-shaped witnesses (`modify`, `insert`, …) are skipped rather
//! than executed: evaluating both sides would apply the update twice to
//! the shared storage. They are counted in
//! [`FuzzReport::skipped_updates`] so a report says what was not
//! covered.
//!
//! Everything is deterministic — the row generator is a seeded
//! xorshift, witness enumeration is ordered — so a CI run with a fixed
//! seed is reproducible.

use crate::{Database, SystemError};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, DataType, Symbol};
use sos_exec::{EvalCtx, Value};
use sos_geom::{Point, Polygon};
use sos_optimizer::synth::{self, Scenario};
use sos_optimizer::{Optimizer, RuleStep, Strategy};

/// Fuzzer parameters. The defaults are what CI runs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed for the row generator.
    pub seed: u64,
    /// Rows per model relation (mirrored into every representation).
    pub rows: usize,
    /// Witnesses enumerated per rule.
    pub witnesses_per_rule: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0x05ee_d505,
            rows: 24,
            witnesses_per_rule: synth::DEFAULT_WITNESSES,
        }
    }
}

/// One semantics violation: a witness whose result changed when the
/// rule fired.
#[derive(Debug, Clone)]
pub struct FuzzMismatch {
    pub step: String,
    pub rule: String,
    /// The witness plan, as written.
    pub witness: String,
    /// The rewritten plan.
    pub rewritten: String,
    /// Sorted bag rendering of the witness's result.
    pub expected: Vec<String>,
    /// Sorted bag rendering of the rewritten plan's result.
    pub actual: Vec<String>,
}

impl std::fmt::Display for FuzzMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rule `{}/{}` changed the result of `{}` (rewritten to `{}`): \
             expected {} row(s), got {}",
            self.step,
            self.rule,
            self.witness,
            self.rewritten,
            self.expected.len(),
            self.actual.len()
        )
    }
}

/// The outcome of one fuzzer run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Rules examined.
    pub rules: usize,
    /// Rules that fired on at least one executed witness.
    pub rules_fired: usize,
    /// Witnesses executed before/after (both sides evaluated).
    pub witnesses_run: usize,
    /// Update-shaped witnesses skipped (see module docs).
    pub skipped_updates: usize,
    /// Semantics violations found.
    pub mismatches: Vec<FuzzMismatch>,
}

impl FuzzReport {
    /// No rule changed any witness's result.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A pseudo-random value of an attribute type. Integers stay in a small
/// range so the synthesized predicates (`k = 7`, `k < 7`, …) select
/// non-trivial subsets; the string pool includes `"x"`, the literal the
/// witness generator uses.
fn attr_value(ty: &DataType, rng: &mut Rng) -> Option<Value> {
    match ty.cons_name()?.as_str() {
        "int" => Some(Value::Int(rng.below(16) as i64)),
        "string" => {
            let pool = ["x", "alpha", "beta", "gamma"];
            Some(Value::Str(pool[rng.below(4) as usize].into()))
        }
        "bool" => Some(Value::Bool(rng.below(2) == 0)),
        "point" => Some(Value::Point(Point::new(
            rng.below(10) as f64,
            rng.below(10) as f64,
        ))),
        "pgon" => {
            // A small axis-aligned triangle at a random offset.
            let (x, y) = (rng.below(8) as f64, rng.below(8) as f64);
            Some(Value::Pgon(Polygon::new(vec![
                Point::new(x, y),
                Point::new(x + 2.0, y),
                Point::new(x, y + 2.0),
            ])))
        }
        _ => None,
    }
}

/// Deterministic rows for one model tuple type.
fn seed_rows(tuple_ty: &DataType, rows: usize, rng: &mut Rng) -> Option<Vec<Value>> {
    let attrs = tuple_ty.tuple_attrs()?;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let fields: Option<Vec<Value>> = attrs.iter().map(|(_, t)| attr_value(t, rng)).collect();
        out.push(Value::tuple(fields?));
    }
    Some(out)
}

/// Build a database holding the fuzz scenario: the canonical object set
/// of `sos_optimizer::synth` installed for real, every model relation
/// and its linked representations seeded with the same deterministic
/// rows. The optimizer is off — the fuzzer fires rules one at a time
/// itself.
fn scenario_database(cfg: &FuzzConfig) -> Result<Database, SystemError> {
    let mut db = Database::builder().optimize(false).build();
    let (objects, links) = synth::object_defs();
    for (name, ty) in &objects {
        db.catalog
            .create_object(&db.sig, name.clone(), ty.clone())?;
        // Mirror `Statement::Create`: catalog objects are addressed by
        // name, everything else starts from its representation's init
        // value.
        let value = if matches!(ty, DataType::Cons(c, _) if c.as_str() == "catalog") {
            Value::Ident(name.clone())
        } else {
            db.engine.init_value(&db.sig, &db.catalog, ty)?
        };
        db.store.insert(name.clone(), value);
    }
    for (model, rep) in &links {
        db.catalog.catalog_insert(
            &Symbol::new("rep"),
            vec![Const::Ident(model.clone()), Const::Ident(rep.clone())],
        )?;
    }
    let mut rng = Rng::new(cfg.seed);
    for (name, ty) in &objects {
        if !matches!(ty, DataType::Cons(c, _) if c.as_str() == "rel") {
            continue;
        }
        let Some(tuple_ty) = ty.single_type_arg() else {
            continue;
        };
        let Some(rows) = seed_rows(tuple_ty, cfg.rows, &mut rng) else {
            continue;
        };
        // The model and each linked representation hold the same bag, as
        // a translated plan assumes.
        db.bulk_load(name.as_str(), rows.clone())?;
        for rep in db.catalog.linked(&Symbol::new("rep"), name) {
            db.bulk_load(rep.as_str(), rows.clone())?;
        }
    }
    Ok(db)
}

/// Evaluate a checked plan against the database, materializing any
/// pipelined cursor (queries are pure; the store is unchanged).
fn eval(db: &mut Database, t: &TypedExpr) -> Result<Value, SystemError> {
    let mut ctx = EvalCtx::new(&db.engine, &mut db.store, &mut db.catalog);
    let v = ctx.eval(t)?;
    match v {
        Value::Cursor(_) => Ok(Value::Stream(sos_exec::stream::materialize(&mut ctx, v)?)),
        other => Ok(other),
    }
}

/// A result value as a sorted bag of rendered rows (scalar results are
/// one-element bags). Sorting makes the comparison order-insensitive —
/// the paper's relations are bags, and a hash join is free to reorder.
fn bag(v: &Value) -> Vec<String> {
    match v {
        Value::Rel(ts) | Value::Stream(ts) | Value::List(ts) => {
            let mut out: Vec<String> = ts.iter().map(|t| format!("{t:?}")).collect();
            out.sort();
            out
        }
        other => vec![format!("{other:?}")],
    }
}

/// Whether a witness is an update (its root operator has an `update`
/// spec): executing those would mutate storage, so the fuzzer skips
/// them.
fn is_update(db: &Database, t: &TypedExpr) -> bool {
    match &t.node {
        TypedNode::Apply { spec, .. } => db.sig.spec(*spec).is_update,
        _ => false,
    }
}

/// Fuzz every rule of `opt` against the canonical scenario.
pub fn fuzz_optimizer(opt: &Optimizer, cfg: &FuzzConfig) -> Result<FuzzReport, SystemError> {
    let mut db = scenario_database(cfg)?;
    let scenario = Scenario::build(&db.sig);
    let mut report = FuzzReport::default();
    for step in &opt.steps {
        for rule in &step.rules {
            report.rules += 1;
            let ws = synth::witnesses(&db.sig, &scenario, rule, cfg.witnesses_per_rule);
            let one = Optimizer::new(vec![RuleStep {
                name: step.name.clone(),
                rules: vec![rule.clone()],
                strategy: Strategy::OnceTopDown,
                budget: 8,
            }]);
            let mut fired = false;
            for w in &ws {
                if is_update(&db, w) {
                    report.skipped_updates += 1;
                    continue;
                }
                let checker = sos_core::check::Checker::new(&db.sig, &db.catalog);
                let rewritten = match one.optimize(w, &checker, &db.catalog, true) {
                    // An ill-typed rewrite is the type verifier's
                    // finding (L006), not a semantics mismatch.
                    Err(_) => continue,
                    Ok((_, _, trace)) if trace.is_empty() => continue,
                    Ok((r, _, _)) => r,
                };
                fired = true;
                let expected = bag(&eval(&mut db, w)?);
                let actual = bag(&eval(&mut db, &rewritten)?);
                report.witnesses_run += 1;
                if expected != actual {
                    report.mismatches.push(FuzzMismatch {
                        step: step.name.clone(),
                        rule: rule.name.clone(),
                        witness: w.to_string(),
                        rewritten: rewritten.to_string(),
                        expected,
                        actual,
                    });
                }
            }
            if fired {
                report.rules_fired += 1;
            }
        }
    }
    Ok(report)
}

/// Fuzz the built-in rule set — the CI `verify-rules` entry point.
pub fn fuzz_builtin_rules(cfg: &FuzzConfig) -> Result<FuzzReport, SystemError> {
    fuzz_optimizer(&crate::rules::builtin_optimizer(), cfg)
}
