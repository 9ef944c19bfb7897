//! Golden-file tests for the `sos-lint` static analyzer.
//!
//! Each broken fixture under `tests/lint_fixtures/` exercises one
//! diagnostic code (L001..L007); its rendered report is pinned
//! byte-for-byte under `tests/golden/lint/`. The `clean/` corpus and
//! the built-in signature/rule set are negative tests: they must lint
//! with no diagnostics at all.
//!
//! Regenerate after an intentional wording change with
//! `UPDATE_GOLDEN=1 cargo test --test lint_golden`.

use sos_system::{Database, SystemError};
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn assert_golden(name: &str, actual: &str) {
    let path = repo_path("tests/golden/lint").join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "lint output diverged from {} (run with UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}

/// Lint one fixture the way `sos lint <file>` does and return the
/// report plus the diagnostics themselves.
fn lint_fixture(file: &str) -> (Vec<sos_lint::Diagnostic>, String) {
    let path = repo_path("tests/lint_fixtures").join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let diags =
        Database::lint_source(file, &src).unwrap_or_else(|e| panic!("{file} failed to parse: {e}"));
    let report = sos_lint::render_human(&diags);
    (diags, report)
}

/// Every broken fixture produces exactly its own code, pinned
/// byte-for-byte against a golden report.
#[test]
fn broken_fixtures_match_goldens() {
    let cases = [
        ("l001_overlap.spec", "L001"),
        ("l002_unreachable.spec", "L002"),
        ("l003_unused.spec", "L003"),
        ("l003_rhs_unbound.rules", "L003"),
        ("l004_loop.rules", "L004"),
        ("l005_unbound_condition.rules", "L005"),
        ("l006_type_breaking.rules", "L006"),
        ("l007_unsuppliable_condition.rules", "L007"),
    ];
    for (file, code) in cases {
        let (diags, report) = lint_fixture(file);
        assert!(
            !diags.is_empty(),
            "{file} should produce diagnostics, got none"
        );
        assert!(
            diags.iter().all(|d| d.code == code),
            "{file} should only produce {code}, got:\n{report}"
        );
        assert_golden(&format!("{file}.txt"), &report);
    }
}

/// Spec-side diagnostics carry 1-based source lines mapped through the
/// parser's span table; the JSON rendering (via the sos-obs writer) is
/// pinned too.
#[test]
fn spec_diagnostics_have_lines_and_json_is_stable() {
    let (diags, _) = lint_fixture("l002_unreachable.spec");
    assert!(
        diags.iter().all(|d| d.line.is_some()),
        "every spec finding should have a line: {diags:?}"
    );
    assert_golden("l002_unreachable.spec.json", &sos_lint::render_json(&diags));
}

/// The paper-derived corpus — the clean fixtures and the built-in
/// signature and rule set — lints with zero diagnostics.
#[test]
fn clean_corpus_and_builtins_lint_clean() {
    for file in [
        "clean/nested_rel.spec",
        "clean/partitioned.spec",
        "clean/select_rules.rules",
        "clean/spatial_join.rules",
    ] {
        let (diags, report) = lint_fixture(file);
        assert!(diags.is_empty(), "{file} should lint clean, got:\n{report}");
    }
    let sig = sos_system::builtin::builtin_signature();
    let opt = sos_system::rules::builtin_optimizer();
    let diags = sos_lint::lint_all(&sig, &opt);
    assert!(
        diags.is_empty(),
        "builtins should lint clean, got:\n{}",
        sos_lint::render_human(&diags)
    );
}

/// `strict_lint(true)` rejects registration of specs and rule sets with
/// error-severity findings, and accepts clean ones; warnings never
/// reject.
#[test]
fn strict_lint_gates_registration() {
    let mut db = Database::builder().strict_lint(true).build();

    let broken_spec =
        std::fs::read_to_string(repo_path("tests/lint_fixtures/l002_unreachable.spec")).unwrap();
    let err = db.load_spec(&broken_spec).unwrap_err();
    match &err {
        SystemError::Lint(diags) => {
            assert!(diags.iter().all(|d| d.code == "L002"), "{diags:?}");
            assert!(err.to_string().contains("rejected by strict lint"));
        }
        other => panic!("expected SystemError::Lint, got {other}"),
    }
    // The rejected spec left no trace: the same database still accepts
    // a clean extension.
    let clean_spec =
        std::fs::read_to_string(repo_path("tests/lint_fixtures/clean/nested_rel.spec")).unwrap();
    db.load_spec(&clean_spec).unwrap();

    let looping =
        std::fs::read_to_string(repo_path("tests/lint_fixtures/l004_loop.rules")).unwrap();
    let err = db.load_rules("swap", &looping).unwrap_err();
    assert!(matches!(&err, SystemError::Lint(diags) if diags[0].code == "L004"));
    let clean_rules =
        std::fs::read_to_string(repo_path("tests/lint_fixtures/clean/select_rules.rules")).unwrap();
    db.load_rules("select", &clean_rules).unwrap();

    // A warning-only spec (unused quantifier) is accepted: strict mode
    // only rejects on error severity.
    let mut db2 = Database::builder().strict_lint(true).build();
    db2.load_spec("op bulk : forall r in REL . forall d in DATA . r -> int")
        .unwrap();
}

/// `Database::lint` checks the signature against the engine's operator
/// table: a declared operator without an implementation is an L009
/// warning until one is registered, and the built-in signature is fully
/// implemented.
#[test]
fn declared_operator_without_implementation_is_l009() {
    let mut db = Database::builder().build();
    let l009 = |db: &Database| -> Vec<String> {
        db.lint()
            .iter()
            .filter(|d| d.code == "L009")
            .map(|d| d.to_string())
            .collect()
    };
    assert!(l009(&db).is_empty());
    let spec = db.signature().specs().len();
    db.load_spec(r##"op triple : int -> int syntax "_ #""##)
        .unwrap();
    assert_eq!(
        l009(&db),
        vec![format!(
            "warning[L009] op `triple` (spec #{spec}): operator has no implementation\n    \
             help: register one with `Database::add_op_impl`"
        )]
    );
    db.add_op_impl("triple", |_, _, args| {
        Ok(sos_exec::Value::Int(args[0].as_int("triple")? * 3))
    })
    .unwrap();
    assert!(l009(&db).is_empty());
}

/// The shipped example program runs end to end on a strict-lint
/// database: the built-in pipeline itself is lint-clean.
#[test]
fn cities_program_runs_under_strict_lint() {
    let mut db = Database::builder().strict_lint(true).build();
    assert!(!sos_lint::has_errors(&db.lint()));
    let src = std::fs::read_to_string(repo_path("examples/programs/cities.sos")).unwrap();
    let outputs = db.run(&src).unwrap();
    assert!(!outputs.is_empty());
}
