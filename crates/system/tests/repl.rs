//! End-to-end test of the `sos` shell binary through its stdin/stdout
//! contract.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_shell(input: &str) -> String {
    run_shell_with(&[], input)
}

fn run_shell_with(args: &[&str], input: &str) -> String {
    let exe = env!("CARGO_BIN_EXE_sos");
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exit status");
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn shell_runs_a_program_and_meta_commands() {
    let out = run_shell(
        "type t = tuple(<(a, int)>);\n\
         create r : rel(t);\n\
         update r := insert(r, mktuple[(a, 41)]);\n\
         query r select[a > 0] count;\n\
         .objects\n\
         .ops select\n\
         .stats\n\
         .stats select\n\
         .stats frobnicate\n\
         .metrics\n\
         .quit\n",
    );
    assert!(out.contains("type t defined"), "{out}");
    assert!(out.contains("created r"), "{out}");
    assert!(out.contains("updated r"), "{out}");
    assert!(out.contains('1'), "{out}");
    assert!(out.contains("r : rel(tuple(<(a, int)>))"), "{out}");
    assert!(
        out.contains("op select : forall rel: rel(tuple) in REL"),
        "{out}"
    );
    // `.stats select` reports the one operator; unknown names are called
    // out instead of showing silent zeros.
    assert!(out.contains("op select:"), "{out}");
    assert!(
        out.contains("no such operator: `frobnicate` never ran"),
        "{out}"
    );
    // `.metrics` is the unified snapshot: pool + optimizer + phases.
    assert!(out.contains("logical reads"), "{out}");
    assert!(out.contains("optimizer:"), "{out}");
    assert!(out.contains("phases:"), "{out}");
}

#[test]
fn shell_traces_phases_and_explains_analyze() {
    let out = run_shell(
        "type t = tuple(<(a, int)>);\n\
         create r : rel(t);\n\
         update r := insert(r, mktuple[(a, 41)]);\n\
         .trace on\n\
         query r count;\n\
         .metrics\n\
         .trace off\n\
         .explain analyze r select[a > 0] count\n\
         .quit\n",
    );
    assert!(out.contains("tracing on"), "{out}");
    // With tracing on, the metrics snapshot shows per-phase spans.
    assert!(out.contains("parse 1x"), "{out}");
    assert!(out.contains("execute 1x"), "{out}");
    assert!(out.contains("tracing off"), "{out}");
    // `.explain analyze` ran the plan: actual counts appear.
    assert!(out.contains("analyze:"), "{out}");
    assert!(out.contains("result: int = 1"), "{out}");
}

#[test]
fn shell_reports_errors_and_continues() {
    let out = run_shell(
        "query nonsense_object count;\n\
         type t = tuple(<(a, int)>);\n\
         .quit\n",
    );
    assert!(out.contains("error:"), "{out}");
    assert!(out.contains("type t defined"), "{out}");
}

#[test]
fn shell_explain_shows_plans() {
    let out = run_shell(
        "type t = tuple(<(k, int), (p, string)>);\n\
         create r : rel(t);\n\
         create r_rep : btree(t, k, int);\n\
         create rep : catalog(<ident, ident>);\n\
         update rep := insert(rep, r, r_rep);\n\
         .explain r select[k = 5]\n\
         .quit\n",
    );
    assert!(out.contains("exactmatch(r_rep"), "{out}");
}

#[test]
fn shell_runs_program_files() {
    let out = run_shell(".run examples/programs/cities.sos\n.quit\n");
    // The shell's cwd is the crate dir in tests; fall back if not found.
    if out.contains("error reading") {
        // Resolve relative to the workspace root instead.
        let ws = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/programs/cities.sos"
        );
        let out2 = run_shell(&format!(".run {ws}\n.quit\n"));
        assert!(out2.contains("3 tuples"), "{out2}");
    } else {
        assert!(out.contains("3 tuples"), "{out}");
    }
}

#[test]
fn shell_describes_operators() {
    let out = run_shell(".ops join\n.quit\n");
    assert!(out.contains("op join :"), "{out}");
    assert!(out.contains("rel1 x rel2"), "{out}");
}

/// `sos --durable <dir>` is the shell's on-disk form: a second shell on
/// the same directory answers from the recovered state, and a view comes
/// back without a value until its defining update is re-run.
#[test]
fn shell_durable_directory_survives_a_restart() {
    let dir = std::env::temp_dir().join(format!("sos_repl_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.to_str().unwrap();
    let first = run_shell_with(
        &["--durable", path],
        "type t = tuple(<(a, int)>);\n\
         create r : btree(t, a, int);\n\
         update r := insert(r, mktuple[(a, 41)]);\n\
         update r := insert(r, mktuple[(a, 7)]);\n\
         create v : ( -> int);\n\
         update v := fun () r feed count;\n\
         query v();\n\
         .quit\n",
    );
    assert!(first.contains("updated v"), "{first}");
    assert_eq!(first.lines().last(), Some("2"), "{first}");
    let second = run_shell_with(
        &["--durable", path],
        "query r feed filter[a > 10] count;\n\
         query r exactmatch[7] count;\n\
         query v();\n\
         update v := fun () r feed count;\n\
         query v();\n\
         .quit\n",
    );
    // The shell reports what recovery did before it reads a statement.
    let (recovered, answers) = second.split_once('\n').unwrap();
    assert!(recovered.starts_with("recovered: "), "{second}");
    let lines: Vec<&str> = answers.lines().collect();
    assert_eq!(lines[0], "1", "{second}");
    assert_eq!(lines[1], "1", "{second}");
    assert!(
        lines[2].starts_with("error: object `v` has no value"),
        "{second}"
    );
    assert_eq!(lines[3], "updated v", "{second}");
    assert_eq!(lines[4], "2", "{second}");
    std::fs::remove_dir_all(&dir).ok();
}
