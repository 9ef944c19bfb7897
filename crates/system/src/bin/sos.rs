//! `sos` — an interactive shell for the SOS database system.
//!
//! Reads statements of the five-statement language (Section 2.4) from
//! stdin, one per line (or multi-line until `;`), executes them, and
//! prints results. Meta commands:
//!
//! * `.spec <file>`  — load an additional specification
//! * `.rules <file>` — load a textual rule file as an optimizer step
//! * `.lint [json]`  — run the static analyzer (sos-lint) over the
//!   loaded signature and rule set
//! * `.explain [analyze] <q>` — rewrite trace + plan tree for a query
//!   (`analyze` also runs it and reports actual tuple/page counts)
//! * `.trace on|off` — toggle per-phase span recording
//! * `.metrics`      — the unified metrics snapshot (pool, optimizer,
//!   operators, phase timings)
//! * `.run <file>`   — run a program file
//! * `.save <dir>`   — persist the database (see `Database::save`)
//! * `.checkpoint`   — durable fuzzy checkpoint (WAL databases; see
//!   `Database::checkpoint`); prints what it did
//! * `.wal [policy <p>]` — inspect the WAL (sync policy, LSN
//!   watermarks, counters) or switch the commit sync policy
//! * `.stats [op]`   — per-operator counters (one operator, or all)
//! * `.ops [name]`   — list the signature's operators, or describe one
//! * `.cache [clear]` — statement-cache counters, or empty the cache
//! * `.batch [n]`    — show or set the vectorized batch width
//! * `.objects`      — list catalog objects
//! * `.quit`
//!
//! Every statement executes on the shell's own thread.
//!
//! Besides the shell there is one batch mode:
//!
//! ```sh
//! sos lint <spec-or-rules-file> [--json]
//! ```
//!
//! which parses the file against the built-in signature, runs the
//! static analyzer, prints the report (human or JSON) with source line
//! numbers, and exits non-zero when any error-severity diagnostic is
//! found — the shape CI wants.
//!
//! ```sh
//! echo 'create r : rel(tuple(<(a, int)>)); query r count;' | cargo run --bin sos
//! ```
//!
//! `sos --durable <dir> [--sync-policy <p>]` opens a WAL-backed
//! database in `<dir>` (running crash recovery first); every statement
//! commits through the log. `<p>` is `percommit` (default: each commit
//! is synced before it is acknowledged) or `nosync` (commits are
//! written but not synced; a crash may lose the latest ones).

use sos_exec::render;
use sos_system::{Database, DurabilityConfig, Output, SyncPolicy};
use std::io::{BufRead, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        std::process::exit(lint_main(&argv[1..]));
    }
    let mut builder = Database::builder();
    // `sos --durable <dir>` opens a WAL-backed database in <dir>,
    // running crash recovery first; every statement then commits
    // durably and `.checkpoint` bounds the redo work of the next open.
    // `--sync-policy <p>` picks how those commits reach stable storage.
    if let Some(i) = argv.iter().position(|a| a == "--durable") {
        let Some(dir) = argv.get(i + 1) else {
            eprintln!("usage: sos --durable <dir> [--sync-policy <p>]");
            std::process::exit(2);
        };
        let mut config = DurabilityConfig::dir(dir);
        if let Some(j) = argv.iter().position(|a| a == "--sync-policy") {
            let policy = argv.get(j + 1).ok_or_else(|| {
                "usage: sos --durable <dir> --sync-policy percommit|nosync".to_string()
            });
            match policy.and_then(|p| SyncPolicy::parse(p)) {
                Ok(p) => config = config.sync_policy(p),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        builder = builder.durability(config);
    } else if argv.iter().any(|a| a == "--sync-policy") {
        eprintln!("--sync-policy requires --durable <dir>");
        std::process::exit(2);
    }
    let mut db = match builder.try_build() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error opening database: {e}");
            std::process::exit(2);
        }
    };
    if let Some(info) = db.recovery_info() {
        if info.scanned_records > 0 {
            println!(
                "recovered: {} record(s) scanned, {} committed transaction(s), {} page(s) replayed{}",
                info.scanned_records,
                info.committed_txs,
                info.replayed_pages,
                if info.truncated {
                    " (torn log tail truncated)"
                } else {
                    ""
                }
            );
        }
    }
    let stdin = std::io::stdin();
    let interactive = atty_like();
    let mut buffer = String::new();

    if interactive {
        println!(
            "sos — Second-Order Signature shell (statements end with `;`, `.help` for commands)"
        );
    }
    prompt(interactive, &buffer);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta_command(&mut db, trimmed) {
                break;
            }
            prompt(interactive, &buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        // Execute once the buffer holds at least one full statement.
        if trimmed.ends_with(';') {
            match db.run(&buffer) {
                Ok(outputs) => {
                    for out in outputs {
                        print_output(&out);
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            buffer.clear();
        }
        prompt(interactive, &buffer);
    }
}

/// `sos lint <file> [--json]`: lint one spec or rule file in batch
/// mode. `.rules` files are parsed as an optimizer step and checked
/// against the built-in signature; anything else is parsed as a
/// specification extending the built-in signature, and diagnostics are
/// mapped back to source lines through the parser's span table.
/// Exit code: 0 clean (warnings allowed), 1 error diagnostics, 2 usage
/// or parse failure.
fn lint_main(args: &[String]) -> i32 {
    let mut json = false;
    let mut file = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ => file = Some(a.clone()),
        }
    }
    let Some(path) = file else {
        eprintln!("usage: sos lint <spec-or-rules-file> [--json]");
        return 2;
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return 2;
        }
    };
    let diags = match Database::lint_source(&path, &src) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    if json {
        println!("{}", sos_lint::render_json(&diags));
    } else {
        print!("{}", sos_lint::render_human(&diags));
    }
    if sos_lint::has_errors(&diags) {
        1
    } else {
        0
    }
}

fn prompt(interactive: bool, buffer: &str) {
    if interactive {
        print!("{}", if buffer.is_empty() { "sos> " } else { "...> " });
        std::io::stdout().flush().ok();
    }
}

/// Heuristic: only show prompts when stdin looks like a terminal (no
/// libc dependency; if piped, the first read usually has data queued —
/// keep it simple and check the TERM variable plus absence of a pipe
/// hint).
fn atty_like() -> bool {
    std::env::var("SOS_INTERACTIVE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn print_output(out: &Output) {
    match out {
        Output::TypeDefined(n) => println!("type {n} defined"),
        Output::Created(n) => println!("created {n}"),
        Output::Updated(n) => println!("updated {n}"),
        Output::Deleted(n) => println!("deleted {n}"),
        Output::Query(v) => println!("{}", render(v)),
    }
}

fn meta_command(db: &mut Database, cmd: &str) -> bool {
    let (head, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
    match head {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(".run <file> | .spec <file> | .rules <file> | .lint [json] | .explain [analyze] <query> | .trace on|off | .metrics | .ops [name] | .save <dir> | .checkpoint | .wal [policy <p>] | .stats [op] | .cache [clear] | .batch [n] | .objects | .quit");
        }
        ".checkpoint" => {
            if !db.is_durable() {
                println!("not a durable database (open with `sos --durable <dir>`)");
            } else {
                match db.checkpoint() {
                    Ok(stats) => {
                        println!("checkpoint: {}", sos_obs::metrics::checkpoint_line(&stats));
                        println!("{}", sos_obs::metrics::checkpoint_json(&stats));
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
        ".wal" => {
            if !db.is_durable() {
                println!("not a durable database (open with `sos --durable <dir>`)");
            } else if let Some(arg) = rest.trim().strip_prefix("policy") {
                let arg = arg.trim();
                if arg.is_empty() {
                    println!("sync policy {}", db.sync_policy().unwrap());
                } else {
                    match SyncPolicy::parse(arg).and_then(|p| {
                        db.set_sync_policy(p).map_err(|e| e.to_string())?;
                        Ok(p)
                    }) {
                        Ok(p) => println!("sync policy {p}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
            } else if rest.trim().is_empty() {
                let lsns = db.wal_lsns().unwrap();
                println!("sync policy {}", db.sync_policy().unwrap());
                println!(
                    "lsn: appended {} written {} durable {} checkpoint {}",
                    lsns.appended, lsns.written, lsns.durable, lsns.checkpoint
                );
                println!("wal: {}", sos_obs::metrics::wal_line(&db.metrics().wal));
            } else {
                println!("error: `.wal` takes nothing or `policy <p>`");
            }
        }
        ".stats" => {
            let arg = rest.trim();
            if arg.is_empty() {
                let metrics = db.metrics();
                if metrics.ops.is_empty() {
                    println!("operators: (none run yet)");
                }
                for (name, o) in &metrics.ops {
                    println!("op {name}: {}", sos_system::op_line(o));
                }
            } else {
                match db.op_stats(arg) {
                    Some(o) => println!("op {arg}: {}", sos_system::op_line(&o)),
                    None => println!("no such operator: `{arg}` never ran"),
                }
            }
        }
        ".metrics" => {
            println!("{}", db.metrics());
        }
        ".cache" => match rest.trim() {
            "clear" => {
                let n = db.clear_plan_cache();
                println!("plan cache cleared ({n} entrie(s) dropped)");
            }
            "" => {
                let m = db.metrics().planner;
                println!(
                    "plan cache: {} entrie(s), {} hit(s), {} miss(es), {} invalidation(s)",
                    m.cache_entries, m.cache_hits, m.cache_misses, m.cache_invalidations
                );
            }
            _ => println!("error: `.cache` takes nothing or `clear`"),
        },
        ".trace" => match rest.trim() {
            "on" => {
                db.set_tracing(true);
                println!("tracing on");
            }
            "off" => {
                db.set_tracing(false);
                println!("tracing off");
            }
            "" => println!("tracing {}", if db.tracing() { "on" } else { "off" }),
            _ => println!("error: `.trace` takes `on` or `off`"),
        },
        ".batch" => {
            let arg = rest.trim();
            if arg.is_empty() {
                println!("batch size {}", db.batch_size());
            } else {
                match arg.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        db.set_batch_size(n);
                        println!("batch size {}", db.batch_size());
                    }
                    _ => println!("error: `.batch` takes a positive integer"),
                }
            }
        }
        ".objects" => {
            let mut entries: Vec<String> = db
                .catalog()
                .objects()
                .map(|o| format!("{} : {}   [{:?}]", o.name, o.ty, o.level))
                .collect();
            entries.sort();
            for e in entries {
                println!("{e}");
            }
        }
        ".run" => match std::fs::read_to_string(rest.trim()) {
            Ok(src) => match db.run(&src) {
                Ok(outputs) => {
                    for out in &outputs {
                        print_output(out);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            Err(e) => println!("error reading {rest}: {e}"),
        },
        ".save" => match db.save(std::path::Path::new(rest.trim())) {
            Ok(skipped) if skipped.is_empty() => println!("saved"),
            Ok(skipped) => println!(
                "saved; views not persisted (re-create them after open): {}",
                skipped
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Err(e) => println!("error: {e}"),
        },
        ".ops" => {
            let arg = rest.trim();
            if arg.is_empty() {
                let names: Vec<String> = db
                    .signature()
                    .op_names()
                    .into_iter()
                    .map(|n| n.to_string())
                    .collect();
                println!("{}", names.join(" "));
            } else {
                for line in db.signature().describe_op(&sos_core::Symbol::new(arg)) {
                    println!("{line}");
                }
            }
        }
        ".explain" => {
            let arg = rest.trim();
            let (analyze, query) = match arg.strip_prefix("analyze ") {
                Some(q) => (true, q),
                None => (false, arg),
            };
            let query = query.trim().trim_end_matches(';');
            let report = if analyze {
                db.explain_analyze(query)
            } else {
                db.explain(query)
            };
            match report {
                Ok(e) => print!("{e}"),
                Err(e) => println!("error: {e}"),
            }
        }
        ".spec" => match std::fs::read_to_string(rest.trim()) {
            Ok(src) => match db.load_spec(&src) {
                Ok(()) => println!("specification loaded"),
                Err(e) => println!("error: {e}"),
            },
            Err(e) => println!("error reading {rest}: {e}"),
        },
        ".lint" => {
            let diags = db.lint();
            if rest.trim() == "json" {
                println!("{}", sos_lint::render_json(&diags));
            } else {
                print!("{}", sos_lint::render_human(&diags));
            }
        }
        ".rules" => match std::fs::read_to_string(rest.trim()) {
            Ok(src) => match db.load_rules(rest.trim(), &src) {
                Ok(()) => println!("rules loaded"),
                Err(e) => println!("error: {e}"),
            },
            Err(e) => println!("error reading {rest}: {e}"),
        },
        other => println!("unknown command `{other}` (try .help)"),
    }
    true
}
