//! `sosbench`: one end-to-end + per-layer benchmark for the SOS pipeline.
//! See README.md for the workloads, the metrics and how they interact.
//!
//! ```text
//! sosbench --workload W --seed N --seconds S --trace 0|1 [--rounds R]
//!     one run in this process; prints the run's JSON document, then (last
//!     line) the driver's result line
//! sosbench [--workload W] --repeat N [--seed N0] [--seconds S]
//!     N fresh processes per workload with seeds N0.., and per end-to-end
//!     metric min / median / max and the quartile spread against its bound
//! sosbench [--seed N] [--seconds S]
//!     every workload once untraced and once traced; every metric by name
//! ```

mod gen;
mod json;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use json::{Json, JsonExt};
use report::{Document, Env, Metrics};
use run::{Pass, Stop, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Storage, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    rounds: Option<usize>,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        rounds: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(workloads::by_name(&value).ok_or(format!("no workload `{value}`"))?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => a.trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            "--rounds" => a.rounds = Some(value.parse().map_err(|_| bad())?),
            "--repeat" => a.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// A scratch directory next to the executable (inside the cargo target
/// directory, hence inside the checkout and ignored by git), removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("executable has no directory")?
            .join(format!("sosbench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latencies of the read (or write) classes of a pass, merged and sorted.
fn merged(pass: &Pass, writes: bool) -> Vec<u64> {
    let mut all: Vec<u64> = pass
        .lat_ns
        .iter()
        .filter(|(c, _)| c.is_write() == writes)
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// What a client sees of an untraced pass: throughput, read and write
/// percentiles, and (a `system` layer metric) the median of each class.
fn latencies_of(pass: &Pass, m: &mut Metrics, layers: &mut Metrics) {
    m.set("stmt_per_s", pass.stmts as f64 / pass.wall_s, pass.stmts);
    for (writes, p50, p99) in [
        (false, "read_p50_ms", "read_p99_ms"),
        (true, "write_p50_ms", "write_p99_ms"),
    ] {
        let lat = merged(pass, writes);
        if !lat.is_empty() {
            m.set(p50, ms(stats::percentile(&lat, 50.0)), lat.len() as u64);
            m.set(p99, ms(stats::percentile(&lat, 99.0)), lat.len() as u64);
        }
    }
    for (class, lat) in &pass.lat_ns {
        let mut lat = lat.clone();
        lat.sort_unstable();
        layers.set(
            &format!("system.lat_p50_ms.{}", class.name()),
            ms(stats::percentile(&lat, 50.0)),
            lat.len() as u64,
        );
    }
}

/// Per-layer metrics of a traced pass: span totals from the harness's
/// trace, counter deltas from `Database::metrics()`.
fn layers_of(pass: &Pass, join_outer_rows: u64, m: &mut Metrics) {
    let n = pass.stmts;
    let trace = pass.trace.as_ref().expect("traced pass");
    let spans = trace.totals();
    let total = |name: &str| spans.get(name).map_or(0, |t| t.0) as f64;
    let us_per_stmt = |ns: f64| ns / 1e3 / n as f64;
    let (parse, check, optimize, execute) = (
        total("parser.parse"),
        total("core.check"),
        total("optimizer.optimize"),
        total("exec.execute"),
    );
    m.set("parser.parse_us_per_stmt", us_per_stmt(parse), n);
    m.set("core.check_us_per_stmt", us_per_stmt(check), n);
    m.set("optimizer.optimize_us_per_stmt", us_per_stmt(optimize), n);
    m.set("exec.execute_us_per_stmt", us_per_stmt(execute), n);
    m.set(
        "system.frontend_share",
        (parse + check + optimize) / total("stmt"),
        n,
    );
    let self_sum: u64 = spans.values().map(|t| t.1).sum();
    m.set(
        "obs.self_time_coverage",
        self_sum as f64 / (pass.wall_s * 1e9),
        n,
    );
    let writes: u64 = pass
        .lat_ns
        .iter()
        .filter(|(c, _)| c.is_write())
        .map(|(_, v)| v.len() as u64)
        .sum();
    m.ratio(
        "system.commit_us_per_write",
        total("system.commit") / 1e3,
        writes,
    );

    let e = &pass.metrics;
    m.set(
        "optimizer.rule_attempts_per_stmt",
        e.optimizer.rule_attempts as f64 / n as f64,
        n,
    );
    m.set(
        "optimizer.rewrites_per_stmt",
        e.optimizer.rewrites as f64 / n as f64,
        n,
    );
    m.ratio(
        "system.plan_cache_hit_ratio",
        e.planner.cache_hits as f64,
        e.planner.cache_hits + e.planner.cache_misses,
    );

    // Rows the recorded operators consumed; a drain at the statement
    // boundary (`materialize`) only counts its batches.
    let ops = || e.ops.iter().map(|(_, s)| s);
    let rows_in: u64 = ops().map(|s| s.tuples_in.max(s.batched_rows)).sum();
    m.ratio("exec.ns_per_row_in", execute, rows_in);
    m.ratio("exec.rows_in_per_row_out", rows_in as f64, pass.rows_out);
    m.ratio(
        "exec.rows_per_batch",
        ops().map(|s| s.batched_rows).sum::<u64>() as f64,
        ops().map(|s| s.batches).sum(),
    );
    m.ratio(
        "exec.parallel_invocation_ratio",
        ops().map(|s| s.parallel_invocations).sum::<u64>() as f64,
        ops().map(|s| s.invocations).sum(),
    );
    m.ratio(
        "exec.compiled_ratio",
        e.compile.compiled as f64,
        e.compile.compiled + e.compile.total_fallbacks(),
    );
    let (join_ns, joins) = trace.exec_ns_of(gen::Class::JoinInside);
    m.ratio(
        "exec.search_join_us_per_outer",
        join_ns as f64 / 1e3,
        joins * join_outer_rows,
    );

    let p = &e.pool;
    m.set(
        "storage.buffer.logical_reads_per_stmt",
        p.logical_reads as f64 / n as f64,
        n,
    );
    m.ratio(
        "storage.buffer.hit_ratio",
        p.cache_hits as f64,
        p.logical_reads,
    );
    m.set(
        "storage.buffer.evictions_per_stmt",
        p.evictions as f64 / n as f64,
        n,
    );
    m.set(
        "storage.disk.physical_reads_per_stmt",
        p.physical_reads as f64 / n as f64,
        n,
    );
    m.set(
        "storage.disk.physical_writes_per_stmt",
        p.physical_writes as f64 / n as f64,
        n,
    );

    let w = &pass.wal;
    m.ratio("storage.wal.bytes_per_commit", w.bytes as f64, w.commits);
    m.ratio(
        "storage.wal.page_images_per_commit",
        w.page_images as f64,
        w.commits,
    );
    m.ratio("storage.wal.syncs_per_commit", w.syncs as f64, w.commits);
    let ck = &pass.checkpoints;
    m.ratio(
        "storage.checkpoint.ms",
        ck.iter().map(|c| c.duration_micros).sum::<u64>() as f64 / 1e3,
        ck.len() as u64,
    );
    m.ratio(
        "storage.checkpoint.pages_written",
        ck.iter().map(|c| c.pages_written).sum::<u64>() as f64,
        ck.len() as u64,
    );
}

/// One run of one workload in this process.
fn run_one(w: &'static Workload, a: &Args, traced: bool) -> Result<Document, String> {
    let scratch = Scratch::new()?;
    let dir = scratch.0.join("db");
    let mut tally = Tally::default();
    let (mut e2e, mut layers) = (Metrics::default(), Metrics::default());
    let stop = match (a.rounds, a.seconds) {
        (Some(rounds), _) => Stop::Rounds(rounds),
        // A traced run splits its time between the two passes.
        (None, Some(s)) => Stop::Seconds(if traced { s / 2.0 } else { s }),
        (None, None) => return Err("give --seconds or --rounds".into()),
    };

    // Untraced: several set-ups, the last one is measured. Traced: an
    // untraced pass on half the time, then the same rounds traced on a
    // second, identical set-up.
    let mut setups = Vec::new();
    for _ in 0..if traced { 0 } else { SETUPS - 1 } {
        setups.push(run::set_up(w, a.seed, &dir, &mut tally)?.setup.total_s);
    }
    let mut inst = run::set_up(w, a.seed, &dir, &mut tally)?;
    setups.push(inst.setup.total_s);
    let untraced = run::run_pass(&mut inst, w, stop, false, &mut tally);
    latencies_of(&untraced, &mut e2e, &mut layers);
    let mut measured = untraced;
    let mut trace_file = None;
    if traced {
        let untraced_hash = inst.hash.value();
        drop(inst);
        inst = run::set_up(w, a.seed, &dir, &mut tally)?;
        let pass = run::run_pass(
            &mut inst,
            w,
            Stop::Rounds(measured.rounds),
            true,
            &mut tally,
        );
        if inst.hash.value() != untraced_hash {
            tally.fail(
                1,
                "traced and untraced passes ran different statement lists".into(),
            );
        }
        layers_of(&pass, inst.gen.join_outer_rows(), &mut layers);
        layers.set(
            "obs.trace_overhead_ratio",
            (pass.stmts as f64 / pass.wall_s) / (measured.stmts as f64 / measured.wall_s),
            pass.stmts,
        );
        let file = scratch
            .0
            .with_file_name("sosbench-trace")
            .join(format!("{}.jsonl", w.name));
        std::fs::create_dir_all(file.parent().expect("has parent")).map_err(|e| e.to_string())?;
        pass.trace
            .as_ref()
            .expect("traced")
            .write_jsonl(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        trace_file = Some(file.display().to_string());
        measured = pass;
    }
    run::check_final_state(&mut inst, &mut tally);

    let loaded = &inst.setup.loaded;
    e2e.set("setup_s", stats::median(&setups), setups.len() as u64);
    e2e.set(
        "load_rows_per_s",
        loaded.rows as f64 / loaded.load_s,
        loaded.rows,
    );
    layers.set(
        "system.bulk_load_us_per_row",
        loaded.bulk_load_s * 1e6 / loaded.rows as f64,
        loaded.rows,
    );
    let env = Env {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        rustc: command_line("rustc", &["--version"]),
        page_size: sos_storage::PAGE_SIZE,
        pool_frames: match w.storage {
            Storage::DurableSmallPool(frames) => frames,
            _ => 4096,
        },
        workers: inst.db.workers(),
        seed: a.seed,
        stmt_hash: inst.hash.value(),
        flush_policy: inst
            .db
            .sync_policy()
            .map_or("none (in memory)".into(), |p| format!("{p:?}")),
    };

    if w.storage != Storage::Memory {
        let row_bytes = loaded.item_row_bytes;
        e2e.ratio(
            "wal_bytes_per_user_byte",
            measured.wal.bytes as f64,
            measured.inserts * row_bytes,
        );
        let d = run::check_durability(inst, w, &dir, &mut tally)?;
        e2e.ratio(
            "stored_bytes_per_user_byte",
            d.stored_bytes as f64,
            d.live_rows * row_bytes,
        );
        if !d.reopen_s.is_empty() {
            let reopen = stats::median(&d.reopen_s);
            e2e.set("reopen_s", reopen, d.reopen_s.len() as u64);
            layers.set(
                "storage.wal.recover_ms_per_mb",
                reopen * 1e3 / (d.replayed_log_bytes as f64 / 1e6),
                d.reopen_s.len() as u64,
            );
        }
        if w.storage == Storage::Durable {
            run::crash_pass(w, a.seed, &mut tally)?;
        }
    }
    if traced {
        for (name, value, ops) in probes::run_all(&scratch.0.join("probe"))? {
            layers.set(name, value, ops);
        }
    }
    e2e.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(Document {
        workload: w.name,
        traced,
        env,
        rounds: measured.rounds,
        statements: measured.stmts,
        ops_attempted: tally.attempted,
        ops_failed: tally.failed,
        failures: tally.messages,
        e2e,
        layers,
        trace_file,
    })
}

// ------------------------------------------------- fresh-process modes

/// Run one workload in a fresh process and return its JSON document.
fn child(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (_, document) = (lines.next(), lines.next());
    match document {
        Some(d) if out.status.success() => json::parse(d),
        _ => Err(format!(
            "{} seed {seed} failed: {}",
            w.name,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn metric(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.get("value")?.as_f64()
}

fn failed_ops(doc: &Json) -> f64 {
    doc.get("ops_failed")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// What the fresh-process modes take from BENCHMARK.json, the only place
/// run length and bounds are written down.
struct Contract {
    run_seconds: f64,
    /// `(name, unit, bound)` of every end-to-end metric.
    bounds: Vec<(String, String, f64)>,
}

fn contract() -> Result<Contract, String> {
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&fallback))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let parsed = || {
        let bounds = doc.get("end_to_end")?.as_array()?.iter().map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        });
        Some(Contract {
            run_seconds: doc.get("run_seconds")?.as_f64()?,
            bounds: bounds.collect::<Option<_>>()?,
        })
    };
    parsed().ok_or("BENCHMARK.json: no run_seconds or malformed end_to_end".into())
}

/// `--repeat N`: spread of every end-to-end metric over N fresh
/// processes, as a markdown table (BASELINE.md is made of these).
fn repeat(ws: &[&'static Workload], a: &Args, n: usize) -> Result<bool, String> {
    let Contract {
        run_seconds,
        bounds,
    } = contract()?;
    let seconds = a.seconds.unwrap_or(run_seconds);
    let mut all_within = true;
    println!("| workload | metric | unit | min | median | max | IQR/median | bound | ops failed |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in ws {
        let docs = (0..n as u64)
            .map(|i| child(w, a.seed + i, seconds, false))
            .collect::<Result<Vec<Json>, String>>()?;
        let failed: f64 = docs.iter().map(failed_ops).sum();
        for (name, unit, bound) in &bounds {
            let values: Vec<f64> = docs.iter().filter_map(|d| metric(d, "e2e", name)).collect();
            if values.len() < 2 {
                continue;
            }
            let (q1, q3) = stats::quartiles(&values);
            let median = stats::median(&values);
            let spread = (q3 - q1) / median;
            all_within &= spread <= *bound && failed == 0.0;
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            println!(
                "| {} | {name} | {unit} | {min:.4} | {median:.4} | {max:.4} | {:.2} % | {:.0} % | {failed} |",
                w.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(all_within)
}

/// No `--workload`, no `--repeat`: every workload once untraced and once
/// traced, every metric by name with its unit and sample count.
fn all(a: &Args) -> Result<bool, String> {
    let seconds = a.seconds.unwrap_or(contract()?.run_seconds);
    let mut ok = true;
    for w in &workloads::WORKLOADS {
        for traced in [false, true] {
            let doc = child(w, a.seed, seconds, traced)?;
            let get = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "\n{} ({}; {}): {} statements, ops_attempted {} ops_failed {}, stmt_hash {}",
                w.name,
                if traced { "traced" } else { "untraced" },
                w.why,
                get("statements"),
                get("ops_attempted"),
                get("ops_failed"),
                doc.get("env")
                    .and_then(|e| e.get("stmt_hash"))
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
            );
            ok &= failed_ops(&doc) == 0.0;
            // End-to-end numbers come from the untraced run, per-layer
            // numbers from the traced one.
            let Some(Json::Obj(fields)) = doc.get(if traced { "layers" } else { "e2e" }) else {
                continue;
            };
            for (name, m) in fields {
                println!(
                    "  {name:<42} {:>16.4} {:<6} n={}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    m.get("n").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match (a.workload, a.trace, a.repeat) {
        (Some(w), Some(traced), None) => run_one(w, &a, traced).map(|doc| {
            println!("{}", doc.json());
            println!("{}", doc.contract_line());
            true
        }),
        (w, None, Some(n)) => {
            let ws: Vec<&Workload> = w.map_or(workloads::WORKLOADS.iter().collect(), |w| vec![w]);
            repeat(&ws, &a, n)
        }
        (None, None, None) => all(&a),
        _ => Err("give --workload with --trace, or --repeat, or neither (see README.md)".into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("sosbench: {e}");
            ExitCode::FAILURE
        }
    }
}
