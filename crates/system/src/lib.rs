//! The SOS database system: the "parser/optimizer component driven by a
//! specification" the paper proposes, assembled over the other crates.
//!
//! A [`Database`] owns
//!
//! * the built-in [`Signature`] (the paper's relational model plus the
//!   representation model of Section 4, parsed from the specification
//!   language at startup — see [`builtin::BUILTIN_SPEC`]),
//! * a [`Catalog`] of named types and objects with the `rep` catalog
//!   linking model objects to their representations (Section 6),
//! * an [`ExecEngine`] over a buffer pool, and
//! * the built-in rule-based [`Optimizer`] (Sections 5 and 6).
//!
//! It processes programs in the five-statement language of Section 2.4:
//! model-level queries and updates are type-checked, translated by the
//! optimizer into representation-level plans when representations exist,
//! and executed.
//!
//! Databases are constructed through [`DatabaseBuilder`]:
//!
//! ```
//! use sos_system::Database;
//!
//! let mut db = Database::builder().build();
//! db.run(r#"
//!     type city = tuple(<(name, string), (pop, int), (country, string)>);
//!     type city_rel = rel(city);
//!     create cities : city_rel;
//!     update cities := insert(cities, mktuple[(name, "Hagen"), (pop, 190000), (country, "Germany")]);
//!     query cities select[pop > 100000];
//! "#).unwrap();
//! ```
//!
//! Every phase of statement processing — parse, check, optimize,
//! execute — is observable: [`Database::metrics`] returns the unified
//! [`MetricsSnapshot`] (buffer pool + optimizer + per-operator rows +
//! phase timings), [`Database::set_tracing`] turns per-phase span
//! recording on, and [`Database::explain`] / [`Database::explain_analyze`]
//! return a structured [`Explain`] with the ordered rewrite trace.

pub mod builtin;
pub mod bulk;
pub mod fuzz;
pub mod persist;
pub mod plancache;
pub mod rules;

use sos_catalog::{Catalog, CatalogError};
use sos_core::check::Checker;
use sos_core::spec::Level;
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{CheckError, DataType, Expr, Signature, Symbol, TypeArg};
use sos_exec::stored::{from_stored, structure_image};
use sos_exec::{EvalCtx, ExecEngine, ExecError, Value};
use sos_obs::explain::plan_tree;
use sos_obs::metrics::{ops_delta, pool_delta};
use sos_obs::trace::Tracer;
use sos_optimizer::{OptError, Optimizer, OptimizerStats, RuleApplication};
use sos_parser::{parse_program, ParseError, Statement};
use sos_storage::{BufferPool, DiskManager, FileDisk, RecoveryInfo, Wal};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub use sos_obs::metrics::op_line;
pub use sos_obs::{
    Explain, ExplainAnalysis, ExplainKind, MetricsSnapshot, Phase, PhaseTimings, PlannerStats,
};
pub use sos_storage::{CheckpointStats, Lsn, SyncPolicy};

/// The WAL's LSN watermarks, for inspection (the shell's
/// `.wal` command): `appended ≥ written ≥ durable ≥ checkpoint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalLsns {
    /// In-memory append point.
    pub appended: Lsn,
    /// Log bytes that reached the disk (not necessarily synced).
    pub written: Lsn,
    /// Log bytes guaranteed to survive a crash.
    pub durable: Lsn,
    /// Where the next recovery scan starts.
    pub checkpoint: Lsn,
}

/// Everything that can go wrong processing a program.
#[derive(Debug)]
pub enum SystemError {
    Parse(ParseError),
    Check(CheckError),
    Catalog(CatalogError),
    Exec(ExecError),
    Opt(OptError),
    /// An update whose value type does not match its target object.
    UpdateTypeMismatch {
        object: Symbol,
        object_type: String,
        value_type: String,
    },
    UnknownObject(Symbol),
    /// Opening a durable database or reading its snapshot failed.
    Persist(String),
    /// The WAL holds an object stored partitioned, a layout written by
    /// older versions and no longer readable.
    PartitionedObject(Symbol),
    /// A spec or rule registration was rejected: the new declarations
    /// produced error-severity lint diagnostics.
    Lint(Vec<sos_lint::Diagnostic>),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Parse(e) => write!(f, "{e}"),
            SystemError::Check(e) => write!(f, "{e}"),
            SystemError::Catalog(e) => write!(f, "{e}"),
            SystemError::Exec(e) => write!(f, "{e}"),
            SystemError::Opt(e) => write!(f, "{e}"),
            SystemError::UpdateTypeMismatch {
                object,
                object_type,
                value_type,
            } => write!(
                f,
                "update of `{object}`: value of type {value_type} does not match object type {object_type}"
            ),
            SystemError::UnknownObject(n) => write!(f, "no object named `{n}`"),
            SystemError::Persist(m) => write!(f, "persistence error: {m}"),
            SystemError::PartitionedObject(n) => write!(
                f,
                "object `{n}` is stored partitioned, which this version no longer reads"
            ),
            SystemError::Lint(diags) => {
                write!(f, "rejected by lint:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<sos_storage::StorageError> for SystemError {
    fn from(e: sos_storage::StorageError) -> Self {
        SystemError::Exec(ExecError::Storage(e))
    }
}

impl From<ParseError> for SystemError {
    fn from(e: ParseError) -> Self {
        SystemError::Parse(e)
    }
}
impl From<CheckError> for SystemError {
    fn from(e: CheckError) -> Self {
        SystemError::Check(e)
    }
}
impl From<CatalogError> for SystemError {
    fn from(e: CatalogError) -> Self {
        SystemError::Catalog(e)
    }
}
impl From<ExecError> for SystemError {
    fn from(e: ExecError) -> Self {
        SystemError::Exec(e)
    }
}
impl From<OptError> for SystemError {
    fn from(e: OptError) -> Self {
        SystemError::Opt(e)
    }
}

/// The result of one statement.
#[derive(Debug)]
pub enum Output {
    TypeDefined(Symbol),
    Created(Symbol),
    /// The object actually updated — for a translated model update this
    /// is the representation object (Section 6).
    Updated(Symbol),
    Deleted(Symbol),
    Query(Value),
}

impl Output {
    /// The query result value, if this output carries one.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Output::Query(v) => Some(v),
            _ => None,
        }
    }
}

/// Configures and constructs a [`Database`] — the one construction
/// path. Every knob that used to be a post-construction setter
/// (`with_pool`, `set_optimize`) is a builder method; tracing starts
/// disabled unless [`DatabaseBuilder::trace`] enables it.
///
/// ```
/// use sos_system::Database;
///
/// let mut db = Database::builder()
///     .batch_size(256)
///     .trace(true)
///     .build();
/// assert_eq!(db.batch_size(), 256);
/// assert!(db.tracing());
/// ```
#[derive(Default)]
pub struct DatabaseBuilder {
    pool: Option<Arc<BufferPool>>,
    durability: Option<DurabilityConfig>,
    frame_capacity: Option<usize>,
    batch_size: Option<usize>,
    optimize: Option<bool>,
    trace: bool,
}

/// Where a durable database keeps its two files (or disks): the data
/// page file and the write-ahead log.
enum DurableSource {
    Dir(PathBuf),
    Disks(Arc<dyn DiskManager>, Arc<dyn DiskManager>),
}

/// Everything durability: where the data pages and the write-ahead log
/// live, and whether commits are synced ([`SyncPolicy`]). This is the
/// one durability knob on [`DatabaseBuilder`] — construct with
/// [`DurabilityConfig::dir`] (two files under one directory) or
/// [`DurabilityConfig::disks`] (explicit disks, e.g.
/// [`sos_storage::FaultDisk`] pairs in fault-injection tests), then
/// optionally set the policy.
///
/// ```no_run
/// use sos_system::{Database, DurabilityConfig, SyncPolicy};
///
/// let db = Database::builder()
///     .durability(
///         DurabilityConfig::dir("/tmp/mydb")
///             .sync_policy(SyncPolicy::NoSync),
///     )
///     .try_build()
///     .unwrap();
/// assert!(db.is_durable());
/// ```
pub struct DurabilityConfig {
    source: DurableSource,
    policy: SyncPolicy,
}

impl DurabilityConfig {
    /// Keep durable state under `dir` (created if absent): data pages
    /// in `dir/pages.db`, the write-ahead log in `dir/wal.log`.
    pub fn dir(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig::over(DurableSource::Dir(dir.into()))
    }

    /// Keep durable state on explicit data and WAL disks.
    pub fn disks(data: Arc<dyn DiskManager>, wal: Arc<dyn DiskManager>) -> DurabilityConfig {
        DurabilityConfig::over(DurableSource::Disks(data, wal))
    }

    fn over(source: DurableSource) -> DurabilityConfig {
        DurabilityConfig {
            source,
            policy: SyncPolicy::default(),
        }
    }

    /// Whether each commit is synced before it is acknowledged
    /// (default: [`SyncPolicy::PerCommit`]). Under [`SyncPolicy::NoSync`]
    /// commits are written to the log without an fsync.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> DurabilityConfig {
        self.policy = policy;
        self
    }
}

impl DatabaseBuilder {
    pub fn new() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// Run over the given buffer pool (default: a fresh in-memory pool
    /// of 4096 frames).
    pub fn pool(mut self, pool: Arc<BufferPool>) -> DatabaseBuilder {
        self.pool = Some(pool);
        self
    }

    /// Run over a fresh in-memory pool with `frames` frames.
    pub fn memory_pool(self, frames: usize) -> DatabaseBuilder {
        self.pool(sos_storage::mem_pool(frames))
    }

    /// Run durably per `config`. Opening runs crash recovery —
    /// committed statements from a previous process survive; a torn
    /// tail is truncated. Mutually exclusive with
    /// [`DatabaseBuilder::pool`].
    pub fn durability(mut self, config: DurabilityConfig) -> DatabaseBuilder {
        self.durability = Some(config);
        self
    }

    /// Buffer-pool frame count for the pools this builder constructs
    /// itself (default: 4096). Ignored when an explicit pool is given.
    pub fn frame_capacity(mut self, frames: usize) -> DatabaseBuilder {
        self.frame_capacity = Some(frames);
        self
    }

    /// Vectorized batch width for cursor drains (default: 1024; `1`
    /// pulls one tuple per call through the same pipeline).
    pub fn batch_size(mut self, n: usize) -> DatabaseBuilder {
        self.batch_size = Some(n);
        self
    }

    /// Enable or disable the rule optimizer (default: enabled).
    pub fn optimize(mut self, enabled: bool) -> DatabaseBuilder {
        self.optimize = Some(enabled);
        self
    }

    /// Enable phase tracing from the start (default: off; near-zero
    /// overhead while off).
    pub fn trace(mut self, enabled: bool) -> DatabaseBuilder {
        self.trace = enabled;
        self
    }

    /// Build, panicking on construction failure. In-memory databases
    /// cannot fail to construct; durable ones go through
    /// [`DatabaseBuilder::try_build`] when the caller wants the error.
    pub fn build(self) -> Database {
        self.try_build().expect("database construction failed")
    }

    /// Build, surfacing I/O and recovery errors. For a durable source
    /// this opens (or creates) the log, runs redo-only crash recovery
    /// against the data disk, and restores the catalog and object values
    /// from the last committed snapshot in the log.
    pub fn try_build(self) -> Result<Database, SystemError> {
        let frames = self.frame_capacity.unwrap_or(4096);
        let mut recovery = None;
        let mut recovered_meta = None;
        let pool = match (self.pool, self.durability) {
            (Some(_), Some(_)) => {
                return Err(SystemError::Persist(
                    "durability() and pool() are mutually exclusive".into(),
                ))
            }
            (Some(pool), None) => pool,
            (None, None) => sos_storage::mem_pool(frames),
            (None, Some(cfg)) => {
                let (data, wal_disk): (Arc<dyn DiskManager>, Arc<dyn DiskManager>) =
                    match cfg.source {
                        DurableSource::Dir(dir) => {
                            std::fs::create_dir_all(&dir)
                                .map_err(|e| SystemError::Persist(e.to_string()))?;
                            (
                                Arc::new(FileDisk::open(&dir.join("pages.db"))?),
                                Arc::new(FileDisk::open(&dir.join("wal.log"))?),
                            )
                        }
                        DurableSource::Disks(d, w) => (d, w),
                    };
                let (wal, meta, info) = Wal::recover_with(wal_disk, &data, cfg.policy)?;
                recovery = Some(info);
                recovered_meta = meta;
                BufferPool::with_wal(data, frames, Arc::new(wal)).shared()
            }
        };
        let mut engine = ExecEngine::new(pool);
        if let Some(n) = self.batch_size {
            engine.set_batch_size(n);
        }
        let mut db = Database {
            sig: builtin::builtin_signature(),
            catalog: Catalog::new(),
            engine,
            store: HashMap::new(),
            optimizer: rules::builtin_optimizer(),
            optimize_enabled: self.optimize.unwrap_or(true),
            last_opt_stats: OptimizerStats::default(),
            total_opt_stats: OptimizerStats::default(),
            tracer: Tracer::new(self.trace),
            plan_cache: plancache::PlanCache::default(),
            recovery,
        };
        db.engine.bind_signature(&db.sig);
        if let Some(bytes) = recovered_meta {
            db.install_snapshot(&bytes)?;
        }
        Ok(db)
    }
}

/// The SOS database system.
///
/// A `Database` runs every statement on the thread that calls it, and
/// its buffer pool, storage handles and counters are single-threaded
/// (`Rc`, `Cell`, `RefCell`): it is neither `Send` nor `Sync`. A
/// `Database` and the values it hands out stay on the thread that built
/// it; open one database per thread instead.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<sos_system::Database>();
/// ```
pub struct Database {
    sig: Signature,
    catalog: Catalog,
    engine: ExecEngine,
    store: HashMap<Symbol, Value>,
    optimizer: Optimizer,
    optimize_enabled: bool,
    /// Counters of the most recent optimizer run.
    last_opt_stats: OptimizerStats,
    /// Cumulative optimizer counters since the last `reset_metrics`.
    total_opt_stats: OptimizerStats,
    /// Per-phase span recorder (off by default).
    tracer: Tracer,
    /// Optimized plans keyed by parsed statement (see [`plancache`]);
    /// consulted while the optimizer is on.
    plan_cache: plancache::PlanCache,
    /// What crash recovery did at open (durable databases only).
    recovery: Option<RecoveryInfo>,
}

impl Database {
    /// Start configuring a database — the construction path.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::new()
    }

    // ---- accessors ----

    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    // ---- durability ----

    /// True when this database logs statements to a write-ahead log
    /// (built via [`DatabaseBuilder::durability`]).
    pub fn is_durable(&self) -> bool {
        self.engine.pool.has_wal()
    }

    /// The commit [`SyncPolicy`] in effect, or `None` for an in-memory
    /// database.
    pub fn sync_policy(&self) -> Option<SyncPolicy> {
        self.engine.pool.wal().map(|w| w.policy())
    }

    /// The WAL's current LSN watermarks, or `None` for an
    /// in-memory database.
    pub fn wal_lsns(&self) -> Option<WalLsns> {
        self.engine.pool.wal().map(|w| WalLsns {
            appended: w.appended_lsn(),
            written: w.written_lsn(),
            durable: w.durable_lsn(),
            checkpoint: w.checkpoint_lsn(),
        })
    }

    /// Switch the commit [`SyncPolicy`] at runtime. The switch is a
    /// clean boundary: everything already appended is flushed and
    /// synced under the old policy before the new one takes effect.
    /// Errors on an in-memory database.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) -> Result<(), SystemError> {
        match self.engine.pool.wal() {
            Some(wal) => Ok(wal.set_policy(policy)?),
            None => Err(SystemError::Persist(
                "set_sync_policy on an in-memory database".into(),
            )),
        }
    }

    /// What crash recovery did when this database was opened — `None`
    /// for in-memory databases.
    pub fn recovery_info(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Take a fuzzy checkpoint: flush the log, write every committed
    /// dirty page to the data disk (WAL first), sync it, and advance the
    /// log's recovery scan start past work it no longer needs to redo.
    /// The current catalog snapshot is re-published at the new scan
    /// start. On an in-memory database this degrades to a plain flush.
    /// Returns what the checkpoint did: pages written back, the LSN
    /// range it advanced the recovery scan start across, and wall time.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, SystemError> {
        let meta = self.snapshot_bytes()?;
        Ok(self.engine.pool.checkpoint(Some(&meta))?)
    }

    // ---- observability ----

    /// One consistent snapshot of every counter the system keeps:
    /// buffer-pool traffic, cumulative optimizer counters, per-operator
    /// runtime rows, and per-phase wall time (populated when tracing is
    /// on). This subsumes the deprecated `pool_stats` /
    /// `last_optimizer_stats` / `exec_stats` getters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            pool: self.engine.pool.stats(),
            optimizer: self.total_opt_stats,
            ops: self.engine.stats.snapshot(),
            phases: self.tracer.timings(),
            wal: self.engine.pool.wal_stats(),
            compile: self.engine.stats.compile_snapshot(),
            rows_decoded: self.engine.stats.rows_decoded(),
            columnar_batches: self.engine.stats.columnar_batches(),
            planner: PlannerStats {
                cache_hits: self.plan_cache.hits,
                cache_misses: self.plan_cache.misses,
                cache_invalidations: self.plan_cache.invalidations,
                cache_entries: self.plan_cache.len() as u64,
            },
        }
    }

    /// Reset every counter [`Database::metrics`] reports (the tracing
    /// on/off flag is unchanged).
    pub fn reset_metrics(&mut self) {
        self.engine.pool.reset_stats();
        self.engine.stats.reset();
        self.total_opt_stats = OptimizerStats::default();
        self.last_opt_stats = OptimizerStats::default();
        self.plan_cache.reset_counters();
        self.tracer.reset();
    }

    /// Turn per-phase span recording on or off. Off by default; while
    /// off, the only cost per phase is one relaxed atomic load.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Whether phase tracing is currently on.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Runtime counters for a single operator, or `None` if no operator
    /// of that name ever ran (unknown names are no longer silently
    /// reported as zeros).
    pub fn op_stats(&self, op: &str) -> Option<sos_exec::OpStats> {
        self.engine.stats.get(op)
    }

    /// Always 1: every statement executes on the calling thread. Kept
    /// only because the end-to-end benchmark still reports it.
    pub fn workers(&self) -> usize {
        1
    }

    /// Set the vectorized batch width at runtime: how many tuples the
    /// draining consumers pull per call through the cursor pipeline
    /// (`1` = one tuple per call, same code). (Initial value:
    /// [`DatabaseBuilder::batch_size`], default 1024.)
    pub fn set_batch_size(&mut self, n: usize) {
        self.engine.set_batch_size(n);
    }

    /// The current vectorized batch width.
    pub fn batch_size(&self) -> usize {
        self.engine.batch_size()
    }

    /// Turn the rule optimizer off/on at runtime (benchmarks compare
    /// plans this way; initial value: [`DatabaseBuilder::optimize`]).
    pub fn set_optimizer_enabled(&mut self, enabled: bool) {
        self.optimize_enabled = enabled;
    }

    /// Whether the rule optimizer is applied to statements.
    pub fn optimizer_enabled(&self) -> bool {
        self.optimize_enabled
    }

    /// Drop every cached plan (counters survive; evictions count as
    /// invalidations). Returns how many entries were dropped.
    pub fn clear_plan_cache(&mut self) -> usize {
        self.plan_cache.invalidate_all()
    }

    // ---- extensibility ----

    /// Load an additional specification (new kinds, constructors,
    /// operators, subtypes) — the paper's extensibility story.
    ///
    /// ```
    /// # use sos_system::Database;
    /// # use sos_exec::Value;
    /// let mut db = Database::builder().build();
    /// db.load_spec(r##"op triple : int -> int syntax "_ #""##).unwrap();
    /// db.add_op_impl("triple", |_, _, args| {
    ///     Ok(Value::Int(args[0].as_int("triple")? * 3))
    /// })
    /// .unwrap();
    /// assert_eq!(db.query("14 triple").unwrap(), Value::Int(42));
    /// ```
    pub fn load_spec(&mut self, src: &str) -> Result<(), SystemError> {
        // Parse into a trial copy and commit only if it parses and is
        // free of error-severity diagnostics (the built-in signature
        // lints clean, so any error is new).
        let mut trial = self.sig.clone();
        sos_parser::parse_spec(src, &mut trial)?;
        reject_lint_errors(sos_lint::lint_spec(&trial))?;
        self.sig = trial;
        // New specs of an implemented name (overloads) run its entry.
        self.engine.bind_signature(&self.sig);
        // New operators and overloads change what statements check to.
        self.plan_cache.invalidate_all();
        Ok(())
    }

    /// Run the static analyzer over the current signature and rule set
    /// (see the `sos-lint` crate and DESIGN.md §7), plus the check that
    /// every operator of the signature has an implementation (L009).
    /// The shell's `.lint` command prints this report.
    pub fn lint(&self) -> Vec<sos_lint::Diagnostic> {
        let mut diags = sos_lint::lint_all(&self.sig, &self.optimizer);
        diags.extend(sos_lint::lint_impls(&self.sig, |op| {
            self.engine.ops().get(op).is_some()
        }));
        diags
    }

    /// Lint a standalone source file the way `sos lint <file>` does.
    ///
    /// A name ending in `.rules` is parsed as one exhaustive optimizer
    /// step (named after the file stem) and checked against the
    /// built-in signature; anything else is parsed as a specification
    /// *extending* the built-in signature. Either way diagnostics are
    /// mapped back to 1-based source lines through the parser's span
    /// table. The built-in signature lints clean, so every returned
    /// finding is about `src`. Errors are parse failures, not lint
    /// findings.
    pub fn lint_source(name: &str, src: &str) -> Result<Vec<sos_lint::Diagnostic>, String> {
        if name.ends_with(".rules") {
            let (rules, offsets) =
                sos_optimizer::parse_rules_with_spans(src).map_err(|e| e.to_string())?;
            let step = std::path::Path::new(name)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("rules");
            let opt = sos_optimizer::Optimizer::new(vec![sos_optimizer::RuleStep::exhaustive(
                step, rules,
            )]);
            let mut diags = sos_lint::lint_rules(&opt, &builtin::builtin_signature());
            for d in &mut diags {
                if let sos_lint::Anchor::Rule { rule, .. } = &d.anchor {
                    if let Some(i) = opt.steps[0].rules.iter().position(|r| r.name == *rule) {
                        d.line = Some(sos_parser::line_of(src, offsets[i]));
                    }
                }
            }
            Ok(diags)
        } else {
            let mut sig = builtin::builtin_signature();
            let spans =
                sos_parser::parse_spec_with_spans(src, &mut sig).map_err(|e| e.to_string())?;
            let mut diags = sos_lint::lint_spec(&sig);
            for d in &mut diags {
                let offset = match &d.anchor {
                    sos_lint::Anchor::Spec(i) => spans.spec_offset(*i),
                    sos_lint::Anchor::Constructor(n) => spans.constructor_offset(n),
                    sos_lint::Anchor::Subtype(i) => spans.subtype_offset(*i),
                    _ => None,
                };
                if let Some(offset) = offset {
                    d.line = Some(sos_parser::line_of(src, offset));
                }
            }
            Ok(diags)
        }
    }

    /// Register the implementation of an operator a loaded
    /// specification declares, replacing any previous one. Every
    /// application the checker resolves to one of the operator's specs
    /// runs it. A name no spec declares as a fixed operator is rejected:
    /// only an attribute access could reach it, and attribute access
    /// always loads the field.
    pub fn add_op_impl<F>(&mut self, name: &str, f: F) -> Result<(), SystemError>
    where
        F: Fn(&mut EvalCtx, &TypedExpr, Vec<Value>) -> sos_exec::ExecResult<Value> + 'static,
    {
        let op = Symbol::new(name);
        if !self.sig.is_fixed_op(&op) {
            return Err(SystemError::Check(CheckError::UnknownOperator(op)));
        }
        self.engine.add_op(name, f);
        self.engine.bind_signature(&self.sig);
        Ok(())
    }

    /// Append an optimizer rule step. The step is linted against the
    /// current signature first and rejected on error-severity
    /// diagnostics (warnings never reject; [`Database::lint`] reports
    /// everything).
    pub fn add_rule_step(&mut self, step: sos_optimizer::RuleStep) -> Result<(), SystemError> {
        let trial = Optimizer::new(vec![step]);
        reject_lint_errors(sos_lint::lint_rules(&trial, &self.sig))?;
        self.optimizer.steps.extend(trial.steps);
        // New rules change what every shape optimizes to.
        self.plan_cache.invalidate_all();
        Ok(())
    }

    /// Load optimization rules from the textual rule language (Section 5)
    /// as a new exhaustive step with the given name.
    pub fn load_rules(&mut self, step_name: &str, src: &str) -> Result<(), SystemError> {
        let rules = sos_optimizer::parse_rules(src)?;
        self.add_rule_step(sos_optimizer::RuleStep::exhaustive(step_name, rules))
    }

    /// Read an object's current value (tests and benchmarks).
    pub fn object_value(&self, name: &str) -> Option<&Value> {
        self.store.get(&Symbol::new(name))
    }

    // ---- program processing ----

    /// Run a complete program, returning one output per statement.
    pub fn run(&mut self, src: &str) -> Result<Vec<Output>, SystemError> {
        let span = self.tracer.start();
        let stmts = parse_program(src, &self.sig);
        self.tracer.finish(Phase::Parse, span);
        let stmts = stmts?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute(stmt)?);
        }
        Ok(out)
    }

    /// Run a single query expression (concrete syntax) and return its
    /// value.
    ///
    /// ```
    /// # use sos_system::Database;
    /// # use sos_exec::Value;
    /// let mut db = Database::builder().build();
    /// assert_eq!(db.query("2 + 3 * 4").unwrap(), Value::Int(14));
    /// ```
    pub fn query(&mut self, expr_src: &str) -> Result<Value, SystemError> {
        let outputs = self.run(&format!("query {expr_src};"))?;
        match outputs.into_iter().next() {
            Some(Output::Query(v)) => Ok(v),
            _ => unreachable!("query statement produces a query output"),
        }
    }

    /// Type-check and optimize a query without executing it, returning
    /// a structured [`Explain`]: per-phase wall time, the ordered
    /// rewrite trace, and the final plan as a term and as an indented
    /// operator tree. Use [`Explain::plan`] for the bare plan term.
    ///
    /// ```
    /// # use sos_system::Database;
    /// let mut db = Database::builder().build();
    /// db.run("type t = tuple(<(k, int)>); create r : rel(t);").unwrap();
    /// let report = db.explain("r select[k > 0]").unwrap();
    /// assert!(report.plan().starts_with("select(r, fun ("));
    /// assert!(!report.phases.is_empty());
    /// ```
    pub fn explain(&mut self, expr_src: &str) -> Result<Explain, SystemError> {
        self.explain_query(expr_src, false)
    }

    /// Like [`Database::explain`], but also *runs* the plan and attaches
    /// an [`ExplainAnalysis`]: actual per-operator tuple/page counts,
    /// buffer-pool traffic attributable to the run, and a summary of the
    /// produced value.
    pub fn explain_analyze(&mut self, expr_src: &str) -> Result<Explain, SystemError> {
        self.explain_query(expr_src, true)
    }

    fn explain_query(&mut self, expr_src: &str, analyze: bool) -> Result<Explain, SystemError> {
        let mut phases = Vec::new();
        let started = Instant::now();
        let stmts = parse_program(&format!("query {expr_src};"), &self.sig)?;
        phases.push((Phase::Parse, started.elapsed().as_nanos() as u64));
        let Statement::Query(e) = &stmts[0] else {
            unreachable!()
        };
        let (optimized, rewrites, plan_cache) = self.explain_plan(None, e, &mut phases)?;
        let analysis = if analyze {
            let pool_before = self.engine.pool.stats();
            let ops_before = self.engine.stats.snapshot();
            let wal_before = self.engine.pool.wal_stats();
            let compile_before = self.engine.stats.compile_snapshot();
            let decoded_before = self.engine.stats.rows_decoded();
            let started = Instant::now();
            let value = self.eval(&optimized)?;
            phases.push((Phase::Execute, started.elapsed().as_nanos() as u64));
            Some(ExplainAnalysis {
                ops: ops_delta(&ops_before, &self.engine.stats.snapshot()),
                pool: pool_delta(&pool_before, &self.engine.pool.stats()),
                result: value_summary(&value),
                wal: self.engine.pool.wal_stats().delta(&wal_before),
                compile: self.engine.stats.compile_snapshot().delta(&compile_before),
                rows_decoded: self.engine.stats.rows_decoded() - decoded_before,
            })
        } else {
            None
        };
        Ok(Explain {
            source: expr_src.trim().to_string(),
            kind: ExplainKind::Query,
            phases,
            rewrites,
            plan: optimized.to_string(),
            plan_tree: plan_tree(&optimized),
            plan_cache,
            analysis,
        })
    }

    /// Type-check and optimize an update statement without executing it.
    /// [`Explain::statement`] renders the translated statement text —
    /// the paper's Section 6 trace: `update cities := insert(cities, c)`
    /// explains to `update cities_rep := insert(cities_rep, c)`.
    pub fn explain_update(&mut self, stmt_src: &str) -> Result<Explain, SystemError> {
        let mut phases = Vec::new();
        let started = Instant::now();
        let stmts = parse_program(stmt_src, &self.sig)?;
        phases.push((Phase::Parse, started.elapsed().as_nanos() as u64));
        let Some(Statement::Update(name, expr)) = stmts.first() else {
            return Err(SystemError::Persist(
                "explain_update expects a single update statement".into(),
            ));
        };
        let (optimized, rewrites, plan_cache) = self.explain_plan(Some(name), expr, &mut phases)?;
        let target = self
            .update_target(&optimized)
            .unwrap_or_else(|| name.clone());
        Ok(Explain {
            source: stmt_src.trim().to_string(),
            kind: ExplainKind::Update {
                target: target.to_string(),
            },
            phases,
            rewrites,
            plan: optimized.to_string(),
            plan_tree: plan_tree(&optimized),
            plan_cache,
            analysis: None,
        })
    }

    /// Plan one parsed query (`target` `None`) or update of `target` for
    /// EXPLAIN, appending phase timings. A statement the cache holds
    /// (looked up without counting) explains as its rebound cached plan
    /// with no rewrites; any other is checked and optimized, traced,
    /// with its own literals. EXPLAIN never fills the cache. Returns the
    /// plan, the rewrites and the cache outcome (`None` when the cache
    /// is not consulted).
    #[allow(clippy::type_complexity)]
    fn explain_plan(
        &mut self,
        target: Option<&Symbol>,
        expr: &Expr,
        phases: &mut Vec<(Phase, u64)>,
    ) -> Result<(TypedExpr, Vec<RuleApplication>, Option<bool>), SystemError> {
        let consulted = self.optimize_enabled;
        if consulted {
            let started = Instant::now();
            let (key, literals) = plancache::StmtKey::new(target, expr);
            if let Some(entry) = self.plan_cache.peek(&key) {
                let plan = plancache::rebind(&entry.template, &entry.sentinels, &literals);
                phases.push((Phase::Optimize, started.elapsed().as_nanos() as u64));
                return Ok((plan, Vec::new(), Some(true)));
            }
        }
        let started = Instant::now();
        let checked = self.check(&self.resolve_expr(expr))?;
        phases.push((Phase::Check, started.elapsed().as_nanos() as u64));
        let started = Instant::now();
        let (optimized, rewrites) = self.optimize_traced(&checked)?;
        phases.push((Phase::Optimize, started.elapsed().as_nanos() as u64));
        Ok((optimized, rewrites, consulted.then_some(false)))
    }

    /// Execute one parsed statement. Every writing statement runs through
    /// the one statement bracket (`Database::write_statement`), so it
    /// commits as one unit or leaves the database as it was.
    pub fn execute(&mut self, stmt: &Statement) -> Result<Output, SystemError> {
        match stmt {
            Statement::TypeDef(name, ty) => {
                let resolved = self.resolve_type(ty)?;
                self.checker().check_type(&resolved)?;
                self.write_statement(None, true, |db| {
                    db.catalog.define_type(name.clone(), resolved)?;
                    Ok(None)
                })?;
                // A statement naming the type in a lambda parameter
                // checks differently now.
                self.plan_cache.invalidate_all();
                Ok(Output::TypeDefined(name.clone()))
            }
            Statement::Create(name, ty) => {
                let resolved = self.resolve_type(ty)?;
                self.checker().check_type(&resolved)?;
                self.write_statement(Some(name), true, |db| {
                    db.catalog
                        .create_object(&db.sig, name.clone(), resolved.clone())?;
                    let value = db
                        .engine
                        .init_value(&db.sig, &db.catalog, name, &resolved)?;
                    Ok(Some(value))
                })?;
                // A new object (and any rep links a later catalog insert
                // adds) can change what the rewriter produces for shapes
                // that don't even mention it yet — drop everything.
                self.plan_cache.invalidate_all();
                Ok(Output::Created(name.clone()))
            }
            Statement::Update(name, expr) => {
                if self.catalog.object(name).is_none() {
                    return Err(SystemError::UnknownObject(name.clone()));
                }
                let optimized = self.plan(Some(name), expr)?;
                // A translated model update targets the representation
                // object named by the rewritten update operator.
                let target = self
                    .update_target(&optimized)
                    .unwrap_or_else(|| name.clone());
                let expected = &self
                    .catalog
                    .object(&target)
                    .ok_or_else(|| SystemError::UnknownObject(target.clone()))?
                    .ty;
                if optimized.ty != *expected {
                    return Err(SystemError::UpdateTypeMismatch {
                        object: target.clone(),
                        object_type: expected.to_string(),
                        value_type: optimized.ty.to_string(),
                    });
                }
                // Updating a catalog relation (e.g. inserting a rep
                // link) changes the catalog and which rules fire for any
                // shape; plain data updates leave both alone.
                let is_catalog = is_catalog(expected);
                self.write_statement(Some(&target), is_catalog, |db| {
                    db.eval(&optimized).map(Some)
                })?;
                if is_catalog {
                    self.plan_cache.invalidate_all();
                }
                Ok(Output::Updated(target))
            }
            Statement::Delete(name) => {
                let is_catalog = self.catalog.object(name).is_some_and(|o| is_catalog(&o.ty));
                self.write_statement(Some(name), true, |db| {
                    db.catalog.delete_object(name)?;
                    Ok(None)
                })?;
                // Dropping a catalog relation (e.g. `rep`) changes which
                // rules fire for any shape.
                if is_catalog {
                    self.plan_cache.invalidate_all();
                } else {
                    self.plan_cache.invalidate_object(name);
                }
                Ok(Output::Deleted(name.clone()))
            }
            Statement::Query(expr) => {
                let optimized = self.plan(None, expr)?;
                let value = self.eval(&optimized)?;
                Ok(Output::Query(value))
            }
        }
    }

    /// The level of a checked term: `Model` if it contains any
    /// model-level operator, otherwise the most specific of its parts
    /// (the classification of Section 6).
    pub fn term_level(&self, t: &TypedExpr) -> Level {
        let mut has_model = false;
        let mut has_rep = false;
        t.visit(&mut |n| {
            if let TypedNode::Apply { spec, .. } = &n.node {
                match self.sig.spec(*spec).level {
                    Level::Model => has_model = true,
                    Level::Representation => has_rep = true,
                    Level::Hybrid => {}
                }
            }
        });
        match (has_model, has_rep) {
            (true, _) => Level::Model,
            (false, true) => Level::Representation,
            (false, false) => Level::Hybrid,
        }
    }

    // ---- internals ----

    fn checker(&self) -> Checker<'_> {
        Checker::new(&self.sig, &self.catalog)
    }

    /// The one statement bracket, run by every writing statement and by
    /// [`Database::bulk_load`]. It runs `effects` inside a statement
    /// transaction, swaps the value they return into the store as
    /// `object`'s (`None` removes it) and commits. On any error, in the
    /// effects or in the commit, it aborts the transaction (restoring
    /// every page the statement touched), puts back the catalog and
    /// `object`'s displaced value, and re-attaches a durable structure
    /// to its pre-statement image: its root, length, page list or
    /// directory changed in memory along with the restored pages. The
    /// catalog is copied only when `changes_catalog`, so a data update
    /// costs one store swap.
    fn write_statement(
        &mut self,
        object: Option<&Symbol>,
        changes_catalog: bool,
        effects: impl FnOnce(&mut Database) -> Result<Option<Value>, SystemError>,
    ) -> Result<(), SystemError> {
        let catalog = changes_catalog.then(|| self.catalog.clone());
        let image = object
            .filter(|_| self.is_durable())
            .and_then(|name| self.store.get(name))
            .and_then(structure_image);
        self.engine.pool.begin_tx()?;
        let err = match effects(self) {
            Err(e) => e,
            Ok(value) => {
                let displaced = object.map(|name| swap(&mut self.store, name, value));
                match self.commit() {
                    Ok(()) => return Ok(()),
                    Err(e) => {
                        if let (Some(name), Some(prev)) = (object, displaced) {
                            swap(&mut self.store, name, prev);
                        }
                        e
                    }
                }
            }
        };
        self.engine.pool.abort_tx()?;
        if let Some(catalog) = catalog {
            self.catalog = catalog;
        }
        if let (Some(name), Some(image)) = (object, image) {
            let entry = self
                .catalog
                .object(name)
                .ok_or_else(|| SystemError::UnknownObject(name.clone()))?;
            let value = from_stored(
                &self.engine,
                &self.sig,
                &self.catalog,
                name,
                &entry.ty,
                image,
            )?;
            self.store.insert(name.clone(), value);
        }
        Err(err)
    }

    /// Commit the open statement transaction (a no-op in memory) with
    /// the current catalog + store snapshot as its meta payload — what
    /// recovery restores the in-memory side of the database from.
    fn commit(&self) -> Result<(), SystemError> {
        if self.is_durable() {
            let meta = self.snapshot_bytes()?;
            self.engine.pool.commit_tx(Some(&meta))?;
        }
        Ok(())
    }

    fn check(&self, e: &Expr) -> Result<TypedExpr, SystemError> {
        Ok(self.checker().check_expr(e)?)
    }

    /// Optimize while recording every applied rewrite (the explain path;
    /// timings there go through `Instant` directly, not the tracer).
    fn optimize_traced(
        &mut self,
        t: &TypedExpr,
    ) -> Result<(TypedExpr, Vec<RuleApplication>), SystemError> {
        if !self.optimize_enabled {
            return Ok((t.clone(), Vec::new()));
        }
        self.optimize_inner(t, true)
    }

    /// One call into the rewriter with the database's current options.
    fn optimize_inner(
        &mut self,
        t: &TypedExpr,
        traced: bool,
    ) -> Result<(TypedExpr, Vec<RuleApplication>), SystemError> {
        let span = self.tracer.start();
        let checker = Checker::new(&self.sig, &self.catalog);
        let result = self.optimizer.optimize(t, &checker, &self.catalog, traced);
        self.tracer.finish(Phase::Optimize, span);
        let (optimized, stats, trace) = result?;
        self.last_opt_stats = stats;
        self.total_opt_stats.absorb(stats);
        Ok((optimized, trace))
    }

    /// Plan one parsed query (`target` `None`) or update of `target` for
    /// execution. While the optimizer is on, every statement goes through
    /// the cache: a hit rebinds the cached template to this statement's
    /// literals, skipping resolution, check and optimize. A miss checks the statement and its sentinel shape;
    /// if rebinding the checked shape gives exactly the checked
    /// statement, the shape is optimized, cached and rebound, and
    /// otherwise the statement is optimized with its own literals.
    fn plan(&mut self, target: Option<&Symbol>, expr: &Expr) -> Result<TypedExpr, SystemError> {
        if !self.optimize_enabled {
            let span = self.tracer.start();
            let checked = self.check(&self.resolve_expr(expr));
            self.tracer.finish(Phase::Check, span);
            return checked;
        }
        // The lookup span covers the whole hit path: keying, the probe
        // and the rebind.
        let span = self.tracer.start();
        let started = Instant::now();
        let (key, literals) = plancache::StmtKey::new(target, expr);
        if let Some(entry) = self.plan_cache.lookup(&key) {
            let plan = plancache::rebind(&entry.template, &entry.sentinels, &literals);
            self.tracer.finish(Phase::Optimize, span);
            self.record_lookup(started.elapsed().as_nanos() as u64, true);
            return Ok(plan);
        }
        let lookup_ns = started.elapsed().as_nanos() as u64;
        // Check the statement first, so errors carry its real literals.
        let span = self.tracer.start();
        let checked = self.check(&self.resolve_expr(expr));
        let sentinels = plancache::sentinels(&literals);
        let generic = match &checked {
            Ok(checked) => self
                .check(&self.resolve_expr(key.shape()))
                .ok()
                .filter(|g| plancache::rebind(g, &sentinels, &literals) == *checked),
            Err(_) => None,
        };
        self.tracer.finish(Phase::Check, span);
        let checked = checked?;
        let plan = match generic {
            // The shape's typing depends on a literal value: never cached.
            None => self.optimize_inner(&checked, false)?.0,
            Some(generic) => {
                let (template, _) = self.optimize_inner(&generic, false)?;
                let mut objects: Vec<Symbol> = target.into_iter().cloned().collect();
                plancache::referenced_objects(&checked, &mut objects);
                plancache::referenced_objects(&template, &mut objects);
                let plan = plancache::rebind(&template, &sentinels, &literals);
                self.plan_cache.insert(
                    key,
                    plancache::CachedPlan {
                        template,
                        sentinels,
                        objects,
                    },
                );
                plan
            }
        };
        self.record_lookup(lookup_ns, false);
        Ok(plan)
    }

    /// Account a statement-cache lookup as optimizer time: on a hit it is
    /// the whole optimize, on a miss it adds to the rewriter run.
    fn record_lookup(&mut self, ns: u64, hit: bool) {
        let lookup = OptimizerStats {
            optimize_ns: ns,
            cache_lookup_ns: ns,
            ..OptimizerStats::default()
        };
        if hit {
            self.last_opt_stats = lookup;
        } else {
            self.last_opt_stats.absorb(lookup);
        }
        self.total_opt_stats.absorb(lookup);
    }

    fn eval(&mut self, t: &TypedExpr) -> Result<Value, SystemError> {
        let span = self.tracer.start();
        let result = self.eval_inner(t);
        self.tracer.finish(Phase::Execute, span);
        result
    }

    fn eval_inner(&mut self, t: &TypedExpr) -> Result<Value, SystemError> {
        let mut ctx = EvalCtx::new(&self.engine, &mut self.store, &mut self.catalog);
        let v = ctx.eval(t)?;
        // Pipelined cursors are drained at the statement boundary; within
        // a plan they stay lazy.
        match v {
            Value::Cursor(_) => Ok(Value::Stream(sos_exec::stream::materialize(&mut ctx, v)?)),
            other => Ok(other),
        }
    }

    /// The representation object a rewritten update targets, if any.
    fn update_target(&self, t: &TypedExpr) -> Option<Symbol> {
        let TypedNode::Apply { spec, args, .. } = &t.node else {
            return None;
        };
        if !self.sig.spec(*spec).is_update {
            return None;
        }
        match &args.first()?.node {
            TypedNode::Object(n) => Some(n.clone()),
            _ => None,
        }
    }

    /// Expand named types and resolve bare names that denote identifier
    /// values (`btree(city, pop, int)`: `city` is a named type, `pop` an
    /// attribute name).
    fn resolve_type(&self, ty: &DataType) -> Result<DataType, SystemError> {
        let expanded = self.catalog.expand_type(ty);
        Ok(self.resolve_idents(&expanded))
    }

    fn resolve_idents(&self, ty: &DataType) -> DataType {
        match ty {
            DataType::Cons(name, args) => DataType::Cons(
                name.clone(),
                args.iter().map(|a| self.resolve_ident_arg(a)).collect(),
            ),
            DataType::Fun(params, res) => DataType::Fun(
                params.iter().map(|p| self.resolve_idents(p)).collect(),
                Box::new(self.resolve_idents(res)),
            ),
        }
    }

    fn resolve_ident_arg(&self, arg: &TypeArg) -> TypeArg {
        match arg {
            TypeArg::Type(DataType::Cons(name, args))
                if args.is_empty()
                    && self.sig.constructor(name).is_none()
                    && self.catalog.named_type(name).is_none() =>
            {
                TypeArg::Expr(Expr::Const(sos_core::Const::Ident(name.clone())))
            }
            TypeArg::Type(t) => TypeArg::Type(self.resolve_idents(t)),
            TypeArg::List(items) => {
                TypeArg::List(items.iter().map(|a| self.resolve_ident_arg(a)).collect())
            }
            TypeArg::Pair(items) => {
                TypeArg::Pair(items.iter().map(|a| self.resolve_ident_arg(a)).collect())
            }
            TypeArg::Expr(e) => TypeArg::Expr(self.resolve_expr(e)),
        }
    }

    /// Expand named types in lambda parameter annotations throughout an
    /// expression.
    fn resolve_expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Lambda { params, body } => Expr::Lambda {
                params: params
                    .iter()
                    .map(|(n, t)| {
                        (
                            n.clone(),
                            self.resolve_type(t).unwrap_or_else(|_| t.clone()),
                        )
                    })
                    .collect(),
                body: Box::new(self.resolve_expr(body)),
            },
            Expr::Apply { op, args } => Expr::Apply {
                op: op.clone(),
                args: args.iter().map(|a| self.resolve_expr(a)).collect(),
            },
            Expr::List(items) => Expr::List(items.iter().map(|a| self.resolve_expr(a)).collect()),
            Expr::Tuple(items) => Expr::Tuple(items.iter().map(|a| self.resolve_expr(a)).collect()),
            Expr::Seq(atoms) => Expr::Seq(
                atoms
                    .iter()
                    .map(|a| match a {
                        sos_core::SeqAtom::Operand(e) => {
                            sos_core::SeqAtom::Operand(self.resolve_expr(e))
                        }
                        sos_core::SeqAtom::Word {
                            name,
                            brackets,
                            parens,
                        } => sos_core::SeqAtom::Word {
                            name: name.clone(),
                            brackets: brackets
                                .as_ref()
                                .map(|bs| bs.iter().map(|b| self.resolve_expr(b)).collect()),
                            parens: parens
                                .as_ref()
                                .map(|ps| ps.iter().map(|p| self.resolve_expr(p)).collect()),
                        },
                    })
                    .collect(),
            ),
            Expr::Const(_) | Expr::Name(_) => e.clone(),
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::builder().build()
    }
}

/// Put `value` into the store as `name`'s value (`None` removes it) and
/// return what it displaced, moved out: swapping that back undoes it.
fn swap(store: &mut HashMap<Symbol, Value>, name: &Symbol, value: Option<Value>) -> Option<Value> {
    match value {
        Some(v) => store.insert(name.clone(), v),
        None => store.remove(name),
    }
}

/// Whether `ty` is a catalog relation type (`catalog(...)`).
fn is_catalog(ty: &DataType) -> bool {
    matches!(ty, DataType::Cons(c, _) if c.as_str() == "catalog")
}

/// `Ok` unless `diags` holds an error-severity finding; otherwise the
/// [`SystemError::Lint`] carrying just the errors.
fn reject_lint_errors(diags: Vec<sos_lint::Diagnostic>) -> Result<(), SystemError> {
    if !sos_lint::has_errors(&diags) {
        return Ok(());
    }
    Err(SystemError::Lint(
        diags
            .into_iter()
            .filter(|d| d.severity == sos_lint::Severity::Error)
            .collect(),
    ))
}

/// A short, deterministic summary of a produced value: kind and
/// cardinality for collections, kind and rendering for atoms.
fn value_summary(v: &Value) -> String {
    match v {
        Value::Rel(ts) => format!("rel of {} tuple(s)", ts.len()),
        Value::Stream(ts) => format!("stream of {} tuple(s)", ts.len()),
        Value::List(vs) => format!("list of {} value(s)", vs.len()),
        Value::Int(_) | Value::Real(_) | Value::Str(_) | Value::Bool(_) => {
            format!("{} = {}", v.kind_name(), sos_exec::render(v))
        }
        other => other.kind_name().to_string(),
    }
}
