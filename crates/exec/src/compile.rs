//! The expression compiler: checked [`TypedExpr`] trees lowered to a
//! flat register bytecode.
//!
//! The paper's second-order signature separates specification from
//! execution; since the checker resolves every type before a term
//! reaches the engine, a predicate like `k mod 7 = 0` can be lowered to
//! monomorphic code with no interpreter frames. A [`CompiledFun`] is
//! such a lowering of a [`Closure`] body: a postorder instruction
//! sequence over a flat register file, evaluated once per tuple without
//! environment pushes, name lookups, operator-table probes, or per-node
//! argument vectors.
//!
//! Two tiers:
//!
//! * **Tier A (register bytecode)** — any pure body compiles: constants,
//!   parameters, captured variables (frozen as constants — a closure's
//!   captured environment is immutable), checked attribute access, and
//!   applications whose operator-table entry is pure (the atomic
//!   built-ins of [`crate::ops::basic`]). Binary calls carry integer
//!   fast paths and delegate every other operand shape to
//!   [`Atomic::eval`] — the same single implementation the interpreter's
//!   table entry runs — so a compiled program is extensionally equal to
//!   the interpreted closure *by construction*, including error text and
//!   error order (evaluation is strict in both: argument subterms
//!   evaluate left-to-right, `and` / `or` do not short-circuit).
//! * **Tier B (columnar kernel)** — when the whole body is int/bool
//!   typed (int field loads and constants, checked arithmetic, integer
//!   `div`/`mod`, comparisons, logic), the program additionally lowers
//!   to a columnar form executed over unboxed `i64` / `bool` vectors for
//!   a whole batch: the roadmap's "tight loop, no frames". On *any*
//!   irregularity — overflow, division by zero, a non-int value in an
//!   int-typed field — the kernel bails out and the batch re-runs
//!   row-by-row through tier A, which reproduces the exact
//!   first-error-in-row-order behavior of the interpreter (tier A is
//!   pure, so the abandoned columnar attempt has no side effects).
//!
//! Anything outside the pure subset — object references, nested
//! function values, impure or overridden operators, unbound
//! variables — refuses to compile with a named [`Fallback`] reason; the
//! caller keeps the interpreter path and the engine counts the fallback
//! (surfaced through `.metrics` and EXPLAIN ANALYZE).
//!
//! Every lowered program additionally passes the **bytecode verifier**
//! ([`CompiledFun::verify`]) before it is accepted: a static pass that
//! proves single assignment, read-after-write, in-bounds register and
//! input-slot indices, that every call names a pure operator-table
//! entry, and opcode-kind consistency — the invariants the
//! dirty-register-file executor and the split-borrowing columnar kernel
//! rely on. A program that fails verification is rejected with
//! [`Fallback::Rejected`] (`verifier-reject` in the compile counters)
//! and the interpreter keeps the closure.
//!
//! `tests/prop_compiled_vs_interp.rs` checks compiled ≡ interpreted
//! differentially over random expressions and batch widths.

use crate::engine::ExecEngine;
use crate::error::{ExecError, ExecResult};
use crate::handles::load_field;
use crate::ops::basic::{div_int, mod_int, Atomic};
use crate::ops::{OpId, OpTable};
use crate::value::{Closure, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Symbol};
use std::cell::RefCell;
use std::sync::Arc;

/// Why a closure could not be compiled. [`Fallback::reason`] is the
/// stable key recorded in [`crate::stats::CompileStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// The body reads a database object (needs the store).
    Object(Symbol),
    /// The body builds or applies a function value (re-enters the
    /// interpreter).
    Function,
    /// An operator whose table entry is not pure (or that has no entry).
    ImpureOp(Symbol),
    /// A variable bound neither by the parameters nor the captured
    /// environment; the interpreter owns the error.
    UnboundVar(Symbol),
    /// The lowered program failed the bytecode verifier (see
    /// [`CompiledFun::verify`]); the payload is the verifier's finding.
    /// Under a correct lowering this is unreachable, but the verifier
    /// keeps the single-assignment invariants the executor relies on
    /// checked rather than assumed.
    Rejected(String),
}

impl Fallback {
    /// Every counter key, sorted; [`Fallback::index`] positions a reason
    /// in this list.
    pub const REASONS: [&'static str; 5] = [
        "impure-op",
        "nested-function",
        "object-ref",
        "unbound-variable",
        "verifier-reject",
    ];

    /// This reason's position in [`Fallback::REASONS`].
    pub fn index(&self) -> usize {
        match self {
            Fallback::ImpureOp(_) => 0,
            Fallback::Function => 1,
            Fallback::Object(_) => 2,
            Fallback::UnboundVar(_) => 3,
            Fallback::Rejected(_) => 4,
        }
    }

    /// The stable counter key for this reason.
    pub fn reason(&self) -> &'static str {
        Self::REASONS[self.index()]
    }
}

/// One bytecode instruction. Registers are allocated in postorder (SSA:
/// each written exactly once per evaluation), so a dirty register file
/// can be reused across rows without clearing.
#[derive(Debug)]
enum Inst {
    /// Load a constant (source constants and frozen captured values).
    Const(usize, Value),
    /// Load the argument in input slot `.1`.
    Input(usize, usize),
    /// Tuple attribute access: `dst, src, field index, attribute name`
    /// (the name only feeds the error message).
    Field(usize, usize, usize, Symbol),
    /// A pure operator-table entry applied to argument registers:
    /// `dst, entry, its evaluation, arguments`. Binary calls take the
    /// fast paths of [`bin_op`].
    Call(usize, OpId, Atomic, Box<[usize]>),
    /// `<a, b, ...>` list construction.
    MakeList(usize, Box<[usize]>),
    /// `(a, b)` product construction.
    MakePair(usize, Box<[usize]>),
}

// ---------------------------------------------------------------------
// Tier B: the columnar int/bool kernel.
// ---------------------------------------------------------------------

/// A columnar register: an `i64` column or a `bool` column.
#[derive(Debug, Clone, Copy)]
enum ColReg {
    I(usize),
    B(usize),
}

#[derive(Debug)]
enum ColInst {
    /// Gather an int-typed field from every tuple of the batch.
    GatherInt {
        dst: usize,
        field: usize,
    },
    /// Gather a bool-typed field from every tuple of the batch.
    GatherBool {
        dst: usize,
        field: usize,
    },
    BroadcastInt {
        dst: usize,
        v: i64,
    },
    BroadcastBool {
        dst: usize,
        v: bool,
    },
    /// `+ - * div mod` over two int columns (checked; errors bail).
    Arith {
        op: Atomic,
        dst: usize,
        a: usize,
        b: usize,
    },
    /// `= != < <= > >=` over two int columns into a bool column.
    Cmp {
        op: Atomic,
        dst: usize,
        a: usize,
        b: usize,
    },
    /// Strict logic over bool columns.
    And {
        dst: usize,
        a: usize,
        b: usize,
    },
    Or {
        dst: usize,
        a: usize,
        b: usize,
    },
    Not {
        dst: usize,
        a: usize,
    },
}

/// The whole-batch outcome of the columnar kernel.
enum ColOutcome {
    Ints(Vec<i64>),
    Bools(Vec<bool>),
    /// Something irregular (overflow, div by zero, non-int field):
    /// re-run the batch row-by-row through tier A.
    Bail,
}

#[derive(Debug)]
struct ColProgram {
    insts: Vec<ColInst>,
    n_int: usize,
    n_bool: usize,
    out: ColReg,
}

impl ColProgram {
    // Index loops are deliberate: each arm reads and writes different
    // rows of one `Vec<Vec<_>>`, which iterator zips can't split-borrow.
    #[allow(clippy::needless_range_loop)]
    fn run(&self, batch: &[Value]) -> ColOutcome {
        let n = batch.len();
        let mut ints: Vec<Vec<i64>> = (0..self.n_int).map(|_| vec![0; n]).collect();
        let mut bools: Vec<Vec<bool>> = (0..self.n_bool).map(|_| vec![false; n]).collect();
        for inst in &self.insts {
            match inst {
                ColInst::GatherInt { dst, field } => {
                    let col = &mut ints[*dst];
                    for (r, t) in batch.iter().enumerate() {
                        let Value::Tuple(fs) = t else {
                            return ColOutcome::Bail;
                        };
                        match fs.get(*field) {
                            Some(Value::Int(v)) => col[r] = *v,
                            _ => return ColOutcome::Bail,
                        }
                    }
                }
                ColInst::GatherBool { dst, field } => {
                    let col = &mut bools[*dst];
                    for (r, t) in batch.iter().enumerate() {
                        let Value::Tuple(fs) = t else {
                            return ColOutcome::Bail;
                        };
                        match fs.get(*field) {
                            Some(Value::Bool(v)) => col[r] = *v,
                            _ => return ColOutcome::Bail,
                        }
                    }
                }
                ColInst::BroadcastInt { dst, v } => ints[*dst].fill(*v),
                ColInst::BroadcastBool { dst, v } => bools[*dst].fill(*v),
                ColInst::Arith { op, dst, a, b } => {
                    // Split-borrow via raw index juggling: dst is always a
                    // fresh register (postorder SSA), never equal to a/b.
                    for r in 0..n {
                        let (x, y) = (ints[*a][r], ints[*b][r]);
                        let v = match op {
                            Atomic::Add => x.checked_add(y),
                            Atomic::Sub => x.checked_sub(y),
                            Atomic::Mul => x.checked_mul(y),
                            Atomic::DivInt => x.checked_div_euclid(y),
                            Atomic::Mod => (y != 0).then(|| x.wrapping_rem_euclid(y)),
                            _ => unreachable!("non-arith op in Arith"),
                        };
                        match v {
                            Some(v) => ints[*dst][r] = v,
                            None => return ColOutcome::Bail,
                        }
                    }
                }
                ColInst::Cmp { op, dst, a, b } => {
                    for r in 0..n {
                        let (x, y) = (ints[*a][r], ints[*b][r]);
                        bools[*dst][r] = match op {
                            Atomic::Eq => x == y,
                            Atomic::Ne => x != y,
                            Atomic::Lt => x < y,
                            Atomic::Le => x <= y,
                            Atomic::Gt => x > y,
                            Atomic::Ge => x >= y,
                            _ => unreachable!("non-compare op in Cmp"),
                        };
                    }
                }
                ColInst::And { dst, a, b } => {
                    for r in 0..n {
                        bools[*dst][r] = bools[*a][r] && bools[*b][r];
                    }
                }
                ColInst::Or { dst, a, b } => {
                    for r in 0..n {
                        bools[*dst][r] = bools[*a][r] || bools[*b][r];
                    }
                }
                ColInst::Not { dst, a } => {
                    for r in 0..n {
                        bools[*dst][r] = !bools[*a][r];
                    }
                }
            }
        }
        match self.out {
            ColReg::I(i) => ColOutcome::Ints(std::mem::take(&mut ints[i])),
            ColReg::B(i) => ColOutcome::Bools(std::mem::take(&mut bools[i])),
        }
    }

    /// Verify the columnar kernel: the same single-assignment and
    /// read-after-write discipline as tier A, per register file, plus
    /// opcode-kind consistency (`Arith` must carry an arithmetic opcode
    /// and `Cmp` a comparison — `run` panics otherwise).
    fn verify(&self) -> Result<(), String> {
        let mut ints = vec![false; self.n_int];
        let mut bools = vec![false; self.n_bool];
        for (pc, inst) in self.insts.iter().enumerate() {
            match inst {
                ColInst::GatherInt { dst, .. } | ColInst::BroadcastInt { dst, .. } => {
                    reg_write(&mut ints, *dst, pc)?;
                }
                ColInst::GatherBool { dst, .. } | ColInst::BroadcastBool { dst, .. } => {
                    reg_write(&mut bools, *dst, pc)?;
                }
                ColInst::Arith { op, dst, a, b } => {
                    if !is_arith(*op) {
                        return Err(format!(
                            "columnar inst {pc}: `{}` is not an arithmetic opcode",
                            op.name()
                        ));
                    }
                    reg_read(&ints, *a, pc)?;
                    reg_read(&ints, *b, pc)?;
                    reg_write(&mut ints, *dst, pc)?;
                }
                ColInst::Cmp { op, dst, a, b } => {
                    if !is_cmp(*op) {
                        return Err(format!(
                            "columnar inst {pc}: `{}` is not a comparison opcode",
                            op.name()
                        ));
                    }
                    reg_read(&ints, *a, pc)?;
                    reg_read(&ints, *b, pc)?;
                    reg_write(&mut bools, *dst, pc)?;
                }
                ColInst::And { dst, a, b } | ColInst::Or { dst, a, b } => {
                    reg_read(&bools, *a, pc)?;
                    reg_read(&bools, *b, pc)?;
                    reg_write(&mut bools, *dst, pc)?;
                }
                ColInst::Not { dst, a } => {
                    reg_read(&bools, *a, pc)?;
                    reg_write(&mut bools, *dst, pc)?;
                }
            }
        }
        let (init, i) = match self.out {
            ColReg::I(i) => (&ints, i),
            ColReg::B(i) => (&bools, i),
        };
        reg_read(init, i, self.insts.len()).map_err(|e| format!("columnar output register: {e}"))
    }
}

/// The integer opcodes of the columnar `Arith` instruction.
fn is_arith(op: Atomic) -> bool {
    matches!(
        op,
        Atomic::Add | Atomic::Sub | Atomic::Mul | Atomic::DivInt | Atomic::Mod
    )
}

/// The integer comparisons of the columnar `Cmp` instruction.
fn is_cmp(op: Atomic) -> bool {
    matches!(
        op,
        Atomic::Eq | Atomic::Ne | Atomic::Lt | Atomic::Le | Atomic::Gt | Atomic::Ge
    )
}

/// Shared verifier step: a read of register `r` at instruction `pc` is
/// legal when `r` is in bounds and already written.
fn reg_read(init: &[bool], r: usize, pc: usize) -> Result<(), String> {
    if r >= init.len() {
        Err(format!(
            "inst {pc} reads out-of-bounds register r{r} (register file holds {})",
            init.len()
        ))
    } else if !init[r] {
        Err(format!(
            "inst {pc} reads register r{r} before any instruction writes it"
        ))
    } else {
        Ok(())
    }
}

/// Shared verifier step: a write of register `r` at instruction `pc` is
/// legal when `r` is in bounds and not yet written (single assignment).
fn reg_write(init: &mut [bool], r: usize, pc: usize) -> Result<(), String> {
    if r >= init.len() {
        Err(format!(
            "inst {pc} writes out-of-bounds register r{r} (register file holds {})",
            init.len()
        ))
    } else if init[r] {
        Err(format!(
            "inst {pc} writes register r{r} twice (programs are single-assignment)"
        ))
    } else {
        init[r] = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The compiled function.
// ---------------------------------------------------------------------

thread_local! {
    /// Shared register scratch: compiled programs never nest (the pure
    /// subset has no function calls), so one register file per thread
    /// suffices and per-row evaluation allocates nothing.
    static REGS: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// A closure lowered to register bytecode (and, when the body is
/// int/bool typed throughout, a columnar batch kernel).
#[derive(Debug)]
pub struct CompiledFun {
    arity: usize,
    insts: Box<[Inst]>,
    out: usize,
    n_regs: usize,
    col: Option<ColProgram>,
}

impl CompiledFun {
    /// Lower `closure`'s body, or report why the interpreter must keep
    /// it. Captured variables are frozen into the program as constants
    /// (a closure's captured environment never changes after capture).
    pub fn compile(engine: &ExecEngine, closure: &Closure) -> Result<CompiledFun, Fallback> {
        let mut c = Lowering {
            engine,
            params: &closure.params,
            captured: &closure.captured,
            insts: Vec::new(),
            next: 0,
        };
        let out = c.lower(&closure.body)?;
        let n_regs = c.next;
        let insts = c.insts.into_boxed_slice();
        let col = lower_columnar(engine, closure);
        let cf = CompiledFun {
            arity: closure.params.len(),
            insts,
            out,
            n_regs,
            col,
        };
        cf.verify(engine.ops()).map_err(Fallback::Rejected)?;
        Ok(cf)
    }

    /// The bytecode verifier: a static pass over the lowered program,
    /// run once at compile time before the program is ever executed.
    ///
    /// The executor reuses a dirty per-thread register file without
    /// clearing and the columnar kernel split-borrows its column
    /// vectors; both are sound only if programs are single-assignment
    /// and every read happens after the (unique) write. The verifier
    /// checks those invariants instead of assuming them:
    ///
    /// * every register is written exactly once, read only afterwards,
    ///   and in bounds for its register file;
    /// * input slots are within the closure's arity;
    /// * every `Call` names an entry of `ops` whose `pure` evaluation is
    ///   the one it carries, and `Arith`/`Cmp` carry an opcode of the
    ///   right kind (the executor would panic on a mismatch);
    /// * the output register is defined.
    ///
    /// A rejected program falls back to the interpreter and counts as
    /// `verifier-reject` in the compile statistics.
    pub fn verify(&self, ops: &OpTable) -> Result<(), String> {
        let mut init = vec![false; self.n_regs];
        for (pc, inst) in self.insts.iter().enumerate() {
            match inst {
                Inst::Const(dst, _) => reg_write(&mut init, *dst, pc)?,
                Inst::Input(dst, slot) => {
                    if *slot >= self.arity {
                        return Err(format!(
                            "inst {pc} reads input slot {slot}, but the function \
                             takes {} argument(s)",
                            self.arity
                        ));
                    }
                    reg_write(&mut init, *dst, pc)?;
                }
                Inst::Field(dst, src, _, _) => {
                    reg_read(&init, *src, pc)?;
                    reg_write(&mut init, *dst, pc)?;
                }
                Inst::Call(dst, id, op, arg_regs) => {
                    let entry = ops.entries().get(*id).ok_or_else(|| {
                        format!("inst {pc} calls operator #{id}, which is not in the table")
                    })?;
                    if entry.pure != Some(*op) {
                        return Err(format!(
                            "inst {pc} calls `{}`, which is not a pure operator",
                            entry.name
                        ));
                    }
                    for r in arg_regs.iter() {
                        reg_read(&init, *r, pc)?;
                    }
                    reg_write(&mut init, *dst, pc)?;
                }
                Inst::MakeList(dst, arg_regs) | Inst::MakePair(dst, arg_regs) => {
                    for r in arg_regs.iter() {
                        reg_read(&init, *r, pc)?;
                    }
                    reg_write(&mut init, *dst, pc)?;
                }
            }
        }
        reg_read(&init, self.out, self.insts.len()).map_err(|e| format!("output register: {e}"))?;
        if let Some(col) = &self.col {
            col.verify()?;
        }
        Ok(())
    }

    /// Whether the tier-B columnar kernel applies (observable for tests).
    pub fn is_columnar(&self) -> bool {
        self.col.is_some()
    }

    /// Apply to argument values: tier A, one row. Arity errors match
    /// `EvalCtx::call_bound` exactly.
    pub fn call(&self, args: &[Value]) -> ExecResult<Value> {
        if self.arity != args.len() {
            return Err(ExecError::Other(format!(
                "function expects {} argument(s), got {}",
                self.arity,
                args.len()
            )));
        }
        REGS.with(|cell| {
            let mut regs = cell.borrow_mut();
            if regs.len() < self.n_regs {
                regs.resize(self.n_regs, Value::Undefined);
            }
            self.exec(&mut regs, args)
        })
    }

    /// Evaluate as a predicate over a whole batch, returning the keep
    /// mask. Columnar when possible; otherwise row-by-row, surfacing the
    /// first error in row order (the interpreter's order).
    pub fn eval_mask(&self, batch: &[Value], op: &'static str) -> ExecResult<Vec<bool>> {
        if let Some(col) = &self.col {
            if let ColOutcome::Bools(mask) = col.run(batch) {
                return Ok(mask);
            }
        }
        let mut mask = Vec::with_capacity(batch.len());
        for t in batch {
            mask.push(self.call(std::slice::from_ref(t))?.as_bool(op)?);
        }
        Ok(mask)
    }

    /// Evaluate over a whole batch, returning one value per row.
    /// Columnar when possible; otherwise row-by-row.
    pub fn eval_column(&self, batch: &[Value]) -> ExecResult<Vec<Value>> {
        if let Some(vs) = self.try_columnar(batch) {
            return Ok(vs);
        }
        batch
            .iter()
            .map(|t| self.call(std::slice::from_ref(t)))
            .collect()
    }

    /// Run the tier-B kernel alone: `Some(values)` only when the whole
    /// batch evaluated columnar with no bail-out. Callers that interleave
    /// the per-row result with other fallible work (`replace` rebuilds
    /// the tuple per row) use this so that on `None` they can fall back
    /// to fully interleaved per-row evaluation, keeping the
    /// interpreter's error order exactly.
    pub fn try_columnar(&self, batch: &[Value]) -> Option<Vec<Value>> {
        match self.col.as_ref()?.run(batch) {
            ColOutcome::Ints(vs) => Some(vs.into_iter().map(Value::Int).collect()),
            ColOutcome::Bools(vs) => Some(vs.into_iter().map(Value::Bool).collect()),
            ColOutcome::Bail => None,
        }
    }

    fn exec(&self, regs: &mut [Value], args: &[Value]) -> ExecResult<Value> {
        for inst in self.insts.iter() {
            match inst {
                Inst::Const(dst, v) => regs[*dst] = v.clone(),
                Inst::Input(dst, slot) => regs[*dst] = args[*slot].clone(),
                Inst::Field(dst, src, idx, attr) => {
                    regs[*dst] = load_field(&regs[*src], *idx, attr)?;
                }
                Inst::Call(dst, _, op, arg_regs) => {
                    let v = match **arg_regs {
                        [a] => op.eval(std::slice::from_ref(&regs[a])),
                        [a, b] => bin_op(*op, &regs[a], &regs[b]),
                        _ => op.eval(
                            &arg_regs
                                .iter()
                                .map(|&r| regs[r].clone())
                                .collect::<Vec<_>>(),
                        ),
                    };
                    regs[*dst] = v?;
                }
                Inst::MakeList(dst, arg_regs) => {
                    regs[*dst] = Value::List(arg_regs.iter().map(|&r| regs[r].clone()).collect());
                }
                Inst::MakePair(dst, arg_regs) => {
                    regs[*dst] = Value::Pair(arg_regs.iter().map(|&r| regs[r].clone()).collect());
                }
            }
        }
        Ok(std::mem::replace(&mut regs[self.out], Value::Undefined))
    }
}

/// One binary call: integer (and boolean) fast paths, everything else
/// through the shared atomic implementation for identical promotion and
/// identical errors.
fn bin_op(op: Atomic, a: &Value, b: &Value) -> ExecResult<Value> {
    match (op, a, b) {
        (Atomic::Add, Value::Int(x), Value::Int(y)) => x
            .checked_add(*y)
            .map(Value::Int)
            .ok_or_else(|| ExecError::Arithmetic("integer overflow in `+`".into())),
        (Atomic::Sub, Value::Int(x), Value::Int(y)) => x
            .checked_sub(*y)
            .map(Value::Int)
            .ok_or_else(|| ExecError::Arithmetic("integer overflow in `-`".into())),
        (Atomic::Mul, Value::Int(x), Value::Int(y)) => x
            .checked_mul(*y)
            .map(Value::Int)
            .ok_or_else(|| ExecError::Arithmetic("integer overflow in `*`".into())),
        (Atomic::DivInt, Value::Int(x), Value::Int(y)) => div_int(*x, *y).map(Value::Int),
        (Atomic::Mod, Value::Int(x), Value::Int(y)) => mod_int(*x, *y).map(Value::Int),
        (Atomic::Eq, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x == y)),
        (Atomic::Ne, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x != y)),
        (Atomic::Lt, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x < y)),
        (Atomic::Le, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x <= y)),
        (Atomic::Gt, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x > y)),
        (Atomic::Ge, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x >= y)),
        (Atomic::And, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x && *y)),
        (Atomic::Or, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x || *y)),
        _ => op.eval(&[a.clone(), b.clone()]),
    }
}

// ---------------------------------------------------------------------
// Lowering: TypedExpr -> bytecode.
// ---------------------------------------------------------------------

struct Lowering<'a> {
    engine: &'a ExecEngine,
    params: &'a [(Symbol, DataType)],
    captured: &'a [(Symbol, Value)],
    insts: Vec<Inst>,
    next: usize,
}

impl Lowering<'_> {
    fn fresh(&mut self) -> usize {
        let r = self.next;
        self.next += 1;
        r
    }

    fn lower(&mut self, te: &TypedExpr) -> Result<usize, Fallback> {
        match &te.node {
            TypedNode::Const(c) => {
                let dst = self.fresh();
                self.insts.push(Inst::Const(dst, Value::from_const(c)));
                Ok(dst)
            }
            TypedNode::Object(name) => Err(Fallback::Object(name.clone())),
            TypedNode::Lambda { .. } | TypedNode::ApplyFun { .. } => Err(Fallback::Function),
            TypedNode::Var(name) => {
                let dst = self.fresh();
                // The interpreter's environment is captured ++ params,
                // searched innermost-first: parameters shadow captures.
                if let Some(slot) = self.params.iter().rposition(|(n, _)| n == name) {
                    self.insts.push(Inst::Input(dst, slot));
                } else if let Some((_, v)) = self.captured.iter().rev().find(|(n, _)| n == name) {
                    self.insts.push(Inst::Const(dst, v.clone()));
                } else {
                    return Err(Fallback::UnboundVar(name.clone()));
                }
                Ok(dst)
            }
            TypedNode::List(items) => {
                let regs = self.lower_all(items)?;
                let dst = self.fresh();
                self.insts.push(Inst::MakeList(dst, regs));
                Ok(dst)
            }
            TypedNode::Tuple(items) => {
                let regs = self.lower_all(items)?;
                let dst = self.fresh();
                self.insts.push(Inst::MakePair(dst, regs));
                Ok(dst)
            }
            TypedNode::Field { attr, idx, arg, .. } => {
                let src = self.lower(arg)?;
                let dst = self.fresh();
                self.insts.push(Inst::Field(dst, src, *idx, attr.clone()));
                Ok(dst)
            }
            TypedNode::Apply { op, spec, args } => {
                let Some((id, Some(pure))) =
                    self.engine.ops().of_spec(*spec).map(|(id, e)| (id, e.pure))
                else {
                    return Err(Fallback::ImpureOp(op.clone()));
                };
                let regs = self.lower_all(args)?;
                let dst = self.fresh();
                self.insts.push(Inst::Call(dst, id, pure, regs));
                Ok(dst)
            }
        }
    }

    fn lower_all(&mut self, items: &[TypedExpr]) -> Result<Box<[usize]>, Fallback> {
        items.iter().map(|i| self.lower(i)).collect()
    }
}

// ---------------------------------------------------------------------
// Columnar lowering.
// ---------------------------------------------------------------------

fn is_atom(ty: &DataType, name: &str) -> bool {
    matches!(ty, DataType::Cons(n, args) if n.as_str() == name && args.is_empty())
}

/// Try to lower the body to the int/bool columnar kernel. `None` keeps
/// tier A only — never an error, since tier A already compiled.
fn lower_columnar(engine: &ExecEngine, closure: &Closure) -> Option<ColProgram> {
    let [(param, _)] = &closure.params[..] else {
        return None;
    };
    let mut c = ColLowering {
        engine,
        param,
        captured: &closure.captured,
        insts: Vec::new(),
        n_int: 0,
        n_bool: 0,
    };
    let out = c.lower(&closure.body)?;
    Some(ColProgram {
        insts: c.insts,
        n_int: c.n_int,
        n_bool: c.n_bool,
        out,
    })
}

struct ColLowering<'a> {
    engine: &'a ExecEngine,
    param: &'a Symbol,
    captured: &'a [(Symbol, Value)],
    insts: Vec<ColInst>,
    n_int: usize,
    n_bool: usize,
}

impl ColLowering<'_> {
    fn fresh_int(&mut self) -> usize {
        self.n_int += 1;
        self.n_int - 1
    }

    fn fresh_bool(&mut self) -> usize {
        self.n_bool += 1;
        self.n_bool - 1
    }

    fn lower(&mut self, te: &TypedExpr) -> Option<ColReg> {
        match &te.node {
            TypedNode::Const(sos_core::Const::Int(v)) => {
                let dst = self.fresh_int();
                self.insts.push(ColInst::BroadcastInt { dst, v: *v });
                Some(ColReg::I(dst))
            }
            TypedNode::Const(sos_core::Const::Bool(v)) => {
                let dst = self.fresh_bool();
                self.insts.push(ColInst::BroadcastBool { dst, v: *v });
                Some(ColReg::B(dst))
            }
            TypedNode::Var(name) => {
                // The tuple parameter itself is not a column; captured
                // int/bool values broadcast (parameters shadow captures,
                // so a captured value under the parameter's name is
                // unreachable and must not broadcast).
                if name == self.param {
                    return None;
                }
                match self.captured.iter().rev().find(|(n, _)| n == name)? {
                    (_, Value::Int(v)) => {
                        let dst = self.fresh_int();
                        self.insts.push(ColInst::BroadcastInt { dst, v: *v });
                        Some(ColReg::I(dst))
                    }
                    (_, Value::Bool(v)) => {
                        let dst = self.fresh_bool();
                        self.insts.push(ColInst::BroadcastBool { dst, v: *v });
                        Some(ColReg::B(dst))
                    }
                    _ => None,
                }
            }
            // Attribute access directly on the tuple parameter, for
            // int- and bool-typed fields.
            TypedNode::Field { idx, arg, .. } => {
                if !matches!(&arg.node, TypedNode::Var(n) if n == self.param) {
                    return None;
                }
                let field = *idx;
                if is_atom(&te.ty, "int") {
                    let dst = self.fresh_int();
                    self.insts.push(ColInst::GatherInt { dst, field });
                    return Some(ColReg::I(dst));
                }
                if is_atom(&te.ty, "bool") {
                    let dst = self.fresh_bool();
                    self.insts.push(ColInst::GatherBool { dst, field });
                    return Some(ColReg::B(dst));
                }
                None
            }
            TypedNode::Apply { spec, args, .. } => {
                let pure = self.engine.ops().of_spec(*spec)?.1.pure?;
                self.lower_atomic(pure, args)
            }
            _ => None,
        }
    }

    fn lower_atomic(&mut self, op: Atomic, args: &[TypedExpr]) -> Option<ColReg> {
        if op == Atomic::Not {
            let [arg] = args else { return None };
            let ColReg::B(a) = self.lower(arg)? else {
                return None;
            };
            let dst = self.fresh_bool();
            self.insts.push(ColInst::Not { dst, a });
            return Some(ColReg::B(dst));
        }
        let [x, y] = args else { return None };
        let (ra, rb) = (self.lower(x)?, self.lower(y)?);
        match (op, ra, rb) {
            (_, ColReg::I(a), ColReg::I(b)) if is_arith(op) => {
                let dst = self.fresh_int();
                self.insts.push(ColInst::Arith { op, dst, a, b });
                Some(ColReg::I(dst))
            }
            (_, ColReg::I(a), ColReg::I(b)) if is_cmp(op) => {
                let dst = self.fresh_bool();
                self.insts.push(ColInst::Cmp { op, dst, a, b });
                Some(ColReg::B(dst))
            }
            (Atomic::And, ColReg::B(a), ColReg::B(bb)) => {
                let dst = self.fresh_bool();
                self.insts.push(ColInst::And { dst, a, b: bb });
                Some(ColReg::B(dst))
            }
            (Atomic::Or, ColReg::B(a), ColReg::B(bb)) => {
                let dst = self.fresh_bool();
                self.insts.push(ColInst::Or { dst, a, b: bb });
                Some(ColReg::B(dst))
            }
            _ => None,
        }
    }
}

/// Compile a shared closure through the engine's knob and counters:
/// `None` (interpreter) when compilation is disabled or the body falls
/// outside the pure subset, recording the outcome either way.
pub fn compile_gated(engine: &ExecEngine, closure: &Arc<Closure>) -> Option<Arc<CompiledFun>> {
    if !engine.compile_exprs_enabled() {
        return None;
    }
    match CompiledFun::compile(engine, closure) {
        Ok(cf) => {
            engine.stats.record_compiled();
            Some(Arc::new(cf))
        }
        Err(f) => {
            engine.stats.record_fallback(&f);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{apply, engine};
    use sos_core::{Const, TypeArg};

    fn ty(name: &str) -> DataType {
        DataType::atom(name)
    }

    /// tuple(<(k, int), (g, int), (s, string), (b, bool)>)
    fn item_ty() -> DataType {
        let attr = |name: &str, t: &str| {
            TypeArg::Pair(vec![
                TypeArg::Expr(sos_core::Expr::Const(Const::Ident(Symbol::new(name)))),
                TypeArg::Type(ty(t)),
            ])
        };
        DataType::Cons(
            Symbol::new("tuple"),
            vec![TypeArg::List(vec![
                attr("k", "int"),
                attr("g", "int"),
                attr("s", "string"),
                attr("b", "bool"),
            ])],
        )
    }

    fn cint(v: i64) -> TypedExpr {
        TypedExpr::new(TypedNode::Const(Const::Int(v)), ty("int"))
    }

    fn var(name: &str, t: DataType) -> TypedExpr {
        TypedExpr::new(TypedNode::Var(Symbol::new(name)), t)
    }

    /// `attr(t)` — checked attribute access on the tuple parameter.
    fn field(attr: &str, result: &str) -> TypedExpr {
        let idx = ["k", "g", "s", "b"]
            .iter()
            .position(|a| *a == attr)
            .unwrap();
        TypedExpr::new(
            TypedNode::Field {
                attr: Symbol::new(attr),
                spec: 0,
                idx,
                arg: Box::new(var("t", item_ty())),
            },
            ty(result),
        )
    }

    fn closure1(body: TypedExpr) -> Closure {
        Closure {
            params: [(Symbol::new("t"), item_ty())].into(),
            body: Arc::new(body),
            captured: vec![],
        }
    }

    fn item(k: i64, g: i64, s: &str, b: bool) -> Value {
        Value::tuple(vec![
            Value::Int(k),
            Value::Int(g),
            Value::Str(s.into()),
            Value::Bool(b),
        ])
    }

    fn compile1(body: TypedExpr) -> CompiledFun {
        CompiledFun::compile(&engine(), &closure1(body)).expect("compiles")
    }

    #[test]
    fn const_input_and_field_opcodes() {
        let e = engine();
        // Const
        let cf = compile1(cint(42));
        assert_eq!(cf.call(&[item(0, 0, "x", false)]).unwrap(), Value::Int(42));
        // Input: the identity closure returns the tuple itself.
        let cf = compile1(var("t", item_ty()));
        let t = item(7, 1, "x", true);
        assert_eq!(cf.call(std::slice::from_ref(&t)).unwrap(), t);
        // Field
        let cf = compile1(field("k", "int"));
        assert_eq!(cf.call(&[item(9, 1, "x", true)]).unwrap(), Value::Int(9));
        // Field on a too-short tuple: identical error to the interpreter.
        let cf = compile1(field("b", "bool"));
        let short = Value::tuple(vec![Value::Int(1)]);
        assert_eq!(
            cf.call(&[short]).unwrap_err().to_string(),
            "tuple too short for attribute `b`"
        );
        // Captured variables freeze as constants; parameters shadow them.
        let c = Closure {
            params: [(Symbol::new("t"), item_ty())].into(),
            body: Arc::new(var("n", ty("int"))),
            captured: vec![(Symbol::new("n"), Value::Int(5))],
        };
        let cf = CompiledFun::compile(&e, &c).unwrap();
        assert_eq!(cf.call(&[item(0, 0, "", false)]).unwrap(), Value::Int(5));
    }

    #[test]
    fn arithmetic_opcodes_match_interpreter_errors() {
        let k = || field("k", "int");
        for (op, lhs, rhs, want) in [
            ("+", 40, 2, 42i64),
            ("-", 40, 2, 38),
            ("*", 6, 7, 42),
            ("div", 45, 7, 6),
            ("mod", 45, 7, 3),
        ] {
            let cf = compile1(apply(op, vec![k(), cint(rhs)], ty("int")));
            assert_eq!(
                cf.call(&[item(lhs, 0, "", false)]).unwrap(),
                Value::Int(want),
                "{op}"
            );
        }
        // Overflow and zero divisors carry the interpreter's messages.
        let cf = compile1(apply("+", vec![k(), cint(1)], ty("int")));
        assert_eq!(
            cf.call(&[item(i64::MAX, 0, "", false)])
                .unwrap_err()
                .to_string(),
            "arithmetic error: integer overflow in `+`"
        );
        let cf = compile1(apply("div", vec![cint(1), k()], ty("int")));
        assert_eq!(
            cf.call(&[item(0, 0, "", false)]).unwrap_err().to_string(),
            "arithmetic error: division by zero"
        );
        let cf = compile1(apply("mod", vec![cint(1), k()], ty("int")));
        assert_eq!(
            cf.call(&[item(0, 0, "", false)]).unwrap_err().to_string(),
            "arithmetic error: modulo by zero"
        );
        // `i64::MIN div -1` overflows and `i64::MIN mod -1` is exactly 0,
        // in the interpreter, tier A and tier B alike.
        let min = item(i64::MIN, 0, "", false);
        for (op, atomic, want) in [
            (
                "div",
                Atomic::DivInt,
                Err("arithmetic error: integer overflow in `div`"),
            ),
            ("mod", Atomic::Mod, Ok(Value::Int(0))),
        ] {
            let want = want.map_err(str::to_string);
            let interp = atomic.eval(&[Value::Int(i64::MIN), Value::Int(-1)]);
            assert_eq!(interp.map_err(|e| e.to_string()), want, "{op}: interpreter");
            let cf = compile1(apply(op, vec![k(), cint(-1)], ty("int")));
            assert!(cf.is_columnar(), "{op}");
            let tier_a = cf.call(std::slice::from_ref(&min));
            assert_eq!(tier_a.map_err(|e| e.to_string()), want, "{op}: tier A");
            // Tier B computes the remainder itself and bails on the
            // overflowing quotient, which tier A then reports.
            let tier_b = cf.try_columnar(std::slice::from_ref(&min));
            assert_eq!(tier_b, want.ok().map(|v| vec![v]), "{op}: tier B");
        }
        // `/` has no int fast path: it is real division, via the shared
        // atomic implementation.
        let cf = compile1(apply("/", vec![k(), cint(2)], ty("real")));
        assert_eq!(cf.call(&[item(5, 0, "", false)]).unwrap(), Value::Real(2.5));
    }

    #[test]
    fn comparison_logic_and_not_opcodes() {
        let k = || field("k", "int");
        for (op, lhs, want) in [
            ("=", 7, true),
            ("!=", 7, false),
            ("<", 6, true),
            ("<=", 7, true),
            (">", 8, true),
            (">=", 6, false),
        ] {
            let cf = compile1(apply(op, vec![k(), cint(7)], ty("bool")));
            assert_eq!(
                cf.call(&[item(lhs, 0, "", false)]).unwrap(),
                Value::Bool(want),
                "{op} {lhs} 7"
            );
        }
        let both = apply(
            "and",
            vec![
                apply(">", vec![k(), cint(0)], ty("bool")),
                field("b", "bool"),
            ],
            ty("bool"),
        );
        let cf = compile1(both);
        assert_eq!(cf.call(&[item(1, 0, "", true)]).unwrap(), Value::Bool(true));
        assert_eq!(
            cf.call(&[item(1, 0, "", false)]).unwrap(),
            Value::Bool(false)
        );
        let cf = compile1(apply(
            "or",
            vec![field("b", "bool"), field("b", "bool")],
            ty("bool"),
        ));
        assert_eq!(
            cf.call(&[item(0, 0, "", false)]).unwrap(),
            Value::Bool(false)
        );
        let cf = compile1(apply("not", vec![field("b", "bool")], ty("bool")));
        assert_eq!(
            cf.call(&[item(0, 0, "", false)]).unwrap(),
            Value::Bool(true)
        );
        // Mismatched operands route through the shared atomic
        // implementation: identical error text.
        let cf = compile1(apply("and", vec![k(), k()], ty("bool")));
        assert_eq!(
            cf.call(&[item(1, 0, "", false)]).unwrap_err().to_string(),
            "`and` expected bool, found \"int\""
        );
    }

    #[test]
    fn atomic_list_and_pair_opcodes() {
        // Geometry goes through the generic Atomic opcode.
        let cf = compile1(apply(
            "makepoint",
            vec![field("k", "int"), field("g", "int")],
            ty("point"),
        ));
        assert_eq!(
            cf.call(&[item(3, 4, "", false)]).unwrap(),
            Value::Point(sos_geom::Point::new(3.0, 4.0))
        );
        let dist = apply(
            "distance",
            vec![
                apply("makepoint", vec![cint(0), cint(0)], ty("point")),
                apply(
                    "makepoint",
                    vec![field("k", "int"), field("g", "int")],
                    ty("point"),
                ),
            ],
            ty("real"),
        );
        let cf = compile1(dist);
        assert_eq!(cf.call(&[item(3, 4, "", false)]).unwrap(), Value::Real(5.0));
        // MakeList / MakePair.
        let cf = compile1(TypedExpr::new(
            TypedNode::List(vec![cint(1), field("k", "int")]),
            ty("list"),
        ));
        assert_eq!(
            cf.call(&[item(2, 0, "", false)]).unwrap(),
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
        let cf = compile1(TypedExpr::new(
            TypedNode::Tuple(vec![cint(1), field("k", "int")]),
            ty("pair"),
        ));
        assert_eq!(
            cf.call(&[item(2, 0, "", false)]).unwrap(),
            Value::Pair(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn arity_error_matches_interpreter() {
        let cf = compile1(cint(1));
        assert_eq!(
            cf.call(&[]).unwrap_err().to_string(),
            "function expects 1 argument(s), got 0"
        );
    }

    #[test]
    fn every_fallback_reason_is_reported() {
        let mut e = engine();
        // object-ref
        let c = closure1(TypedExpr::new(
            TypedNode::Object(Symbol::new("cities")),
            ty("int"),
        ));
        let f = CompiledFun::compile(&e, &c).unwrap_err();
        assert_eq!(f.reason(), "object-ref");
        // nested-function (both lambda construction and application)
        let lam = TypedExpr::new(
            TypedNode::Lambda {
                params: [(Symbol::new("x"), ty("int"))].into(),
                body: Arc::new(cint(1)),
            },
            ty("fun"),
        );
        let f = CompiledFun::compile(&e, &closure1(lam.clone())).unwrap_err();
        assert_eq!(f.reason(), "nested-function");
        let appf = TypedExpr::new(
            TypedNode::ApplyFun {
                fun: Box::new(lam),
                args: vec![cint(1)],
            },
            ty("int"),
        );
        let f = CompiledFun::compile(&e, &closure1(appf)).unwrap_err();
        assert_eq!(f.reason(), "nested-function");
        // impure-op: a non-atomic operator...
        let c = closure1(apply("count", vec![var("t", item_ty())], ty("int")));
        let f = CompiledFun::compile(&e, &c).unwrap_err();
        assert_eq!(f.reason(), "impure-op");
        // ...and an overridden atomic one.
        let plus = closure1(apply("+", vec![cint(1), cint(2)], ty("int")));
        assert!(CompiledFun::compile(&e, &plus).is_ok());
        e.add_op("+", |_, _, _| Ok(Value::Int(0)));
        let f = CompiledFun::compile(&e, &plus).unwrap_err();
        assert_eq!(f.reason(), "impure-op");
        // unbound-variable
        let c = closure1(var("nowhere", ty("int")));
        let f = CompiledFun::compile(&e, &c).unwrap_err();
        assert_eq!(f.reason(), "unbound-variable");
    }

    #[test]
    fn gating_respects_the_engine_knob_and_counts() {
        let mut e = engine();
        let pred = Arc::new(closure1(apply(
            "=",
            vec![field("k", "int"), cint(0)],
            ty("bool"),
        )));
        assert!(compile_gated(&e, &pred).is_some());
        assert_eq!(e.stats.compile_snapshot().compiled, 1);
        let impure = Arc::new(closure1(TypedExpr::new(
            TypedNode::Object(Symbol::new("r")),
            ty("int"),
        )));
        assert!(compile_gated(&e, &impure).is_none());
        assert_eq!(e.stats.compile_snapshot().fallback("object-ref"), 1);
        e.set_compile_exprs(false);
        assert!(!e.compile_exprs_enabled());
        assert!(compile_gated(&e, &pred).is_none());
        // Disabled is not a fallback: the counters are untouched.
        let snap = e.stats.compile_snapshot();
        assert_eq!((snap.compiled, snap.total_fallbacks()), (1, 1));
    }

    #[test]
    fn columnar_kernel_masks_and_columns_match_tier_a() {
        // k mod 7 = 0 and g < 3 — all int/bool: tier B applies.
        let body = apply(
            "and",
            vec![
                apply(
                    "=",
                    vec![
                        apply("mod", vec![field("k", "int"), cint(7)], ty("int")),
                        cint(0),
                    ],
                    ty("bool"),
                ),
                apply("<", vec![field("g", "int"), cint(3)], ty("bool")),
            ],
            ty("bool"),
        );
        let cf = compile1(body);
        assert!(cf.is_columnar());
        let batch: Vec<Value> = (0..100).map(|i| item(i, i % 10, "p", false)).collect();
        let mask = cf.eval_mask(&batch, "filter").unwrap();
        for (t, got) in batch.iter().zip(&mask) {
            assert_eq!(cf.call(std::slice::from_ref(t)).unwrap(), Value::Bool(*got));
        }
        // A string comparison keeps tier A only.
        let cf = compile1(apply(
            "!=",
            vec![
                field("s", "string"),
                TypedExpr::new(TypedNode::Const(Const::Str("x".into())), ty("string")),
            ],
            ty("bool"),
        ));
        assert!(!cf.is_columnar());
        assert_eq!(cf.eval_mask(&batch, "filter").unwrap(), vec![true; 100]);
        // Int columns for project/replace-shaped programs.
        let cf = compile1(apply("*", vec![field("k", "int"), cint(2)], ty("int")));
        assert!(cf.is_columnar());
        assert_eq!(
            cf.eval_column(&batch[..3]).unwrap(),
            vec![Value::Int(0), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn columnar_bailout_reruns_tier_a_with_identical_errors() {
        // Overflow in the middle of a batch: the columnar attempt bails
        // and the row-order first error surfaces, as the interpreter
        // would.
        let cf = compile1(apply("*", vec![field("k", "int"), cint(2)], ty("int")));
        assert!(cf.is_columnar());
        let batch = vec![
            item(1, 0, "", false),
            item(i64::MAX, 0, "", false),
            item(2, 0, "", false),
        ];
        assert_eq!(
            cf.eval_column(&batch).unwrap_err().to_string(),
            "arithmetic error: integer overflow in `*`"
        );
        // A division by zero bails the mask path the same way.
        let cf = compile1(apply(
            "=",
            vec![
                apply("div", vec![cint(100), field("k", "int")], ty("int")),
                cint(1),
            ],
            ty("bool"),
        ));
        assert!(cf.is_columnar());
        let batch = vec![item(100, 0, "", false), item(0, 0, "", false)];
        assert_eq!(
            cf.eval_mask(&batch, "filter").unwrap_err().to_string(),
            "arithmetic error: division by zero"
        );
        // A non-int runtime value in an int-typed field bails to tier A
        // *successfully* (the interpreter promotes int/real compares).
        let cf = compile1(apply("<", vec![field("k", "int"), cint(10)], ty("bool")));
        assert!(cf.is_columnar());
        let odd = vec![Value::tuple(vec![
            Value::Real(2.5),
            Value::Int(0),
            Value::Str("".into()),
            Value::Bool(false),
        ])];
        assert_eq!(cf.eval_mask(&odd, "filter").unwrap(), vec![true]);
    }

    /// Hand-built malformed programs trip each verifier check. The
    /// lowering never produces these; the verifier exists so that claim
    /// is checked once per program instead of assumed per row.
    #[test]
    fn verifier_rejects_malformed_programs() {
        let tier_a = |insts: Vec<Inst>, out: usize, n_regs: usize| CompiledFun {
            arity: 1,
            insts: insts.into_boxed_slice(),
            out,
            n_regs,
            col: None,
        };

        let e = engine();
        let ops = e.ops();
        let id = |name: &str| {
            ops.entries()
                .iter()
                .position(|x| x.name.as_str() == name)
                .unwrap()
        };

        // Read before write (also covers the dst == operand aliasing the
        // executor's register reuse forbids).
        let cf = tier_a(
            vec![Inst::Call(1, id("+"), Atomic::Add, vec![0, 0].into())],
            1,
            2,
        );
        let err = cf.verify(ops).unwrap_err();
        assert!(err.contains("before any instruction writes it"), "{err}");

        // Out-of-bounds register and input slot.
        let cf = tier_a(vec![Inst::Const(5, Value::Int(1))], 0, 1);
        assert!(cf
            .verify(ops)
            .unwrap_err()
            .contains("out-of-bounds register"));
        let cf = tier_a(vec![Inst::Input(0, 3)], 0, 1);
        let err = cf.verify(ops).unwrap_err();
        assert!(err.contains("input slot 3"), "{err}");

        // Double write breaks single assignment.
        let cf = tier_a(
            vec![Inst::Const(0, Value::Int(1)), Inst::Const(0, Value::Int(2))],
            0,
            1,
        );
        assert!(cf.verify(ops).unwrap_err().contains("twice"));

        // Undefined output register.
        let cf = tier_a(vec![], 0, 1);
        assert!(cf.verify(ops).unwrap_err().contains("output register"));

        // A call must name a pure entry, with that entry's evaluation:
        // `feed` reads the store, and `-` is not what `+` computes.
        for (name, op) in [("feed", Atomic::Add), ("+", Atomic::Sub)] {
            let cf = tier_a(
                vec![
                    Inst::Const(0, Value::Int(1)),
                    Inst::Call(1, id(name), op, vec![0].into()),
                ],
                1,
                2,
            );
            let err = cf.verify(ops).unwrap_err();
            assert!(err.contains("not a pure operator"), "{err}");
        }

        // Columnar kernel: an opcode of the wrong kind in Arith/Cmp.
        let col = ColProgram {
            insts: vec![
                ColInst::BroadcastInt { dst: 0, v: 1 },
                ColInst::BroadcastInt { dst: 1, v: 2 },
                ColInst::Arith {
                    op: Atomic::Eq,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
            ],
            n_int: 3,
            n_bool: 0,
            out: ColReg::I(2),
        };
        assert!(col
            .verify()
            .unwrap_err()
            .contains("not an arithmetic opcode"));

        // Columnar kernel: output register never written.
        let col = ColProgram {
            insts: vec![ColInst::BroadcastInt { dst: 0, v: 1 }],
            n_int: 1,
            n_bool: 1,
            out: ColReg::B(0),
        };
        let err = col.verify().unwrap_err();
        assert!(err.contains("columnar output register"), "{err}");

        // The counter key for a verifier rejection.
        assert_eq!(Fallback::Rejected("r0".into()).reason(), "verifier-reject");
    }

    /// Every program the lowering produces passes the verifier (it runs
    /// inside `compile`, so a failure would surface as a fallback; this
    /// pins the property explicitly on representative shapes, columnar
    /// kernels included).
    #[test]
    fn lowered_programs_verify_clean() {
        let bodies = [
            cint(42),
            field("k", "int"),
            apply(
                "and",
                vec![
                    apply("<", vec![field("k", "int"), cint(10)], ty("bool")),
                    apply(
                        "=",
                        vec![
                            apply("mod", vec![field("g", "int"), cint(7)], ty("int")),
                            cint(0),
                        ],
                        ty("bool"),
                    ),
                ],
                ty("bool"),
            ),
            apply(
                "makepoint",
                vec![field("k", "int"), field("g", "int")],
                ty("point"),
            ),
        ];
        for body in bodies {
            compile1(body)
                .verify(engine().ops())
                .expect("lowered program verifies");
        }
    }
}
