//! The expression compiler: every function value is a checked lambda
//! lowered once to a flat register program (DESIGN.md §9).
//!
//! Since the checker resolves every type before a term reaches the
//! engine, a lambda like `fun (t) t k mod 7 = 0` lowers to monomorphic
//! code: a postorder instruction sequence over a flat register file
//! ([`CompiledFun`]), run per tuple without environment pushes or name
//! lookups. A [`Closure`] is a program plus the values it captured.
//!
//! Every typed node lowers. Pure operator-table entries (the atomic
//! built-ins of [`crate::ops::basic`]) become `Call`s with integer fast
//! paths that delegate every other operand shape to [`Atomic::eval`],
//! the table entry's own implementation, so errors are the table's
//! (evaluation is strict: arguments left to right, `and` / `or` do not
//! short-circuit). Every other entry (stream, index and update
//! operators, overrides through [`ExecEngine::add_op`]) becomes a
//! `CallOp` with the typed node and the evaluation context; an object
//! reference a `LoadObject`, read when it runs (cached plans outlive
//! updates); function application a `CallClosure`. A lambda nested in
//! the body compiles with its parent, as a child program that
//! `MakeClosure` pairs with the registers of its free variables, which
//! become its input slots after the parameters. A plan-level lambda
//! compiles when [`EvalCtx::eval`] reaches it, so compiles depend on
//! the plan, never on the rows.
//!
//! A program without `LoadObject`, `CallOp` or `CallClosure` runs
//! without a context; one that also reads its row only through field
//! loads runs on records read in place
//! ([`CompiledFun::reads_fields_only`]). Programs nest (a `CallOp count`
//! drains a cursor whose filter runs another program), so each running
//! program holds a register frame of its own.
//!
//! **Tier B.** When a one-parameter body is int/bool typed throughout,
//! it also lowers to a columnar kernel over unboxed `i64` / `bool`
//! vectors for a whole batch. On any irregularity (overflow, division by
//! zero, a non-int value in an int-typed field) the kernel bails and
//! the batch re-runs row by row through the register program, which
//! reproduces the first error in row order.
//!
//! Every lowered program passes the bytecode verifier
//! ([`CompiledFun::verify`]); a rejection is an [`ExecError::Internal`].
//! `tests/prop_compiled_vs_interp.rs` checks programs against a
//! reference evaluator written in plain Rust.

use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{ExecError, ExecResult};
use crate::handles::load_field;
use crate::ops::basic::{div_int, mod_int, Atomic};
use crate::ops::{OpId, OpTable};
use crate::stats::ExecStats;
use crate::value::{Closure, Row, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Symbol};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A lambda's parameters, shared with the term it was lowered from.
type Params = Arc<[(Symbol, DataType)]>;

/// One bytecode instruction. Registers are allocated in postorder (SSA:
/// each written exactly once and read at most once per evaluation), so
/// a register file can be reused across rows without clearing, and an
/// instruction may move a value out of the register it reads.
#[derive(Debug)]
enum Inst {
    /// Load a constant.
    Const(usize, Value),
    /// Load input slot `.1`: a parameter (slots `0..arity`) or a
    /// captured value (the slots after them).
    Input(usize, usize),
    /// Tuple attribute access: `dst, src, field index, attribute name`
    /// (the name only feeds the error message).
    Field(usize, usize, usize, Symbol),
    /// Attribute access straight on a parameter: `dst, input slot, field
    /// index, attribute name`. A program whose arguments are read only
    /// this way never needs them as values, so it runs on records read
    /// in place ([`CompiledFun::reads_fields_only`]).
    InputField(usize, usize, usize, Symbol),
    /// A pure operator-table entry applied to argument registers:
    /// `dst, entry, its evaluation, arguments`. Binary calls take the
    /// fast paths of [`bin_op`].
    Call(usize, OpId, Atomic, Box<[usize]>),
    /// `<a, b, ...>` list construction.
    MakeList(usize, Box<[usize]>),
    /// `(a, b)` product construction.
    MakePair(usize, Box<[usize]>),
    /// Read a database object from the store: `dst, name, its type`.
    LoadObject(usize, Symbol, DataType),
    /// Any other table entry, run with the evaluation context:
    /// `dst, entry, the typed application, arguments`.
    CallOp(usize, OpId, Box<TypedExpr>, Box<[usize]>),
    /// Build a closure of a child program over captured registers:
    /// `dst, the child's parameters, the child, captures`.
    MakeClosure(usize, Params, Rc<CompiledFun>, Box<[usize]>),
    /// Apply the function value in `.1` to argument registers.
    CallClosure(usize, usize, Box<[usize]>),
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
    /// Broadcast captured value `capture`, an int or bool variable.
    Captured {
        dst: ColReg,
        capture: usize,
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
    fn run<R: Row>(&self, batch: &[R], captured: &[Value]) -> ColOutcome {
        let n = batch.len();
        let mut ints: Vec<Vec<i64>> = (0..self.n_int).map(|_| vec![0; n]).collect();
        let mut bools: Vec<Vec<bool>> = (0..self.n_bool).map(|_| vec![false; n]).collect();
        for inst in &self.insts {
            match inst {
                ColInst::GatherInt { dst, field } => {
                    let col = &mut ints[*dst];
                    for (r, t) in batch.iter().enumerate() {
                        match t.int(*field) {
                            Some(v) => col[r] = v,
                            None => return ColOutcome::Bail,
                        }
                    }
                }
                ColInst::GatherBool { dst, field } => {
                    let col = &mut bools[*dst];
                    for (r, t) in batch.iter().enumerate() {
                        match t.bool(*field) {
                            Some(v) => col[r] = v,
                            None => return ColOutcome::Bail,
                        }
                    }
                }
                ColInst::BroadcastInt { dst, v } => ints[*dst].fill(*v),
                ColInst::BroadcastBool { dst, v } => bools[*dst].fill(*v),
                ColInst::Captured { dst, capture } => match (dst, &captured[*capture]) {
                    (ColReg::I(d), Value::Int(v)) => ints[*d].fill(*v),
                    (ColReg::B(d), Value::Bool(v)) => bools[*d].fill(*v),
                    _ => return ColOutcome::Bail,
                },
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
    /// and `Cmp` a comparison — `run` panics otherwise) and captured
    /// values within the `n_captured` the closure holds.
    fn verify(&self, n_captured: usize) -> Result<(), String> {
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
                ColInst::Captured { dst, capture } => {
                    if *capture >= n_captured {
                        return Err(format!(
                            "columnar inst {pc} broadcasts captured value {capture}, but \
                             the closure captures {n_captured}"
                        ));
                    }
                    match dst {
                        ColReg::I(d) => reg_write(&mut ints, *d, pc)?,
                        ColReg::B(d) => reg_write(&mut bools, *d, pc)?,
                    }
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
// Register frames.
// ---------------------------------------------------------------------

thread_local! {
    /// Free register files. A running program holds one of its own,
    /// taken on entry and given back on exit, so a program that runs
    /// another (through a cursor a `CallOp` drains, or a `CallClosure`)
    /// never shares registers with it, and steady-state evaluation
    /// allocates nothing.
    static FRAMES: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on a frame of `n` registers. The frame is emptied before it
/// goes back, so no value outlives the call in a stale register.
fn with_frame<T>(n: usize, f: impl FnOnce(&mut [Value]) -> T) -> T {
    let mut regs = FRAMES.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    regs.resize(n, Value::Undefined);
    let out = f(&mut regs);
    regs.clear();
    FRAMES.with(|s| s.borrow_mut().push(regs));
    out
}

/// Move a value out of a register (each is read at most once).
fn take(regs: &mut [Value], r: usize) -> Value {
    std::mem::replace(&mut regs[r], Value::Undefined)
}

fn take_all(regs: &mut [Value], rs: &[usize]) -> Vec<Value> {
    rs.iter().map(|&r| take(regs, r)).collect()
}

/// The context an instruction that reads the store or runs a table
/// entry needs.
fn need<'c, 'a>(ctx: &'c mut Option<&mut EvalCtx<'a>>) -> ExecResult<&'c mut EvalCtx<'a>> {
    ctx.as_deref_mut().ok_or_else(|| {
        ExecError::Internal("a program that reads the store ran without a context".into())
    })
}

// ---------------------------------------------------------------------
// The compiled function.
// ---------------------------------------------------------------------

/// A lambda lowered to register bytecode (and, when the body is
/// int/bool typed throughout, a columnar batch kernel).
#[derive(Debug)]
pub struct CompiledFun {
    arity: usize,
    /// Captured values the program reads, in input slots
    /// `arity..arity + n_captured`.
    n_captured: usize,
    insts: Box<[Inst]>,
    out: usize,
    n_regs: usize,
    col: Option<ColProgram>,
    /// The engine's counters, where a finished columnar batch is
    /// recorded.
    stats: Rc<ExecStats>,
}

impl CompiledFun {
    /// Lower `body` over `params`, verify the program, and count one
    /// compile. Also returns the variables of enclosing lambdas the body
    /// reads, in the order of their input slots after the parameters.
    fn lower(
        engine: &ExecEngine,
        params: &[(Symbol, DataType)],
        body: &TypedExpr,
    ) -> ExecResult<(CompiledFun, Vec<(Symbol, DataType)>)> {
        let mut c = Lowering {
            engine,
            params,
            captures: Vec::new(),
            insts: Vec::new(),
            next: 0,
        };
        let out = c.lower(body)?;
        let cf = CompiledFun {
            arity: params.len(),
            n_captured: c.captures.len(),
            n_regs: c.next,
            insts: c.insts.into_boxed_slice(),
            out,
            col: lower_columnar(engine, params, &c.captures, body),
            stats: Rc::clone(&engine.stats),
        };
        cf.verify(engine.ops()).map_err(|e| {
            ExecError::Internal(format!("the bytecode verifier rejected a program: {e}"))
        })?;
        engine.stats.record_compiled();
        Ok((cf, c.captures))
    }

    /// The bytecode verifier: a static pass over the lowered program,
    /// run once at compile time before the program is ever executed.
    ///
    /// The executor reuses register files without clearing them between
    /// rows, moves values out of the registers it reads, and the
    /// columnar kernel split-borrows its column vectors; all of that is
    /// sound only if programs are single-assignment and every read
    /// happens once, after the (unique) write. The verifier checks those
    /// invariants instead of assuming them:
    ///
    /// * every register is written exactly once, read at most once and
    ///   only afterwards, and in bounds for its register file;
    /// * input slots are within the parameters plus the captured values,
    ///   and field loads in place read a parameter;
    /// * every `Call` names an entry of `ops` whose `pure` evaluation is
    ///   the one it carries, every `CallOp` an entry that exists, and
    ///   `Arith`/`Cmp` carry an opcode of the right kind (the executor
    ///   would panic on a mismatch);
    /// * every `MakeClosure` gives its child as many parameters and
    ///   captured values as the child takes;
    /// * the output register is defined.
    pub fn verify(&self, ops: &OpTable) -> Result<(), String> {
        let mut init = vec![false; self.n_regs];
        let mut read = vec![false; self.n_regs];
        let mut reads = |init: &[bool], rs: &[usize], pc: usize| -> Result<(), String> {
            for &r in rs {
                reg_read(init, r, pc)?;
                if std::mem::replace(&mut read[r], true) {
                    return Err(format!(
                        "inst {pc} reads register r{r} a second time (each register \
                         feeds one instruction)"
                    ));
                }
            }
            Ok(())
        };
        let inputs = self.arity + self.n_captured;
        for (pc, inst) in self.insts.iter().enumerate() {
            let entry = |id: usize| {
                (ops.entries().get(id)).ok_or_else(|| {
                    format!("inst {pc} calls operator #{id}, which is not in the table")
                })
            };
            let (dst, args): (&usize, &[usize]) = match inst {
                Inst::Const(dst, _) | Inst::LoadObject(dst, ..) => (dst, &[]),
                Inst::Input(dst, slot) if *slot < inputs => (dst, &[]),
                Inst::InputField(dst, slot, ..) if *slot < self.arity => (dst, &[]),
                Inst::Input(_, slot) | Inst::InputField(_, slot, ..) => {
                    return Err(format!(
                        "inst {pc} reads input slot {slot}, but the function takes {} \
                         argument(s) (the only slots a field load reads) and captures {}",
                        self.arity, self.n_captured
                    ));
                }
                Inst::Field(dst, src, ..) => (dst, std::slice::from_ref(src)),
                Inst::Call(dst, id, op, args) => match entry(*id)? {
                    e if e.pure == Some(*op) => (dst, args),
                    e => {
                        let name = &e.name;
                        return Err(format!(
                            "inst {pc} calls `{name}`, which is not a pure operator"
                        ));
                    }
                },
                Inst::CallOp(dst, id, _, args) => entry(*id).map(|_| (dst, &args[..]))?,
                Inst::MakeList(dst, args) | Inst::MakePair(dst, args) => (dst, args),
                Inst::MakeClosure(dst, params, child, captures) => {
                    if params.len() != child.arity || captures.len() != child.n_captured {
                        return Err(format!(
                            "inst {pc} builds a closure of {} parameter(s) and {} captured \
                             value(s) over a program that takes {} and captures {}",
                            params.len(),
                            captures.len(),
                            child.arity,
                            child.n_captured
                        ));
                    }
                    (dst, captures)
                }
                Inst::CallClosure(dst, fun, args) => {
                    reads(&init, &[*fun], pc)?;
                    (dst, args)
                }
            };
            reads(&init, args, pc)?;
            reg_write(&mut init, *dst, pc)?;
        }
        reads(&init, &[self.out], self.insts.len()).map_err(|e| format!("output register: {e}"))?;
        if let Some(col) = &self.col {
            col.verify(self.n_captured)?;
        }
        Ok(())
    }

    /// Whether the tier-B columnar kernel applies (observable for tests).
    pub fn is_columnar(&self) -> bool {
        self.col.is_some()
    }

    /// Whether the program reads the store or runs a table entry, and
    /// so runs only with an evaluation context.
    pub fn needs_context(&self) -> bool {
        let ctx = |i: &Inst| {
            matches!(
                i,
                Inst::LoadObject(..) | Inst::CallOp(..) | Inst::CallClosure(..)
            )
        };
        self.insts.iter().any(ctx)
    }

    /// Whether this is a predicate-shaped program over one row that
    /// needs no context and reads the row only through field loads,
    /// never as a whole value. Such a program runs on records read in
    /// place ([`sos_storage::field::RecordView`]) with the same values
    /// and errors as on decoded tuples, so a scan can evaluate it before
    /// it decodes anything.
    pub fn reads_fields_only(&self) -> bool {
        self.arity == 1
            && !self.needs_context()
            && !self.insts.iter().any(|i| matches!(i, Inst::Input(_, 0)))
    }

    /// The arity check of every call.
    fn check_arity(&self, got: usize) -> ExecResult<()> {
        if self.arity == got {
            return Ok(());
        }
        Err(ExecError::Other(format!(
            "function expects {} argument(s), got {got}",
            self.arity
        )))
    }

    fn exec<R: Row>(
        &self,
        regs: &mut [Value],
        args: &[R],
        captured: &[Value],
        mut ctx: Option<&mut EvalCtx<'_>>,
    ) -> ExecResult<Value> {
        for inst in self.insts.iter() {
            match inst {
                Inst::Const(dst, v) => regs[*dst] = v.clone(),
                Inst::Input(dst, slot) => {
                    regs[*dst] = match args.get(*slot) {
                        Some(a) => a.value(),
                        None => captured[*slot - self.arity].clone(),
                    };
                }
                Inst::Field(dst, src, idx, attr) => {
                    regs[*dst] = load_field(&take(regs, *src), *idx, attr)?;
                }
                Inst::InputField(dst, slot, idx, attr) => {
                    regs[*dst] = args[*slot].load(*idx, attr)?;
                }
                Inst::Call(dst, _, op, arg_regs) => {
                    let v = match **arg_regs {
                        [a] => op.eval(std::slice::from_ref(&regs[a])),
                        [a, b] => bin_op(*op, &regs[a], &regs[b]),
                        _ => op.eval(&take_all(regs, arg_regs)),
                    };
                    regs[*dst] = v?;
                }
                Inst::MakeList(dst, arg_regs) => regs[*dst] = Value::List(take_all(regs, arg_regs)),
                Inst::MakePair(dst, arg_regs) => regs[*dst] = Value::Pair(take_all(regs, arg_regs)),
                Inst::LoadObject(dst, name, ty) => regs[*dst] = need(&mut ctx)?.object(name, ty)?,
                Inst::CallOp(dst, id, node, arg_regs) => {
                    let ctx = need(&mut ctx)?;
                    let argv = take_all(regs, arg_regs);
                    let engine = ctx.engine;
                    regs[*dst] = (engine.ops().entries()[*id].imp)(ctx, node, argv)?;
                }
                Inst::MakeClosure(dst, params, program, captures) => {
                    regs[*dst] = Value::Closure(Rc::new(Closure {
                        params: params.clone(),
                        program: program.clone(),
                        captured: take_all(regs, captures).into(),
                    }));
                }
                Inst::CallClosure(dst, fun, arg_regs) => {
                    let ctx = need(&mut ctx)?;
                    let fun = take(regs, *fun);
                    let argv = take_all(regs, arg_regs);
                    let closure = fun.as_closure("function application")?;
                    regs[*dst] = closure.apply(Some(ctx), &argv)?;
                }
            }
        }
        Ok(take(regs, self.out))
    }
}

impl Closure {
    /// Compile a plan-level lambda: `body` may read only `params` (the
    /// checker guarantees it), so the closure captures nothing. Lambdas
    /// nested in the body compile with it, as child programs.
    pub fn compile(engine: &ExecEngine, params: &Params, body: &TypedExpr) -> ExecResult<Closure> {
        let (program, captures) = CompiledFun::lower(engine, params, body)?;
        if let Some((name, _)) = captures.first() {
            return Err(ExecError::Other(format!("unbound variable `{name}`")));
        }
        Ok(Closure {
            params: params.clone(),
            program: Rc::new(program),
            captured: Box::default(),
        })
    }

    /// The closure's program, shared by every closure of its lambda.
    pub fn program(&self) -> &Rc<CompiledFun> {
        &self.program
    }

    /// Apply to argument values (decoded tuples, or records read in
    /// place). `ctx` may be `None` only for a program that needs no
    /// context ([`CompiledFun::needs_context`]).
    pub fn apply<R: Row>(&self, ctx: Option<&mut EvalCtx<'_>>, args: &[R]) -> ExecResult<Value> {
        let p = &self.program;
        p.check_arity(args.len())?;
        with_frame(p.n_regs, |regs| p.exec(regs, args, &self.captured, ctx))
    }

    /// Run the one-parameter program on each row of `batch` in order,
    /// in one register frame, handing `f` each row's index and result;
    /// stops at the first error `f` returns.
    fn each<R: Row>(
        &self,
        mut ctx: Option<&mut EvalCtx<'_>>,
        batch: &[R],
        mut f: impl FnMut(usize, ExecResult<Value>) -> ExecResult<()>,
    ) -> ExecResult<()> {
        let p = &self.program;
        p.check_arity(1)?;
        with_frame(p.n_regs, |regs| {
            for (r, t) in batch.iter().enumerate() {
                let v = p.exec(
                    regs,
                    std::slice::from_ref(t),
                    &self.captured,
                    ctx.as_deref_mut(),
                );
                f(r, v)?;
            }
            Ok(())
        })
    }

    /// Evaluate as a predicate over a whole batch, returning the keep
    /// mask. Columnar when possible; otherwise row by row, stopping at
    /// the first error in row order.
    pub fn eval_mask<R: Row>(
        &self,
        ctx: Option<&mut EvalCtx<'_>>,
        batch: &[R],
        op: &'static str,
    ) -> ExecResult<Vec<bool>> {
        match self.columnar_mask(batch) {
            Some(mask) => Ok(mask),
            None => self.map_rows(ctx, batch, |v| v.as_bool(op)),
        }
    }

    /// Evaluate a predicate that needs no context over a whole batch,
    /// where an error on one row does not stop the others: returns the
    /// keep mask, `false` on each failed row, and appends `(row, error)`
    /// for those to `failed`, in row order.
    pub(crate) fn eval_each<R: Row>(
        &self,
        batch: &[R],
        op: &'static str,
        failed: &mut Vec<(usize, ExecError)>,
    ) -> Vec<bool> {
        if let Some(mask) = self.columnar_mask(batch) {
            return mask;
        }
        let mut mask = Vec::with_capacity(batch.len());
        let run = self.each(None, batch, |r, v| {
            match v.and_then(|v| v.as_bool(op)) {
                Ok(keep) => mask.push(keep),
                Err(e) => {
                    failed.push((r, e));
                    mask.push(false);
                }
            }
            Ok(())
        });
        if let Err(e) = run {
            // Only the arity check fails the whole batch.
            failed.push((0, e));
            mask = vec![false; batch.len()];
        }
        mask
    }

    /// Evaluate over a whole batch, returning one value per row.
    /// Columnar when possible; otherwise row by row.
    pub fn eval_column(
        &self,
        ctx: Option<&mut EvalCtx<'_>>,
        batch: &[Value],
    ) -> ExecResult<Vec<Value>> {
        match self.try_columnar(batch) {
            Some(vs) => Ok(vs),
            None => self.map_rows(ctx, batch, Ok),
        }
    }

    /// `f` of each row's value, in row order, until the first error.
    fn map_rows<R: Row, T>(
        &self,
        ctx: Option<&mut EvalCtx<'_>>,
        batch: &[R],
        f: impl Fn(Value) -> ExecResult<T>,
    ) -> ExecResult<Vec<T>> {
        let mut out = Vec::with_capacity(batch.len());
        self.each(ctx, batch, |_, v| {
            out.push(f(v?)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Run the tier-B kernel alone: `Some(values)` only when the whole
    /// batch evaluated columnar with no bail-out.
    pub fn try_columnar(&self, batch: &[Value]) -> Option<Vec<Value>> {
        let vs = match self.program.col.as_ref()?.run(batch, &self.captured) {
            ColOutcome::Ints(vs) => vs.into_iter().map(Value::Int).collect(),
            ColOutcome::Bools(vs) => vs.into_iter().map(Value::Bool).collect(),
            ColOutcome::Bail => return None,
        };
        self.program.stats.record_columnar_batch();
        Some(vs)
    }

    /// The tier-B keep mask, when the kernel finishes the batch.
    fn columnar_mask<R: Row>(&self, batch: &[R]) -> Option<Vec<bool>> {
        let ColOutcome::Bools(mask) = self.program.col.as_ref()?.run(batch, &self.captured) else {
            return None;
        };
        self.program.stats.record_columnar_batch();
        Some(mask)
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
    /// The variables of enclosing lambdas read so far, in the input
    /// slots after the parameters.
    captures: Vec<(Symbol, DataType)>,
    insts: Vec<Inst>,
    next: usize,
}

impl Lowering<'_> {
    fn fresh(&mut self) -> usize {
        let r = self.next;
        self.next += 1;
        r
    }

    fn emit(&mut self, inst: impl FnOnce(usize) -> Inst) -> usize {
        let dst = self.fresh();
        self.insts.push(inst(dst));
        dst
    }

    /// The input slot of variable `name` of type `ty`: a parameter (the
    /// last of its name), or else a captured variable, given the next
    /// slot when first read.
    fn slot(&mut self, name: &Symbol, ty: &DataType) -> usize {
        if let Some(p) = self.params.iter().rposition(|(n, _)| n == name) {
            return p;
        }
        let c = self.captures.iter().position(|(n, _)| n == name);
        self.params.len()
            + c.unwrap_or_else(|| {
                self.captures.push((name.clone(), ty.clone()));
                self.captures.len() - 1
            })
    }

    fn lower(&mut self, te: &TypedExpr) -> ExecResult<usize> {
        Ok(match &te.node {
            TypedNode::Const(c) => self.emit(|dst| Inst::Const(dst, Value::from_const(c))),
            TypedNode::Object(name) => {
                self.emit(|dst| Inst::LoadObject(dst, name.clone(), te.ty.clone()))
            }
            TypedNode::Var(name) => {
                let slot = self.slot(name, &te.ty);
                self.emit(|dst| Inst::Input(dst, slot))
            }
            TypedNode::List(items) => {
                let regs = self.lower_all(items)?;
                self.emit(|dst| Inst::MakeList(dst, regs))
            }
            TypedNode::Tuple(items) => {
                let regs = self.lower_all(items)?;
                self.emit(|dst| Inst::MakePair(dst, regs))
            }
            TypedNode::Field { attr, idx, arg, .. } => {
                let param = match &arg.node {
                    TypedNode::Var(name) => self.params.iter().rposition(|(n, _)| n == name),
                    _ => None,
                };
                match param {
                    Some(slot) => self.emit(|dst| Inst::InputField(dst, slot, *idx, attr.clone())),
                    None => {
                        let src = self.lower(arg)?;
                        self.emit(|dst| Inst::Field(dst, src, *idx, attr.clone()))
                    }
                }
            }
            TypedNode::Apply { op, spec, args } => {
                let (id, pure) = match self.engine.ops().of_spec(*spec) {
                    Some((id, entry)) => (id, entry.pure),
                    None => return Err(ExecError::NoImpl(op.clone())),
                };
                let regs = self.lower_all(args)?;
                match pure {
                    Some(pure) => self.emit(|dst| Inst::Call(dst, id, pure, regs)),
                    None => self.emit(|dst| Inst::CallOp(dst, id, Box::new(te.clone()), regs)),
                }
            }
            TypedNode::Lambda { params, body } => {
                let (child, captures) = CompiledFun::lower(self.engine, params, body)?;
                let regs = (captures.iter())
                    .map(|(name, ty)| {
                        let slot = self.slot(name, ty);
                        self.emit(|dst| Inst::Input(dst, slot))
                    })
                    .collect();
                self.emit(|dst| Inst::MakeClosure(dst, params.clone(), Rc::new(child), regs))
            }
            TypedNode::ApplyFun { fun, args } => {
                let f = self.lower(fun)?;
                let regs = self.lower_all(args)?;
                self.emit(|dst| Inst::CallClosure(dst, f, regs))
            }
        })
    }

    fn lower_all(&mut self, items: &[TypedExpr]) -> ExecResult<Box<[usize]>> {
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
fn lower_columnar(
    engine: &ExecEngine,
    params: &[(Symbol, DataType)],
    captures: &[(Symbol, DataType)],
    body: &TypedExpr,
) -> Option<ColProgram> {
    let [(param, _)] = params else {
        return None;
    };
    let mut c = ColLowering {
        engine,
        param,
        captures,
        insts: Vec::new(),
        n_int: 0,
        n_bool: 0,
    };
    let out = c.lower(body)?;
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
    captures: &'a [(Symbol, DataType)],
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

    fn int(&mut self, inst: impl FnOnce(usize) -> ColInst) -> Option<ColReg> {
        let dst = self.fresh_int();
        self.insts.push(inst(dst));
        Some(ColReg::I(dst))
    }

    fn bool(&mut self, inst: impl FnOnce(usize) -> ColInst) -> Option<ColReg> {
        let dst = self.fresh_bool();
        self.insts.push(inst(dst));
        Some(ColReg::B(dst))
    }

    fn lower(&mut self, te: &TypedExpr) -> Option<ColReg> {
        match &te.node {
            TypedNode::Const(sos_core::Const::Int(v)) => {
                self.int(|dst| ColInst::BroadcastInt { dst, v: *v })
            }
            TypedNode::Const(sos_core::Const::Bool(v)) => {
                self.bool(|dst| ColInst::BroadcastBool { dst, v: *v })
            }
            TypedNode::Var(name) => {
                // The tuple parameter itself is not a column; captured
                // int/bool variables broadcast (the parameter shadows a
                // capture of its name).
                if name == self.param {
                    return None;
                }
                let capture = self.captures.iter().position(|(n, _)| n == name)?;
                let dst = match () {
                    _ if is_atom(&te.ty, "int") => ColReg::I(self.fresh_int()),
                    _ if is_atom(&te.ty, "bool") => ColReg::B(self.fresh_bool()),
                    _ => return None,
                };
                self.insts.push(ColInst::Captured { dst, capture });
                Some(dst)
            }
            // Attribute access directly on the tuple parameter, for
            // int- and bool-typed fields.
            TypedNode::Field { idx, arg, .. } => {
                if !matches!(&arg.node, TypedNode::Var(n) if n == self.param) {
                    return None;
                }
                let field = *idx;
                if is_atom(&te.ty, "int") {
                    return self.int(|dst| ColInst::GatherInt { dst, field });
                }
                if is_atom(&te.ty, "bool") {
                    return self.bool(|dst| ColInst::GatherBool { dst, field });
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
            return self.bool(|dst| ColInst::Not { dst, a });
        }
        let [x, y] = args else { return None };
        let (ra, rb) = (self.lower(x)?, self.lower(y)?);
        match (op, ra, rb) {
            (_, ColReg::I(a), ColReg::I(b)) if is_arith(op) => {
                self.int(|dst| ColInst::Arith { op, dst, a, b })
            }
            (_, ColReg::I(a), ColReg::I(b)) if is_cmp(op) => {
                self.bool(|dst| ColInst::Cmp { op, dst, a, b })
            }
            (Atomic::And, ColReg::B(a), ColReg::B(b)) => {
                self.bool(|dst| ColInst::And { dst, a, b })
            }
            (Atomic::Or, ColReg::B(a), ColReg::B(b)) => self.bool(|dst| ColInst::Or { dst, a, b }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{apply, engine};
    use sos_core::{Const, TypeArg};
    use std::sync::Arc;

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

    fn params_t() -> Params {
        [(Symbol::new("t"), item_ty())].into()
    }

    /// Context-free calls and the program's shape, for the tests.
    impl Closure {
        fn call(&self, args: &[Value]) -> ExecResult<Value> {
            self.apply(None, args)
        }

        fn call_on<R: Row>(&self, args: &[R]) -> ExecResult<Value> {
            self.apply(None, args)
        }

        fn is_columnar(&self) -> bool {
            self.program.is_columnar()
        }

        fn reads_fields_only(&self) -> bool {
            self.program.reads_fields_only()
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

    fn compile1(body: TypedExpr) -> Closure {
        Closure::compile(&engine(), &params_t(), &body).expect("compiles")
    }

    fn lambda(param: (&str, DataType), body: TypedExpr) -> TypedExpr {
        let fun_ty = DataType::Fun(vec![param.1.clone()], Box::new(body.ty.clone()));
        let lambda = TypedNode::Lambda {
            params: [(Symbol::new(param.0), param.1)].into(),
            body: Arc::new(body),
        };
        TypedExpr::new(lambda, fun_ty)
    }

    /// `fun (outer) fun (t: item) body`, compiled.
    fn nested(e: &ExecEngine, outer: (&str, DataType), body: TypedExpr) -> Closure {
        let params = [(Symbol::new(outer.0), outer.1)].into();
        Closure::compile(e, &params, &lambda(("t", item_ty()), body)).unwrap()
    }

    /// The closure `outer` builds for `arg`.
    fn inner(outer: &Closure, arg: Value) -> Rc<Closure> {
        match outer.call(&[arg]).unwrap() {
            Value::Closure(c) => c,
            other => panic!("expected a closure, got {other:?}"),
        }
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
        // Field on a too-short tuple: the error of every attribute access.
        let cf = compile1(field("b", "bool"));
        let short = Value::tuple(vec![Value::Int(1)]);
        assert_eq!(
            cf.call(&[short]).unwrap_err().to_string(),
            "tuple too short for attribute `b`"
        );
        // `fun (n: int) fun (t: item) n`: the inner lambda compiles with
        // the outer one and reads `n` from the input slot after its
        // parameter; every closure it builds shares its program.
        let outer = nested(&e, ("n", ty("int")), var("n", ty("int")));
        let (five, six) = (inner(&outer, Value::Int(5)), inner(&outer, Value::Int(6)));
        assert!(Rc::ptr_eq(&five.program, &six.program));
        let t = item(3, 0, "", true);
        assert_eq!(five.call(std::slice::from_ref(&t)).unwrap(), Value::Int(5));
        assert_eq!(six.call(std::slice::from_ref(&t)).unwrap(), Value::Int(6));
        // A parameter shadows a captured variable of its name.
        let shadow = nested(&e, ("t", ty("int")), var("t", item_ty()));
        let c = inner(&shadow, Value::Int(1));
        assert_eq!(c.call(std::slice::from_ref(&t)).unwrap(), t);
    }

    #[test]
    fn field_only_programs_run_on_records_read_in_place() {
        use sos_storage::field::RecordView;
        // Field loads on the parameter are the only reads: such a
        // program runs on a record view with the tuple's values and
        // errors, in tier A and in tier B.
        let k_gt_3 = apply(">", vec![field("k", "int"), cint(3)], ty("bool"));
        let pred = compile1(apply("and", vec![k_gt_3, field("b", "bool")], ty("bool")));
        assert!(pred.reads_fields_only() && pred.is_columnar());
        let tuples = [
            item(2, 0, "x", true),
            item(5, 0, "y", true),
            item(9, 0, "z", false),
        ];
        let bytes: Vec<Vec<u8>> = tuples
            .iter()
            .map(|t| t.encode_tuple("t").unwrap())
            .collect();
        let views: Vec<RecordView<'_>> =
            bytes.iter().map(|b| RecordView::new(b).unwrap()).collect();
        assert_eq!(
            pred.eval_mask(None, &views, "filter").unwrap(),
            vec![false, true, false]
        );
        assert_eq!(
            pred.eval_mask(None, &tuples, "filter").unwrap(),
            vec![false, true, false]
        );
        let s = compile1(field("s", "string"));
        assert!(s.reads_fields_only() && !s.is_columnar());
        assert_eq!(s.call_on(&views[1..2]).unwrap(), Value::Str("y".into()));
        // A record shorter than the schema fails like a short tuple.
        let short = Value::tuple(vec![Value::Int(1)]).encode_tuple("t").unwrap();
        let short = [RecordView::new(&short).unwrap()];
        assert_eq!(
            s.call_on(&short).unwrap_err().to_string(),
            "tuple too short for attribute `s`"
        );
        // The whole tuple as a value is not a field load.
        assert!(!compile1(var("t", item_ty())).reads_fields_only());
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
        // Overflow and zero divisors carry the table entry's messages.
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
        // in the table entry, tier A and tier B alike.
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
            assert_eq!(interp.map_err(|e| e.to_string()), want, "{op}: table entry");
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

    /// Every typed node lowers. Object references, function application
    /// and operators that are not pure (a user override of a pure
    /// built-in included) run with the evaluation context; only a
    /// variable bound nowhere, which the checker rules out, fails.
    #[test]
    fn every_typed_node_lowers() {
        let mut e = engine();
        let compile = |e: &ExecEngine, body| Closure::compile(e, &params_t(), &body).unwrap();
        let object = compile(
            &e,
            TypedExpr::new(TypedNode::Object(Symbol::new("n")), ty("int")),
        );
        let t = [item(0, 0, "", false)];
        let err = object.call(&t).unwrap_err().to_string();
        assert!(err.contains("without a context"), "{err}");
        // Building a closure needs no context; applying one does.
        let lam = lambda(("x", ty("int")), cint(1));
        assert!(!compile(&e, lam.clone()).program().needs_context());
        let args = vec![cint(1)];
        let appf = TypedNode::ApplyFun {
            fun: Box::new(lam),
            args,
        };
        let appf = compile(&e, TypedExpr::new(appf, ty("int")));
        let count = apply("count", vec![var("t", item_ty())], ty("int"));
        assert!(compile(&e, count).program().needs_context());
        let plus = apply("+", vec![cint(1), cint(2)], ty("int"));
        assert!(!compile(&e, plus.clone()).program().needs_context());
        e.add_op("+", |_, _, _| Ok(Value::Int(0)));
        let plus = compile(&e, plus);
        let mut store = std::collections::HashMap::from([(Symbol::new("n"), Value::Int(7))]);
        let mut cat = sos_catalog::Catalog::new();
        let mut ctx = EvalCtx::new(&e, &mut store, &mut cat);
        for (c, want) in [(plus, 0), (object, 7), (appf, 1)] {
            assert!(c.program().needs_context());
            assert_eq!(c.apply(Some(&mut ctx), &t).unwrap(), Value::Int(want));
        }
        let Err(err) = Closure::compile(&e, &params_t(), &var("nowhere", ty("int"))) else {
            panic!("an unbound variable compiled");
        };
        assert_eq!(err.to_string(), "unbound variable `nowhere`");
    }

    /// One compile per lowered lambda, a nested one included; running
    /// the program, and building closures of the nested lambda, compiles
    /// nothing more. The nested lambda's captured int broadcasts in the
    /// columnar kernel.
    #[test]
    fn each_lowered_lambda_counts_one_compile() {
        let e = engine();
        compile1(apply("=", vec![field("k", "int"), cint(0)], ty("bool")));
        assert_eq!(e.stats.compile_snapshot().compiled, 0, "another engine");
        let eq_n = apply(
            "=",
            vec![field("k", "int"), var("n", ty("int"))],
            ty("bool"),
        );
        let outer = nested(&e, ("n", ty("int")), eq_n);
        assert_eq!(e.stats.compile_snapshot().compiled, 2);
        let batch: Vec<Value> = (0..10).map(|k| item(k, 0, "", false)).collect();
        for n in 0..10 {
            let inner = inner(&outer, Value::Int(n));
            assert!(inner.is_columnar() && inner.reads_fields_only());
            let mask = inner.eval_mask(None, &batch, "filter").unwrap();
            assert_eq!(mask.iter().position(|&k| k), Some(n as usize));
        }
        assert_eq!(e.stats.columnar_batches(), 10);
        let snap = e.stats.compile_snapshot();
        assert_eq!((snap.compiled, snap.total_fallbacks()), (2, 0));
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
        let mask = cf.eval_mask(None, &batch, "filter").unwrap();
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
        assert_eq!(
            cf.eval_mask(None, &batch, "filter").unwrap(),
            vec![true; 100]
        );
        // Int columns for project/replace-shaped programs.
        let cf = compile1(apply("*", vec![field("k", "int"), cint(2)], ty("int")));
        assert!(cf.is_columnar());
        assert_eq!(
            cf.eval_column(None, &batch[..3]).unwrap(),
            vec![Value::Int(0), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn columnar_batches_count_only_batches_the_kernel_finished() {
        let e = engine();
        let compile = |body| Closure::compile(&e, &params_t(), &body).expect("compiles");
        let ok = vec![item(1, 0, "", false), item(2, 0, "", false)];
        let overflow = vec![item(1, 0, "", false), item(i64::MAX, 0, "", false)];
        let pred = compile(apply("<", vec![field("k", "int"), cint(10)], ty("bool")));
        pred.eval_mask(None, &ok, "filter").unwrap();
        assert_eq!(e.stats.columnar_batches(), 1);
        let double = compile(apply("*", vec![field("k", "int"), cint(2)], ty("int")));
        assert!(double.try_columnar(&ok).is_some());
        assert_eq!(e.stats.columnar_batches(), 2);
        // A batch the kernel bails on runs row by row and is not counted.
        assert!(double.try_columnar(&overflow).is_none());
        assert!(double.eval_column(None, &overflow).is_err());
        // Neither is a batch of a program with no kernel.
        let ne = compile(apply(
            "!=",
            vec![
                field("s", "string"),
                TypedExpr::new(TypedNode::Const(Const::Str("x".into())), ty("string")),
            ],
            ty("bool"),
        ));
        ne.eval_mask(None, &ok, "filter").unwrap();
        assert_eq!(e.stats.columnar_batches(), 2);
    }

    #[test]
    fn columnar_bailout_reruns_tier_a_with_identical_errors() {
        // Overflow in the middle of a batch: the columnar attempt bails
        // and the row-order first error surfaces, as a row-at-a-time loop
        // would.
        let cf = compile1(apply("*", vec![field("k", "int"), cint(2)], ty("int")));
        assert!(cf.is_columnar());
        let batch = vec![
            item(1, 0, "", false),
            item(i64::MAX, 0, "", false),
            item(2, 0, "", false),
        ];
        assert_eq!(
            cf.eval_column(None, &batch).unwrap_err().to_string(),
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
            cf.eval_mask(None, &batch, "filter")
                .unwrap_err()
                .to_string(),
            "arithmetic error: division by zero"
        );
        // A non-int runtime value in an int-typed field bails to tier A
        // *successfully* (the table entry promotes int/real compares).
        let cf = compile1(apply("<", vec![field("k", "int"), cint(10)], ty("bool")));
        assert!(cf.is_columnar());
        let odd = vec![Value::tuple(vec![
            Value::Real(2.5),
            Value::Int(0),
            Value::Str("".into()),
            Value::Bool(false),
        ])];
        assert_eq!(cf.eval_mask(None, &odd, "filter").unwrap(), vec![true]);
    }

    /// Hand-built malformed programs trip each verifier check. The
    /// lowering never produces these; the verifier exists so that claim
    /// is checked once per program instead of assumed per row.
    #[test]
    fn verifier_rejects_malformed_programs() {
        let e = engine();
        let tier_a = |insts: Vec<Inst>, out: usize, n_regs: usize| CompiledFun {
            arity: 1,
            n_captured: 0,
            insts: insts.into_boxed_slice(),
            out,
            n_regs,
            col: None,
            stats: Rc::clone(&e.stats),
        };

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

        // A register feeds one instruction: the executor moves values
        // out of the registers it reads.
        let add = Inst::Call(1, id("+"), Atomic::Add, vec![0, 0].into());
        let cf = tier_a(vec![Inst::Const(0, Value::Int(1)), add], 1, 2);
        let err = cf.verify(ops).unwrap_err();
        assert!(err.contains("a second time"), "{err}");

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

        // A `CallOp` names an entry of the table.
        let call = Inst::CallOp(0, ops.entries().len(), Box::new(cint(1)), [].into());
        let err = tier_a(vec![call], 0, 1).verify(ops).unwrap_err();
        assert!(err.contains("not in the table"), "{err}");

        // A `MakeClosure` gives its child the parameters and captured
        // values it takes: this child takes one parameter and captures
        // nothing.
        let child = Rc::new(tier_a(vec![Inst::Const(0, Value::Int(1))], 0, 1));
        let two: Params = [(Symbol::new("a"), ty("int")), (Symbol::new("b"), ty("int"))].into();
        for (params, captures) in [(two, vec![]), (params_t(), vec![0])] {
            let make = Inst::MakeClosure(1, params, child.clone(), captures.into());
            let cf = tier_a(vec![Inst::Const(0, Value::Int(1)), make], 1, 2);
            let err = cf.verify(ops).unwrap_err();
            assert!(err.contains("builds a closure"), "{err}");
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
            .verify(0)
            .unwrap_err()
            .contains("not an arithmetic opcode"));

        // Columnar kernel: output register never written.
        let col = ColProgram {
            insts: vec![ColInst::BroadcastInt { dst: 0, v: 1 }],
            n_int: 1,
            n_bool: 1,
            out: ColReg::B(0),
        };
        let err = col.verify(0).unwrap_err();
        assert!(err.contains("columnar output register"), "{err}");

        // Columnar kernel: a captured value the closure does not hold.
        let col = ColProgram {
            insts: vec![ColInst::Captured {
                dst: ColReg::I(0),
                capture: 0,
            }],
            n_int: 1,
            n_bool: 0,
            out: ColReg::I(0),
        };
        let err = col.verify(0).unwrap_err();
        assert!(err.contains("broadcasts captured value 0"), "{err}");
    }

    /// Every program the lowering produces passes the verifier (it runs
    /// inside `compile`, so a failure would surface as an error; this
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
                .program
                .verify(engine().ops())
                .expect("lowered program verifies");
        }
    }
}
