//! Executor for slot-compiled TEs (deploy-time compilation, step 2).
//!
//! [`sdg_ir::te_compiled`] lowers a `TeProgram` into a slot-addressed form
//! at deploy time; this module executes it. The interpreter environment is
//! a flat register file (`Vec<Option<Value>>`) indexed by `u32` slots, so
//! variable reads and writes are O(1) array accesses instead of string
//! hash lookups, and the per-item `HashMap` allocation of the reference
//! interpreter disappears entirely: each worker owns one [`Scratch`] whose
//! register file (and helper-frame pool) is reused across items.
//!
//! Semantics are defined by the reference interpreter
//! ([`crate::interp::run_te`]); the property harness in
//! `tests/engine_equiv.rs` asserts effect-for-effect equivalence across
//! generated StateLang programs, and the shared accessor/operator kernels
//! (`eval_state_call`, `eval_binop`) make divergence structurally hard.

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::{Record, Value};
use sdg_ir::ast::{BinOp, UnOp};
use sdg_ir::builtins::eval_builtin;
use sdg_ir::te_compiled::{CExpr, CStmt, CompiledTe};
use sdg_state::store::StateStore;

use crate::interp::{eval_binop, eval_state_call, missing_state, Effects, STEP_BUDGET};

/// A register file: one `Option<Value>` per interned name. `None` means
/// the variable is unbound (distinct from a bound `Value::Null`).
type Regs = Vec<Option<Value>>;

/// Per-worker reusable execution state: the main register file and a pool
/// of helper activation frames. Reusing these across items removes every
/// per-item environment allocation from the hot path.
#[derive(Debug, Default)]
pub struct Scratch {
    regs: Regs,
    frame_pool: Vec<Regs>,
}

impl Scratch {
    /// Creates an empty scratch pad.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs a compiled TE on `input` against the instance's local state,
/// reusing `scratch` for the register file.
pub fn run_compiled(
    te: &CompiledTe,
    input: &Record,
    state: Option<&mut StateStore>,
    scratch: &mut Scratch,
) -> SdgResult<Effects> {
    let Scratch { regs, frame_pool } = scratch;
    regs.clear();
    regs.resize(te.symbols.len(), None);
    // Bind input fields: one symbol lookup per field, ignoring fields the
    // program never references (they cannot appear in `output_slots`
    // because output variables are interned at compile time).
    for (name, value) in input.iter() {
        if let Some(slot) = te.symbols.lookup(name) {
            regs[slot as usize] = Some(value.clone());
        }
    }
    let mut exec = Exec {
        te,
        state,
        frame_pool,
        emits: Vec::new(),
        steps: 0,
    };
    let flow = exec.exec_block(&te.body, regs)?;
    let mut effects = Effects {
        forwards: Vec::new(),
        emits: exec.emits,
    };
    if te.is_sink || matches!(flow, Flow::Returned(_)) {
        return Ok(effects);
    }
    let mut out = Record::with_capacity(te.output_slots.len());
    for &slot in &te.output_slots {
        // The block is over: move values out of the registers instead of
        // cloning them. Output slots are distinct (live sets are sorted,
        // deduplicated variable names).
        let value = regs[slot as usize].take().ok_or_else(|| {
            SdgError::Eval(format!(
                "live variable `{}` is unbound at the end of TE `{}`",
                te.symbols.name(slot),
                te.name
            ))
        })?;
        out.push_unchecked(te.symbols.name(slot), value);
    }
    effects.forwards.push(out);
    Ok(effects)
}

enum Flow {
    Normal,
    Returned(Value),
}

struct Exec<'a> {
    te: &'a CompiledTe,
    state: Option<&'a mut StateStore>,
    frame_pool: &'a mut Vec<Regs>,
    emits: Vec<Value>,
    steps: u64,
}

impl<'a> Exec<'a> {
    #[inline]
    fn tick(&mut self) -> SdgResult<()> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err(SdgError::Eval(
                "step budget exceeded (runaway loop?)".into(),
            ));
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[CStmt], regs: &mut Regs) -> SdgResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, regs)? {
                Flow::Normal => {}
                returned => return Ok(returned),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &CStmt, regs: &mut Regs) -> SdgResult<Flow> {
        self.tick()?;
        match stmt {
            CStmt::Assign { slot, expr } => {
                let value = self.eval(expr, regs)?;
                regs[*slot as usize] = Some(value);
                Ok(Flow::Normal)
            }
            CStmt::Expr(expr) => {
                self.eval(expr, regs)?;
                Ok(Flow::Normal)
            }
            CStmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond, regs)?.truthy()? {
                    self.exec_block(then_block, regs)
                } else {
                    self.exec_block(else_block, regs)
                }
            }
            CStmt::While { cond, body } => {
                while self.eval(cond, regs)?.truthy()? {
                    self.tick()?;
                    match self.exec_block(body, regs)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Foreach { slot, iter, body } => {
                let list = self.eval(iter, regs)?;
                let items = list.as_list()?.to_vec();
                for item in items {
                    self.tick()?;
                    regs[*slot as usize] = Some(item);
                    match self.exec_block(body, regs)? {
                        Flow::Normal => {}
                        returned => return Ok(returned),
                    }
                }
                Ok(Flow::Normal)
            }
            CStmt::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e, regs)?,
                    None => Value::Null,
                };
                Ok(Flow::Returned(value))
            }
            CStmt::Emit(expr) => {
                let value = self.eval(expr, regs)?;
                self.emits.push(value);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval(&mut self, expr: &CExpr, regs: &mut Regs) -> SdgResult<Value> {
        self.tick()?;
        match expr {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Slot(slot) => regs[*slot as usize].clone().ok_or_else(|| {
                SdgError::Eval(format!(
                    "unbound variable `{}`",
                    self.te.symbols.name(*slot)
                ))
            }),
            CExpr::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::And => {
                        return if self.eval(lhs, regs)?.truthy()? {
                            self.eval(rhs, regs)
                        } else {
                            Ok(Value::Bool(false))
                        }
                    }
                    BinOp::Or => {
                        return if self.eval(lhs, regs)?.truthy()? {
                            Ok(Value::Bool(true))
                        } else {
                            self.eval(rhs, regs)
                        }
                    }
                    _ => {}
                }
                let l = self.eval(lhs, regs)?;
                let r = self.eval(rhs, regs)?;
                eval_binop(*op, &l, &r)
            }
            CExpr::Unary { op, operand } => {
                let v = self.eval(operand, regs)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => Err(SdgError::type_mismatch("Int|Float", other.type_name())),
                    },
                    UnOp::Not => Ok(Value::Bool(!v.truthy()?)),
                }
            }
            CExpr::Index { base, idx } => {
                let b = self.eval(base, regs)?;
                let i = self.eval(idx, regs)?.as_int()?;
                let list = b.as_list()?;
                if i < 0 || i as usize >= list.len() {
                    return Err(SdgError::Eval(format!(
                        "index {i} out of bounds for list of length {}",
                        list.len()
                    )));
                }
                Ok(list[i as usize].clone())
            }
            CExpr::ListLit(items) => {
                let vals = items
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                Ok(Value::List(vals))
            }
            CExpr::CallBuiltin { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                eval_builtin(name, &vals)
            }
            CExpr::CallHelper { helper, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                self.call_helper(*helper, vals)
            }
            CExpr::StateCall {
                field,
                method,
                args,
            } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(e, regs))
                    .collect::<SdgResult<_>>()?;
                let store = self
                    .state
                    .as_deref_mut()
                    .ok_or_else(|| missing_state(field))?;
                eval_state_call(store, field, method, vals)
            }
        }
    }

    fn call_helper(&mut self, helper: u32, args: Vec<Value>) -> SdgResult<Value> {
        let decl = &self.te.helpers[helper as usize];
        if decl.params as usize != args.len() {
            return Err(SdgError::Eval(format!(
                "`{}` expects {} arguments, got {}",
                decl.name,
                decl.params,
                args.len()
            )));
        }
        // Activation frames come from a reusable pool: helper calls on the
        // hot path allocate only until the pool matches the call depth.
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        frame.clear();
        frame.resize(decl.frame_len as usize, None);
        for (slot, value) in args.into_iter().enumerate() {
            frame[slot] = Some(value);
        }
        let result = self.exec_block(&decl.body, &mut frame);
        self.frame_pool.push(frame);
        match result? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::record;
    use sdg_ir::parser::parse_program;
    use sdg_ir::te::TeProgram;
    use sdg_state::store::{StateStore, StateType};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn compile_of(src: &str, out_vars: &[&str]) -> CompiledTe {
        let prog = parse_program(src).unwrap();
        let entry = prog.entry_points()[0].clone();
        let helpers: HashMap<String, sdg_ir::ast::Method> = prog
            .methods
            .iter()
            .filter(|m| m.name != entry.name)
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        CompiledTe::compile(&TeProgram::new(
            entry.name.clone(),
            entry.body.clone(),
            Arc::new(helpers),
            out_vars.iter().map(|s| s.to_string()).collect(),
        ))
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let te = compile_of(
            "void f(int n) {\n\
               let acc = 0;\n\
               let i = 0;\n\
               while (i < n) { acc = acc + i; i = i + 1; }\n\
               if (acc >= 10) { emit acc; } else { emit 0 - acc; }\n\
             }",
            &[],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"n" => Value::Int(5)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(10)]);
        // The same scratch serves the next item (register reuse).
        let fx = run_compiled(&te, &record! {"n" => Value::Int(3)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(-3)]);
    }

    #[test]
    fn forwards_project_live_variables() {
        let te = compile_of(
            "void f(int a, int b) { let x = a * 10; let unused = b; }",
            &["x"],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(
            &te,
            &record! {"a" => Value::Int(3), "b" => Value::Int(1)},
            None,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fx.forwards.len(), 1);
        assert_eq!(fx.forwards[0].get("x"), Some(&Value::Int(30)));
        assert_eq!(fx.forwards[0].len(), 1);
    }

    #[test]
    fn early_return_suppresses_forwarding() {
        let te = compile_of(
            "void f(int a) { if (a < 0) { return; } let x = a; }",
            &["x"],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"a" => Value::Int(-1)}, None, &mut scratch).unwrap();
        assert!(fx.forwards.is_empty());
        let fx = run_compiled(&te, &record! {"a" => Value::Int(1)}, None, &mut scratch).unwrap();
        assert_eq!(fx.forwards.len(), 1);
    }

    #[test]
    fn helper_calls_and_recursion() {
        let te = compile_of(
            "int fac(int x) { if (x <= 1) { return 1; } return x * fac(x - 1); }\n\
             void f(int a) { emit fac(a); }",
            &[],
        );
        let mut scratch = Scratch::new();
        let fx = run_compiled(&te, &record! {"a" => Value::Int(5)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(120)]);
        // The frame pool holds the recursion depth's frames for reuse.
        assert!(!scratch.frame_pool.is_empty());
        let fx = run_compiled(&te, &record! {"a" => Value::Int(3)}, None, &mut scratch).unwrap();
        assert_eq!(fx.emits, vec![Value::Int(6)]);
    }

    #[test]
    fn table_state_calls() {
        let te = compile_of(
            "Table t;\n\
             void f(int k) {\n\
               t.put(k, 10);\n\
               t.inc(k, 5);\n\
               emit t.get(k);\n\
               emit t.get(999);\n\
               emit t.size();\n\
             }",
            &[],
        );
        let mut store = StateStore::new(StateType::Table);
        let mut scratch = Scratch::new();
        let fx = run_compiled(
            &te,
            &record! {"k" => Value::Int(1)},
            Some(&mut store),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fx.emits, vec![Value::Int(15), Value::Null, Value::Int(1)]);
    }

    #[test]
    fn unbound_variable_and_missing_live_var_errors_match_reference() {
        let te = compile_of("void f(int a) { emit a; }", &[]);
        let err = run_compiled(&te, &Record::new(), None, &mut Scratch::new()).unwrap_err();
        assert!(err.to_string().contains("unbound variable `a`"), "{err}");

        let te = compile_of("void f(int a) { if (a < 0) { let x = a; } }", &["x"]);
        let err = run_compiled(
            &te,
            &record! {"a" => Value::Int(1)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("live variable `x`"), "{err}");
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let te = compile_of("void f(int a) { while (true) { a = a + 1; } }", &[]);
        let err = run_compiled(
            &te,
            &record! {"a" => Value::Int(0)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("step budget"), "{err}");
    }

    #[test]
    fn state_access_without_store_is_an_error() {
        let te = compile_of("Table t;\nvoid f(int k) { t.put(k, 1); }", &[]);
        let err = run_compiled(
            &te,
            &record! {"k" => Value::Int(1)},
            None,
            &mut Scratch::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("without a state element"), "{err}");
    }

    #[test]
    fn unreferenced_input_fields_are_dropped_like_the_reference() {
        // Reference semantics: unreferenced inputs sit in the env but are
        // only forwarded when listed as output vars; here `extra` is
        // neither referenced nor live, so both engines drop it.
        let te = compile_of("void f(int a) { let x = a; }", &["x"]);
        let fx = run_compiled(
            &te,
            &record! {"a" => Value::Int(1), "extra" => Value::Int(9)},
            None,
            &mut Scratch::new(),
        )
        .unwrap();
        assert_eq!(fx.forwards[0].len(), 1);
        assert_eq!(fx.forwards[0].get("extra"), None);
    }
}
