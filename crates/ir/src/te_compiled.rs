//! Slot-lowered form of a [`TeProgram`] (deploy-time compilation, step 1).
//!
//! The paper's `java2sdg` specialises each TE into JVM bytecode at build
//! time (§4.2 step 6); the reference interpreter in `sdg-runtime` instead
//! walks the AST with a `HashMap<String, Value>` environment, paying a map
//! allocation and per-variable string hashing for *every item*. This module
//! removes that cost structurally: every variable, helper, field and
//! builtin name mentioned by a `TeProgram` is interned into a per-TE
//! [`SymbolTable`] once at deploy time, and the AST is lowered into a
//! slot-addressed form ([`CStmt`]/[`CExpr`]) where the environment is a
//! flat register file indexed by `u32` slots with O(1) access.
//!
//! The lowering is purely structural — no evaluation happens here — so the
//! executor (in `sdg-runtime::compile`) can be property-tested for exact
//! effect equivalence against the reference interpreter.

use std::collections::HashMap;
use std::sync::Arc;

use sdg_common::value::{intern, Value};

use crate::ast::{BinOp, Expr, ExprKind, Method, Stmt, StmtKind, UnOp};
use crate::te::TeProgram;

/// Interned names of one frame (the TE body or one helper), mapping each
/// name to a dense register slot. Names are process-interned
/// ([`intern`]), so output records take them by pointer copy.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<&'static str>,
    index: HashMap<&'static str, u32>,
}

impl SymbolTable {
    /// Returns the slot of `name`, interning it if unseen.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.names.len() as u32;
        let interned = intern(name);
        self.names.push(interned);
        self.index.insert(interned, slot);
        slot
    }

    /// Returns the slot of `name`, if interned.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Returns the name stored at `slot`.
    pub fn name(&self, slot: u32) -> &'static str {
        self.names[slot as usize]
    }

    /// Number of slots (the register-file size of the frame).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A slot-addressed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal, folded into a runtime [`Value`] at compile time.
    Const(Value),
    /// A register read.
    Slot(u32),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<CExpr>,
    },
    /// List indexing.
    Index {
        /// Indexed expression.
        base: Box<CExpr>,
        /// Index expression.
        idx: Box<CExpr>,
    },
    /// List literal.
    ListLit(Vec<CExpr>),
    /// Call of a builtin (not a helper; resolution happened at lowering).
    CallBuiltin {
        /// Builtin name.
        name: Arc<str>,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Call of helper `helper` (index into [`CompiledTe::helpers`]).
    CallHelper {
        /// Helper index.
        helper: u32,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// State access `field.method(args)`.
    StateCall {
        /// State field name (for the store dispatch and error messages).
        field: Arc<str>,
        /// Accessor method name.
        method: Arc<str>,
        /// Arguments.
        args: Vec<CExpr>,
    },
}

/// A slot-addressed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// `let`/assignment: write `expr` into `slot` (lets and assigns are
    /// identical once names are slots).
    Assign {
        /// Destination register.
        slot: u32,
        /// Value expression.
        expr: CExpr,
    },
    /// Expression evaluated for effect.
    Expr(CExpr),
    /// Conditional.
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then_block: Vec<CStmt>,
        /// Else branch.
        else_block: Vec<CStmt>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: CExpr,
        /// Body.
        body: Vec<CStmt>,
    },
    /// List iteration binding each element into `slot`.
    Foreach {
        /// Loop-variable register.
        slot: u32,
        /// Iterated expression.
        iter: CExpr,
        /// Body.
        body: Vec<CStmt>,
    },
    /// Early return.
    Return(Option<CExpr>),
    /// Output emission.
    Emit(CExpr),
}

/// One compiled helper method: its own frame layout and body.
#[derive(Debug, Clone)]
pub struct CompiledHelper {
    /// Helper name (diagnostics and arity errors).
    pub name: Arc<str>,
    /// Number of parameters; they occupy slots `0..params`.
    pub params: u32,
    /// Register-file size of one activation frame.
    pub frame_len: u32,
    /// Lowered body.
    pub body: Vec<CStmt>,
}

/// A deploy-time-compiled TE: the slot-addressed program plus the frame
/// layout needed to bind inputs and project outputs in O(1) per field.
#[derive(Debug, Clone)]
pub struct CompiledTe {
    /// TE name (diagnostics).
    pub name: String,
    /// Frame layout of the TE body; input-record fields are bound by
    /// looking their names up here once per field.
    pub symbols: SymbolTable,
    /// Lowered statements.
    pub body: Vec<CStmt>,
    /// Compiled helpers, indexed by [`CExpr::CallHelper::helper`].
    pub helpers: Vec<CompiledHelper>,
    /// Slots of the live output variables, in `output_vars` order — the
    /// precomputed live-variable projection map.
    pub output_slots: Vec<u32>,
    /// `true` when the TE forwards nothing downstream.
    pub is_sink: bool,
}

impl CompiledTe {
    /// Lowers `te` into slot-addressed form.
    pub fn compile(te: &TeProgram) -> CompiledTe {
        // Helper indices are assigned by sorted name so compilation is
        // deterministic regardless of the source map's iteration order.
        let mut helper_names: Vec<&String> = te.helpers.keys().collect();
        helper_names.sort();
        let helper_index: HashMap<&str, u32> = helper_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as u32))
            .collect();

        let mut symbols = SymbolTable::default();
        let body = lower_block(&te.stmts, &mut symbols, &helper_index);
        let output_slots = te.output_vars.iter().map(|v| symbols.intern(v)).collect();

        let helpers = helper_names
            .iter()
            .map(|name| compile_helper(&te.helpers[*name], &helper_index))
            .collect();

        CompiledTe {
            name: te.name.clone(),
            symbols,
            body,
            helpers,
            output_slots,
            is_sink: te.is_sink(),
        }
    }
}

fn compile_helper(method: &Method, helper_index: &HashMap<&str, u32>) -> CompiledHelper {
    let mut symbols = SymbolTable::default();
    for p in &method.params {
        symbols.intern(&p.name);
    }
    let params = symbols.len() as u32;
    let body = lower_block(&method.body, &mut symbols, helper_index);
    CompiledHelper {
        name: Arc::from(method.name.as_str()),
        params,
        frame_len: symbols.len() as u32,
        body,
    }
}

fn lower_block(
    stmts: &[Stmt],
    symbols: &mut SymbolTable,
    helpers: &HashMap<&str, u32>,
) -> Vec<CStmt> {
    stmts
        .iter()
        .map(|s| lower_stmt(s, symbols, helpers))
        .collect()
}

fn lower_stmt(stmt: &Stmt, symbols: &mut SymbolTable, helpers: &HashMap<&str, u32>) -> CStmt {
    match &stmt.kind {
        StmtKind::Let { name, expr, .. } | StmtKind::Assign { name, expr } => CStmt::Assign {
            // Lower the value first: `let x = x + 1` must read the outer
            // binding (matching the interpreter, where the name is simply
            // overwritten after evaluation).
            expr: lower_expr(expr, symbols, helpers),
            slot: symbols.intern(name),
        },
        StmtKind::Expr(expr) => CStmt::Expr(lower_expr(expr, symbols, helpers)),
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => CStmt::If {
            cond: lower_expr(cond, symbols, helpers),
            then_block: lower_block(then_block, symbols, helpers),
            else_block: lower_block(else_block, symbols, helpers),
        },
        StmtKind::While { cond, body } => CStmt::While {
            cond: lower_expr(cond, symbols, helpers),
            body: lower_block(body, symbols, helpers),
        },
        StmtKind::Foreach { var, iter, body } => CStmt::Foreach {
            iter: lower_expr(iter, symbols, helpers),
            slot: symbols.intern(var),
            body: lower_block(body, symbols, helpers),
        },
        StmtKind::Return(expr) => {
            CStmt::Return(expr.as_ref().map(|e| lower_expr(e, symbols, helpers)))
        }
        StmtKind::Emit(expr) => CStmt::Emit(lower_expr(expr, symbols, helpers)),
    }
}

fn lower_expr(expr: &Expr, symbols: &mut SymbolTable, helpers: &HashMap<&str, u32>) -> CExpr {
    match &expr.kind {
        ExprKind::Int(v) => CExpr::Const(Value::Int(*v)),
        ExprKind::Float(v) => CExpr::Const(Value::Float(*v)),
        ExprKind::Str(s) => CExpr::Const(Value::Str(s.clone())),
        ExprKind::Bool(b) => CExpr::Const(Value::Bool(*b)),
        ExprKind::Null => CExpr::Const(Value::Null),
        ExprKind::Var(name) | ExprKind::Collection(name) => CExpr::Slot(symbols.intern(name)),
        ExprKind::Binary { op, lhs, rhs } => CExpr::Binary {
            op: *op,
            lhs: Box::new(lower_expr(lhs, symbols, helpers)),
            rhs: Box::new(lower_expr(rhs, symbols, helpers)),
        },
        ExprKind::Unary { op, operand } => CExpr::Unary {
            op: *op,
            operand: Box::new(lower_expr(operand, symbols, helpers)),
        },
        ExprKind::Index { base, idx } => CExpr::Index {
            base: Box::new(lower_expr(base, symbols, helpers)),
            idx: Box::new(lower_expr(idx, symbols, helpers)),
        },
        ExprKind::ListLit(items) => CExpr::ListLit(
            items
                .iter()
                .map(|e| lower_expr(e, symbols, helpers))
                .collect(),
        ),
        ExprKind::Call { callee, args } => {
            let args = args
                .iter()
                .map(|e| lower_expr(e, symbols, helpers))
                .collect();
            // Helpers shadow builtins, matching the interpreter's lookup
            // order (helpers first, then `eval_builtin`).
            match helpers.get(callee.as_str()) {
                Some(&helper) => CExpr::CallHelper { helper, args },
                None => CExpr::CallBuiltin {
                    name: Arc::from(callee.as_str()),
                    args,
                },
            }
        }
        ExprKind::StateCall {
            field,
            method,
            args,
            ..
        } => CExpr::StateCall {
            field: Arc::from(field.as_str()),
            method: Arc::from(method.as_str()),
            args: args
                .iter()
                .map(|e| lower_expr(e, symbols, helpers))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_src(src: &str, out_vars: &[&str]) -> CompiledTe {
        let prog = parse_program(src).unwrap();
        let entry = prog.entry_points()[0].clone();
        let helpers: HashMap<String, Method> = prog
            .methods
            .iter()
            .filter(|m| m.name != entry.name)
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        let te = TeProgram::new(
            entry.name.clone(),
            entry.body.clone(),
            Arc::new(helpers),
            out_vars.iter().map(|s| s.to_string()).collect(),
        );
        CompiledTe::compile(&te)
    }

    #[test]
    fn symbol_table_interns_once() {
        let mut t = SymbolTable::default();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(b), "b");
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("zz"), None);
    }

    #[test]
    fn variables_share_slots_across_statements() {
        let c = compile_src(
            "void f(int a) { let x = a + 1; x = x * 2; emit x; }",
            &["x"],
        );
        // `a` and `x` are the only names: two slots.
        assert_eq!(c.symbols.len(), 2);
        let x = c.symbols.lookup("x").unwrap();
        assert_eq!(c.output_slots, vec![x]);
        assert!(!c.is_sink);
        match &c.body[1] {
            CStmt::Assign { slot, .. } => assert_eq!(*slot, x),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn helper_calls_resolve_to_indices() {
        let c = compile_src(
            "int sq(int v) { return v * v; }\nvoid f(int a) { emit sq(a) + len(\"xy\"); }",
            &[],
        );
        assert_eq!(c.helpers.len(), 1);
        assert_eq!(&*c.helpers[0].name, "sq");
        assert_eq!(c.helpers[0].params, 1);
        let mut saw_helper = false;
        let mut saw_builtin = false;
        fn walk(e: &CExpr, h: &mut bool, b: &mut bool) {
            match e {
                CExpr::CallHelper { helper, args } => {
                    assert_eq!(*helper, 0);
                    *h = true;
                    args.iter().for_each(|a| walk(a, h, b));
                }
                CExpr::CallBuiltin { name, args } => {
                    assert_eq!(&**name, "len");
                    *b = true;
                    args.iter().for_each(|a| walk(a, h, b));
                }
                CExpr::Binary { lhs, rhs, .. } => {
                    walk(lhs, h, b);
                    walk(rhs, h, b);
                }
                _ => {}
            }
        }
        match &c.body[0] {
            CStmt::Emit(e) => walk(e, &mut saw_helper, &mut saw_builtin),
            other => panic!("expected emit, got {other:?}"),
        }
        assert!(saw_helper && saw_builtin);
    }

    #[test]
    fn literals_fold_to_values_and_sinks_detected() {
        let c = compile_src("void f() { emit 1 + 2.5; }", &[]);
        assert!(c.is_sink);
        match &c.body[0] {
            CStmt::Emit(CExpr::Binary { lhs, rhs, .. }) => {
                assert_eq!(**lhs, CExpr::Const(Value::Int(1)));
                assert_eq!(**rhs, CExpr::Const(Value::Float(2.5)));
            }
            other => panic!("unexpected lowering: {other:?}"),
        }
    }

    #[test]
    fn output_vars_not_mentioned_in_body_still_get_slots() {
        // A passthrough live variable never appears in the statements; its
        // slot must exist so input binding can populate it.
        let c = compile_src("void f(int keep) { let x = 1; }", &["keep", "x"]);
        assert_eq!(c.output_slots.len(), 2);
        assert!(c.symbols.lookup("keep").is_some());
    }
}
