//! The analysed language.
//!
//! A deliberately small imperative language with the one feature that
//! matters for the paper's argument: a distinction between *scalar*
//! values (copied freely, like Rust's `Copy` types) and *heap* values
//! (vectors/buffers, which in Rust-mode **move** on assignment and when
//! passed to `append`, and in C-mode **alias**). The paper's buffer
//! example (§4, lines 1–17) is expressible directly — see
//! [`crate::examples::buffer_leak_source`].
//!
//! Programs are validated before analysis: every variable defined before
//! use, kinds consistent (no arithmetic on buffers, no `append` into a
//! scalar), channels declared, calls resolvable and arity-correct.

use crate::label::Label;
use std::collections::BTreeMap;
use std::fmt;

/// Variable names (owned strings; programs are small and analysis cost
/// is dominated by fixpoints, which E5 measures in both modes equally).
pub type Var = String;

/// Binary operators over scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Equality test (result is a scalar 0/1).
    Eq,
    /// Less-than test.
    Lt,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A scalar literal.
    Const(i64),
    /// A vector literal — a *heap* value.
    VecLit(Vec<i64>),
    /// A variable read. Reading a scalar copies; a heap variable as the
    /// entire right-hand side of a binding moves (Rust mode) or aliases
    /// (C mode).
    Var(Var),
    /// Arithmetic/comparison over scalars.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for binary expressions.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// All variables read by this expression.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Const(_) | Expr::VecLit(_) => {}
            Expr::Var(v) => out.push(v),
            Expr::Bin(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let var = expr` — a fresh binding. `label`, when present, is the
    /// paper's `#[label(...)]` security annotation attached to an input
    /// value.
    Let {
        /// The bound variable.
        var: Var,
        /// The initializer.
        expr: Expr,
        /// Optional security annotation.
        label: Option<Label>,
    },
    /// `var = expr` — reassignment of an existing binding.
    Assign {
        /// The assigned variable.
        var: Var,
        /// The new value.
        expr: Expr,
    },
    /// `let var = alloc` — a fresh, empty heap buffer (`Buffer::new()`).
    Alloc {
        /// The bound variable.
        var: Var,
    },
    /// `obj.append(src)` — append `src` into buffer `obj`. In Rust mode
    /// this *consumes* `src` (the paper's `append(&mut self, mut v)`);
    /// in C mode the buffer may retain `src`'s storage, creating an
    /// alias (the paper's line 6).
    Append {
        /// The buffer appended to.
        obj: Var,
        /// The value appended (moved in Rust mode).
        src: Var,
    },
    /// `let dst = obj.read()` — copy a scalar digest of the buffer's
    /// content (carries the buffer's label).
    Read {
        /// The scalar destination.
        dst: Var,
        /// The buffer read from.
        obj: Var,
    },
    /// Conditional. Branching on labeled data taints everything assigned
    /// inside (implicit flows).
    If {
        /// The branch condition (scalar).
        cond: Expr,
        /// Statements executed when the condition is non-zero.
        then_branch: Vec<Stmt>,
        /// Statements executed otherwise.
        else_branch: Vec<Stmt>,
    },
    /// Loop while `cond` is non-zero. The analyser runs this to a
    /// label fixpoint.
    While {
        /// The loop condition (scalar).
        cond: Expr,
        /// The loop body.
        body: Vec<Stmt>,
    },
    /// `output(channel, arg)` — write to a labeled output channel;
    /// the verified property is that the argument's label flows to the
    /// channel's bound.
    Output {
        /// The channel written to.
        channel: String,
        /// The value written.
        arg: Expr,
    },
    /// `let dst = declassify expr` — strips the atoms the enclosing
    /// function holds authority over from the expression's label (the
    /// decentralized-label-model escape hatch \[29\]). The analyses
    /// additionally require the *program counter* to be covered by the
    /// authority — "robust declassification": secret data must not
    /// control whether a declassification happens.
    Declassify {
        /// The (scalar) destination binding.
        dst: Var,
        /// The scalar expression being declassified.
        expr: Expr,
    },
    /// `dst = func(args)` — call; arguments and result are scalars.
    Call {
        /// Optional result binding (fresh variable).
        dst: Option<Var>,
        /// Callee name.
        func: String,
        /// Scalar argument expressions.
        args: Vec<Expr>,
    },
}

/// A function: scalar parameters (optionally labeled at the boundary for
/// entry functions), a body, and an optional scalar result.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters with optional input-label annotations.
    pub params: Vec<(Var, Option<Label>)>,
    /// Atoms this function may declassify (its authority); defaults to
    /// none.
    pub authority: Label,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Optional result expression (scalar).
    pub ret: Option<Expr>,
}

/// A whole program: functions plus channel declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// All functions; the entry point is `main`.
    pub functions: Vec<Function>,
    /// Output channels and their confidentiality bounds.
    pub channels: BTreeMap<String, Label>,
}

/// Where in the program a diagnostic points: a dotted path of statement
/// indices, e.g. `main[4].then[0]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loc(pub String);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Static validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// `main` is missing.
    NoMain,
    /// Two functions share a name.
    DuplicateFunction(String),
    /// A variable is used before being defined.
    UndefinedVar { var: Var, loc: Loc },
    /// A `let` rebinds a name already in scope (shadowing is not
    /// supported — it would complicate the ownership story for no gain).
    Rebinding { var: Var, loc: Loc },
    /// An `Assign` targets a variable that was never `let`-bound.
    AssignToUndefined { var: Var, loc: Loc },
    /// A heap variable is used where a scalar is required (arithmetic,
    /// conditions, call arguments).
    HeapInScalarContext { var: Var, loc: Loc },
    /// A scalar variable is used where a buffer is required.
    ScalarInHeapContext { var: Var, loc: Loc },
    /// Output to an undeclared channel.
    UnknownChannel { channel: String, loc: Loc },
    /// Call to an unknown function.
    UnknownFunction { func: String, loc: Loc },
    /// Call with the wrong number of arguments.
    ArityMismatch {
        /// Callee name.
        func: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
        /// Call site.
        loc: Loc,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::NoMain => write!(f, "program has no main function"),
            IrError::DuplicateFunction(n) => write!(f, "duplicate function {n}"),
            IrError::UndefinedVar { var, loc } => write!(f, "{loc}: undefined variable {var}"),
            IrError::Rebinding { var, loc } => write!(f, "{loc}: rebinding of {var}"),
            IrError::AssignToUndefined { var, loc } => {
                write!(f, "{loc}: assignment to undefined {var}")
            }
            IrError::HeapInScalarContext { var, loc } => {
                write!(f, "{loc}: buffer {var} used where a scalar is required")
            }
            IrError::ScalarInHeapContext { var, loc } => {
                write!(f, "{loc}: scalar {var} used where a buffer is required")
            }
            IrError::UnknownChannel { channel, loc } => {
                write!(f, "{loc}: unknown channel {channel}")
            }
            IrError::UnknownFunction { func, loc } => {
                write!(f, "{loc}: unknown function {func}")
            }
            IrError::ArityMismatch {
                func,
                expected,
                got,
                loc,
            } => {
                write!(f, "{loc}: {func} takes {expected} arguments, got {got}")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// The kind of value a variable holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Copyable scalar.
    Scalar,
    /// Affine heap value (buffer/vector).
    Heap,
}

impl Program {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total number of statements across all functions (a size metric
    /// for the scaling experiments).
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => 1 + count(then_branch) + count(else_branch),
                    Stmt::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }

    /// Computes the kind of every variable in `f` (assuming the program
    /// validates). Branch-local variables are included; a name bound in
    /// both branches keeps the kind of the later binding, which is
    /// harmless for the analyses using this map.
    pub fn var_kinds(&self, f: &Function) -> BTreeMap<Var, VarKind> {
        fn walk(stmts: &[Stmt], kinds: &mut BTreeMap<Var, VarKind>) {
            for s in stmts {
                match s {
                    Stmt::Let { var, expr, .. } | Stmt::Assign { var, expr } => {
                        let k = match expr {
                            Expr::VecLit(_) => VarKind::Heap,
                            Expr::Var(src) => kinds.get(src).copied().unwrap_or(VarKind::Scalar),
                            _ => VarKind::Scalar,
                        };
                        kinds.insert(var.clone(), k);
                    }
                    Stmt::Alloc { var } => {
                        kinds.insert(var.clone(), VarKind::Heap);
                    }
                    Stmt::Read { dst, .. } => {
                        kinds.insert(dst.clone(), VarKind::Scalar);
                    }
                    Stmt::Call { dst: Some(d), .. } => {
                        kinds.insert(d.clone(), VarKind::Scalar);
                    }
                    Stmt::Declassify { dst, .. } => {
                        kinds.insert(dst.clone(), VarKind::Scalar);
                    }
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, kinds);
                        walk(else_branch, kinds);
                    }
                    Stmt::While { body, .. } => {
                        walk(body, kinds);
                    }
                    _ => {}
                }
            }
        }
        let mut kinds: BTreeMap<Var, VarKind> = f
            .params
            .iter()
            .map(|(p, _)| (p.clone(), VarKind::Scalar))
            .collect();
        walk(&f.body, &mut kinds);
        kinds
    }

    /// Validates the whole program; returns per-function variable kinds
    /// for downstream analyses.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.function("main").is_none() {
            return Err(IrError::NoMain);
        }
        let mut names = std::collections::HashSet::new();
        for f in &self.functions {
            if !names.insert(f.name.as_str()) {
                return Err(IrError::DuplicateFunction(f.name.clone()));
            }
        }
        for f in &self.functions {
            self.validate_function(f)?;
        }
        Ok(())
    }

    fn validate_function(&self, f: &Function) -> Result<(), IrError> {
        let mut kinds: BTreeMap<Var, VarKind> = BTreeMap::new();
        for (p, _) in &f.params {
            kinds.insert(p.clone(), VarKind::Scalar);
        }
        self.validate_block(&f.body, &mut kinds, &f.name)?;
        if let Some(ret) = &f.ret {
            let loc = Loc(format!("{}.ret", f.name));
            self.expr_kind(ret, &kinds, &loc, true)?;
        }
        Ok(())
    }

    /// Determines an expression's kind; `require_scalar` additionally
    /// rejects heap results (conditions, arithmetic contexts).
    fn expr_kind(
        &self,
        e: &Expr,
        kinds: &BTreeMap<Var, VarKind>,
        loc: &Loc,
        require_scalar: bool,
    ) -> Result<VarKind, IrError> {
        let kind = match e {
            Expr::Const(_) => VarKind::Scalar,
            Expr::VecLit(_) => VarKind::Heap,
            Expr::Var(v) => *kinds.get(v).ok_or_else(|| IrError::UndefinedVar {
                var: v.clone(),
                loc: loc.clone(),
            })?,
            Expr::Bin(_, l, r) => {
                for side in [l, r] {
                    if self.expr_kind(side, kinds, loc, true)? == VarKind::Heap {
                        unreachable!("require_scalar below rejects heap operands");
                    }
                }
                VarKind::Scalar
            }
        };
        if require_scalar && kind == VarKind::Heap {
            let var = match e {
                Expr::Var(v) => v.clone(),
                _ => "<vec literal>".to_string(),
            };
            return Err(IrError::HeapInScalarContext {
                var,
                loc: loc.clone(),
            });
        }
        Ok(kind)
    }

    fn validate_block(
        &self,
        stmts: &[Stmt],
        kinds: &mut BTreeMap<Var, VarKind>,
        path: &str,
    ) -> Result<(), IrError> {
        for (i, s) in stmts.iter().enumerate() {
            let loc = Loc(format!("{path}[{i}]"));
            match s {
                Stmt::Let { var, expr, .. } => {
                    if kinds.contains_key(var) {
                        return Err(IrError::Rebinding {
                            var: var.clone(),
                            loc,
                        });
                    }
                    let k = self.expr_kind(expr, kinds, &loc, false)?;
                    kinds.insert(var.clone(), k);
                }
                Stmt::Assign { var, expr } => {
                    let Some(&vk) = kinds.get(var) else {
                        return Err(IrError::AssignToUndefined {
                            var: var.clone(),
                            loc,
                        });
                    };
                    let ek = self.expr_kind(expr, kinds, &loc, false)?;
                    if vk != ek {
                        return match ek {
                            VarKind::Heap => Err(IrError::HeapInScalarContext {
                                var: var.clone(),
                                loc,
                            }),
                            VarKind::Scalar => Err(IrError::ScalarInHeapContext {
                                var: var.clone(),
                                loc,
                            }),
                        };
                    }
                }
                Stmt::Alloc { var } => {
                    if kinds.contains_key(var) {
                        return Err(IrError::Rebinding {
                            var: var.clone(),
                            loc,
                        });
                    }
                    kinds.insert(var.clone(), VarKind::Heap);
                }
                Stmt::Append { obj, src } => {
                    match kinds.get(obj) {
                        None => {
                            return Err(IrError::UndefinedVar {
                                var: obj.clone(),
                                loc,
                            });
                        }
                        Some(VarKind::Scalar) => {
                            return Err(IrError::ScalarInHeapContext {
                                var: obj.clone(),
                                loc,
                            });
                        }
                        Some(VarKind::Heap) => {}
                    }
                    if kinds.get(src).is_none() {
                        return Err(IrError::UndefinedVar {
                            var: src.clone(),
                            loc,
                        });
                    }
                }
                Stmt::Read { dst, obj } => {
                    match kinds.get(obj) {
                        None => {
                            return Err(IrError::UndefinedVar {
                                var: obj.clone(),
                                loc,
                            });
                        }
                        Some(VarKind::Scalar) => {
                            return Err(IrError::ScalarInHeapContext {
                                var: obj.clone(),
                                loc,
                            });
                        }
                        Some(VarKind::Heap) => {}
                    }
                    if kinds.contains_key(dst) {
                        return Err(IrError::Rebinding {
                            var: dst.clone(),
                            loc,
                        });
                    }
                    kinds.insert(dst.clone(), VarKind::Scalar);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.expr_kind(cond, kinds, &loc, true)?;
                    // Bindings inside branches are branch-local; analyses
                    // and validation agree on that scoping.
                    let mut then_kinds = kinds.clone();
                    self.validate_block(then_branch, &mut then_kinds, &format!("{loc}.then"))?;
                    let mut else_kinds = kinds.clone();
                    self.validate_block(else_branch, &mut else_kinds, &format!("{loc}.else"))?;
                }
                Stmt::While { cond, body } => {
                    self.expr_kind(cond, kinds, &loc, true)?;
                    let mut body_kinds = kinds.clone();
                    self.validate_block(body, &mut body_kinds, &format!("{loc}.body"))?;
                }
                Stmt::Declassify { dst, expr } => {
                    self.expr_kind(expr, kinds, &loc, true)?;
                    if kinds.contains_key(dst) {
                        return Err(IrError::Rebinding {
                            var: dst.clone(),
                            loc,
                        });
                    }
                    kinds.insert(dst.clone(), VarKind::Scalar);
                }
                Stmt::Output { channel, arg } => {
                    if !self.channels.contains_key(channel) {
                        return Err(IrError::UnknownChannel {
                            channel: channel.clone(),
                            loc,
                        });
                    }
                    // Outputting a buffer is allowed (printing the buffer).
                    self.expr_kind(arg, kinds, &loc, false)?;
                }
                Stmt::Call { dst, func, args } => {
                    let Some(callee) = self.function(func) else {
                        return Err(IrError::UnknownFunction {
                            func: func.clone(),
                            loc,
                        });
                    };
                    if callee.params.len() != args.len() {
                        return Err(IrError::ArityMismatch {
                            func: func.clone(),
                            expected: callee.params.len(),
                            got: args.len(),
                            loc,
                        });
                    }
                    for a in args {
                        self.expr_kind(a, kinds, &loc, true)?;
                    }
                    if let Some(d) = dst {
                        if kinds.contains_key(d) {
                            return Err(IrError::Rebinding {
                                var: d.clone(),
                                loc,
                            });
                        }
                        kinds.insert(d.clone(), VarKind::Scalar);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A small builder for programs in tests and examples.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an output channel with a confidentiality bound.
    pub fn channel(mut self, name: impl Into<String>, bound: Label) -> Self {
        self.program.channels.insert(name.into(), bound);
        self
    }

    /// Adds a function.
    pub fn function(mut self, f: Function) -> Self {
        self.program.functions.push(f);
        self
    }

    /// Adds `main` with the given body.
    pub fn main(self, body: Vec<Stmt>) -> Self {
        self.function(Function {
            name: "main".into(),
            params: vec![],
            authority: Label::PUBLIC,
            body,
            ret: None,
        })
    }

    /// Finishes and validates the program.
    pub fn build(self) -> Result<Program, IrError> {
        self.program.validate()?;
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    #[test]
    fn valid_minimal_program() {
        let p = ProgramBuilder::new()
            .channel("term", Label::PUBLIC)
            .main(vec![
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::Output {
                    channel: "term".into(),
                    arg: v("x"),
                },
            ])
            .build()
            .unwrap();
        assert_eq!(p.stmt_count(), 2);
    }

    #[test]
    fn missing_main_rejected() {
        let e = ProgramBuilder::new().build().unwrap_err();
        assert_eq!(e, IrError::NoMain);
    }

    #[test]
    fn duplicate_function_rejected() {
        let f = Function {
            name: "main".into(),
            params: vec![],
            authority: Label::PUBLIC,
            body: vec![],
            ret: None,
        };
        let e = ProgramBuilder::new()
            .function(f.clone())
            .function(f)
            .build()
            .unwrap_err();
        assert_eq!(e, IrError::DuplicateFunction("main".into()));
    }

    #[test]
    fn undefined_var_rejected() {
        let e = ProgramBuilder::new()
            .channel("term", Label::PUBLIC)
            .main(vec![Stmt::Output {
                channel: "term".into(),
                arg: v("ghost"),
            }])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::UndefinedVar { var, .. } if var == "ghost"));
    }

    #[test]
    fn rebinding_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::Const(2),
                    label: None,
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::Rebinding { var, .. } if var == "x"));
    }

    #[test]
    fn heap_in_arithmetic_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![
                Stmt::Let {
                    var: "v".into(),
                    expr: Expr::VecLit(vec![1]),
                    label: None,
                },
                Stmt::Let {
                    var: "y".into(),
                    expr: Expr::bin(BinOp::Add, v("v"), Expr::Const(1)),
                    label: None,
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::HeapInScalarContext { .. }));
    }

    #[test]
    fn heap_condition_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![
                Stmt::Alloc { var: "b".into() },
                Stmt::If {
                    cond: v("b"),
                    then_branch: vec![],
                    else_branch: vec![],
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::HeapInScalarContext { .. }));
    }

    #[test]
    fn append_into_scalar_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::Let {
                    var: "y".into(),
                    expr: Expr::Const(2),
                    label: None,
                },
                Stmt::Append {
                    obj: "x".into(),
                    src: "y".into(),
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::ScalarInHeapContext { var, .. } if var == "x"));
    }

    #[test]
    fn unknown_channel_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![Stmt::Output {
                channel: "nope".into(),
                arg: Expr::Const(0),
            }])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::UnknownChannel { channel, .. } if channel == "nope"));
    }

    #[test]
    fn unknown_function_and_arity() {
        let e = ProgramBuilder::new()
            .main(vec![Stmt::Call {
                dst: None,
                func: "f".into(),
                args: vec![],
            }])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::UnknownFunction { .. }));

        let f = Function {
            name: "f".into(),
            params: vec![("a".into(), None)],
            authority: Label::PUBLIC,
            body: vec![],
            ret: Some(Expr::Var("a".into())),
        };
        let e = ProgramBuilder::new()
            .function(f)
            .main(vec![Stmt::Call {
                dst: None,
                func: "f".into(),
                args: vec![],
            }])
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            IrError::ArityMismatch {
                expected: 1,
                got: 0,
                ..
            }
        ));
    }

    #[test]
    fn branch_locals_do_not_escape() {
        let e = ProgramBuilder::new()
            .channel("term", Label::PUBLIC)
            .main(vec![
                Stmt::Let {
                    var: "c".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::If {
                    cond: v("c"),
                    then_branch: vec![Stmt::Let {
                        var: "inner".into(),
                        expr: Expr::Const(1),
                        label: None,
                    }],
                    else_branch: vec![],
                },
                Stmt::Output {
                    channel: "term".into(),
                    arg: v("inner"),
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::UndefinedVar { var, .. } if var == "inner"));
    }

    #[test]
    fn assign_kind_mismatch_rejected() {
        let e = ProgramBuilder::new()
            .main(vec![
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::Assign {
                    var: "x".into(),
                    expr: Expr::VecLit(vec![1]),
                },
            ])
            .build()
            .unwrap_err();
        assert!(matches!(e, IrError::HeapInScalarContext { .. }));
    }

    #[test]
    fn stmt_count_nested() {
        let p = ProgramBuilder::new()
            .main(vec![
                Stmt::Let {
                    var: "c".into(),
                    expr: Expr::Const(1),
                    label: None,
                },
                Stmt::While {
                    cond: v("c"),
                    body: vec![Stmt::If {
                        cond: v("c"),
                        then_branch: vec![Stmt::Assign {
                            var: "c".into(),
                            expr: Expr::Const(0),
                        }],
                        else_branch: vec![],
                    }],
                },
            ])
            .build()
            .unwrap();
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn expr_vars_collects_all() {
        let e = Expr::bin(BinOp::Add, v("a"), Expr::bin(BinOp::Mul, v("b"), v("a")));
        assert_eq!(e.vars(), vec!["a", "b", "a"]);
    }

    #[test]
    fn error_display() {
        let e = IrError::UndefinedVar {
            var: "x".into(),
            loc: Loc("main[0]".into()),
        };
        assert_eq!(e.to_string(), "main[0]: undefined variable x");
    }
}
