//! Compilation context: namespaces, function environment, diagnostics.

use crate::ir::CExpr;
use aldsp_metadata::Registry;
use aldsp_parser::ast::Span;
use aldsp_parser::Diagnostic;
use aldsp_relational::Dialect;
use aldsp_xdm::types::SequenceType;
use aldsp_xdm::QName;
use std::collections::HashMap;

/// Compilation mode, mirroring the parser's (§4.1): fail-fast at runtime,
/// recover-and-collect at design time.
pub use aldsp_parser::Mode;

/// A user-defined XQuery function after translation: resolved signature
/// plus normalized body (parameters appear as free variables named by
/// `params`).
#[derive(Debug, Clone)]
pub struct UserFunction {
    /// The function's qualified name.
    pub name: QName,
    /// `(unique parameter variable, declared type)` pairs.
    pub params: Vec<(String, SequenceType)>,
    /// Declared (or inferred) return type.
    pub return_type: SequenceType,
    /// The normalized body; `None` when the body failed analysis — the
    /// signature stays usable for checking callers (§4.1).
    pub body: Option<CExpr>,
    /// Pragma attributes from the declaration (§3.2).
    pub pragmas: Vec<(String, String)>,
}

/// Inverse-function registrations (§4.4): `date2int` declared as the
/// inverse of `int2date`, plus transformation rules
/// `(op, f) → rewrite using f⁻¹`.
#[derive(Debug, Clone, Default)]
pub struct InverseRegistry {
    inverses: HashMap<QName, QName>,
}

impl InverseRegistry {
    /// Declare `inverse` as the inverse of `f`. The registration asserts
    /// (as the paper's rule registration does) that `f` is injective and
    /// order-preserving, so `f(x) op y ≡ x op f⁻¹(y)` for the comparison
    /// operators.
    pub fn declare(&mut self, f: QName, inverse: QName) {
        self.inverses.insert(f, inverse);
    }

    /// The declared inverse of `f`, if any.
    pub fn inverse_of(&self, f: &QName) -> Option<&QName> {
        self.inverses.get(f)
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.inverses.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.inverses.is_empty()
    }
}

/// The shared compilation context.
pub struct Context<'r> {
    /// Source metadata (physical functions, schemas).
    pub registry: &'r Registry,
    /// Compilation mode.
    pub mode: Mode,
    /// Collected diagnostics.
    pub diags: Vec<Diagnostic>,
    /// Translated user functions by name.
    pub functions: HashMap<QName, UserFunction>,
    /// Inverse-function registrations.
    pub inverses: InverseRegistry,
    /// Per-connection SQL dialects (§4.3: "SQL syntax generation during
    /// pushdown is done in a vendor/version-dependent manner").
    /// Connections not listed default to the conservative base SQL92
    /// platform.
    pub dialects: HashMap<String, Dialect>,
    /// PP-k block size used when generating dependent joins (§4.2).
    pub ppk_block_size: usize,
    /// PP-k local join method (§5.2).
    pub ppk_local_method: crate::ir::LocalJoinMethod,
    /// PP-k block prefetch depth (0 = synchronous fetches).
    pub ppk_prefetch_depth: usize,
    /// How much of the plan SQL pushdown may claim (differential-testing
    /// knob, [`crate::compile::PushdownLevel::Full`] in production).
    pub pushdown: crate::compile::PushdownLevel,
    /// Deliberately planted rewrite bug (mutation smoke test only).
    pub mutation: Option<crate::compile::Mutation>,
    /// Middleware join-method selection for the join-planning pass
    /// (cost-based by default; forced levels for the differential
    /// harness).
    pub join_strategy: crate::joins::JoinStrategy,
    var_counter: u32,
}

impl<'r> Context<'r> {
    /// A fresh context over the given metadata registry.
    pub fn new(registry: &'r Registry, mode: Mode) -> Context<'r> {
        Context {
            registry,
            mode,
            diags: Vec::new(),
            functions: HashMap::new(),
            inverses: InverseRegistry::default(),
            dialects: HashMap::new(),
            ppk_block_size: 20,
            ppk_local_method: crate::ir::LocalJoinMethod::IndexNestedLoop,
            ppk_prefetch_depth: 1,
            pushdown: crate::compile::PushdownLevel::default(),
            mutation: None,
            join_strategy: crate::joins::JoinStrategy::default(),
            var_counter: 0,
        }
    }

    /// The SQL dialect of a connection (base SQL92 when unregistered).
    pub fn dialect_of(&self, connection: &str) -> Dialect {
        self.dialects
            .get(connection)
            .copied()
            .unwrap_or(Dialect::Sql92)
    }

    /// Generate a fresh unique variable name derived from `base`.
    pub fn fresh(&mut self, base: &str) -> String {
        self.var_counter += 1;
        format!("{base}__{}", self.var_counter)
    }

    /// Record a diagnostic.
    pub fn diag(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic {
            span,
            message: message.into(),
        });
    }

    /// Did compilation produce any errors?
    pub fn has_errors(&self) -> bool {
        !self.diags.is_empty()
    }
}
