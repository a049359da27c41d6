//! The rule set. Each rule is a pure function over one [`SourceFile`] —
//! no cross-file state — so rules are independently fixture-testable and
//! trivially parallelizable.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

mod atomic_ordering;
mod dispatch_inline;
mod lock_order;
mod no_bare_thread_spawn;
mod no_lock_unwrap;
mod obs_gating;
mod unit_suffix;
mod unsafe_needs_safety;

pub use atomic_ordering::AtomicOrdering;
pub use dispatch_inline::DispatchInline;
pub use lock_order::LockOrder;
pub use no_bare_thread_spawn::NoBareThreadSpawn;
pub use no_lock_unwrap::NoLockUnwrap;
pub use obs_gating::ObsGating;
pub use unit_suffix::UnitSuffix;
pub use unsafe_needs_safety::UnsafeNeedsSafety;

/// A single lint rule.
pub trait Rule {
    /// Stable rule id, as used in `// pp-lint: allow(<id>)`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn description(&self) -> &'static str;
    /// Appends diagnostics for `file` to `out`.
    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// All shipped rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(LockOrder),
        Box::new(AtomicOrdering),
        Box::new(NoLockUnwrap),
        Box::new(ObsGating),
        Box::new(UnitSuffix),
        Box::new(NoBareThreadSpawn),
        Box::new(UnsafeNeedsSafety),
        Box::new(DispatchInline),
    ]
}

/// Shared helper: the `sig` index just past a balanced `(…)` group whose
/// opening paren is at `open`. Returns `file.len()` on unbalanced input.
pub(crate) fn skip_balanced(file: &SourceFile, open: usize) -> usize {
    debug_assert_eq!(file.text(open), "(");
    let mut depth = 0i32;
    let mut i = open;
    while i < file.len() {
        match file.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    file.len()
}
