//! `atomic-ordering` — `Ordering::Relaxed` is forbidden on cross-thread
//! *protocol* atomics.
//!
//! Protocol atomics (the serving engine's one, the shard queues' lock-free
//! `len` emptiness hint, and bench `stop` flags) publish state with their
//! stores that a *different* thread's load must observe before acting, so
//! they need at least Release/Acquire pairing. The engine's shard claim
//! (`claimed`), worker count (`alive`) and `shutdown` are fields under
//! locks, not atomics; their names stay in the table, so an atomic
//! reintroduced under one of them is still checked. Plain stat counters
//! (predictions, steals, idle_ns, histogram buckets, …) are intentionally
//! Relaxed and are not in the protocol table.
//!
//! A deliberate Relaxed on a protocol atomic (a pure hint where staleness
//! only costs a spurious wakeup) must say so:
//! `// pp-lint: allow(atomic-ordering)` plus a justification comment.

use super::Rule;
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct AtomicOrdering;

/// Atomic methods that take `Ordering` arguments.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

impl Rule for AtomicOrdering {
    fn id(&self) -> &'static str {
        "atomic-ordering"
    }

    fn description(&self) -> &'static str {
        "Ordering::Relaxed is forbidden on cross-thread protocol atomics \
         (shutdown/claim/wakeup-hint); stat counters stay Relaxed"
    }

    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
        for i in 0..file.len() {
            if file.text(i) != "Relaxed"
                || i < 2
                || file.text(i - 1) != ":"
                || file.text(i - 2) != ":"
                || i < 3
                || file.text(i - 3) != "Ordering"
            {
                continue;
            }
            if file.is_test(i) {
                continue;
            }
            let Some((method, receiver)) = enclosing_atomic_call(file, i) else {
                continue;
            };
            if config.is_protocol_atomic(&receiver) {
                out.push(Diagnostic {
                    rule: self.id().to_string(),
                    path: file.path.clone(),
                    line: file.line(i),
                    message: format!(
                        "`Ordering::Relaxed` in `{receiver}.{method}(…)` — `{receiver}` is a \
                         cross-thread protocol atomic and needs Acquire/Release (or stronger); \
                         annotate with `// pp-lint: allow(atomic-ordering)` if the relaxed \
                         ordering is deliberate"
                    ),
                });
            }
        }
    }
}

/// Walks outward from the `Relaxed` token at `i` to the innermost atomic
/// method call containing it, returning `(method, receiver_ident)`.
///
/// Non-atomic enclosing calls (`u64::try_from(x.load(Relaxed))` resolves
/// the `load`, not the `try_from`) are stepped through; an unmatchable
/// receiver (chained/indexed expression) yields `None`.
fn enclosing_atomic_call(file: &SourceFile, i: usize) -> Option<(String, String)> {
    let mut balance = 0i32;
    let mut j = i;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match file.text(j) {
            ")" | "]" | "}" => balance += 1,
            "{" => {
                if balance == 0 {
                    return None; // left the expression into a block
                }
                balance -= 1;
            }
            "(" | "[" => {
                if balance == 0 {
                    // `j` is an unmatched opening paren: a call we are
                    // inside. Is it an atomic method call?
                    if j >= 3
                        && ATOMIC_METHODS.contains(&file.text(j - 1))
                        && file.text(j - 2) == "."
                        && file.kind(j - 3) == TokKind::Ident
                    {
                        return Some((file.text(j - 1).to_string(), file.text(j - 3).to_string()));
                    }
                    if j >= 3
                        && ATOMIC_METHODS.contains(&file.text(j - 1))
                        && file.text(j - 2) == "."
                    {
                        return None; // atomic call, unclassifiable receiver
                    }
                    // Not an atomic call (a wrapper like `try_from`); keep
                    // walking outward.
                } else {
                    balance -= 1;
                }
            }
            ";" if balance == 0 => return None, // statement boundary
            _ => {}
        }
    }
}
