//! `lock-order` — the declared lock hierarchy is the only legal
//! acquisition order.
//!
//! The multi-worker serving engine holds shard-queue claims across state
//! reads and write-backs while other threads take store-shard and
//! observability locks; one out-of-order nested acquisition is all a
//! deadlock needs. The hierarchy (see [`LintConfig::lock_classes`]) says:
//! shard job queue → store shard → obs lanes → wakeup mutexes. Acquiring a
//! lock whose rank is ≤ the rank of any lock already held is a violation —
//! including same-rank nesting, which is an *undeclared* ordering.
//!
//! ## How held locks are tracked (and the limits of a token scanner)
//!
//! The rule is intra-procedural and guard-liveness is approximated:
//!
//! * `let g = x.lock()…;` (the whole statement is the acquisition chain)
//!   holds the lock until `drop(g)` or the end of the enclosing block;
//! * any other form — `*x.lock()…`, `x.lock()….method()`, an acquisition
//!   embedded in a larger expression — is a temporary, released at the end
//!   of the statement (`;`), mirroring Rust's temporary-drop rule;
//! * receivers that no [`LockClassEntry`](crate::config::LockClassEntry)
//!   classifies are ignored entirely.
//!
//! Calls into other functions are not followed; the hierarchy table is the
//! cross-function contract.

use super::{skip_balanced, Rule};
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct LockOrder;

/// Methods that acquire one of the classified locks.
const ACQUIRE_METHODS: [&str; 5] = ["lock", "read", "write", "lock_or_panic", "lock_recover"];

#[derive(Debug)]
struct Held {
    class: &'static str,
    rank: u32,
    ident: String,
    /// Guard binding name (`None` for temporaries).
    binding: Option<String>,
    /// Brace depth at acquisition; scope exit below this depth releases.
    depth: i32,
    line: u32,
}

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "nested lock acquisitions must follow the declared hierarchy \
         (queue -> store shard -> obs lane -> wakeup)"
    }

    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0i32;
        // The binding of the current `let <ident> = …` statement, if any.
        let mut pending_let: Option<String> = None;
        // Whether a `*` deref appeared after the current statement's `=`
        // (the bound value is then a copy, not the guard).
        let mut saw_assign = false;
        let mut saw_deref_after_assign = false;

        let mut i = 0usize;
        while i < file.len() {
            match file.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                ";" => {
                    held.retain(|h| h.binding.is_some());
                    pending_let = None;
                    saw_assign = false;
                    saw_deref_after_assign = false;
                }
                "let" => {
                    pending_let = None;
                    saw_assign = false;
                    saw_deref_after_assign = false;
                    let mut j = i + 1;
                    if j < file.len() && file.text(j) == "mut" {
                        j += 1;
                    }
                    if j < file.len()
                        && file.kind(j) == crate::lexer::TokKind::Ident
                        && (j + 1 >= file.len()
                            || matches!(file.text(j + 1), ":" | "=" | ";"))
                    {
                        pending_let = Some(file.text(j).to_string());
                    }
                }
                "="
                    // Plain `=` only (not ==, =>, <=, …): in this token
                    // stream `=` is always emitted alone, so just note it.
                    if pending_let.is_some() => {
                        saw_assign = true;
                    }
                "*"
                    if saw_assign => {
                        saw_deref_after_assign = true;
                    }
                "drop"
                    if file.matches(i + 1, &["("])
                        && i + 3 < file.len()
                        && file.text(i + 3) == ")"
                    => {
                        let name = file.text(i + 2).to_string();
                        held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                    }
                "." => {
                    if let Some(acq) = match_acquisition(file, config, i) {
                        // Out-of-order check against everything held.
                        for h in &held {
                            if h.rank >= acq.rank {
                                out.push(Diagnostic {
                                    rule: self.id().to_string(),
                                    path: file.path.clone(),
                                    line: file.line(i),
                                    message: format!(
                                        "acquiring `{}` ({}, rank {}) while holding `{}` \
                                         ({}, rank {}, taken at line {}) violates the \
                                         declared lock hierarchy",
                                        acq.ident, acq.class, acq.rank, h.ident, h.class,
                                        h.rank, h.line
                                    ),
                                });
                            }
                        }
                        // Guard liveness: a clean `let g = <chain>;` binds.
                        let bound = pending_let.clone().filter(|_| {
                            saw_assign
                                && !saw_deref_after_assign
                                && acq.chain_end < file.len()
                                && file.text(acq.chain_end) == ";"
                        });
                        held.push(Held {
                            class: acq.class,
                            rank: acq.rank,
                            ident: acq.ident,
                            binding: bound,
                            depth,
                            line: file.line(i),
                        });
                        i = acq.call_end;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

struct Acquisition {
    class: &'static str,
    rank: u32,
    ident: String,
    /// `sig` index just past the acquisition call's closing paren.
    call_end: usize,
    /// `sig` index just past the whole `.unwrap()`/`.expect(…)`/`?` chain.
    chain_end: usize,
}

/// Matches `<receiver-ident> . <acquire-method> (` at the `.` token `i`,
/// classified by the config. Returns the call and chain extents.
fn match_acquisition(file: &SourceFile, config: &LintConfig, i: usize) -> Option<Acquisition> {
    if i == 0 || i + 2 >= file.len() {
        return None;
    }
    let method = file.text(i + 1);
    if !ACQUIRE_METHODS.contains(&method) || file.text(i + 2) != "(" {
        return None;
    }
    if file.kind(i - 1) != crate::lexer::TokKind::Ident {
        return None; // chained/indexed receiver — unclassifiable
    }
    let ident = file.text(i - 1).to_string();
    let (class, rank) = config.lock_class(&file.path, &ident)?;
    let call_end = skip_balanced(file, i + 2);
    // Skip a trailing `.unwrap()` / `.expect(…)` / `?` chain.
    let mut j = call_end;
    loop {
        if j < file.len() && file.text(j) == "?" {
            j += 1;
            continue;
        }
        if j + 2 < file.len()
            && file.text(j) == "."
            && matches!(file.text(j + 1), "unwrap" | "expect")
            && file.text(j + 2) == "("
        {
            j = skip_balanced(file, j + 2);
            continue;
        }
        break;
    }
    Some(Acquisition {
        class,
        rank,
        ident,
        call_end,
        chain_end: j,
    })
}
