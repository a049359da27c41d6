//! # pp-lint
//!
//! Workspace-native static analysis for the predictive-precompute repo:
//! the concurrency and instrumentation invariants PRs 7–8 introduced
//! (lock hierarchy, wakeup-protocol atomic orderings, poison policy,
//! obs gating, unit naming, thread-spawn discipline) and the `unsafe`
//! audit (`// SAFETY:` on every block) as machine-checked
//! rules instead of review-lore.
//!
//! Std-only by design: a hand-rolled token scanner ([`lexer`]) rather
//! than `syn`, so the analysis pass has zero dependencies on the code it
//! analyzes (including the offline shims) and can never be broken by it.
//!
//! * [`lexer`] / [`source`] — token scanner and per-file source model
//!   (suppressions, test regions, function extents);
//! * [`rules`] — the seven shipped rules, each a pure function per file;
//! * [`config`] — the workspace-specific tables (lock hierarchy, protocol
//!   atomics);
//! * [`engine`] — workspace walk, suppression accounting,
//!   unused-suppression reporting;
//! * [`diag`] — diagnostics plus human `file:line` and JSON renderings.
//!
//! Suppress a finding with a justification comment:
//!
//! ```text
//! // A stale emptiness hint only costs a skipped scan. pp-lint: allow(atomic-ordering)
//! let hint = queue.len.load(Ordering::Relaxed);
//! ```
//!
//! Unused suppressions are themselves violations (`unused-suppression`),
//! so allows cannot go stale silently. See `docs/static-analysis.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use config::LintConfig;
pub use diag::{to_json, Diagnostic};
pub use engine::{find_workspace_root, lint_source, lint_workspace, LintReport};
