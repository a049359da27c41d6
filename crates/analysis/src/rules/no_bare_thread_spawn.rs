//! `no-bare-thread-spawn` — worker threads must keep their `JoinHandle`.
//!
//! The engine's shutdown story (drop → shutdown flag under the wake-up
//! lock → wake everyone → join every worker) only works because every
//! spawned thread's handle is retained and joined; a discarded handle is a
//! thread that outlives the engine, keeps Arcs alive, and races teardown —
//! the exact failure mode the drop-barrier in `BatchServingEngine` exists
//! to prevent. The rule flags `thread::spawn` calls in statement position
//! (result discarded) and `let _ = thread::spawn(…)` (explicitly
//! discarded) outside test code. Spawns whose handle is bound, pushed, or
//! collected pass.

use super::{skip_balanced, Rule};
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct NoBareThreadSpawn;

impl Rule for NoBareThreadSpawn {
    fn id(&self) -> &'static str {
        "no-bare-thread-spawn"
    }

    fn description(&self) -> &'static str {
        "thread::spawn results must be kept and joined (no discarded JoinHandles) \
         outside test code"
    }

    fn check(&self, file: &SourceFile, _config: &LintConfig, out: &mut Vec<Diagnostic>) {
        for i in 0..file.len() {
            if file.text(i) != "thread" || !file.matches(i + 1, &[":", ":", "spawn", "("]) {
                continue;
            }
            if file.is_test(i) {
                continue;
            }
            // Step back over a `std ::` qualifier to the statement context.
            let mut j = i;
            if j >= 2 && file.text(j - 1) == ":" && file.text(j - 2) == ":" {
                // `… :: thread :: spawn` — skip the leading path segment.
                j = j.saturating_sub(3);
            }
            // Statement position alone is not enough: a spawn that is the
            // tail expression of a closure/block (`{ let s = s.clone();
            // thread::spawn(…) }`) has a `;` before it but its handle IS the
            // block's value. The result is discarded only when the call
            // itself is terminated by `;`.
            let call_end = skip_balanced(file, i + 4);
            let ends_stmt = call_end < file.len() && file.text(call_end) == ";";
            let discarded = if j == 0 {
                ends_stmt
            } else {
                match file.text(j.saturating_sub(1)) {
                    ";" | "{" | "}" => ends_stmt,
                    "=" => {
                        // `let _ = thread::spawn(…)` discards the handle.
                        j >= 3 && file.text(j - 2) == "_" && file.text(j - 3) == "let"
                    }
                    _ => false,
                }
            };
            if discarded {
                out.push(Diagnostic {
                    rule: self.id().to_string(),
                    path: file.path.clone(),
                    line: file.line(i),
                    message: "`thread::spawn` with a discarded JoinHandle — keep the handle \
                              and join it on shutdown (see BatchServingEngine's worker \
                              spawn/join pattern)"
                        .to_string(),
                });
            }
        }
    }
}
