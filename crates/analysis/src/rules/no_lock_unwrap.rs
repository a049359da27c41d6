//! `no-lock-unwrap` — `.lock().unwrap()` / `.lock().expect(…)` in non-test
//! code must go through the named poison-policy helpers.
//!
//! A poisoned mutex means another thread panicked *inside* a critical
//! section. What to do about that is a policy decision, not a call-site
//! decision, and 21 scattered `unwrap()`s each deciding "propagate" by
//! accident is how the policy stays unwritten. The workspace policy lives
//! in `pp_obs::sync`:
//!
//! * `lock_or_panic` — engine-critical state (shard queues, wakeup
//!   mutexes) and stored state (store and prefetch-cache shards):
//!   escalate with context naming the lock, because continuing on torn
//!   queue state could violate per-user ordering and on a torn shard
//!   could serve a state its index no longer describes;
//! * `lock_recover` — observability-only state (metric lanes, event
//!   rings): recover the guard, because a torn counter is
//!   strictly better than taking the engine down with the instrumentation.
//!
//! (Both on `pp_obs::sync::LockPolicy`.) The same applies to
//! `.read()`/`.write()` on a std `RwLock`. Test code is exempt (a test
//! unwrapping a poisoned lock *wants* the panic).

use super::Rule;
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct NoLockUnwrap;

impl Rule for NoLockUnwrap {
    fn id(&self) -> &'static str {
        "no-lock-unwrap"
    }

    fn description(&self) -> &'static str {
        ".lock().unwrap()/expect() must go through the pp_obs::sync poison-policy \
         helpers (lock_or_panic / lock_recover) outside test code"
    }

    fn check(&self, file: &SourceFile, _config: &LintConfig, out: &mut Vec<Diagnostic>) {
        for i in 0..file.len() {
            // `. lock ( ) . unwrap|expect (` — the empty argument list
            // keeps io::Read::read(&mut buf) and friends from matching.
            if i + 6 >= file.len() {
                continue;
            }
            let method = file.text(i + 1);
            if file.text(i) != "."
                || !matches!(method, "lock" | "read" | "write")
                || file.text(i + 2) != "("
                || file.text(i + 3) != ")"
                || file.text(i + 4) != "."
                || !matches!(file.text(i + 5), "unwrap" | "expect")
                || file.text(i + 6) != "("
            {
                continue;
            }
            if file.is_test(i) {
                continue;
            }
            let consumer = file.text(i + 5);
            out.push(Diagnostic {
                rule: self.id().to_string(),
                path: file.path.clone(),
                line: file.line(i),
                message: format!(
                    "`.{method}().{consumer}(…)` decides the poison policy at the call site — \
                     use `pp_obs::sync::LockPolicy::{{lock_or_panic, lock_recover}}` so the \
                     policy is named and centralized"
                ),
            });
        }
    }
}
