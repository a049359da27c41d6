//! `dispatch-inline` — every closure handed to the kernel dispatch carries
//! `#[inline(always)]`.
//!
//! `pp_nn::kernel::dispatch` / `dispatch_to` run their closure inside one
//! function per instruction set, each compiled with its own
//! `#[target_feature]`. Only code inlined into those functions is compiled
//! for the wider registers: a closure the compiler leaves out of line is
//! compiled for the base target, gives the same bits, and silently runs
//! portably — no test fails, only the kernel is two to four times slower.
//! The rule finds each call of a name in `LintConfig::dispatch_fns` in the
//! files under `LintConfig::dispatch_paths` (test code included) and
//! requires every closure argument to be preceded by `#[inline(always)]`.
//! Arguments that are not closures (a forwarded `body`) are not checked,
//! nor are method calls (`.dispatch(…)`) or the functions' definitions.

use super::{skip_balanced, Rule};
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct DispatchInline;

impl Rule for DispatchInline {
    fn id(&self) -> &'static str {
        "dispatch-inline"
    }

    fn description(&self) -> &'static str {
        "closures passed to the kernel dispatch must be #[inline(always)], or they \
         are compiled for the base target and run portably"
    }

    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
        if !config.dispatch_paths.iter().any(|p| file.path.contains(p)) {
            return;
        }
        for i in 0..file.len() {
            if !config.dispatch_fns.contains(&file.text(i)) || !file.matches(i + 1, &["("]) {
                continue;
            }
            if i > 0 && matches!(file.text(i - 1), "fn" | ".") {
                continue;
            }
            let close = skip_balanced(file, i + 1) - 1;
            let mut arg = i + 2;
            while arg < close {
                let end = arg_end(file, arg, close);
                if let Some(line) = unmarked_closure(file, arg) {
                    out.push(Diagnostic {
                        rule: self.id().to_string(),
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "closure passed to `{}` without `#[inline(always)]` — left out \
                             of line it is compiled for the base target and runs portably",
                            file.text(i)
                        ),
                    });
                }
                arg = end + 1;
            }
        }
    }
}

/// The `sig` index of the `,` ending the argument that starts at `start`,
/// or `close` (the call's `)`) for the last one.
fn arg_end(file: &SourceFile, start: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < close {
        match file.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    close
}

/// If the argument starting at `start` is a closure without an
/// `#[inline(always)]` among its attributes, the line of its opening `|`.
fn unmarked_closure(file: &SourceFile, start: usize) -> Option<u32> {
    let mut k = start;
    let mut inline_always = false;
    while file.matches(k, &["#", "["]) {
        inline_always |= file.matches(k, &["#", "[", "inline", "(", "always", ")", "]"]);
        let mut depth = 0i32;
        while k < file.len() {
            match file.text(k) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        k += 1;
    }
    if file.matches(k, &["move"]) {
        k += 1;
    }
    (file.matches(k, &["|"]) && !inline_always).then(|| file.line(k))
}
