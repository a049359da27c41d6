//! `unsafe-needs-safety` — every `unsafe` block under `crates/*/src` is
//! preceded by a `// SAFETY:` comment.
//!
//! `unsafe_code` is denied workspace-wide, so each `unsafe` block already
//! carries an `#[allow(unsafe_code)]` somewhere above it; the allow says
//! the block is permitted, not why it is sound. This rule makes the why a
//! checked part of the audit: walking back from the `unsafe` keyword over
//! the statement's lead-in on the same line (`let x =`) and any attributes,
//! the comments directly above must include one containing `SAFETY:`.
//! Test code is not exempt — an `unsafe` block in a test is no safer.
//! `unsafe fn` / `unsafe impl` / `unsafe trait` are declarations, not
//! blocks, and are not checked.

use super::Rule;
use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// See the module docs.
#[derive(Debug)]
pub struct UnsafeNeedsSafety;

impl Rule for UnsafeNeedsSafety {
    fn id(&self) -> &'static str {
        "unsafe-needs-safety"
    }

    fn description(&self) -> &'static str {
        "every unsafe block under crates/*/src needs a `// SAFETY:` comment on the \
         lines above it"
    }

    fn check(&self, file: &SourceFile, _config: &LintConfig, out: &mut Vec<Diagnostic>) {
        if !file.path.starts_with("crates/") || !file.path.contains("/src/") {
            return;
        }
        for i in 0..file.len() {
            if file.text(i) != "unsafe" || !file.matches(i + 1, &["{"]) {
                continue;
            }
            if has_safety_comment(file, i) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.id().to_string(),
                path: file.path.clone(),
                line: file.line(i),
                message: "`unsafe` block without a `// SAFETY:` comment above it — state \
                          why every obligation of the unsafe operations holds"
                    .to_string(),
            });
        }
    }
}

/// Whether the comments directly above significant token `i` (an
/// `unsafe`), past its statement's same-line lead-in and any attributes,
/// include a `SAFETY:` one.
fn has_safety_comment(file: &SourceFile, i: usize) -> bool {
    let toks = &file.toks;
    let mut k = file.sig[i];
    let line = toks[k].line;
    // `let x = unsafe {` — the comment belongs above the statement.
    while k > 0 && toks[k - 1].kind != TokKind::Comment && toks[k - 1].line == line {
        k -= 1;
    }
    loop {
        // Step back over one `#[…]` attribute (e.g. `#[allow(unsafe_code)]`).
        if k > 0 && toks[k - 1].text == "]" {
            let mut depth = 0i32;
            let mut j = k;
            while j > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth == 0 && j > 0 && toks[j - 1].text == "#" {
                k = j - 1;
                continue;
            }
            return false;
        }
        if k > 0 && toks[k - 1].kind == TokKind::Comment {
            k -= 1;
            if toks[k].text.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        return false;
    }
}
