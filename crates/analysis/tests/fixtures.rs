//! Fixture tests: every rule has a failing (`*_bad.rs`) and passing
//! (`*_good.rs`) fixture under `tests/fixtures/`, lexed and linted through
//! the same [`pp_lint::lint_source`] path the workspace run uses. Offending
//! lines carry an `EXPECT: <rule>` marker; the harness asserts the rule's
//! diagnostics land on exactly the marked lines (and nowhere on the good
//! fixtures). Fixtures are never compiled — the engine's workspace walk
//! skips `tests/fixtures/` too, so they can't self-flag a clean run.

use pp_lint::{lint_source, LintConfig};

/// Synthetic path placing a fixture inside pp-serving, where the lock
/// hierarchy's `jobs`/`work_gen` classes and the obs-gating rule apply.
const SERVING_PATH: &str = "crates/serving/src/fixture.rs";

/// Synthetic path placing a fixture inside pp-nn, where the kernel dispatch
/// lives.
const NN_PATH: &str = "crates/nn/src/fixture.rs";

/// 1-based lines of `src` marked `EXPECT: <rule>`.
fn expected_lines(src: &str, rule: &str) -> Vec<u32> {
    let marker = format!("EXPECT: {rule}");
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&marker))
        .map(|(i, _)| u32::try_from(i).unwrap() + 1)
        .collect()
}

/// Lints `src` as `path` and asserts `rule`'s diagnostics hit exactly the
/// `EXPECT: <rule>` lines.
fn check(src: &str, path: &str, rule: &str) {
    let config = LintConfig::default();
    let diags = lint_source(path, src, false, &config);
    let mut actual: Vec<u32> = diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    actual.sort_unstable();
    let expected = expected_lines(src, rule);
    assert_eq!(
        actual,
        expected,
        "{rule} diagnostics for {path} (got {actual:?}, fixture marks {expected:?}):\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lock_order_bad_fixture_fails() {
    let src = include_str!("fixtures/lock_order_bad.rs");
    assert!(!expected_lines(src, "lock-order").is_empty());
    check(src, SERVING_PATH, "lock-order");
}

#[test]
fn lock_order_good_fixture_passes() {
    check(
        include_str!("fixtures/lock_order_good.rs"),
        SERVING_PATH,
        "lock-order",
    );
}

#[test]
fn atomic_ordering_bad_fixture_fails() {
    let src = include_str!("fixtures/atomic_ordering_bad.rs");
    assert!(!expected_lines(src, "atomic-ordering").is_empty());
    check(src, SERVING_PATH, "atomic-ordering");
}

#[test]
fn atomic_ordering_good_fixture_passes() {
    check(
        include_str!("fixtures/atomic_ordering_good.rs"),
        SERVING_PATH,
        "atomic-ordering",
    );
}

#[test]
fn no_lock_unwrap_bad_fixture_fails() {
    let src = include_str!("fixtures/no_lock_unwrap_bad.rs");
    assert!(!expected_lines(src, "no-lock-unwrap").is_empty());
    check(src, SERVING_PATH, "no-lock-unwrap");
}

#[test]
fn no_lock_unwrap_good_fixture_passes() {
    check(
        include_str!("fixtures/no_lock_unwrap_good.rs"),
        SERVING_PATH,
        "no-lock-unwrap",
    );
}

#[test]
fn no_lock_unwrap_exempts_whole_test_files() {
    // The same bad fixture linted as an integration test file is clean.
    let src = include_str!("fixtures/no_lock_unwrap_bad.rs");
    let diags = lint_source(
        "crates/serving/tests/fixture.rs",
        src,
        true,
        &LintConfig::default(),
    );
    assert!(
        diags.iter().all(|d| d.rule != "no-lock-unwrap"),
        "test files must be exempt: {diags:?}"
    );
}

#[test]
fn obs_gating_bad_fixture_fails() {
    let src = include_str!("fixtures/obs_gating_bad.rs");
    assert!(!expected_lines(src, "obs-gating").is_empty());
    check(src, SERVING_PATH, "obs-gating");
}

#[test]
fn obs_gating_good_fixture_passes() {
    check(
        include_str!("fixtures/obs_gating_good.rs"),
        SERVING_PATH,
        "obs-gating",
    );
}

#[test]
fn obs_gating_exempts_the_obs_crate_itself() {
    // pp-obs implements the emission API; inside it the rule is off.
    let src = include_str!("fixtures/obs_gating_bad.rs");
    let diags = lint_source(
        "crates/obs/src/fixture.rs",
        src,
        false,
        &LintConfig::default(),
    );
    assert!(
        diags.iter().all(|d| d.rule != "obs-gating"),
        "crates/obs must be exempt: {diags:?}"
    );
}

#[test]
fn unit_suffix_bad_fixture_fails() {
    let src = include_str!("fixtures/unit_suffix_bad.rs");
    assert!(!expected_lines(src, "unit-suffix").is_empty());
    check(src, SERVING_PATH, "unit-suffix");
}

#[test]
fn unit_suffix_good_fixture_passes() {
    check(
        include_str!("fixtures/unit_suffix_good.rs"),
        SERVING_PATH,
        "unit-suffix",
    );
}

#[test]
fn no_bare_thread_spawn_bad_fixture_fails() {
    let src = include_str!("fixtures/no_bare_thread_spawn_bad.rs");
    assert!(!expected_lines(src, "no-bare-thread-spawn").is_empty());
    check(src, SERVING_PATH, "no-bare-thread-spawn");
}

#[test]
fn no_bare_thread_spawn_good_fixture_passes() {
    check(
        include_str!("fixtures/no_bare_thread_spawn_good.rs"),
        SERVING_PATH,
        "no-bare-thread-spawn",
    );
}

#[test]
fn unsafe_needs_safety_bad_fixture_fails() {
    let src = include_str!("fixtures/unsafe_needs_safety_bad.rs");
    assert!(!expected_lines(src, "unsafe-needs-safety").is_empty());
    check(src, SERVING_PATH, "unsafe-needs-safety");
}

#[test]
fn unsafe_needs_safety_good_fixture_passes() {
    check(
        include_str!("fixtures/unsafe_needs_safety_good.rs"),
        SERVING_PATH,
        "unsafe-needs-safety",
    );
}

#[test]
fn dispatch_inline_bad_fixture_fails() {
    let src = include_str!("fixtures/dispatch_inline_bad.rs");
    assert!(!expected_lines(src, "dispatch-inline").is_empty());
    check(src, NN_PATH, "dispatch-inline");
}

#[test]
fn dispatch_inline_good_fixture_passes() {
    check(
        include_str!("fixtures/dispatch_inline_good.rs"),
        NN_PATH,
        "dispatch-inline",
    );
}

#[test]
fn dispatch_inline_applies_only_where_the_kernel_dispatch_lives() {
    // Outside pp-nn a `dispatch` is some other function.
    let src = include_str!("fixtures/dispatch_inline_bad.rs");
    let diags = lint_source(SERVING_PATH, src, false, &LintConfig::default());
    assert!(
        diags.iter().all(|d| d.rule != "dispatch-inline"),
        "only crates/nn/src is checked: {diags:?}"
    );
}

#[test]
fn suppressions_round_trip() {
    // Two live allows (trailing and own-line) suppress their diagnostics;
    // the stale allow surfaces as unused-suppression — and nothing else.
    let src = include_str!("fixtures/suppression_roundtrip.rs");
    let diags = lint_source(SERVING_PATH, src, false, &LintConfig::default());
    let summary: Vec<(String, u32)> = diags.iter().map(|d| (d.rule.clone(), d.line)).collect();
    let expected: Vec<(String, u32)> = expected_lines(src, "unused-suppression")
        .into_iter()
        .map(|l| ("unused-suppression".to_string(), l))
        .collect();
    assert_eq!(
        summary,
        expected,
        "only the stale allow may surface:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_shipped_rule_has_fixture_coverage() {
    // The bad-fixture tests above must cover all rules the binary ships.
    let covered = [
        "lock-order",
        "atomic-ordering",
        "no-lock-unwrap",
        "obs-gating",
        "unit-suffix",
        "no-bare-thread-spawn",
        "unsafe-needs-safety",
        "dispatch-inline",
    ];
    let shipped: Vec<&str> = pp_lint::rules::all_rules().iter().map(|r| r.id()).collect();
    for rule in &shipped {
        assert!(covered.contains(rule), "rule {rule} has no fixture");
    }
    assert_eq!(shipped.len(), covered.len());
}

#[test]
fn the_workspace_itself_is_clean() {
    // The self-test behind CI's `pp-lint --deny`: the checked-in tree has
    // zero violations and zero stale suppressions.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = pp_lint::lint_workspace(&root, &LintConfig::default()).expect("walk workspace");
    assert!(report.files_scanned > 50, "walk found too few files");
    assert!(
        report.diagnostics.is_empty(),
        "workspace must lint clean:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
