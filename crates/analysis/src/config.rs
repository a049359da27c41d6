//! The workspace-specific knowledge the rules run against: the declared
//! lock hierarchy, the cross-thread protocol atomics, and path filters.
//!
//! This is the file to edit when the engine grows a new lock or protocol
//! atomic — see `docs/static-analysis.md` ("Adding a rule / extending the
//! tables").

/// One entry of the lock classification table: a receiver identifier (the
/// token before `.lock()` / `.read()` / `.write()`) mapped to a named lock
/// class and its rank in the acquisition order.
#[derive(Debug, Clone, Copy)]
pub struct LockClassEntry {
    /// Human name of the class (shared by several idents).
    pub class: &'static str,
    /// Acquisition rank: while holding a lock of rank `r`, only locks of
    /// strictly greater rank may be acquired.
    pub rank: u32,
    /// Receiver identifier that selects this class.
    pub ident: &'static str,
    /// Restrict the entry to paths containing this substring (`None` = any
    /// file). Receiver identifiers are not globally unique (`inner` is a
    /// store in pp-serving and an event ring in pp-obs), so entries are
    /// scoped to the files where the name means that lock.
    pub path_contains: Option<&'static str>,
}

/// Tunables + tables consumed by the rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// The declared lock hierarchy (see [`LockClassEntry`]). Ascending rank
    /// is the only legal acquisition order; same-rank nesting is a
    /// violation too (it is an undeclared ordering).
    pub lock_classes: Vec<LockClassEntry>,
    /// Field names of cross-thread *protocol* atomics: `Ordering::Relaxed`
    /// on these is a violation unless explicitly annotated. Plain stat
    /// counters (predictions, idle_ns, …) are not listed and stay Relaxed.
    pub protocol_atomics: Vec<&'static str>,
    /// Path substrings excluded from the workspace walk entirely.
    pub skip_paths: Vec<&'static str>,
    /// Path substrings where the obs-gating rule does not apply (the
    /// observability crate itself is the implementation, not a consumer).
    pub obs_gating_exempt_paths: Vec<&'static str>,
    /// The kernel dispatch functions whose closure arguments must be
    /// `#[inline(always)]` (the `dispatch-inline` rule).
    pub dispatch_fns: Vec<&'static str>,
    /// Path substrings where those names mean the kernel dispatch.
    pub dispatch_paths: Vec<&'static str>,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            // The workspace lock hierarchy, outermost first:
            //   shard job queue (10) → store shard (20; a state shard and
            //     a prefetch-cache shard each keep their counters under
            //     their own lock) → obs lanes/rings (30) → wakeup mutex
            //     (40).
            // The wakeup mutex (`work_gen`, which guards pp-serving::batch's
            // work generation and every holder's room) is innermost:
            // nothing may be acquired while holding it, which is what keeps
            // the one-lock wakeup protocol deadlock-free.
            lock_classes: vec![
                LockClassEntry {
                    class: "queue",
                    rank: 10,
                    ident: "jobs",
                    path_contains: Some("crates/serving/"),
                },
                LockClassEntry {
                    class: "store-shard",
                    rank: 20,
                    ident: "inner",
                    path_contains: Some("crates/serving/src/sharded.rs"),
                },
                LockClassEntry {
                    class: "store-shard",
                    rank: 20,
                    ident: "shard",
                    path_contains: Some("crates/precompute/src/cache.rs"),
                },
                LockClassEntry {
                    class: "store-shard",
                    rank: 20,
                    ident: "shards",
                    path_contains: Some("crates/precompute/src/cache.rs"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "lane",
                    path_contains: Some("crates/obs/"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "lanes",
                    path_contains: Some("crates/obs/"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "inner",
                    path_contains: Some("crates/obs/src/events.rs"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "counters",
                    path_contains: Some("crates/obs/src/registry.rs"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "gauges",
                    path_contains: Some("crates/obs/src/registry.rs"),
                },
                LockClassEntry {
                    class: "obs-lane",
                    rank: 30,
                    ident: "histograms",
                    path_contains: Some("crates/obs/src/registry.rs"),
                },
                LockClassEntry {
                    class: "wakeup",
                    rank: 40,
                    ident: "work_gen",
                    path_contains: Some("crates/serving/"),
                },
            ],
            // The wakeup / claim / shutdown protocol atomics. The engine's
            // one protocol atomic is `len`, the shard queues' lock-free
            // emptiness hint — its Release store / Acquire load pairing is
            // what lets gather() skip idle shards without locking, so
            // Relaxed there is a real bug. `claimed`, `alive` and
            // `shutdown` are fields under locks in the engine (the shard
            // queue's and the wake-up lock); the names stay so that an
            // atomic reintroduced under one of them is still checked, and
            // because the lint fixtures use them.
            protocol_atomics: vec!["shutdown", "stop", "claimed", "len", "alive"],
            skip_paths: vec!["/target/", "shims/", "crates/analysis/tests/fixtures/"],
            obs_gating_exempt_paths: vec!["crates/obs/"],
            // `pp_nn::kernel`'s private dispatch, shared by the GEMM, the
            // gathers and the activations' slice forms.
            dispatch_fns: vec!["dispatch", "dispatch_to"],
            dispatch_paths: vec!["crates/nn/src/"],
        }
    }
}

impl LintConfig {
    /// Classifies a lock receiver identifier in `path`, returning the
    /// matching `(class, rank)`.
    pub fn lock_class(&self, path: &str, ident: &str) -> Option<(&'static str, u32)> {
        self.lock_classes
            .iter()
            .find(|e| {
                e.ident == ident && e.path_contains.is_none_or(|needle| path.contains(needle))
            })
            .map(|e| (e.class, e.rank))
    }

    /// Whether `ident` names a cross-thread protocol atomic.
    pub fn is_protocol_atomic(&self, ident: &str) -> bool {
        self.protocol_atomics.contains(&ident)
    }
}
