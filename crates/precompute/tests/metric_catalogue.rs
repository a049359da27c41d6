//! The metric catalogue in `docs/observability.md` is the code's: the
//! serving and precompute handles, registered on a fresh registry, produce
//! exactly the names (and kinds) its catalogue tables list. `ppbench`
//! reads four serving histograms by name and reads a missing one as 0, so a
//! rename here would zero four ledger lines without failing anything else.

use pp_obs::MetricsRegistry;
use pp_precompute::PrecomputeObs;
use pp_serving::ServingObs;
use std::collections::BTreeSet;

const DOC: &str = include_str!("../../../docs/observability.md");

/// The histograms `ppbench` reads by name.
const READ_BY_NAME: [&str; 4] = [
    "serving.forward_pass_ns",
    "serving.batch_assembly_ns",
    "serving.coalesce_wait_ns",
    "serving.batch_size",
];

/// `(name, kind)` of every row of the doc's `## Metric catalogue` tables.
fn documented() -> BTreeSet<(String, String)> {
    let start = DOC
        .find("\n## Metric catalogue")
        .expect("a Metric catalogue section");
    let section = &DOC[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut rows = BTreeSet::new();
    for line in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        rows.insert((cells[1].trim_matches('`').to_string(), cells[2].to_string()));
    }
    rows
}

#[test]
fn the_documented_catalogue_is_what_the_code_registers() {
    let registry = MetricsRegistry::new();
    let _ = ServingObs::register(&registry);
    let _ = PrecomputeObs::register(&registry);
    let snapshot = registry.snapshot();
    let histograms = snapshot.histograms.iter().map(|h| (&h.name, "histogram"));
    let registered: BTreeSet<(String, String)> = histograms
        .map(|(name, kind)| (name.clone(), kind.to_string()))
        .collect();

    let documented = documented();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but not in docs/observability.md's catalogue: {undocumented:?}"
    );
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "in docs/observability.md's catalogue but not registered: {unregistered:?}"
    );
    for name in READ_BY_NAME {
        assert!(
            snapshot.histogram(name).is_some(),
            "ppbench reads the histogram {name}, which is not registered"
        );
    }
}
