//! Model evaluation reports: a compact summary bundling the metrics the
//! paper tabulates for every model × dataset cell (PR-AUC, recall at 50%
//! precision, log loss), plus helpers for formatting comparison tables.

use crate::classification::{log_loss, roc_auc};
use crate::pr::PrCurve;

/// Evaluation summary of one model on one dataset slice.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Model name (e.g. "GBDT", "RNN").
    pub model: String,
    /// Dataset name (e.g. "MobileTab").
    pub dataset: String,
    /// Number of evaluated examples.
    pub num_examples: usize,
    /// Number of positive labels.
    pub num_positives: usize,
    /// Area under the precision-recall curve.
    pub pr_auc: f64,
    /// Recall at 50% precision (Table 4).
    pub recall_at_50_precision: f64,
    /// ROC-AUC (not reported in the paper, useful for debugging skew).
    pub roc_auc: f64,
    /// Mean log loss.
    pub log_loss: f64,
}

impl EvalReport {
    /// Computes a report from probabilistic scores and boolean labels.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `labels` lengths differ or the input is empty.
    pub fn compute(
        model: impl Into<String>,
        dataset: impl Into<String>,
        scores: &[f64],
        labels: &[bool],
    ) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        assert!(
            !scores.is_empty(),
            "cannot evaluate an empty prediction set"
        );
        let curve = PrCurve::compute(scores, labels);
        Self {
            model: model.into(),
            dataset: dataset.into(),
            num_examples: scores.len(),
            num_positives: labels.iter().filter(|&&l| l).count(),
            pr_auc: curve.auc(),
            recall_at_50_precision: curve.recall_at_precision(0.5),
            roc_auc: roc_auc(scores, labels),
            log_loss: log_loss(scores, labels),
        }
    }

    /// Positive rate of the evaluated slice.
    pub fn positive_rate(&self) -> f64 {
        if self.num_examples == 0 {
            0.0
        } else {
            self.num_positives as f64 / self.num_examples as f64
        }
    }
}

/// Renders a set of reports as a fixed-width text table with one row per
/// model and one column per dataset, mirroring the layout of Tables 3 and 4.
/// `metric` selects which scalar to print.
pub fn format_comparison_table(
    reports: &[EvalReport],
    metric: fn(&EvalReport) -> f64,
    title: &str,
) -> String {
    let mut datasets: Vec<String> = Vec::new();
    let mut models: Vec<String> = Vec::new();
    for r in reports {
        if !datasets.contains(&r.dataset) {
            datasets.push(r.dataset.clone());
        }
        if !models.contains(&r.model) {
            models.push(r.model.clone());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<18}", "MODEL"));
    for d in &datasets {
        out.push_str(&format!("{d:>12}"));
    }
    out.push('\n');
    for m in &models {
        out.push_str(&format!("{m:<18}"));
        for d in &datasets {
            let cell = reports
                .iter()
                .find(|r| &r.model == m && &r.dataset == d)
                .map_or_else(
                    || format!("{:>12}", "-"),
                    |r| format!("{:>12.3}", metric(r)),
                );
            out.push_str(&cell);
        }
        out.push('\n');
    }
    out
}

/// Relative improvement of `candidate` over `baseline` in percent, as the
/// paper reports RNN-vs-GBDT improvements ("improvement percentage is
/// calculated relative to the GBDT PR-AUC").
pub fn relative_improvement_percent(baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (candidate - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_all_metrics() {
        let scores = [0.9, 0.7, 0.3, 0.1];
        let labels = [true, true, false, false];
        let r = EvalReport::compute("RNN", "MobileTab", &scores, &labels);
        assert_eq!(r.num_examples, 4);
        assert_eq!(r.num_positives, 2);
        assert!((r.pr_auc - 1.0).abs() < 1e-12);
        assert!((r.roc_auc - 1.0).abs() < 1e-12);
        assert!((r.recall_at_50_precision - 1.0).abs() < 1e-12);
        assert!(r.log_loss < 0.6);
        assert!((r.positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comparison_table_contains_all_cells() {
        let mk = |model: &str, dataset: &str, auc_shift: f64| {
            let scores = [0.9 - auc_shift, 0.7, 0.3, 0.1];
            let labels = [true, true, false, false];
            EvalReport::compute(model, dataset, &scores, &labels)
        };
        let reports = vec![
            mk("GBDT", "MobileTab", 0.0),
            mk("RNN", "MobileTab", 0.0),
            mk("GBDT", "MPU", 0.0),
        ];
        let table = format_comparison_table(&reports, |r| r.pr_auc, "Table 3: PR-AUC");
        assert!(table.contains("Table 3"));
        assert!(table.contains("GBDT"));
        assert!(table.contains("RNN"));
        assert!(table.contains("MobileTab"));
        assert!(table.contains("MPU"));
        // The RNN × MPU cell is missing and rendered as "-".
        assert!(table.contains('-'));
    }

    #[test]
    fn relative_improvement() {
        assert!((relative_improvement_percent(0.578, 0.596) - 3.114).abs() < 0.01);
        assert_eq!(relative_improvement_percent(0.0, 0.5), 0.0);
        assert!(relative_improvement_percent(0.5, 0.4) < 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_report_panics() {
        let _ = EvalReport::compute("m", "d", &[], &[]);
    }
}
