//! Plain-text report rendering for campaign and FIT results.
//!
//! The experiment regenerators and the CLI all print the same three tables;
//! this module renders them consistently (fixed-width columns, Wilson 95%
//! CIs on masking probabilities).

use fidelity_obs::stats::wilson95;

use crate::campaign::CampaignResult;
use crate::fit::FitBreakdown;
use crate::validate::ValidationReport;

/// Formats a FIT value with magnitude-appropriate precision.
pub fn format_fit(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a labelled set of FIT breakdowns as a table.
pub fn fit_table(rows: &[(String, FitBreakdown)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}\n",
        "configuration", "datapath", "local", "global", "TOTAL"
    ));
    for (label, b) in rows {
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>10} {:>10}\n",
            label,
            format_fit(b.datapath),
            format_fit(b.local),
            format_fit(b.global),
            format_fit(b.total)
        ));
    }
    out
}

/// Renders per-cell campaign statistics with 95% confidence intervals.
pub fn campaign_table(result: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<34} {:>8} {:>8} {:>18}\n",
        "layer", "category", "samples", "masked", "Prob_SWmask (95% CI)"
    ));
    for cell in &result.cells {
        let (lo, hi) = wilson95(cell.masked, cell.samples.max(1));
        out.push_str(&format!(
            "{:<24} {:<34} {:>8} {:>8}   {:.3} ({:.3}-{:.3})\n",
            cell.layer,
            cell.category.to_string(),
            cell.samples,
            cell.masked,
            cell.prob_swmask(),
            lo,
            hi
        ));
    }
    out
}

/// Renders the one-line validation verdict.
pub fn validation_summary(report: &ValidationReport) -> String {
    format!(
        "{} sites: {} masked-agreed, datapath {}/{} exact, local {}/{}, \
         global {} ({} masked), {} timeouts, {} mismatches",
        report.total,
        report.masked_agreed,
        report.datapath_exact,
        report.datapath_cases,
        report.local_match,
        report.local_cases,
        report.global_cases,
        report.global_masked,
        report.timeouts,
        report.mismatches.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignResult, CellStats};
    use crate::models::SoftwareFaultModel;
    use fidelity_accel::ff::FfCategory;

    #[test]
    fn fit_table_renders_all_rows() {
        let rows = vec![
            (
                "fp16".to_owned(),
                FitBreakdown {
                    total: 8.5,
                    datapath: 1.0,
                    local: 0.5,
                    global: 7.0,
                    per_category: vec![],
                },
            ),
            ("int8".to_owned(), FitBreakdown::default()),
        ];
        let table = fit_table(&rows);
        assert!(table.contains("fp16"));
        assert!(table.contains("8.50"));
        assert!(table.contains("int8"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn campaign_table_shows_ci() {
        let result = CampaignResult {
            cells: vec![CellStats {
                node: 0,
                layer: "conv".into(),
                category: FfCategory::LocalControl,
                model: SoftwareFaultModel::LocalControl,
                samples: 100,
                masked: 50,
                output_error: 50,
                anomaly: 0,
                events: vec![],
            }],
            failures: vec![],
            certificate: None,
        };
        let table = campaign_table(&result);
        assert!(table.contains("conv"));
        assert!(table.contains("0.500"));
        assert!(table.contains("(0.4"), "{table}");
    }

    #[test]
    fn validation_summary_counts() {
        let report = ValidationReport {
            total: 10,
            datapath_cases: 4,
            datapath_exact: 4,
            ..Default::default()
        };
        let s = validation_summary(&report);
        assert!(s.contains("10 sites"));
        assert!(s.contains("4/4 exact"));
        assert!(s.contains("0 mismatches"));
    }

    #[test]
    fn format_fit_ranges() {
        assert_eq!(format_fit(250.0), "250");
        assert_eq!(format_fit(7.27), "7.27");
        assert_eq!(format_fit(0.05), "0.050");
    }
}
