//! Plain-text report rendering for campaign and FIT results.
//!
//! The experiment regenerators print FIT values through [`format_fit`], and
//! the CLI prints per-cell campaign statistics through [`campaign_table`]
//! (fixed-width columns, Wilson 95% CIs on masking probabilities).

use fidelity_obs::stats::wilson95;

use crate::campaign::CampaignResult;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignResult, CellStats};
    use crate::models::SoftwareFaultModel;
    use fidelity_accel::ff::FfCategory;

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
    fn format_fit_ranges() {
        assert_eq!(format_fit(250.0), "250");
        assert_eq!(format_fit(7.27), "7.27");
        assert_eq!(format_fit(0.05), "0.050");
    }
}
