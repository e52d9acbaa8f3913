//! Construct strategies from the labels used throughout the paper's plots
//! (`fixed_500`, `mean_2`, `predictive`, `dynamic`).

use crate::config::Env;
use crate::meta::MetaStrategy;
use crate::spec::RunError;
use crate::strategy::{FixedStrategy, MeanStrategy, PredictiveStrategy, ProvisioningStrategy};

/// Build a strategy from its label, rejecting malformed labels.
///
/// * `fixed_N` — fixed N VMs (N ≥ 0)
/// * `mean_Y` — 5-minute mean × Y (Y may be fractional)
/// * `predictive` — 5-minute linear regression
/// * `dynamic` — the multiplicative-weights meta-strategy (paper family)
pub fn make_strategy(label: &str, env: &Env) -> Result<Box<dyn ProvisioningStrategy>, RunError> {
    if let Some(n) = label.strip_prefix("fixed_") {
        let vms: u32 = n
            .parse()
            .map_err(|_| RunError::UnknownStrategy(label.to_string()))?;
        return Ok(Box::new(FixedStrategy { vms }));
    }
    if let Some(m) = label.strip_prefix("mean_") {
        let mult: f64 = m
            .parse()
            .map_err(|_| RunError::UnknownStrategy(label.to_string()))?;
        return Ok(Box::new(MeanStrategy::times(mult)));
    }
    match label {
        "predictive" => Ok(Box::new(PredictiveStrategy::new())),
        "dynamic" => Ok(Box::new(MetaStrategy::new(env))),
        other => Err(RunError::UnknownStrategy(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        let env = Env::default();
        for label in [
            "fixed_0",
            "fixed_500",
            "mean_1",
            "mean_1.5",
            "mean_2",
            "predictive",
            "dynamic",
        ] {
            let s = make_strategy(label, &env).expect("valid label");
            assert_eq!(s.name(), label, "label {label}");
        }
    }

    #[test]
    fn malformed_labels_are_errors() {
        let env = Env::default();
        for bad in ["nonsense", "fixed_x", "mean_", "fixed_-1"] {
            assert!(
                matches!(make_strategy(bad, &env), Err(RunError::UnknownStrategy(_))),
                "label {bad}"
            );
        }
    }
}
