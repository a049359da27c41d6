//! Shared helpers for the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures.
//!
//! Every binary accepts the environment variables
//!
//! * `PP_USERS` — number of synthetic users for MobileTab/Timeshift
//!   (default 400; the paper uses 10^6),
//! * `PP_MPU_USERS` — number of MPU users (default 80; the paper uses 279),
//! * `PP_DAYS` — number of days of logs (default 30),
//! * `PP_HIDDEN` — RNN hidden dimensionality (default 64; the paper uses 128),
//! * `PP_EPOCHS` — RNN training epochs (default 1; the paper uses 8 for MPU),
//! * `PP_SEED` — global seed (default 17),
//!
//! so the same binaries scale from a quick smoke run to a paper-scale run.

use pp_baselines::{GbdtConfig, LogRegConfig};
use pp_core::experiments::OfflineExperimentConfig;
use pp_data::synth::{MobileTabConfig, MpuConfig, TimeshiftConfig};
use pp_rnn::{RnnModelConfig, TrainerConfig};

/// Reads a numeric environment variable: the default when it is unset.
///
/// # Panics
///
/// Panics when the variable is set to something that does not parse — a
/// typo (`PP_USERS=4oo`) must not silently run the small configuration
/// while the operator believes it was the paper-scale one.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("{name}={raw:?} is not a valid value")),
        Err(_) => default,
    }
}

/// Benchmark-scale knobs resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Users for MobileTab / Timeshift.
    pub users: usize,
    /// Users for MPU.
    pub mpu_users: usize,
    /// Days of logs.
    pub days: u32,
    /// RNN hidden dimensionality.
    pub hidden: usize,
    /// RNN epochs.
    pub epochs: usize,
    /// Global seed.
    pub seed: u64,
}

impl Scale {
    /// Resolves the scale from the environment.
    pub fn from_env() -> Self {
        Self {
            users: env_or("PP_USERS", 400),
            mpu_users: env_or("PP_MPU_USERS", 80),
            days: env_or("PP_DAYS", 30),
            hidden: env_or("PP_HIDDEN", 64),
            epochs: env_or("PP_EPOCHS", 1),
            seed: env_or("PP_SEED", 17),
        }
    }

    /// MobileTab generator configuration at this scale.
    pub fn mobiletab(&self) -> MobileTabConfig {
        MobileTabConfig {
            num_users: self.users,
            num_days: self.days,
            ..Default::default()
        }
    }

    /// Timeshift generator configuration at this scale.
    pub fn timeshift(&self) -> TimeshiftConfig {
        TimeshiftConfig {
            num_users: self.users,
            num_days: self.days,
            ..Default::default()
        }
    }

    /// MPU generator configuration at this scale.
    pub fn mpu(&self) -> MpuConfig {
        MpuConfig {
            num_users: self.mpu_users,
            num_days: self.days.min(28),
            median_notifications_per_day: 20.0,
            ..Default::default()
        }
    }

    /// Offline experiment configuration at this scale.
    pub fn experiment(&self) -> OfflineExperimentConfig {
        OfflineExperimentConfig {
            rnn_model: RnnModelConfig {
                hidden_dim: self.hidden,
                mlp_width: self.hidden,
                ..Default::default()
            },
            rnn_trainer: TrainerConfig {
                epochs: self.epochs,
                seed: self.seed,
                ..Default::default()
            },
            gbdt: GbdtConfig {
                num_trees: 60,
                max_depth: 6,
                ..Default::default()
            },
            logreg: LogRegConfig {
                epochs: 6,
                ..Default::default()
            },
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// Prints a labelled section header so the text output of the binaries is
/// easy to scan and diff against `EXPERIMENTS.md`.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a simple ASCII series (x, y) for terminal inspection of figures.
pub fn print_series(name: &str, xs: &[f64], ys: &[f64]) {
    println!("{name}:");
    for (x, y) in xs.iter().zip(ys) {
        println!("  {x:>12.4}  {y:>10.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "PP_ENV_OR_TYPO=\"4oo\"")]
    fn env_or_rejects_a_set_but_unparsable_value() {
        std::env::set_var("PP_ENV_OR_TYPO", "4oo");
        let _: usize = env_or("PP_ENV_OR_TYPO", 400);
    }

    #[test]
    fn env_defaults_apply() {
        assert_eq!(env_or("PP_DOES_NOT_EXIST", 7usize), 7);
        let s = Scale {
            users: 10,
            mpu_users: 5,
            days: 8,
            hidden: 16,
            epochs: 2,
            seed: 1,
        };
        assert_eq!(s.mobiletab().num_users, 10);
        assert_eq!(s.timeshift().num_days, 8);
        assert_eq!(s.mpu().num_users, 5);
        assert_eq!(s.experiment().rnn_model.hidden_dim, 16);
    }
}
