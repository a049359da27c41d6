//! The activity a precompute decision is taken for.
//!
//! The paper's §9 launch activity is the MobileTab prefetch, and it is the
//! one activity this crate's loop runs. [`Activity`] is the label a
//! [`crate::Decision`] carries and the name the loop's events are recorded
//! under.

use serde::{Deserialize, Serialize};

/// A precompute activity.
///
/// # Examples
///
/// ```
/// use pp_precompute::Activity;
///
/// assert_eq!(serde_json::to_string(&Activity::MobileTab).unwrap(), "\"MobileTab\"");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// Mobile application tab prefetch (the paper's §9 launch activity).
    MobileTab,
}

impl Activity {
    /// A lowercase identifier suitable for event labels and JSON keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_precompute::Activity;
    ///
    /// assert_eq!(Activity::MobileTab.slug(), "mobile_tab");
    /// ```
    pub fn slug(self) -> &'static str {
        match self {
            Activity::MobileTab => "mobile_tab",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_serde_round_trips() {
        let json = serde_json::to_string(&Activity::MobileTab).unwrap();
        let back: Activity = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Activity::MobileTab);
    }
}
