//! Core data model: sessions, contexts, access logs, and datasets.
//!
//! The paper (§3.1) defines three concepts that every other crate builds on:
//!
//! * **Session** — a fixed-length window of user activity, recorded with the
//!   context at its start and a boolean *access flag*.
//! * **Context** — session-specific information available at prediction time
//!   (timestamp, unread badge count, active tab, screen state, …).
//! * **Access logs** — the per-user chronological sequence of sessions, used
//!   both as training data and as the online history that predictions
//!   condition on.

use serde::Serialize;
use std::fmt;

/// Seconds in one hour.
pub const SECONDS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// Unique user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

/// The application tab that was active at session start (MobileTab dataset).
///
/// The paper hashes tab names modulo 97; we model a small closed set of tabs,
/// each with a stable [`Tab::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Tab {
    /// The default feed.
    Home,
    /// Direct messages.
    Messages,
    /// Video tab.
    Watch,
    /// Commerce tab.
    Marketplace,
    /// Notification center.
    Notifications,
    /// User profile.
    Profile,
    /// Groups tab.
    Groups,
    /// Search surface.
    Search,
}

impl Tab {
    /// All tabs in a fixed order.
    pub const ALL: [Tab; 8] = [
        Tab::Home,
        Tab::Messages,
        Tab::Watch,
        Tab::Marketplace,
        Tab::Notifications,
        Tab::Profile,
        Tab::Groups,
        Tab::Search,
    ];

    /// Stable index of the tab in [`Tab::ALL`].
    pub fn index(self) -> usize {
        Tab::ALL
            .iter()
            .position(|&t| t == self)
            .expect("tab in ALL")
    }
}

impl fmt::Display for Tab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Screen state at notification arrival (MPU dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ScreenState {
    /// Screen off.
    Off,
    /// Screen on but locked.
    On,
    /// Screen on and unlocked.
    Unlocked,
}

impl ScreenState {
    /// All screen states in a fixed order.
    pub const ALL: [ScreenState; 3] = [ScreenState::Off, ScreenState::On, ScreenState::Unlocked];

    /// Stable index in [`ScreenState::ALL`].
    pub fn index(self) -> usize {
        ScreenState::ALL
            .iter()
            .position(|&s| s == self)
            .expect("state in ALL")
    }
}

/// Session context: the information available at the *start* of a session,
/// i.e. at prediction time (paper §3.1). The timestamp lives on the
/// [`Session`] itself; the context carries the dataset-specific fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Context {
    /// Facebook mobile application startup (MobileTab dataset).
    MobileTab {
        /// Unread notification badge count displayed over the tab icon
        /// (clamped to 0–99 as in the paper).
        unread_count: u8,
        /// The tab that is active when the application starts.
        active_tab: Tab,
    },
    /// Facebook website load (Timeshift dataset).
    Timeshift {
        /// Whether the session occurred during the peak-hours window.
        is_peak: bool,
    },
    /// Mobile-phone-use notification event (MPU dataset).
    Mpu {
        /// Screen state when the notification arrived.
        screen: ScreenState,
        /// Identifier of the application that posted the notification.
        app_id: u16,
        /// Identifier of the most recently opened application.
        last_app_id: u16,
    },
}

impl Context {
    /// Which dataset family this context belongs to.
    pub fn kind(&self) -> DatasetKind {
        match self {
            Context::MobileTab { .. } => DatasetKind::MobileTab,
            Context::Timeshift { .. } => DatasetKind::Timeshift,
            Context::Mpu { .. } => DatasetKind::Mpu,
        }
    }
}

/// One recorded application session (or notification event for MPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// UNIX timestamp (seconds) of the session start.
    pub timestamp: i64,
    /// Context observed at session start.
    pub context: Context,
    /// Whether the activity was accessed within the session window
    /// (the ground-truth label `A_i`).
    pub accessed: bool,
}

impl Session {
    /// Hour of day in `[0, 24)` derived from the timestamp (UTC).
    pub fn hour_of_day(&self) -> u8 {
        hour_of_day(self.timestamp)
    }

    /// Day of week in `[0, 7)` where 0 = Thursday (1970-01-01 was a
    /// Thursday); only consistency matters for the models.
    pub fn day_of_week(&self) -> u8 {
        day_of_week(self.timestamp)
    }

    /// Index of the calendar day (UTC) relative to the UNIX epoch.
    pub fn day_index(&self) -> i64 {
        self.timestamp.div_euclid(SECONDS_PER_DAY)
    }
}

/// Hour of day in `[0, 24)` for a UNIX timestamp.
pub fn hour_of_day(timestamp: i64) -> u8 {
    (timestamp.rem_euclid(SECONDS_PER_DAY) / SECONDS_PER_HOUR) as u8
}

/// Day of week in `[0, 7)` for a UNIX timestamp (0 = Thursday).
pub fn day_of_week(timestamp: i64) -> u8 {
    (timestamp.div_euclid(SECONDS_PER_DAY).rem_euclid(7)) as u8
}

/// The complete, chronologically sorted access log of a single user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserHistory {
    /// User identifier.
    pub user_id: UserId,
    /// Sessions sorted by ascending timestamp.
    pub sessions: Vec<Session>,
}

impl UserHistory {
    /// Creates a user history, sorting sessions by timestamp.
    pub fn new(user_id: UserId, mut sessions: Vec<Session>) -> Self {
        sessions.sort_by_key(|s| s.timestamp);
        Self { user_id, sessions }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Returns `true` when the user has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Number of sessions with a positive access flag.
    pub fn num_accesses(&self) -> usize {
        self.sessions.iter().filter(|s| s.accessed).count()
    }

    /// Fraction of sessions with a positive access flag (0.0 when empty).
    pub fn access_rate(&self) -> f64 {
        if self.sessions.is_empty() {
            0.0
        } else {
            self.num_accesses() as f64 / self.sessions.len() as f64
        }
    }

    /// Returns `true` if the sessions are sorted by non-decreasing timestamp.
    pub fn is_sorted(&self) -> bool {
        self.sessions
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp)
    }

    /// Keeps only the most recent `max_sessions` sessions (paper §7.1
    /// truncates MPU histories to 10,000 sessions).
    pub fn truncate_to_recent(&mut self, max_sessions: usize) {
        if self.sessions.len() > max_sessions {
            let start = self.sessions.len() - max_sessions;
            self.sessions.drain(..start);
        }
    }
}

/// Which of the paper's three datasets a [`Dataset`] instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Mobile tab access prediction (§4.1).
    MobileTab,
    /// Timeshifted data queries (§4.2).
    Timeshift,
    /// Mobile Phone Use notification attendance (§4.3).
    Mpu,
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetKind::MobileTab => write!(f, "MobileTab"),
            DatasetKind::Timeshift => write!(f, "Timeshift"),
            DatasetKind::Mpu => write!(f, "MPU"),
        }
    }
}

/// A full dataset: a set of user access logs spanning a fixed number of days.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Which dataset family this is.
    pub kind: DatasetKind,
    /// UNIX timestamp of the first instant covered by the dataset.
    pub start_timestamp: i64,
    /// Number of days covered (paper: 30 for MobileTab/Timeshift, 28 for MPU).
    pub num_days: u32,
    /// Per-user access logs.
    pub users: Vec<UserHistory>,
}

impl Dataset {
    /// UNIX timestamp of the end of the covered window.
    pub fn end_timestamp(&self) -> i64 {
        self.start_timestamp + self.num_days as i64 * SECONDS_PER_DAY
    }

    /// Total number of sessions across all users.
    pub fn num_sessions(&self) -> usize {
        self.users.iter().map(UserHistory::len).sum()
    }

    /// Total number of positive sessions across all users.
    pub fn num_accesses(&self) -> usize {
        self.users.iter().map(UserHistory::num_accesses).sum()
    }

    /// Global positive rate over sessions.
    pub fn positive_rate(&self) -> f64 {
        let sessions = self.num_sessions();
        if sessions == 0 {
            0.0
        } else {
            self.num_accesses() as f64 / sessions as f64
        }
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Checks structural invariants: every user's sessions sorted, all
    /// timestamps inside the covered window, all contexts of the right kind.
    pub fn validate(&self) -> Result<(), String> {
        let end = self.end_timestamp();
        for user in &self.users {
            if !user.is_sorted() {
                return Err(format!("{}: sessions not sorted", user.user_id));
            }
            for s in &user.sessions {
                if s.timestamp < self.start_timestamp || s.timestamp >= end {
                    return Err(format!(
                        "{}: timestamp {} outside [{}, {})",
                        user.user_id, s.timestamp, self.start_timestamp, end
                    ));
                }
                if s.context.kind() != self.kind {
                    return Err(format!(
                        "{}: context kind {:?} does not match dataset kind {:?}",
                        user.user_id,
                        s.context.kind(),
                        self.kind
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(ts: i64, accessed: bool) -> Session {
        Session {
            timestamp: ts,
            context: Context::MobileTab {
                unread_count: 1,
                active_tab: Tab::Home,
            },
            accessed,
        }
    }

    #[test]
    fn tab_index_is_its_position_in_all() {
        for (i, tab) in Tab::ALL.iter().enumerate() {
            assert_eq!(tab.index(), i);
        }
    }

    #[test]
    fn hour_and_day_derivation() {
        // 1970-01-01 00:00:00 is a Thursday.
        assert_eq!(hour_of_day(0), 0);
        assert_eq!(day_of_week(0), 0);
        assert_eq!(hour_of_day(3 * SECONDS_PER_HOUR + 59), 3);
        assert_eq!(hour_of_day(SECONDS_PER_DAY + 5 * SECONDS_PER_HOUR), 5);
        assert_eq!(day_of_week(SECONDS_PER_DAY * 7), 0);
        assert_eq!(day_of_week(SECONDS_PER_DAY * 8), 1);
        let s = session(2 * SECONDS_PER_DAY + 13 * SECONDS_PER_HOUR, false);
        assert_eq!(s.hour_of_day(), 13);
        assert_eq!(s.day_of_week(), 2);
        assert_eq!(s.day_index(), 2);
    }

    #[test]
    fn user_history_sorts_and_counts() {
        let h = UserHistory::new(
            UserId(1),
            vec![session(300, true), session(100, false), session(200, true)],
        );
        assert!(h.is_sorted());
        assert_eq!(h.len(), 3);
        assert_eq!(h.num_accesses(), 2);
        assert!((h.access_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.sessions[0].timestamp, 100);
    }

    #[test]
    fn empty_history_access_rate_is_zero() {
        let h = UserHistory::new(UserId(2), vec![]);
        assert!(h.is_empty());
        assert_eq!(h.access_rate(), 0.0);
    }

    #[test]
    fn truncate_to_recent_keeps_latest() {
        let mut h = UserHistory::new(
            UserId(1),
            (0..100).map(|i| session(i * 10, i % 2 == 0)).collect(),
        );
        h.truncate_to_recent(10);
        assert_eq!(h.len(), 10);
        assert_eq!(h.sessions[0].timestamp, 900);
        // Truncating to a larger budget is a no-op.
        h.truncate_to_recent(1000);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn dataset_statistics_and_validation() {
        let users = vec![
            UserHistory::new(UserId(0), vec![session(10, true), session(20, false)]),
            UserHistory::new(UserId(1), vec![session(30, false)]),
        ];
        let ds = Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: 0,
            num_days: 1,
            users,
        };
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.num_sessions(), 3);
        assert_eq!(ds.num_accesses(), 1);
        assert!((ds.positive_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn validation_rejects_wrong_kind_and_out_of_range() {
        let ds = Dataset {
            kind: DatasetKind::Timeshift,
            start_timestamp: 0,
            num_days: 1,
            users: vec![UserHistory::new(UserId(0), vec![session(10, true)])],
        };
        let err = ds.validate().unwrap_err();
        assert!(err.contains("does not match"));

        let ds2 = Dataset {
            kind: DatasetKind::MobileTab,
            start_timestamp: 0,
            num_days: 1,
            users: vec![UserHistory::new(
                UserId(0),
                vec![session(2 * SECONDS_PER_DAY, true)],
            )],
        };
        assert!(ds2.validate().is_err());
    }

    #[test]
    fn display_impls() {
        assert_eq!(UserId(3).to_string(), "user-3");
        assert_eq!(DatasetKind::Mpu.to_string(), "MPU");
        assert_eq!(Tab::Home.to_string(), "Home");
    }
}
