//! Input generation: every request, arrival time and wave the workloads
//! replay is derived here from the workload's [`SplitMix64`] stream.

use crate::rng::SplitMix64;
use pp_data::schema::{Context, Tab, UserId};
use pp_serving::{PredictRequest, UpdateRequest};

/// First second of the generated traffic (2019-08-01 00:00:00 UTC, the
/// epoch the repo's MobileTab generator uses).
pub const EPOCH_SECS: i64 = 1_564_617_600;

/// A MobileTab context: badge count 0–99 and the tab active at start-up.
pub fn context(rng: &mut SplitMix64) -> Context {
    Context::MobileTab {
        unread_count: rng.below(100) as u8,
        active_tab: Tab::ALL[rng.below(Tab::ALL.len() as u64) as usize],
    }
}

/// `len` session-start requests over `users` uniformly drawn user ids,
/// spread over thirty days so every hour-of-day and day-of-week feature
/// occurs, with log-uniform time since the last state update.
pub fn predict_ring(rng: &mut SplitMix64, len: usize, users: u64) -> Vec<PredictRequest> {
    (0..len)
        .map(|_| PredictRequest {
            user_id: UserId(rng.below(users)),
            timestamp: EPOCH_SECS + rng.below(30 * 86_400) as i64,
            context: context(rng),
            elapsed_secs: rng.log_uniform(1_000_000) as i64,
        })
        .collect()
}

/// One update step's worth of input for warming a user's hidden state.
pub fn warm_update(rng: &mut SplitMix64, user: u64) -> UpdateRequest {
    UpdateRequest {
        user_id: UserId(user),
        timestamp: EPOCH_SECS - 1 - rng.below(86_400) as i64,
        context: context(rng),
        delta_t_secs: rng.log_uniform(1_000_000) as i64,
        accessed: rng.chance(0.2),
    }
}

/// A seeded Poisson arrival schedule at a fixed mean rate.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: SplitMix64,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl PoissonSchedule {
    /// Arrivals at `rate_per_sec` on average, the first one after one gap.
    pub fn new(rng: SplitMix64, rate_per_sec: f64) -> Self {
        let mut schedule = Self {
            rng,
            mean_gap_ns: 1e9 / rate_per_sec,
            due_ns: 0.0,
        };
        schedule.advance();
        schedule
    }

    /// When the next arrival is due, nanoseconds from the schedule's start.
    pub fn due_ns(&self) -> u64 {
        self.due_ns as u64
    }

    /// Moves on to the arrival after this one.
    pub fn advance(&mut self) {
        // Exponential gap; 1 − u is in (0, 1], so the logarithm is finite.
        self.due_ns += -(1.0 - self.rng.next_f64()).ln() * self.mean_gap_ns;
    }
}

/// One session of the `session_mix` stream: it starts (a prediction) and,
/// one round later, closes (a hidden-state update).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// Who.
    pub user: UserId,
    /// Session start, UNIX seconds; non-decreasing along the stream.
    pub timestamp: i64,
    /// Context at start.
    pub context: Context,
    /// Seconds since the user's previous state update.
    pub elapsed_secs: i64,
    /// Whether the session accessed the activity (known at close).
    pub accessed: bool,
}

impl Session {
    /// The session-start prediction request.
    pub fn start(&self) -> PredictRequest {
        PredictRequest {
            user_id: self.user,
            timestamp: self.timestamp,
            context: self.context,
            elapsed_secs: self.elapsed_secs,
        }
    }

    /// The session-close update request.
    pub fn close(&self) -> UpdateRequest {
        UpdateRequest {
            user_id: self.user,
            timestamp: self.timestamp,
            context: self.context,
            delta_t_secs: self.elapsed_secs,
            accessed: self.accessed,
        }
    }
}

/// First id handed to a drive-by visitor; far above every returning user.
const DRIVE_BY_BASE: u64 = 1 << 40;

/// The unbounded `session_mix` stream: returning users drawn log-uniform by
/// popularity rank (the id *is* the rank), plus a share of one-shot
/// drive-by visitors whose ids never repeat.
#[derive(Debug, Clone)]
pub struct SessionStream {
    rng: SplitMix64,
    returning_users: u64,
    drive_by_share: f64,
    drive_bys: u64,
    clock_secs: i64,
}

impl SessionStream {
    /// A stream over `returning_users` ranks with `drive_by_share` of the
    /// sessions coming from one-shot ids.
    pub fn new(rng: SplitMix64, returning_users: u64, drive_by_share: f64) -> Self {
        Self {
            rng,
            returning_users,
            drive_by_share,
            drive_bys: 0,
            clock_secs: EPOCH_SECS,
        }
    }
}

impl Iterator for SessionStream {
    type Item = Session;

    fn next(&mut self) -> Option<Session> {
        let rng = &mut self.rng;
        let user = if rng.chance(self.drive_by_share) {
            self.drive_bys += 1;
            DRIVE_BY_BASE + self.drive_bys
        } else {
            rng.log_uniform(self.returning_users) - 1
        };
        self.clock_secs += rng.below(3) as i64;
        Some(Session {
            user: UserId(user),
            timestamp: self.clock_secs,
            context: context(rng),
            elapsed_secs: rng.log_uniform(1_000_000) as i64,
            accessed: rng.chance(0.2),
        })
    }
}

/// One session-start event of the `precompute_loop` traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Session start, UNIX seconds (quantised to the traffic bucket).
    pub timestamp: i64,
    /// Who.
    pub user: UserId,
    /// Context at start.
    pub context: Context,
    /// Ground truth, revealed when the session resolves.
    pub accessed: bool,
}

/// Cuts time-ordered events into waves: each wave holds at most `max_wave`
/// events of **one** timestamp bucket and no user twice. A user's repeat
/// inside a bucket is deferred to a later wave of that bucket, so no event
/// is lost and each user's events keep their order.
pub fn form_waves(events: &[Event], max_wave: usize) -> Vec<Vec<Event>> {
    assert!(max_wave > 0, "max_wave must be positive");
    let mut waves = Vec::new();
    let mut start = 0usize;
    while start < events.len() {
        let bucket = events[start].timestamp;
        let len = events[start..]
            .iter()
            .take_while(|e| e.timestamp == bucket)
            .count();
        let mut pending: Vec<Event> = events[start..start + len].to_vec();
        while !pending.is_empty() {
            let mut wave = Vec::with_capacity(pending.len().min(max_wave));
            let mut users = std::collections::HashSet::new();
            let mut deferred = Vec::new();
            for event in pending {
                if wave.len() < max_wave && users.insert(event.user) {
                    wave.push(event);
                } else {
                    deferred.push(event);
                }
            }
            waves.push(wave);
            pending = deferred;
        }
        start += len;
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(requests: &[PredictRequest]) -> String {
        serde_json::to_string(&requests.to_vec()).expect("requests serialize")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream_and_another_seed_does_not() {
        let ring = |seed| {
            predict_ring(
                &mut SplitMix64::for_workload(seed, "predict_wave"),
                4_096,
                20_000,
            )
        };
        assert_eq!(bytes_of(&ring(17)), bytes_of(&ring(17)));
        assert_ne!(bytes_of(&ring(17)), bytes_of(&ring(23)));

        let sessions = |seed| {
            SessionStream::new(SplitMix64::for_workload(seed, "session_mix"), 200_000, 0.15)
                .take(4_096)
                .collect::<Vec<_>>()
        };
        assert_eq!(sessions(17), sessions(17));
        assert_ne!(sessions(17), sessions(23));
    }

    #[test]
    fn session_stream_mixes_ranked_users_with_one_shot_visitors() {
        let sessions: Vec<Session> =
            SessionStream::new(SplitMix64::for_workload(1, "session_mix"), 200_000, 0.15)
                .take(40_000)
                .collect();
        let drive_bys: Vec<u64> = sessions
            .iter()
            .map(|s| s.user.0)
            .filter(|&id| id >= DRIVE_BY_BASE)
            .collect();
        let share = drive_bys.len() as f64 / sessions.len() as f64;
        assert!((share - 0.15).abs() < 0.01, "drive-by share {share}");
        let distinct: std::collections::HashSet<_> = drive_bys.iter().collect();
        assert_eq!(distinct.len(), drive_bys.len(), "a drive-by id repeated");
        assert!(sessions
            .iter()
            .all(|s| s.user.0 >= DRIVE_BY_BASE || s.user.0 < 200_000));
        assert!(sessions
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        // Log-uniform by rank: about half the returning sessions fall on the
        // first √200 000 ≈ 447 ranks.
        let returning = sessions.len() - drive_bys.len();
        let head = sessions.iter().filter(|s| s.user.0 < 447).count();
        let head_share = head as f64 / returning as f64;
        assert!((head_share - 0.5).abs() < 0.03, "head share {head_share}");
    }

    #[test]
    fn poisson_schedule_is_monotone_with_the_requested_mean_rate() {
        let mut schedule =
            PoissonSchedule::new(SplitMix64::for_workload(9, "predict_open"), 50_000.0);
        let arrivals = 1_000_000;
        let mut last_ns = 0u64;
        for _ in 0..arrivals {
            let due_ns = schedule.due_ns();
            assert!(due_ns >= last_ns, "schedule went backwards");
            last_ns = due_ns;
            schedule.advance();
        }
        let rate = f64::from(arrivals) / (last_ns as f64 / 1e9);
        assert!((rate / 50_000.0 - 1.0).abs() < 0.01, "mean rate {rate}");
    }

    #[test]
    fn wave_former_keeps_users_distinct_defers_repeats_and_loses_nothing() {
        let mut rng = SplitMix64::for_workload(4, "waves");
        let mut events = Vec::new();
        for bucket in 0..6i64 {
            // Few users and many events, so repeats and full waves both occur.
            for _ in 0..700 {
                events.push(Event {
                    timestamp: EPOCH_SECS + bucket * 900,
                    user: UserId(rng.below(400)),
                    context: context(&mut rng),
                    accessed: rng.chance(0.3),
                });
            }
        }
        let waves = form_waves(&events, 256);
        assert!(waves.iter().all(|w| !w.is_empty() && w.len() <= 256));
        for wave in &waves {
            let users: std::collections::HashSet<_> = wave.iter().map(|e| e.user).collect();
            assert_eq!(users.len(), wave.len(), "a user twice in one wave");
            assert!(wave.iter().all(|e| e.timestamp == wave[0].timestamp));
        }
        let replayed: Vec<Event> = waves.iter().flatten().copied().collect();
        assert_eq!(replayed.len(), events.len(), "an event was lost");
        assert!(replayed
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        // Per user, the events come out in the order they went in.
        for user in 0..400u64 {
            let of_user = |all: &[Event]| {
                all.iter()
                    .filter(|e| e.user.0 == user)
                    .copied()
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                of_user(&events),
                of_user(&replayed),
                "user {user} reordered"
            );
        }
    }
}
