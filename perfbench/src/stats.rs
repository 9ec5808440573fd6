//! Order statistics and open-loop accounting.
//!
//! Every timestamp here is a `u64` nanosecond offset from one base
//! `Instant` taken when the run starts, so the maths is plain integer
//! arithmetic that tests can drive without a clock.

use std::collections::{HashMap, HashSet};

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a share `q` of the samples at or below it. `q` is clamped to
/// `0..=1`; `q = 0` gives the minimum. `None` for an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of `values` (the mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A constant-rate send schedule: request `i` is due `i / rate` seconds
/// after the schedule starts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate_per_s: f64,
}

impl Schedule {
    /// A schedule sending `rate_per_s` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    pub fn new(rate_per_s: f64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "rate must be positive"
        );
        Schedule { rate_per_s }
    }

    /// The due time of request `i`, in ns after the schedule's start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// How many requests fall due within `seconds`.
    pub fn count_within(&self, seconds: f64) -> u64 {
        (seconds * self.rate_per_s).floor() as u64
    }
}

/// How late a request was sent: zero when sent on or before its due time.
pub fn lateness_ns(due: u64, sent: u64) -> u64 {
    sent.saturating_sub(due)
}

/// Outcome of matching requests that expect a reply against the replies
/// received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplyMatch {
    /// Latency of each answered request, measured from its due time (not
    /// its send time), ascending.
    pub latencies_ns: Vec<u64>,
    /// Requests that never got a reply.
    pub missing: u64,
    /// Replies beyond the first for one request.
    pub duplicates: u64,
    /// Replies whose correlation id matches no request.
    pub unexpected: u64,
}

/// Matches `expected` `(corr, due_ns)` pairs with received
/// `(corr, recv_ns)` replies. A request's latency is its first reply's
/// receipt minus its due time, so a generator that runs late charges the
/// delay to the request, as an open-loop client must.
pub fn match_replies(expected: &[(u64, u64)], replies: &[(u64, u64)]) -> ReplyMatch {
    let mut first: HashMap<u64, u64> = HashMap::with_capacity(replies.len());
    let mut out = ReplyMatch::default();
    for &(corr, recv) in replies {
        match first.get_mut(&corr) {
            Some(seen) => {
                out.duplicates += 1;
                *seen = (*seen).min(recv);
            }
            None => {
                first.insert(corr, recv);
            }
        }
    }
    for &(corr, due) in expected {
        match first.get(&corr) {
            Some(&recv) => out.latencies_ns.push(recv.saturating_sub(due)),
            None => out.missing += 1,
        }
    }
    let asked: HashSet<u64> = expected.iter().map(|&(corr, _)| corr).collect();
    out.unexpected = first.keys().filter(|c| !asked.contains(c)).count() as u64;
    out.latencies_ns.sort_unstable();
    out
}
