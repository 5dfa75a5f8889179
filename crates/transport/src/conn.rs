//! Per-peer connection state machine: dial with retry, typed errors.
//!
//! Reconnect pacing reuses the cluster's
//! [`RetryPolicy`](dvdc_vcluster::messaging::RetryPolicy) — the same
//! exponential backoff-with-deterministic-jitter schedule the sim's
//! transfer layer uses, so deployment and simulation share one retry
//! model. Jitter is seeded per-(node, peer), so two nodes re-dialing the
//! same restarted peer do not thundering-herd in lockstep yet every run
//! with the same seed paces identically.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use dvdc_simcore::time::Duration;
use dvdc_vcluster::messaging::RetryPolicy;

/// Typed dial failures.
#[derive(Debug)]
pub enum ConnectError {
    /// Every attempt allowed by the policy failed; carries the last OS
    /// error.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// The error from the final attempt.
        last: std::io::Error,
        /// True when every attempt was answered `ConnectionRefused` (the host
        /// is up, nothing listens); one timeout or reset leaves it false.
        all_refused: bool,
    },
    /// The caller asked for zero attempts — nothing was tried.
    NoAttempts,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Exhausted { attempts, last, .. } => {
                write!(f, "connect failed after {attempts} attempts: {last}")
            }
            ConnectError::NoAttempts => write!(f, "connect policy allows zero attempts"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Convert a simcore [`Duration`] (f64 seconds) into a std sleep
/// duration, clamping negatives to zero.
fn to_std(d: Duration) -> StdDuration {
    StdDuration::from_secs_f64(d.as_secs().max(0.0))
}

/// Dial, retrying per `policy` with jittered backoff between attempts.
/// `dial` and `sleep` are injected so tests can script the outcome of each
/// attempt and record the schedule instead of blocking; production passes
/// `TcpStream::connect_timeout` and `std::thread::sleep`.
/// On success, also reports the number of attempts the dial took
/// (1 = first try) so callers can count retries.
fn connect_with_retry_using<D, S>(
    policy: &RetryPolicy,
    seed: u64,
    mut dial: D,
    mut sleep: S,
) -> Result<(TcpStream, u32), ConnectError>
where
    D: FnMut() -> std::io::Result<TcpStream>,
    S: FnMut(StdDuration),
{
    if policy.max_attempts == 0 {
        return Err(ConnectError::NoAttempts);
    }
    let mut last: Option<std::io::Error> = None;
    let mut all_refused = true;
    for attempt in 1..=policy.max_attempts {
        if attempt > 1 {
            sleep(to_std(policy.backoff_with_jitter(attempt - 1, seed)));
        }
        match dial() {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok((stream, attempt));
            }
            Err(e) => {
                all_refused &= e.kind() == std::io::ErrorKind::ConnectionRefused;
                last = Some(e);
            }
        }
    }
    Err(ConnectError::Exhausted {
        attempts: policy.max_attempts,
        last: last.expect("max_attempts >= 1 guarantees at least one dial error"),
        all_refused,
    })
}

/// Dial `addr`, retrying per `policy` with real `sleep` backoff.
pub fn connect_with_retry(
    addr: SocketAddr,
    policy: &RetryPolicy,
    seed: u64,
    connect_timeout: StdDuration,
) -> Result<(TcpStream, u32), ConnectError> {
    let dial = || TcpStream::connect_timeout(&addr, connect_timeout);
    connect_with_retry_using(policy, seed, dial, std::thread::sleep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn policy(attempts: u32, base_ms: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_millis(base_ms),
        }
    }

    #[test]
    fn backoff_exponent_is_capped_not_overflowing() {
        let p = policy(200, 2.0);
        // backoff_for caps the exponent at 30 — a huge attempt number
        // must not overflow or go non-finite, jittered or not.
        let capped = p.backoff_for(100);
        assert_eq!(capped, p.backoff_for(31));
        let j = p.backoff_with_jitter(100, 9);
        assert!(j.as_secs().is_finite() && j.as_secs() > 0.0);
        assert!(j.as_secs() < capped.as_secs() * 1.5 + 1e-9);
    }

    #[test]
    fn connect_sleeps_exactly_the_published_schedule_then_exhausts() {
        // A listener that was bound and dropped: the port is (almost
        // certainly) closed, so every dial fails fast with refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let p = policy(3, 1.0);
        let mut slept = Vec::new();
        let dial = || TcpStream::connect_timeout(&addr, StdDuration::from_millis(200));
        let res = connect_with_retry_using(&p, 42, dial, |d| slept.push(d));
        match res {
            // Nothing listens there and the host is up: every attempt is
            // refused, which is what makes an exhausted dial evidence.
            Err(ConnectError::Exhausted {
                attempts,
                all_refused,
                ..
            }) => assert_eq!((attempts, all_refused), (3, true)),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        let expected: Vec<StdDuration> = (1..3)
            .map(|attempt| to_std(p.backoff_with_jitter(attempt, 42)))
            .collect();
        assert_eq!(slept, expected);
    }

    #[test]
    fn connect_succeeds_against_live_listener_without_sleeping() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let mut slept = Vec::new();
        let dial = || TcpStream::connect_timeout(&addr, StdDuration::from_millis(500));
        let res = connect_with_retry_using(&policy(3, 1.0), 7, dial, |d| slept.push(d));
        let (_, attempts) = res.expect("live listener accepts");
        assert_eq!(attempts, 1, "first attempt succeeded");
        assert!(slept.is_empty(), "first attempt succeeded, no backoff due");
    }

    #[test]
    fn one_attempt_that_is_not_refused_makes_an_exhausted_dial_no_evidence() {
        // A partition (timeout) or a reset among the refusals: the peer's
        // host may be unreachable rather than its process gone.
        use std::io::ErrorKind::{ConnectionRefused, ConnectionReset, TimedOut};
        for (script, want) in [
            (
                [ConnectionRefused, ConnectionRefused, ConnectionRefused],
                true,
            ),
            ([ConnectionRefused, TimedOut, ConnectionRefused], false),
            (
                [ConnectionRefused, ConnectionRefused, ConnectionReset],
                false,
            ),
            ([TimedOut, TimedOut, TimedOut], false),
        ] {
            let mut script = script.into_iter();
            let dial = || Err(script.next().expect("three attempts").into());
            match connect_with_retry_using(&policy(3, 1.0), 1, dial, |_| {}) {
                Err(ConnectError::Exhausted { all_refused, .. }) => assert_eq!(all_refused, want),
                other => panic!("expected Exhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_attempt_policy_is_typed() {
        let dial = || panic!("a zero-attempt policy never dials");
        let res = connect_with_retry_using(&policy(0, 1.0), 0, dial, |_| {});
        assert!(matches!(res, Err(ConnectError::NoAttempts)));
    }
}
