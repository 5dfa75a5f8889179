//! Trace-driven fault plans.
//!
//! The paper grounds its rates in published failure studies (Google's
//! 1.2 h MTBF, LANL-style HPC logs). This module lets those logs drive
//! the simulation directly: a simple CSV format of
//! `failure_time_secs,node_index[,repair_secs]` lines parses into a
//! [`ClusterFaultPlan`], so measured traces can replace the synthetic
//! Poisson process everywhere a plan is accepted.
//!
//! Lines starting with `#` and blank lines are ignored; the optional
//! third column defaults to `default_repair`.

use std::fmt;

use dvdc_simcore::time::{Duration, SimTime};

use crate::injector::{ClusterFaultPlan, NodeFault};

/// Parse failures, reported with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceError {}

/// Parses a failure trace into a time-ordered fault plan.
///
/// Format, one event per line: `time_secs,node[,repair_secs]`.
pub fn parse_trace(input: &str, default_repair: Duration) -> Result<ClusterFaultPlan, TraceError> {
    let mut faults = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let at: f64 = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| TraceError {
                line: line_no,
                reason: "missing failure time".into(),
            })?
            .parse()
            .map_err(|_| TraceError {
                line: line_no,
                reason: "failure time must be a number of seconds".into(),
            })?;
        if !at.is_finite() || at < 0.0 {
            return Err(TraceError {
                line: line_no,
                reason: "failure time must be non-negative and finite".into(),
            });
        }
        let node: usize = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| TraceError {
                line: line_no,
                reason: "missing node index".into(),
            })?
            .parse()
            .map_err(|_| TraceError {
                line: line_no,
                reason: "node index must be an unsigned integer".into(),
            })?;
        let repair = match parts.next() {
            None | Some("") => default_repair,
            Some(r) => {
                let secs: f64 = r.parse().map_err(|_| TraceError {
                    line: line_no,
                    reason: "repair time must be a number of seconds".into(),
                })?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(TraceError {
                        line: line_no,
                        reason: "repair time must be non-negative and finite".into(),
                    });
                }
                Duration::from_secs(secs)
            }
        };
        if let Some(extra) = parts.next() {
            return Err(TraceError {
                line: line_no,
                reason: format!("unexpected trailing field '{extra}'"),
            });
        }
        faults.push(NodeFault::crash(node, SimTime::from_secs(at), repair));
    }
    Ok(ClusterFaultPlan::new(faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_trace() {
        let input = "\
# a comment
100.5,0
200,1,30

300,2
";
        let plan = parse_trace(input, Duration::from_secs(5.0)).unwrap();
        assert_eq!(plan.len(), 3);
        let f = plan.faults();
        assert_eq!(f[0].node, 0);
        assert_eq!(f[0].at.as_secs(), 100.5);
        assert_eq!(f[0].repair.as_secs(), 5.0); // default
        assert_eq!(f[1].repair.as_secs(), 30.0); // explicit
        assert_eq!(f[2].node, 2);
    }

    #[test]
    fn sorts_out_of_order_events() {
        let plan = parse_trace("50,1\n10,0\n", Duration::ZERO).unwrap();
        assert_eq!(plan.faults()[0].node, 0);
        assert_eq!(plan.faults()[1].node, 1);
    }

    #[test]
    fn empty_trace_is_empty_plan() {
        let plan = parse_trace("# nothing\n\n", Duration::ZERO).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("100,0\nnot-a-number,1\n", Duration::ZERO).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_trace("100\n", Duration::ZERO).unwrap_err();
        assert!(e.reason.contains("node index"));

        let e = parse_trace("-5,0\n", Duration::ZERO).unwrap_err();
        assert!(e.reason.contains("non-negative"));

        let e = parse_trace("1,2,3,4\n", Duration::ZERO).unwrap_err();
        assert!(e.reason.contains("trailing"));
    }
}
