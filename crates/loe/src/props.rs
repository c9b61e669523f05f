//! Reusable correctness properties over traces.
//!
//! These are the checkable counterparts of the properties the paper states
//! in Nuprl: the `progress` (`strict_inc`) property of Sec. II-C2 and
//! Lamport's Clock Condition (Fig. 6). A violation is reported with the
//! offending pair of events so tests can print a counterexample.

use crate::event::EventOrder;
use crate::ids::EventId;

/// A violation of a trace property: the pair of events that witnesses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The earlier event of the offending pair.
    pub first: EventId,
    /// The later event of the offending pair.
    pub second: EventId,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "property violated by events {} and {}",
            self.first, self.second
        )
    }
}

/// Checks the EventML `progress … strict_inc` property: at every location,
/// the successive values `observe` produces strictly increase.
///
/// `observe` is an event class read off the trace: the bag of values it
/// produces at an event (for an EventML class, `eventml::denote`).
/// Returns the first violating pair, or `None` if the property holds.
pub fn check_strictly_increasing<M, T, F>(eo: &EventOrder<M>, observe: F) -> Option<Violation>
where
    T: Ord,
    F: Fn(&EventOrder<M>, EventId) -> Vec<T>,
{
    let locs: std::collections::BTreeSet<_> = eo.iter().map(|e| e.loc()).collect();
    for loc in locs {
        let mut last: Option<(EventId, T)> = None;
        for ev in eo.at(loc) {
            for v in observe(eo, ev.id()) {
                if let Some((pid, pv)) = &last {
                    if *pv >= v {
                        return Some(Violation {
                            first: *pid,
                            second: ev.id(),
                        });
                    }
                }
                last = Some((ev.id(), v));
            }
        }
    }
    None
}

/// Checks Lamport's Clock Condition: for every pair of events where `lc`
/// assigns a clock, `e1 → e2` implies `lc(e1) < lc(e2)`.
///
/// `lc` returns `None` for events without a clock (e.g. events the protocol
/// does not recognize). Quadratic in trace length; intended for tests.
pub fn check_clock_condition<M, T, F>(eo: &EventOrder<M>, lc: F) -> Option<Violation>
where
    T: Ord,
    F: Fn(&EventOrder<M>, EventId) -> Option<T>,
{
    let clocked: Vec<(EventId, T)> = (0..eo.len() as u32)
        .map(EventId::new)
        .filter_map(|e| lc(eo, e).map(|v| (e, v)))
        .collect();
    for (i, (e1, c1)) in clocked.iter().enumerate() {
        for (e2, c2) in &clocked[i + 1..] {
            if eo.happens_before(*e1, *e2) && c1 >= c2 {
                return Some(Violation {
                    first: *e1,
                    second: *e2,
                });
            }
            if eo.happens_before(*e2, *e1) && c2 >= c1 {
                return Some(Violation {
                    first: *e2,
                    second: *e1,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Loc, VTime};

    /// A CLK message: (value, timestamp).
    type ClkMsg = (&'static str, i64);

    fn l(i: u32) -> Loc {
        Loc::new(i)
    }
    fn t(us: u64) -> VTime {
        VTime::from_micros(us)
    }

    /// Folds `update(timestamp, clock)` over the events at `loc(e)` up to
    /// and including `e`, from clock 0: a `State` class over every message.
    fn fold(eo: &EventOrder<ClkMsg>, e: EventId, update: fn(i64, i64) -> i64) -> i64 {
        eo.at(eo.event(e).loc())
            .take_while(|ev| ev.id() <= e)
            .fold(0, |clk, ev| update(ev.msg().1, clk))
    }

    /// Lamport's clock: `imax(timestamp, clock) + 1`.
    fn lamport(eo: &EventOrder<ClkMsg>, e: EventId) -> Vec<i64> {
        vec![fold(eo, e, |ts, clk| ts.max(clk) + 1)]
    }

    /// A causally consistent exchange: clocks satisfy both properties.
    #[test]
    fn lamport_clocks_satisfy_both_properties() {
        let mut eo: EventOrder<ClkMsg> = EventOrder::new();
        // loc0 receives external input (ts 0), then sends to loc1 with its
        // clock; loc1's receive event carries that timestamp, and so on.
        let e0 = eo.record(l(0), t(1), ("init", 0), None, None);
        let e1 = eo.record(l(1), t(2), ("fwd", 1), Some(e0), Some(l(0)));
        eo.record(l(0), t(3), ("back", 2), Some(e1), Some(l(1)));
        assert_eq!(check_strictly_increasing(&eo, lamport), None);
        let cond = check_clock_condition(&eo, |eo, e| lamport(eo, e).pop());
        assert_eq!(cond, None);
    }

    /// A "broken clock" that ignores message timestamps violates the Clock
    /// Condition — the checker must find the witness pair.
    #[test]
    fn broken_clock_detected() {
        let mut eo: EventOrder<ClkMsg> = EventOrder::new();
        let e0 = eo.record(l(0), t(1), ("a", 0), None, None);
        let e1 = eo.record(l(0), t(2), ("b", 0), None, None);
        let e2 = eo.record(l(1), t(3), ("c", 0), Some(e1), Some(l(0)));
        // Broken: clock = number of local events, ignoring timestamps.
        let counting = |eo: &EventOrder<ClkMsg>, e| Some(fold(eo, e, |_ts, clk| clk + 1));
        // loc1's first event yields clock 1 although e0 → e1 → e2 and e0
        // already has clock 1; the checker reports the first such pair.
        assert_eq!(
            check_clock_condition(&eo, counting),
            Some(Violation {
                first: e0,
                second: e2
            })
        );
    }

    #[test]
    fn non_monotone_state_detected() {
        let mut eo: EventOrder<ClkMsg> = EventOrder::new();
        let e0 = eo.record(l(0), t(1), ("a", 10), None, None);
        let e1 = eo.record(l(0), t(2), ("b", 0), None, None);
        // A "clock" that just echoes the message timestamp can go backwards.
        let echo = |eo: &EventOrder<ClkMsg>, e| vec![fold(eo, e, |ts, _clk| ts)];
        assert_eq!(
            check_strictly_increasing(&eo, echo),
            Some(Violation {
                first: e0,
                second: e1
            })
        );
    }
}
