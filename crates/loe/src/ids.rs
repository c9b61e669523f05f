//! Core identifiers shared by the whole stack: locations, event ids, and
//! virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// The location ("space" coordinate) of an event: a process identity.
///
/// Locations are small copyable handles; a distributed system is described by
/// a bag of locations (the `locs` parameter of an EventML specification).
///
/// # Example
///
/// ```
/// use shadowdb_loe::Loc;
/// let acceptor = Loc::new(2);
/// assert_eq!(acceptor.index(), 2);
/// assert_eq!(acceptor.to_string(), "loc2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Loc(u32);

impl Loc {
    /// Creates a location from its numeric index.
    pub const fn new(index: u32) -> Self {
        Loc(index)
    }

    /// Returns the numeric index of this location.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Enumerates the first `n` locations: `loc0, loc1, …`.
    pub fn first_n(n: u32) -> Vec<Loc> {
        (0..n).map(Loc::new).collect()
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

impl From<u32> for Loc {
    fn from(index: u32) -> Self {
        Loc(index)
    }
}

/// Identifies one event within an [`EventOrder`](crate::EventOrder).
///
/// Event ids are indices into the trace that recorded them; they are only
/// meaningful relative to that trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u32);

impl EventId {
    /// Creates an event id from a raw trace index.
    pub const fn new(index: u32) -> Self {
        EventId(index)
    }

    /// Returns the raw trace index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Virtual time, in microseconds since the start of a run.
///
/// All simulated clocks in the repository use this single representation so
/// that traces, schedules, and measurements compose without conversion.
///
/// # Example
///
/// ```
/// use shadowdb_loe::VTime;
/// use std::time::Duration;
///
/// let t = VTime::from_millis(3) + Duration::from_micros(500);
/// assert_eq!(t.as_micros(), 3_500);
/// assert_eq!(t.as_secs_f64(), 0.0035);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(u64);

impl VTime {
    /// The origin of virtual time.
    pub const ZERO: VTime = VTime(0);

    /// A time far beyond any simulated horizon.
    pub const MAX: VTime = VTime(u64::MAX);

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VTime(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        VTime(s * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be finite and non-negative"
        );
        VTime((s * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction of another instant, as a duration.
    pub fn saturating_since(self, earlier: VTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for VTime {
    type Output = VTime;
    fn add(self, rhs: Duration) -> VTime {
        VTime(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for VTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<VTime> for VTime {
    type Output = Duration;
    fn sub(self, rhs: VTime) -> Duration {
        Duration::from_micros(
            self.0
                .checked_sub(rhs.0)
                .expect("VTime subtraction underflow"),
        )
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_roundtrip_and_display() {
        let l = Loc::new(7);
        assert_eq!(l.index(), 7);
        assert_eq!(format!("{l}"), "loc7");
        assert_eq!(Loc::from(7u32), l);
    }

    #[test]
    fn loc_first_n_enumerates() {
        let ls = Loc::first_n(3);
        assert_eq!(ls, vec![Loc::new(0), Loc::new(1), Loc::new(2)]);
    }

    #[test]
    fn vtime_arithmetic() {
        let t = VTime::from_millis(2);
        let u = t + Duration::from_micros(10);
        assert_eq!(u.as_micros(), 2_010);
        assert_eq!(u - t, Duration::from_micros(10));
        assert_eq!(u.saturating_since(t), Duration::from_micros(10));
        assert_eq!(t.saturating_since(u), Duration::ZERO);
    }

    #[test]
    fn vtime_from_secs_f64_rounds() {
        assert_eq!(VTime::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(VTime::from_secs(3).as_secs_f64(), 3.0);
    }

    #[test]
    #[should_panic]
    fn vtime_negative_rejected() {
        let _ = VTime::from_secs_f64(-1.0);
    }

    #[test]
    fn vtime_ordering() {
        assert!(VTime::ZERO < VTime::from_micros(1));
        assert!(VTime::from_micros(1) < VTime::MAX);
    }

    #[test]
    fn event_id_index() {
        assert_eq!(EventId::new(5).index(), 5);
        assert_eq!(format!("{}", EventId::new(5)), "e5");
    }
}
