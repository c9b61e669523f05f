//! Logic of Events (LoE): the specification side of the EventML methodology.
//!
//! The paper reasons about distributed programs using the *Logic of Events*,
//! where events are abstract points in space/time: the "space" aspect is the
//! location at which an event occurs, and the "time" aspect is a well-founded
//! causal order. An *event class* is a function from events (in the context
//! of an event ordering) to bags of values.
//!
//! This crate implements that model operationally:
//!
//! * [`Loc`], [`EventId`], [`VTime`] — identifiers shared by the whole stack;
//! * [`EventOrder`] — a concrete event ordering (a trace) recording, for each
//!   event, its location, time, message, and the event that caused it;
//! * [`causal`] — Lamport's happens-before and LoE's causal-order relations;
//! * [`props`] — reusable property checkers (progress, clock condition),
//!   each over an observer closure that reads a value off an event.
//!
//! The meaning of an event class over a trace is given once, by
//! `shadowdb_eventml::denote`; the generated programs are checked
//! trace-by-trace against it (`gpm_complies_with_loe` in
//! `shadowdb-eventml`), and the checkers here take that reading as their
//! observer.
//!
//! # Example
//!
//! ```
//! use shadowdb_loe::{EventOrder, Loc, VTime};
//!
//! let a = Loc::new(0);
//! let b = Loc::new(1);
//! let mut eo: EventOrder<&'static str> = EventOrder::new();
//! let e1 = eo.record(a, VTime::from_micros(10), "ping", None, None);
//! let e2 = eo.record(b, VTime::from_micros(25), "pong", Some(e1), Some(a));
//! assert!(eo.happens_before(e1, e2));
//! assert!(!eo.happens_before(e2, e1));
//! ```

pub mod causal;
pub mod event;
pub mod ids;
pub mod props;

pub use event::{Event, EventOrder};
pub use ids::{EventId, Loc, VTime};
