//! Completions: work a hosted process hands to its disk, reported back
//! as a message into the incarnation that handed it off.
//!
//! A durable replica never syncs inside its own step: it hands the sync
//! to its disk, and learns that it is durable from one message delivered
//! like any other. Where that message may go is only known to the loop
//! stepping the process — which location, and which *incarnation* of it:
//! a completion posted for a process that has since crashed and
//! restarted must never reach the new one.
//!
//! So the route is ambient, not a runtime method: every loop that hosts
//! durable processes installs a [`CompletionSink`] on its thread
//! ([`install_sink`]) and runs every step inside [`stepping`]; a process
//! asks for [`route`] during its step and hands the [`Route`] to the
//! disk. A runtime decorator that wraps processes forwards their steps,
//! so the route survives it. A completion carries the time the work still
//! takes: a virtual disk's modeled fsync cost, which the simulator waits
//! out and the model checker ignores; zero from a file-backed disk's
//! syncer thread, which reports once the real fsync is done.

use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where a loop accepts completions, from its own thread or another:
/// `post` must deliver `msg` into `loc` `after` from now, only while
/// incarnation `epoch` runs there, and must not block.
pub trait CompletionSink: Send + Sync {
    /// Hands `msg` to the loop hosting `loc`, for incarnation `epoch`.
    fn post(&self, loc: Loc, epoch: u64, after: Duration, msg: Msg);
}

/// A completion as a [`Collected`] sink holds it.
pub type Posted = (Loc, u64, Duration, Msg);

/// The sink of a loop that steps its processes on one thread and keeps
/// its own time (the simulator, the model checker, a test stepping
/// replicas by hand): it holds what is posted until the loop takes it,
/// after the step.
#[derive(Default)]
pub struct Collected(Mutex<Vec<Posted>>);

impl Collected {
    /// Everything posted since the last call, in posting order.
    pub fn take(&self) -> Vec<Posted> {
        std::mem::take(&mut *self.0.lock().expect("completion sink"))
    }
}

impl CompletionSink for Collected {
    fn post(&self, loc: Loc, epoch: u64, after: Duration, msg: Msg) {
        let mut posted = self.0.lock().expect("completion sink");
        posted.push((loc, epoch, after, msg));
    }
}

thread_local! {
    static SINK: RefCell<Option<Arc<dyn CompletionSink>>> = const { RefCell::new(None) };
    static STEPPING: Cell<Option<(Loc, u64)>> = const { Cell::new(None) };
}

/// Makes `sink` the calling thread's completion sink: a loop calls this
/// before it steps hosted processes on the thread.
pub fn install_sink(sink: Arc<dyn CompletionSink>) {
    SINK.with(|s| *s.borrow_mut() = Some(sink));
}

/// Runs `step` as incarnation `epoch` of `loc`: [`route`] called inside
/// it addresses that incarnation.
pub fn stepping<T>(loc: Loc, epoch: u64, step: impl FnOnce() -> T) -> T {
    let outer = STEPPING.with(|s| s.replace(Some((loc, epoch))));
    let out = step();
    STEPPING.with(|s| s.set(outer));
    out
}

/// The route back into the incarnation being stepped on this thread, if
/// its loop carries completions.
pub fn route() -> Option<Route> {
    let (loc, epoch) = STEPPING.with(Cell::get)?;
    let sink = SINK.with(|s| s.borrow().clone())?;
    Some(Route { sink, loc, epoch })
}

/// A way back into one incarnation of one location, usable from any
/// thread.
#[derive(Clone)]
pub struct Route {
    sink: Arc<dyn CompletionSink>,
    loc: Loc,
    epoch: u64,
}

impl Route {
    /// Delivers `msg` to the incarnation this route was taken in,
    /// `after` from now; the hosting loop drops it if that incarnation is
    /// gone.
    pub fn post(&self, after: Duration, msg: Msg) {
        self.sink.post(self.loc, self.epoch, after, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_eventml::Value;

    /// A route exists only inside a step of a loop with a sink, and it
    /// names the incarnation being stepped — also when posted from another
    /// thread after the step ended.
    #[test]
    fn a_route_addresses_the_incarnation_it_was_taken_in() {
        assert!(stepping(Loc::new(1), 1, route).is_none(), "no sink yet");
        let log = Arc::new(Collected::default());
        install_sink(log.clone());
        assert!(route().is_none(), "outside a step");
        let r = stepping(Loc::new(4), 7, || {
            stepping(Loc::new(5), 2, route).and(route())
        });
        let r = r.expect("inside a step");
        assert!(route().is_none(), "the step ended");
        let after = Duration::from_micros(250);
        std::thread::spawn(move || r.post(after, Msg::new("done", Value::Int(1))))
            .join()
            .unwrap();
        let got = log.take();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, got[0].1, got[0].2), (Loc::new(4), 7, after));
        assert!(log.take().is_empty(), "taken once");
    }
}
