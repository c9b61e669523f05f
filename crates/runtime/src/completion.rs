//! Completions: work a hosted process hands to another thread, reported
//! back as a message into the incarnation that handed it off.
//!
//! A durable replica's fsync runs on its disk's syncer thread, not on the
//! loop that steps the replica; when it finishes, the replica learns so
//! from one message delivered like any other. Where that message may go
//! is only known to the loop stepping the process — which location, and
//! which *incarnation* of it: a completion posted for a process that has
//! since crashed and restarted must never reach the new one.
//!
//! So the route is ambient, not a runtime method: a loop that can carry
//! completions installs a [`CompletionSink`] on its thread once
//! ([`install_sink`]) and runs every step inside [`stepping`]; a process
//! asks for [`route`] during its step and hands the [`Route`] to the
//! worker. A runtime decorator that wraps processes forwards their steps,
//! so the route survives it. Substrates that install no sink (the
//! simulator, the model checker) return `None`: their storage is
//! [`crate::StorageMode::Virtual`], which completes inline.

use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Where a loop accepts completions from other threads: `post` must
/// deliver `msg` into `loc` only while incarnation `epoch` runs there, and
/// must not block.
pub trait CompletionSink: Send + Sync {
    /// Hands `msg` to the loop hosting `loc`, for incarnation `epoch`.
    fn post(&self, loc: Loc, epoch: u64, msg: Msg);
}

thread_local! {
    static SINK: RefCell<Option<Arc<dyn CompletionSink>>> = const { RefCell::new(None) };
    static STEPPING: Cell<Option<(Loc, u64)>> = const { Cell::new(None) };
}

/// Makes `sink` the calling thread's completion sink: the loop thread that
/// steps hosted processes calls this once, before its first step.
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
    /// Delivers `msg` to the incarnation this route was taken in; the
    /// hosting loop drops it if that incarnation is gone.
    pub fn post(&self, msg: Msg) {
        self.sink.post(self.loc, self.epoch, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_eventml::Value;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Log(Mutex<Vec<(Loc, u64, Msg)>>);

    impl CompletionSink for Log {
        fn post(&self, loc: Loc, epoch: u64, msg: Msg) {
            self.0.lock().unwrap().push((loc, epoch, msg));
        }
    }

    /// A route exists only inside a step of a loop with a sink, and it
    /// names the incarnation being stepped — also when posted from another
    /// thread after the step ended.
    #[test]
    fn a_route_addresses_the_incarnation_it_was_taken_in() {
        assert!(stepping(Loc::new(1), 1, route).is_none(), "no sink yet");
        let log = Arc::new(Log::default());
        install_sink(log.clone());
        assert!(route().is_none(), "outside a step");
        let r = stepping(Loc::new(4), 7, || {
            stepping(Loc::new(5), 2, route).and(route())
        });
        let r = r.expect("inside a step");
        assert!(route().is_none(), "the step ended");
        std::thread::spawn(move || r.post(Msg::new("done", Value::Int(1))))
            .join()
            .unwrap();
        let got = log.0.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, got[0].1), (Loc::new(4), 7));
    }
}
