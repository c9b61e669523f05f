//! Outbound-link machinery: the vectored-write frame queue every link
//! drains through, the per-destination link state the shard event loops
//! own, and the seeded reconnect backoff.
//!
//! A link is a single TCP stream written by a single shard thread, so
//! frames on one link arrive in FIFO order. All sends go through the
//! link's [`OutQueue`]: a send only pushes its frame and marks the link
//! dirty, and the shard drains every dirty link with `writev` — at the
//! end of the loop turn, after any step longer than its `LONG_STEP`, or
//! as soon as a full `writev` batch (`MAX_IOV` frames) is queued — so
//! the frames of a turn's short steps share one vectored syscall. When
//! the kernel pushes back (`EAGAIN` mid-frame) the queue keeps the tail
//! and the shard parks the link on write-readiness; when a link is
//! severed by the fault plane or its peer is down, frames park in the
//! queue — bounded by [`PENDING_CAP`] with drop-oldest eviction — until
//! reconnect.
//!
//! # Retransmit discipline
//!
//! The queue tracks a byte offset into its *front* frame only. On a
//! broken connection the offset resets to zero: the peer's half-read
//! frame died with its connection (readers discard partial tails on
//! EOF), so the reconnect retransmits the whole front frame on the fresh
//! stream — the same at-least-once contract the threaded runtime had.
//! Eviction never removes a partially written front frame, which would
//! desynchronize the stream.

use crate::registry::{bump, Counters, Registry};
use shadowdb_runtime::fault::mix64;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// First reconnect delay; doubles per failed attempt up to
/// [`BACKOFF_CAP`], plus a seeded jitter.
const BACKOFF_START: Duration = Duration::from_millis(1);
/// Ceiling on the backoff between connection attempts.
const BACKOFF_CAP: Duration = Duration::from_millis(50);
/// Maximum frames parked per link while it is down. When full, the
/// *oldest* evictable frame is removed (and counted as dropped):
/// protocols assume fair-lossy links at worst, and the newest frames are
/// the ones whose delivery still matters after a long outage.
pub const PENDING_CAP: usize = 1024;
/// Most slices handed to one `writev` — also the shard's eager-flush
/// threshold, since batching more frames than one `writev` can take buys
/// nothing.
pub(crate) const MAX_IOV: usize = 64;
/// Largest recycled frame buffer the pool keeps.
const POOL_BUF_CAP: usize = 64 * 1024;
/// Most buffers the recycle pool holds.
const POOL_LEN: usize = 32;

/// The delay before reconnect attempt `attempt` of the `(origin, dest)`
/// link: capped exponential backoff plus a jitter that is a pure function
/// of the deployment seed — chaos-soak reconnect schedules are
/// byte-identical across runs with the same seed (simnet derives its
/// jitter the same way).
pub(crate) fn backoff_delay(seed: u64, origin: u32, dest: u32, attempt: u32) -> Duration {
    let base = BACKOFF_START
        .saturating_mul(1u32 << attempt.min(6))
        .min(BACKOFF_CAP);
    let salt = seed ^ ((origin as u64) << 40) ^ ((dest as u64) << 8) ^ attempt as u64;
    let jitter_us = mix64(salt) % (base.as_micros() as u64 / 4 + 1);
    base + Duration::from_micros(jitter_us)
}

/// A FIFO queue of encoded frames drained with vectored writes.
///
/// Public (and separable from any socket) so the equivalence proptests
/// can drive it against scripted writers that short-write and `EAGAIN`
/// mid-frame.
pub struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written on the *current*
    /// connection. Reset by [`OutQueue::reset_front`] when the connection
    /// breaks.
    front_off: usize,
    /// Recycled frame buffers: steady-state pushes allocate nothing.
    pool: Vec<Vec<u8>>,
}

impl OutQueue {
    /// An empty queue.
    pub fn new() -> OutQueue {
        OutQueue {
            frames: VecDeque::new(),
            front_off: 0,
            pool: Vec::new(),
        }
    }

    /// Whether no frame (or frame tail) remains to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queued frames (a partially written front frame counts).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Appends one encoded frame, evicting the oldest *evictable* frame
    /// when the queue is at [`PENDING_CAP`]. Returns whether an eviction
    /// happened (the caller counts it as a dropped frame). A partially
    /// written front frame is never evicted — removing it would leave the
    /// peer mid-frame and desynchronize the stream.
    pub fn push(&mut self, frame: &[u8]) -> bool {
        let evicted = if self.frames.len() >= PENDING_CAP {
            let idx = if self.front_off > 0 { 1 } else { 0 };
            match self.frames.remove(idx) {
                Some(old) => {
                    self.recycle(old);
                    true
                }
                None => false,
            }
        } else {
            false
        };
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.frames.push_back(buf);
        evicted
    }

    /// Writes queued bytes to `w` with `writev` until the queue drains or
    /// the writer refuses, and returns how many frames it finished and how
    /// many `writev` calls wrote bytes. `Ok` covers both outcomes — check
    /// [`OutQueue::is_empty`]; a nonempty queue after `Ok` means
    /// `WouldBlock` and the caller should wait for write readiness.
    ///
    /// # Errors
    ///
    /// A hard I/O error means the connection is gone; the caller drops it
    /// and calls [`OutQueue::reset_front`] before the retransmit. Frames
    /// finished and writes made before the error are not reported.
    pub fn flush_into<W: Write + ?Sized>(&mut self, w: &mut W) -> io::Result<(u64, u64)> {
        let (mut finished, mut writes) = (0, 0);
        while !self.frames.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.frames.len().min(MAX_IOV));
            for (i, f) in self.frames.iter().take(MAX_IOV).enumerate() {
                let s = if i == 0 { &f[self.front_off..] } else { &f[..] };
                slices.push(IoSlice::new(s));
            }
            match w.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    finished += self.consume(n);
                    writes += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((finished, writes)),
                Err(e) => return Err(e),
            }
        }
        Ok((finished, writes))
    }

    /// Marks `n` written bytes consumed: whole frames recycle to the
    /// pool, a partial front frame advances its offset. Returns the number
    /// of frames finished.
    fn consume(&mut self, mut n: usize) -> u64 {
        let mut finished = 0;
        while n > 0 {
            let front_len = self.frames[0].len() - self.front_off;
            if n >= front_len {
                n -= front_len;
                let old = self.frames.pop_front().expect("front exists");
                self.recycle(old);
                self.front_off = 0;
                finished += 1;
            } else {
                self.front_off += n;
                n = 0;
            }
        }
        finished
    }

    /// Forgets the partial-write offset: the next flush retransmits the
    /// front frame from its first byte (called when a connection breaks —
    /// the peer discarded the partial tail with the dead connection).
    pub fn reset_front(&mut self) {
        self.front_off = 0;
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_LEN && buf.capacity() <= POOL_BUF_CAP {
            self.pool.push(buf);
        }
    }
}

impl Default for OutQueue {
    fn default() -> OutQueue {
        OutQueue::new()
    }
}

/// The outbound state of one `(origin, dest)` link, owned by the
/// origin's shard. All I/O on it happens on that shard's event loop: the
/// connection stays registered read-side (immediate peer-close
/// detection) and write interest is armed exactly while `queue` is
/// nonempty — a level-triggered poller would spin on an always-writable
/// idle socket otherwise.
pub struct OutLink {
    /// Established nonblocking stream, `None` until first use or after a
    /// break.
    pub conn: Option<TcpStream>,
    /// Frames not yet fully written.
    pub queue: OutQueue,
    /// The poller token while the connection is registered.
    pub token: Option<usize>,
    /// Whether write interest is currently armed on `token`.
    pub write_armed: bool,
    /// Whether the link is on its shard's deferred-flush list. Sends only
    /// queue frames; the shard flushes every dirty link at the end of the
    /// loop turn, or right after a step longer than `LONG_STEP`, so a
    /// burst of short steps' sends leaves in one `writev`.
    pub dirty: bool,
    /// Earliest instant the next connection attempt is permitted.
    pub next_attempt: Instant,
    /// Consecutive failed connection attempts (the backoff exponent).
    pub attempts: u32,
    /// Whether this link ever connected (distinguishes a *re*connect).
    pub ever_connected: bool,
}

impl OutLink {
    /// A fresh, unconnected link.
    pub fn new() -> OutLink {
        OutLink {
            conn: None,
            queue: OutQueue::new(),
            token: None,
            write_armed: false,
            dirty: false,
            next_attempt: Instant::now(),
            attempts: 0,
            ever_connected: false,
        }
    }
}

/// One connection attempt for the `(origin, dest)` link, gated by the
/// seeded backoff. On success the stream is nonblocking with Nagle off
/// and `link.conn` is set; a reconnect is counted in the caller's
/// `counters`. Returns whether the link is now connected.
pub fn try_connect(
    registry: &Registry,
    counters: &Counters,
    origin: u32,
    dest: u32,
    link: &mut OutLink,
) -> bool {
    let now = Instant::now();
    if now < link.next_attempt || registry.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    let Some(addr) = registry.addr_of(dest) else {
        return false;
    };
    match TcpStream::connect(addr) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_nonblocking(true);
            if link.ever_connected {
                bump(&counters.reconnects, 1);
            }
            link.ever_connected = true;
            link.attempts = 0;
            link.conn = Some(stream);
            true
        }
        Err(_) => {
            link.next_attempt = now + backoff_delay(registry.seed, origin, dest, link.attempts);
            link.attempts = link.attempts.saturating_add(1);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_drains_in_order_through_short_writes() {
        struct ShortWriter {
            out: Vec<u8>,
            budget: usize,
        }
        impl Write for ShortWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.budget);
                if n == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut q = OutQueue::new();
        let mut want = Vec::new();
        for i in 0..10u8 {
            let frame = vec![i; 100 + i as usize];
            want.extend_from_slice(&frame);
            q.push(&frame);
        }
        let mut w = ShortWriter {
            out: Vec::new(),
            budget: 7,
        };
        while !q.is_empty() {
            q.flush_into(&mut w).unwrap();
        }
        assert_eq!(w.out, want);
    }

    #[test]
    fn eviction_skips_partially_written_front_frame() {
        let mut q = OutQueue::new();
        for i in 0..PENDING_CAP {
            q.push(&[i as u8; 8]);
        }
        // Write 3 bytes of the front frame, then hit the cap.
        struct Tiny {
            spent: bool,
        }
        impl Write for Tiny {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.spent {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.spent = true;
                Ok(buf.len().min(3))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        q.flush_into(&mut Tiny { spent: false }).ok();
        assert_eq!(q.front_off, 3);
        assert!(q.push(&[0xAB; 8]), "push at cap must evict");
        // The front frame (partially on the wire) must survive.
        assert_eq!(q.frames[0], vec![0u8; 8]);
        assert_eq!(q.front_off, 3);
    }

    #[test]
    fn seeded_backoff_is_deterministic_and_capped() {
        for attempt in 0..12 {
            assert_eq!(
                backoff_delay(7, 1, 2, attempt),
                backoff_delay(7, 1, 2, attempt)
            );
            assert!(backoff_delay(7, 1, 2, attempt) <= BACKOFF_CAP + BACKOFF_CAP / 4);
        }
        assert_ne!(backoff_delay(7, 1, 2, 3), backoff_delay(8, 1, 2, 3));
    }
}
