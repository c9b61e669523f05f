//! The binary wire format for values and messages, plus length-prefixed
//! framing.
//!
//! This module is the **single codec boundary** of the system: everything
//! that crosses a byte boundary — TCP links in `shadowdb-tcpnet`, the
//! ~50 KB state-transfer batches of Fig. 10(b), and the 140-byte payloads
//! of the broadcast-service benchmark (Fig. 8) — goes through
//! `encode_msg_into` and `decode_msg` with [`FrameEncoder`]/[`FrameReader`]
//! supplying frame boundaries on top.
//!
//! # Robustness contract
//!
//! Decoding is **total** on arbitrary bytes: it never panics and never
//! sizes an allocation from an untrusted length prefix. Every claimed
//! length is checked against the bytes actually remaining before anything
//! is allocated ([`DecodeError::LengthOverflow`]), value nesting is
//! bounded by [`MAX_DEPTH`] ([`DecodeError::TooDeep`]), and frames are
//! bounded by the reader's configured maximum
//! ([`DecodeError::FrameTooLarge`]). Encoding of any [`Value`] the system
//! can construct within [`MAX_DEPTH`] round-trips exactly.
//!
//! # Allocation discipline
//!
//! [`FrameEncoder`] owns a per-connection scratch [`BytesMut`]; in steady
//! state an encode clears and refills it in place, so sending allocates
//! nothing (DESIGN §7). Decoding allocates only the `Value` tree it
//! returns.

use crate::value::{Header, Msg, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use shadowdb_loe::Loc;
use std::fmt;

/// Deepest value nesting the decoder accepts (and the encoder is expected
/// to produce). Protocol messages are a handful of levels deep; the bound
/// exists so adversarial input cannot trigger unbounded recursion.
pub const MAX_DEPTH: u32 = 128;

/// Longest header name the message decoder accepts. Headers name protocol
/// message kinds and are interned into a global, never-freed symbol table,
/// so unbounded attacker-chosen names would be a memory leak.
pub const MAX_HEADER_LEN: usize = 256;

/// Default cap on a single frame's payload, sized to fit the largest
/// legitimate message (state-transfer batches are ~50 KB) with two orders
/// of magnitude of headroom.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// An error decoding a value, message, or frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix claims more bytes or elements than could possibly
    /// remain in the buffer — the decoder refuses before allocating.
    LengthOverflow {
        /// What the prefix claimed.
        claimed: u64,
        /// Bytes actually remaining after the prefix.
        remaining: usize,
    },
    /// Value nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// A message header name exceeded [`MAX_HEADER_LEN`].
    HeaderTooLong(usize),
    /// A frame's length prefix exceeded the reader's configured maximum.
    FrameTooLarge {
        /// What the frame header claimed.
        claimed: usize,
        /// The reader's cap.
        max: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown type tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::LengthOverflow { claimed, remaining } => write!(
                f,
                "length prefix claims {claimed} with only {remaining} bytes remaining"
            ),
            DecodeError::TooDeep => write!(f, "value nesting exceeds {MAX_DEPTH}"),
            DecodeError::HeaderTooLong(n) => {
                write!(f, "header name of {n} bytes exceeds {MAX_HEADER_LEN}")
            }
            DecodeError::FrameTooLarge { claimed, max } => {
                write!(f, "frame of {claimed} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_LOC: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_PAIR: u8 = 6;
const TAG_LIST: u8 = 7;

/// Appends the encoding of `v` to `buf`.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Unit => buf.put_u8(TAG_UNIT),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Loc(l) => {
            buf.put_u8(TAG_LOC);
            buf.put_u32_le(l.index());
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Pair(p) => {
            buf.put_u8(TAG_PAIR);
            encode_value(&p.0, buf);
            encode_value(&p.1, buf);
        }
        Value::List(l) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32_le(l.len() as u32);
            for item in l.iter() {
                encode_value(item, buf);
            }
        }
    }
}

/// Appends the encoding of `Value::pair(first, Value::Bytes(b))`, where `b`
/// is whatever `second` appends: a large payload is written in place, not
/// built apart and copied in.
pub fn encode_pair_with_bytes(
    first: &Value,
    buf: &mut BytesMut,
    second: impl FnOnce(&mut BytesMut),
) {
    buf.put_u8(TAG_PAIR);
    encode_value(first, buf);
    buf.put_u8(TAG_BYTES);
    let at = buf.len();
    buf.put_u32_le(0);
    second(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes one value from the front of `buf`, advancing it.
///
/// Total on arbitrary input: never panics, never allocates proportionally
/// to an unvalidated length prefix.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is truncated, malformed, claims
/// impossible lengths, or nests deeper than [`MAX_DEPTH`].
pub fn decode_value(buf: &mut Bytes) -> Result<Value, DecodeError> {
    decode_value_at(buf, 0)
}

fn decode_value_at(buf: &mut Bytes, depth: u32) -> Result<Value, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    match tag {
        TAG_UNIT => Ok(Value::Unit),
        TAG_BOOL => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        TAG_INT => {
            need(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_LOC => {
            need(buf, 4)?;
            Ok(Value::Loc(Loc::new(buf.get_u32_le())))
        }
        TAG_STR => {
            // Borrowing decode: the string is a zero-copy UTF-8 view of
            // the input (validated once), sharing its storage.
            let len = claimed_len(buf)?;
            let raw = buf.split_to(len);
            let s = crate::value::SharedStr::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
            Ok(Value::Str(s))
        }
        TAG_BYTES => {
            // Zero-copy: the payload body aliases the input.
            let len = claimed_len(buf)?;
            Ok(Value::Bytes(buf.split_to(len)))
        }
        TAG_PAIR => {
            let a = decode_value_at(buf, depth + 1)?;
            let b = decode_value_at(buf, depth + 1)?;
            Ok(Value::pair(a, b))
        }
        TAG_LIST => {
            // Every element occupies at least one byte (its tag), so a
            // claimed element count above the remaining byte count is a lie;
            // reject it *before* anything is sized from it. Even a truthful
            // count only bounds *bytes*, not element slots (a Value slot is
            // larger than a byte), so the pre-reservation is additionally
            // clamped and large lists grow the honest way.
            let len = claimed_len(buf)?;
            let mut items = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                items.push(decode_value_at(buf, depth + 1)?);
            }
            Ok(Value::list(items))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Reads a u32 length prefix and validates it against the bytes remaining,
/// so callers may use it both to slice and to size allocations.
fn claimed_len(buf: &mut Bytes) -> Result<usize, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    if len > buf.remaining() {
        return Err(DecodeError::LengthOverflow {
            claimed: len as u64,
            remaining: buf.remaining(),
        });
    }
    Ok(len)
}

/// Appends the encoding of `msg` (header + body) to `buf` — the
/// scratch-buffer entry point used by [`FrameEncoder`].
pub fn encode_msg_into(msg: &Msg, buf: &mut BytesMut) {
    buf.put_u32_le(msg.header.name().len() as u32);
    buf.put_slice(msg.header.name().as_bytes());
    encode_value(&msg.body, buf);
}

/// Encodes a message (header + body) to fresh bytes.
pub fn encode_msg(msg: &Msg) -> Bytes {
    let mut buf = BytesMut::new();
    encode_msg_into(msg, &mut buf);
    buf.freeze()
}

/// Decodes a message produced by [`encode_msg`]/[`encode_msg_into`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is truncated or malformed.
pub fn decode_msg(mut buf: Bytes) -> Result<Msg, DecodeError> {
    need(&buf, 4)?;
    let len = buf.get_u32_le() as usize;
    if len > MAX_HEADER_LEN {
        return Err(DecodeError::HeaderTooLong(len));
    }
    if len > buf.remaining() {
        return Err(DecodeError::LengthOverflow {
            claimed: len as u64,
            remaining: buf.remaining(),
        });
    }
    let raw = buf.split_to(len);
    let name = std::str::from_utf8(&raw).map_err(|_| DecodeError::BadUtf8)?;
    let header = Header::new(name);
    let body = decode_value(&mut buf)?;
    Ok(Msg { header, body })
}

/// The number of bytes [`encode_value`] would produce for `v`.
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Unit => 1,
        Value::Bool(_) => 2,
        Value::Int(_) => 9,
        Value::Loc(_) => 5,
        Value::Str(s) => 5 + s.len(),
        Value::Bytes(b) => 5 + b.len(),
        Value::Pair(p) => 1 + encoded_len(&p.0) + encoded_len(&p.1),
        Value::List(l) => 5 + l.iter().map(encoded_len).sum::<usize>(),
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// Frames messages for a byte stream: `[u32_le payload_len][payload]`,
/// where the payload is [`encode_msg_into`]'s output.
///
/// One encoder per connection: it owns a scratch buffer that is cleared
/// and refilled in place, so steady-state sends allocate nothing once the
/// buffer has grown to the connection's working-set frame size.
#[derive(Default)]
pub struct FrameEncoder {
    scratch: BytesMut,
}

impl FrameEncoder {
    /// A fresh encoder with an empty scratch buffer.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Encodes `msg` as one frame and returns the wire bytes, valid until
    /// the next call. The caller writes the slice to its transport.
    pub fn encode(&mut self, msg: &Msg) -> &[u8] {
        self.scratch.clear();
        self.scratch.put_u32_le(0); // length, patched below
        encode_msg_into(msg, &mut self.scratch);
        let len = (self.scratch.len() - 4) as u32;
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        &self.scratch
    }
}

/// Smallest reassembly-buffer allocation: one socket read's worth, so a
/// fresh connection does not crawl through doubling steps.
const MIN_STORAGE: usize = 16 * 1024;

/// A reassembly buffer larger than this is reclaimed once the live tail
/// fits in a quarter of it — a single oversized frame must not pin its
/// high-water allocation for the connection's lifetime.
const SHRINK_AT: usize = 256 * 1024;

/// Reassembles frames from a byte stream fed in arbitrary chunks, the
/// receive half of [`FrameEncoder`].
///
/// Feed raw bytes with [`FrameReader::extend`] — or read straight from a
/// socket into [`FrameReader::spare_mut`] and [`FrameReader::commit`] the
/// byte count — then pull complete messages with
/// [`FrameReader::next_msg`]. A frame claiming more than the configured
/// cap is rejected *from its header alone* — the reader never buffers
/// toward an impossible length.
///
/// # Ownership: a message owns its frame, the reader owns its buffer
///
/// `next_msg` copies each complete frame's payload into a right-sized
/// [`Bytes`] of its own and decodes from that, so decoded
/// `Value::Bytes`/`Value::Str` bodies are views of *their frame* — one
/// allocation per message, none per body. Nothing ever aliases the
/// reassembly buffer: it is always unique, compacted and reused in place,
/// and a value kept for the life of the process (an accepted pvalue, a
/// decision) keeps alive its own frame's bytes, not a socket read's worth
/// of its neighbours'.
pub struct FrameReader {
    /// `buf[start..filled]` is live; `buf[filled..]` is spare room.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    max_frame: usize,
}

impl FrameReader {
    /// A reader with the [`DEFAULT_MAX_FRAME`] payload cap.
    pub fn new() -> FrameReader {
        FrameReader::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// A reader capping frame payloads at `max_frame` bytes.
    pub fn with_max_frame(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            filled: 0,
            max_frame,
        }
    }

    /// Appends raw bytes received from the transport.
    pub fn extend(&mut self, chunk: &[u8]) {
        if chunk.is_empty() {
            return;
        }
        let spare = self.spare_mut(chunk.len());
        spare[..chunk.len()].copy_from_slice(chunk);
        self.commit(chunk.len());
    }

    /// Writable spare room of at least `min` bytes, for reading from a
    /// socket directly into the reassembly buffer. Follow with
    /// [`FrameReader::commit`] for however many bytes landed.
    pub fn spare_mut(&mut self, min: usize) -> &mut [u8] {
        self.reserve(min.max(1));
        &mut self.buf[self.filled..]
    }

    /// Marks `n` bytes of [`FrameReader::spare_mut`] as received.
    pub fn commit(&mut self, n: usize) {
        assert!(self.filled + n <= self.buf.len(), "commit past spare");
        self.filled += n;
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.filled - self.start
    }

    /// Size of the reassembly buffer — lets tests observe that it settles
    /// at the connection's working set and is reused, not regrown.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Ensures at least `extra` bytes of spare room: as is when there is
    /// room, else compacted in place, grown when the live tail needs more,
    /// and cut back to size when it ballooned past the working set.
    fn reserve(&mut self, extra: usize) {
        let live = self.filled - self.start;
        let needed = live + extra;
        // Reclaim check first: a ballooned buffer is cut back even when it
        // has plenty of spare room — spare is exactly what an oversized
        // buffer has too much of.
        let oversized = self.buf.len() > SHRINK_AT && needed <= self.buf.len() / 4;
        if !oversized && self.buf.len() - self.filled >= extra {
            return;
        }
        self.buf.copy_within(self.start..self.filled, 0);
        self.start = 0;
        self.filled = live;
        if oversized || self.buf.len() < needed {
            self.buf
                .resize(needed.next_power_of_two().max(MIN_STORAGE), 0);
            self.buf.shrink_to_fit();
        }
    }

    /// Extracts the next complete message, if a full frame has arrived.
    ///
    /// `Ok(None)` means "need more bytes". After any `Err` the stream is
    /// unsynchronized and the connection should be dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the frame header exceeds the cap or the
    /// payload fails to decode.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, DecodeError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let head = &self.buf[self.start..];
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len > self.max_frame {
            return Err(DecodeError::FrameTooLarge {
                claimed: len,
                max: self.max_frame,
            });
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let body = self.start + 4;
        let payload = Bytes::copy_from_slice(&self.buf[body..body + len]);
        self.start = body + len;
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
        }
        decode_msg(payload).map(Some)
    }
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = BytesMut::new();
        encode_value(&v, &mut buf);
        assert_eq!(buf.len(), encoded_len(&v));
        let mut bytes = buf.freeze();
        assert_eq!(decode_value(&mut bytes).unwrap(), v);
        assert!(bytes.is_empty());
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(Value::Unit);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Int(-42));
        roundtrip(Value::Loc(Loc::new(3)));
        roundtrip(Value::str("héllo"));
        roundtrip(Value::Bytes(Bytes::from_static(b"\x00\x01\x02")));
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(Value::pair(
            Value::Int(1),
            Value::list([Value::Unit, Value::Bool(false)]),
        ));
        roundtrip(Value::list((0..100).map(Value::from)));
    }

    #[test]
    fn a_pair_with_bytes_written_in_place_encodes_like_the_value() {
        let head = Value::pair(Value::Int(7), Value::str("h"));
        let payload = (0..=255u8).cycle().take(70_000).collect::<Vec<u8>>();
        let mut in_place = BytesMut::new();
        in_place.put_slice(b"prefix");
        encode_pair_with_bytes(&head, &mut in_place, |b| b.put_slice(&payload));
        let mut built = BytesMut::new();
        built.put_slice(b"prefix");
        encode_value(&Value::pair(head, Value::Bytes(payload.into())), &mut built);
        assert_eq!(in_place, built);
    }

    #[test]
    fn msg_roundtrip() {
        let m = Msg::new("vote", Value::pair(Value::Int(1), Value::str("x")));
        assert_eq!(decode_msg(encode_msg(&m)).unwrap(), m);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = BytesMut::new();
        encode_value(&Value::Int(5), &mut buf);
        let mut short = buf.freeze().slice(0..4);
        assert_eq!(decode_value(&mut short), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_tag_detected() {
        let mut bytes = Bytes::from_static(&[99]);
        assert_eq!(decode_value(&mut bytes), Err(DecodeError::BadTag(99)));
    }

    /// The satellite regression: a tiny buffer claiming a 2^31-element list
    /// must return a `DecodeError`, not size an allocation from the claim.
    #[test]
    fn huge_claimed_list_rejected_without_allocating() {
        let mut raw = vec![TAG_LIST];
        raw.extend_from_slice(&(1u32 << 31).to_le_bytes()); // 4-byte prefix
        let mut bytes = Bytes::from(raw);
        assert_eq!(
            decode_value(&mut bytes),
            Err(DecodeError::LengthOverflow {
                claimed: 1 << 31,
                remaining: 0,
            })
        );
    }

    #[test]
    fn huge_claimed_string_rejected() {
        let mut raw = vec![TAG_STR];
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(b"abc");
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            decode_value(&mut bytes),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn nesting_bounded() {
        // A chain of MAX_DEPTH pair tags: each nests one level deeper, with
        // no terminal value — depth must trip before truncation.
        let raw = vec![TAG_PAIR; MAX_DEPTH as usize + 1];
        let mut bytes = Bytes::from(raw);
        assert_eq!(decode_value(&mut bytes), Err(DecodeError::TooDeep));

        // Just under the limit decodes fine.
        let mut deep = Value::Unit;
        for _ in 0..MAX_DEPTH - 1 {
            deep = Value::pair(deep, Value::Unit);
        }
        roundtrip(deep);
    }

    #[test]
    fn oversized_header_rejected() {
        let mut raw = Vec::new();
        raw.put_u32_le(MAX_HEADER_LEN as u32 + 1);
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LEN + 1));
        raw.push(TAG_UNIT);
        assert_eq!(
            decode_msg(Bytes::from(raw)),
            Err(DecodeError::HeaderTooLong(MAX_HEADER_LEN + 1))
        );
    }

    #[test]
    fn frame_roundtrip_and_reuse() {
        let mut enc = FrameEncoder::new();
        let mut rdr = FrameReader::new();
        let msgs = [
            Msg::new("vote", Value::pair(Value::Int(1), Value::str("x"))),
            Msg::new("ack", Value::Unit),
            Msg::new("batch", Value::list((0..50).map(Value::from))),
        ];
        for m in &msgs {
            rdr.extend(enc.encode(m));
        }
        for m in &msgs {
            assert_eq!(rdr.next_msg().unwrap().as_ref(), Some(m));
        }
        assert_eq!(rdr.next_msg().unwrap(), None);
        assert_eq!(rdr.buffered(), 0);
    }

    #[test]
    fn frames_reassemble_from_single_byte_chunks() {
        let mut enc = FrameEncoder::new();
        let mut rdr = FrameReader::new();
        let m = Msg::new("drip", Value::list((0..10).map(Value::from)));
        let wire: Vec<u8> = enc.encode(&m).to_vec();
        for (i, b) in wire.iter().enumerate() {
            rdr.extend(std::slice::from_ref(b));
            let got = rdr.next_msg().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "no frame before byte {}", i + 1);
            } else {
                assert_eq!(got, Some(m.clone()));
            }
        }
    }

    #[test]
    fn oversized_frame_rejected_from_header_alone() {
        let mut rdr = FrameReader::with_max_frame(1024);
        rdr.extend(&(2048u32).to_le_bytes());
        assert_eq!(
            rdr.next_msg(),
            Err(DecodeError::FrameTooLarge {
                claimed: 2048,
                max: 1024,
            })
        );
    }

    #[test]
    fn decoded_bodies_alias_their_frame_never_the_reassembly_buffer() {
        let mut enc = FrameEncoder::new();
        let mut rdr = FrameReader::new();
        let blob = Value::Bytes(Bytes::from(vec![7u8; 512]));
        let m = Msg::new("blob", Value::pair(blob.clone(), blob));
        let frame_len = enc.encode(&m).len() - 4;
        rdr.extend(enc.encode(&m));
        let capacity = rdr.capacity();
        let got = rdr.next_msg().unwrap().unwrap();
        let (Value::Bytes(a), Value::Bytes(b)) = got.body.unpair() else {
            panic!("expected two bytes bodies")
        };
        // Zero-copy within the frame: both bodies are views of one
        // allocation, and that allocation is the frame, nothing larger.
        assert_eq!(a.storage_id(), b.storage_id());
        assert_eq!(a.storage_len(), frame_len);
        // With the views alive the next write still lands in the same
        // buffer, and cannot scribble under them.
        rdr.extend(enc.encode(&Msg::new("ack", Value::Unit)));
        assert_eq!(rdr.capacity(), capacity);
        assert_eq!(&a[..], &[7u8; 512][..]);
        assert_eq!(rdr.next_msg().unwrap(), Some(Msg::new("ack", Value::Unit)));
    }

    /// Satellite regression: one oversized frame must not pin its
    /// high-water allocation after it has been consumed.
    #[test]
    fn reassembly_buffer_reclaimed_after_oversized_frame() {
        let mut enc = FrameEncoder::new();
        let mut rdr = FrameReader::new();
        let big = Msg::new("big", Value::Bytes(Bytes::from(vec![1u8; 1 << 20])));
        rdr.extend(enc.encode(&big));
        assert!(rdr.next_msg().unwrap().is_some());
        assert!(rdr.capacity() > 1 << 20);
        // Steady small traffic: the next reserve sees a live tail far
        // below the high-water mark and cuts the buffer back to size.
        let small = Msg::new("s", Value::Int(1));
        rdr.extend(enc.encode(&small));
        assert_eq!(rdr.capacity(), MIN_STORAGE, "storage not reclaimed");
        assert_eq!(rdr.next_msg().unwrap(), Some(small));
    }

    #[test]
    fn spare_mut_commit_matches_extend() {
        let mut enc = FrameEncoder::new();
        let mut rdr = FrameReader::new();
        let m = Msg::new("direct", Value::list((0..20).map(Value::from)));
        let wire = enc.encode(&m).to_vec();
        // Land the wire bytes in two uneven chunks via the socket path.
        let split = wire.len() / 3;
        for chunk in [&wire[..split], &wire[split..]] {
            let spare = rdr.spare_mut(chunk.len());
            spare[..chunk.len()].copy_from_slice(chunk);
            rdr.commit(chunk.len());
        }
        assert_eq!(rdr.next_msg().unwrap(), Some(m));
        assert_eq!(rdr.buffered(), 0);
    }

    #[test]
    fn payload_sizing_matches_fig8_setup() {
        // A 140-byte opaque payload, as in Sec. IV-A.
        let payload = Value::Bytes(Bytes::from(vec![0u8; 140]));
        assert_eq!(encoded_len(&payload), 145); // tag + len + 140
    }
}
