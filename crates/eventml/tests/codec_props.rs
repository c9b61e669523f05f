//! Property-based verification of the wire codec — the byte boundary
//! every runtime now shares.
//!
//! Two obligations:
//!
//! 1. **Roundtrip**: `decode_msg ∘ encode_msg == id` for arbitrary
//!    messages over arbitrary [`Value`] trees — all tags, deep nesting —
//!    and the framed path (`FrameEncoder`/`FrameReader`) reassembles the
//!    identical messages from arbitrarily chunked byte streams.
//! 2. **Robustness**: decoding *arbitrary bytes* never panics and never
//!    sizes an allocation from an untrusted length prefix — it returns a
//!    message or a [`DecodeError`], nothing else.

use proptest::prelude::*;
use shadowdb_eventml::codec::{decode_msg, decode_value, encode_msg};
use shadowdb_eventml::{FrameEncoder, FrameReader, Msg, Value};
use shadowdb_loe::Loc;

/// Arbitrary value trees over every tag, nesting up to ~6 levels deep
/// (deeper than the unit tests, well under the codec's `MAX_DEPTH`).
fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (0u32..10_000).prop_map(|i| Value::Loc(Loc::new(i))),
        "[ -~]{0,24}".prop_map(|s| Value::str(&s)),
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|b| Value::Bytes(bytes::Bytes::from(b))),
    ];
    leaf.prop_recursive(6, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            proptest::collection::vec(inner, 0..5).prop_map(Value::list),
        ]
    })
    .boxed()
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    ("[a-z_]{1,16}", arb_value()).prop_map(|(h, v)| Msg::new(h.as_str(), v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bare codec is the identity on messages.
    #[test]
    fn encode_decode_is_identity(m in arb_msg()) {
        prop_assert_eq!(decode_msg(encode_msg(&m)).unwrap(), m);
    }

    /// The framed path is the identity too, through one reused encoder
    /// scratch buffer and a reader fed the stream in arbitrary chunks.
    #[test]
    fn framed_stream_reassembles_identically(
        msgs in proptest::collection::vec(arb_msg(), 1..8),
        chunk in 1usize..9,
    ) {
        let mut enc = FrameEncoder::new();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(enc.encode(m));
        }
        let mut rdr = FrameReader::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            rdr.extend(piece);
            while let Some(m) = rdr.next_msg().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(rdr.buffered(), 0);
    }

    /// Decoding arbitrary bytes never panics: every input yields a value
    /// or a `DecodeError`. (OOM-safety on adversarial length prefixes is
    /// asserted by the codec's unit tests; here the fuzzing guarantees no
    /// reachable panic or abort.)
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut b = bytes::Bytes::from(raw.clone());
        let _ = decode_value(&mut b);
        let _ = decode_msg(bytes::Bytes::from(raw));
    }

    /// A frame reader fed arbitrary garbage never panics and always
    /// terminates: it either errors (stream unsynchronized) or parks the
    /// bytes waiting for the rest of a frame.
    #[test]
    fn frame_reader_survives_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut rdr = FrameReader::new();
        rdr.extend(&raw);
        while let Ok(Some(_)) = rdr.next_msg() {}
    }

    /// Decoded views alias their own frame and survive buffer turnover:
    /// under arbitrary chunking, with every message kept alive while the
    /// stream keeps flowing through the one reused reassembly buffer, each
    /// `Bytes` body is a view into a frame-sized allocation (no copy per
    /// body, nothing larger pinned) and never changes under later writes.
    #[test]
    fn zero_copy_decode_aliases_and_survives_buffer_turnover(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..160), 1..10),
        chunk in 1usize..48,
    ) {
        let mut enc = FrameEncoder::new();
        let mut stream = Vec::new();
        for p in &payloads {
            let m = Msg::new("blob", Value::Bytes(bytes::Bytes::from(p.clone())));
            stream.extend_from_slice(enc.encode(&m));
        }
        let mut rdr = FrameReader::new();
        let mut held = Vec::new(); // keep every view alive to the end
        for piece in stream.chunks(chunk) {
            rdr.extend(piece);
            while let Some(m) = rdr.next_msg().unwrap() {
                held.push(m);
            }
        }
        prop_assert_eq!(held.len(), payloads.len());
        for (m, p) in held.iter().zip(&payloads) {
            match &m.body {
                Value::Bytes(b) => {
                    prop_assert_eq!(&b[..], &p[..]);
                    // "blob" header + tag + length prefix + payload.
                    prop_assert_eq!(b.storage_len(), 4 + 4 + 1 + 4 + p.len());
                }
                other => prop_assert!(false, "expected bytes, got {:?}", other),
            }
        }
    }
}

/// The reassembly buffer is never pinned: 10 000 small frames, one short
/// `Str` kept from each — what a Synod acceptor does with every command it
/// accepts. The reader's buffer stays at its working-set size and is
/// reused throughout, and each kept view holds its own frame's bytes, not
/// a socket read's worth.
#[test]
fn retained_views_pin_their_frame_not_the_reassembly_buffer() {
    const FRAMES: usize = 10_000;
    let mut enc = FrameEncoder::new();
    let mut rdr = FrameReader::new();
    let mut kept = Vec::new();
    let mut settled = None;
    // Four frames a read: the buffer holds several frames at once and is
    // refilled while earlier frames' views are alive.
    for read in 0..FRAMES / 4 {
        let mut wire = Vec::new();
        for i in 0..4 {
            let op = Value::pair(Value::str("xfer"), Value::Int((read * 4 + i) as i64));
            wire.extend_from_slice(enc.encode(&Msg::new("px/request", op)));
        }
        let spare = rdr.spare_mut(16 * 1024);
        spare[..wire.len()].copy_from_slice(&wire);
        rdr.commit(wire.len());
        while let Some(m) = rdr.next_msg().unwrap() {
            let (Value::Str(s), _) = m.body.unpair() else {
                panic!("expected a string")
            };
            kept.push(s.clone());
        }
        assert_eq!(*settled.get_or_insert(rdr.capacity()), rdr.capacity());
    }
    assert_eq!(kept.len(), FRAMES);
    assert_eq!(settled, Some(16 * 1024));
    let op = Value::pair(Value::str("xfer"), Value::Int(0));
    let frame_len = enc.encode(&Msg::new("px/request", op)).len() - 4;
    for s in &kept {
        assert_eq!(s.as_str(), "xfer");
        assert_eq!(s.storage_len(), frame_len);
    }
}
