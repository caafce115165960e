//! Property-based tests for the wire codec: `decode(encode(u))` reproduces
//! every update (modulo the documented `f32` narrowing), `encoded_len()` is
//! exact without allocating, and damaged buffers produce typed errors instead
//! of panics.
//!
//! The second half is a seeded search over frames, whose updates are each
//! coded against the one before: frames of every kind, with links that come
//! and go, repeated and changing fields, falling and wrapping sequences and
//! values at the edges of the format must decode to what the message codec
//! round-trips, re-encode to the same bytes, and give one typed verdict from
//! both decoders on every truncation and every single-byte corruption.

use mbdr_core::wire::TOWARDS_NONE_WIRE;
use mbdr_core::{DecodeError, Frame, FrameView, ObjectState, Update, UpdateKind, UpdateView};
use mbdr_geo::rng::{for_each_seed, SplitMix64};
use mbdr_geo::Point;
use mbdr_roadnet::{LinkId, NodeId};

const KINDS: [UpdateKind; 5] = [
    UpdateKind::Initial,
    UpdateKind::DeviationBound,
    UpdateKind::ModeChange,
    UpdateKind::Periodic,
    UpdateKind::Movement,
];

/// Draws one arbitrary update covering every field combination: with/without
/// a link, with/without a travel direction, with/without a turn rate, every
/// kind, and sequence numbers across the whole `u64` range.
fn arb_update(rng: &mut SplitMix64) -> Update {
    let link = (rng.below(2) == 1).then_some(LinkId(rng.below(10_000) as u32));
    let towards_mode = rng.below(3);
    let towards_id = rng.below(u64::from(TOWARDS_NONE_WIRE)) as u32;
    let turn_rate = if rng.below(2) == 1 { rng.range(-1.0, 1.0) } else { 0.0 };
    Update {
        sequence: rng.next_u64(),
        state: ObjectState {
            position: Point::new(rng.range(-50_000.0, 50_000.0), rng.range(-50_000.0, 50_000.0)),
            speed: rng.range(0.0, 70.0),
            heading: rng.range(-10.0, 10.0),
            timestamp: rng.range(0.0, 100_000.0),
            link,
            arc_length: if link.is_some() { rng.range(0.0, 3_000.0) } else { 0.0 },
            towards: (link.is_some() && towards_mode > 0).then_some(NodeId(towards_id)),
            turn_rate,
        },
        kind: KINDS[rng.below(KINDS.len() as u64) as usize],
    }
}

/// Up to `max - 1` arbitrary updates.
fn arb_updates(rng: &mut SplitMix64, max: u64) -> Vec<Update> {
    (0..rng.below(max)).map(|_| arb_update(rng)).collect()
}

/// What a round trip is expected to reproduce: the `f32`-narrowed values of
/// the fields the wire carries at reduced precision.
fn narrowed(u: &Update) -> Update {
    let mut n = *u;
    n.state.speed = u.state.speed as f32 as f64;
    n.state.heading = u.state.heading as f32 as f64;
    n.state.arc_length = u.state.arc_length as f32 as f64;
    n.state.turn_rate = u.state.turn_rate as f32 as f64;
    n
}

const CASES: u64 = 256;

#[test]
fn decode_inverts_encode() {
    for_each_seed(CASES, |rng| {
        let u = arb_update(rng);
        let bytes = u.encode().expect("generated updates avoid the sentinel");
        let decoded = Update::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, narrowed(&u));
        // A second trip is bit-exact: the narrowing is idempotent.
        assert_eq!(decoded.encode().unwrap(), bytes);
    });
}

#[test]
fn encoded_len_is_exact_without_allocating() {
    for_each_seed(CASES, |rng| {
        let u = arb_update(rng);
        assert_eq!(u.encoded_len(), u.encode().unwrap().len());
    });
}

#[test]
fn truncated_buffers_error_instead_of_panicking() {
    for_each_seed(CASES, |rng| {
        let bytes = arb_update(rng).encode().unwrap();
        let cut = ((bytes.len() as f64 * rng.next_f64()) as usize).min(bytes.len() - 1);
        assert!(matches!(Update::decode(&bytes[..cut]), Err(DecodeError::Truncated { .. })));
    });
}

#[test]
fn corrupted_kind_byte_is_a_typed_error() {
    for_each_seed(CASES, |rng| {
        let mut bytes = arb_update(rng).encode().unwrap();
        // Every byte past the last kind, 0xFF included.
        for bad in 5..=u8::MAX {
            bytes[8] = bad;
            assert_eq!(Update::decode(&bytes), Err(DecodeError::InvalidKind(bad)));
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut all_ones_drawn = false;
    for_each_seed(CASES, |rng| {
        // Bytes over the full range 0..=0xFF: all-ones lengths and counts too.
        let bytes: Vec<u8> = (0..rng.below(96)).map(|_| rng.next_u64() as u8).collect();
        all_ones_drawn |= bytes.contains(&0xFF);
        // Random garbage either happens to parse or reports a typed error;
        // the decoder must never panic or read out of bounds.
        let _ = Update::decode(&bytes);
        let _ = Frame::decode(&bytes);
    });
    assert!(all_ones_drawn, "the garbage holds 0xFF bytes");
}

#[test]
fn frames_round_trip_batches() {
    for_each_seed(CASES, |rng| {
        let updates = arb_updates(rng, 12);
        let source = rng.next_u64();
        let frame = Frame { source, updates };
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), frame.encoded_len());
        let decoded = Frame::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded.source, source);
        assert_eq!(decoded.updates.len(), frame.updates.len());
        for (d, u) in decoded.updates.iter().zip(&frame.updates) {
            assert_eq!(*d, narrowed(u));
        }
    });
}

#[test]
fn reserved_towards_never_encodes() {
    for_each_seed(CASES, |rng| {
        let mut u = arb_update(rng);
        u.state.link = Some(LinkId(1));
        u.state.towards = Some(NodeId(TOWARDS_NONE_WIRE));
        assert!(u.encode().is_err());
        assert!(Frame::single(0, u).encode().is_err());
    });
}

#[test]
fn update_view_agrees_with_owned_decode_on_valid_input() {
    for_each_seed(CASES, |rng| {
        let bytes = arb_update(rng).encode().unwrap();
        let view = UpdateView::parse(&bytes).expect("own encoding parses");
        assert_eq!(*view.get(), Update::decode(&bytes).unwrap());
        assert_eq!(view.wire_len(), bytes.len());
    });
}

#[test]
fn frame_view_agrees_with_owned_decode_on_valid_input() {
    for_each_seed(CASES, |rng| {
        let frame = Frame { updates: arb_updates(rng, 12), source: rng.next_u64() };
        let bytes = frame.encode().unwrap();
        let view = FrameView::parse(&bytes).expect("own encoding parses");
        let owned = Frame::decode(&bytes).unwrap();
        assert_eq!(view.source(), owned.source);
        assert_eq!(view.update_count(), owned.updates.len());
        assert_eq!(view.updates().collect::<Vec<_>>(), owned.updates);
    });
}

#[test]
fn views_reject_exactly_what_owned_decode_rejects() {
    let mut all_bits_flipped = false;
    for_each_seed(CASES, |rng| {
        // Damage a valid frame two ways — truncation at an arbitrary offset
        // and a single-byte corruption (which can forge bad kinds, bad
        // flags, NaN floats or inconsistent lengths) — and require the
        // borrowed and the owned decoder to return the *same* typed verdict.
        let frame = Frame { updates: arb_updates(rng, 6), source: rng.next_u64() };
        let bytes = frame.encode().unwrap();

        let cut = ((bytes.len() as f64 * rng.next_f64()) as usize).min(bytes.len());
        let truncated = &bytes[..cut];
        match (FrameView::parse(truncated), Frame::decode(truncated)) {
            (Ok(view), Ok(owned)) => {
                assert_eq!(view.updates().collect::<Vec<_>>(), owned.updates);
            }
            (Err(ve), Err(oe)) => assert_eq!(ve, oe),
            (view, owned) => panic!("cut {cut}: view {view:?} vs owned {owned:?}"),
        }

        // A flip mask over 1..=0xFF: the all-bits flip too.
        let (flip_at, flip) = (rng.below(512) as usize, 1 + rng.below(255) as u8);
        all_bits_flipped |= flip == 0xFF;
        let mut damaged = bytes.clone();
        let at = flip_at % damaged.len().max(1);
        if !damaged.is_empty() {
            damaged[at] ^= flip;
        }
        match (FrameView::parse(&damaged), Frame::decode(&damaged)) {
            (Ok(view), Ok(owned)) => {
                assert_eq!(view.updates().collect::<Vec<_>>(), owned.updates);
            }
            (Err(ve), Err(oe)) => assert_eq!(ve, oe),
            (view, owned) => panic!("flip at {at}: view {view:?} vs owned {owned:?}"),
        }

        // Single updates: same contract for UpdateView vs Update::decode.
        if let Some(u) = frame.updates.first() {
            let ubytes = u.encode().unwrap();
            let mut udamaged = ubytes.clone();
            let uat = at % udamaged.len();
            udamaged[uat] ^= flip;
            match (UpdateView::parse(&udamaged), Update::decode(&udamaged)) {
                (Ok(view), Ok(owned)) => assert_eq!(*view.get(), owned),
                (Err(ve), Err(oe)) => assert_eq!(ve, oe),
                (view, owned) => panic!("update flip: view {view:?} vs owned {owned:?}"),
            }
        }
    });
    assert!(all_bits_flipped, "the all-bits flip is applied");
}

// ---------------------------------------------------------------------------
// The seeded search over frames: each update coded against the one before it.
// ---------------------------------------------------------------------------

/// `f64` values at the edges of the format: signed zeros, subnormals, and
/// magnitudes up to `f64::MAX`.
const EDGE_F64: [f64; 8] = [0.0, -0.0, 5e-324, -2.2e-308, f32::MAX as f64, 1e300, f64::MAX, -1.5];
/// `f32`-narrowed values at the edges: signed zeros, `f32` subnormals, and
/// `±f32::MAX`.
const EDGE_F32: [f64; 7] = [0.0, -0.0, 1e-45, -3e-39, f32::MAX as f64, -(f32::MAX as f64), 0.5];

/// Seeds of the search; the exhaustive corruption sweep takes the first
/// `CORRUPTION_SEEDS` of them.
const FRAME_SEEDS: u64 = 256;
const CORRUPTION_SEEDS: u64 = 24;

fn pick<T: Copy>(rng: &mut SplitMix64, values: &[T]) -> T {
    values[rng.below(values.len() as u64) as usize]
}

/// A float field's next value: mostly kept or nudged (what a frame of one
/// object's fixes holds), sometimes redrawn or taken from `edges`.
fn next_float(rng: &mut SplitMix64, previous: f64, edges: &[f64], span: f64) -> f64 {
    match rng.below(6) {
        0 | 1 => previous,
        2 => previous + rng.range(-1.0, 1.0),
        3 => rng.range(-span, span),
        _ => pick(rng, edges),
    }
}

/// The next sequence number: increasing, repeated, decreasing or wrapping.
fn next_sequence(rng: &mut SplitMix64, previous: u64) -> u64 {
    match rng.below(6) {
        0 | 1 => previous.wrapping_add(1),
        2 => previous,
        3 => previous.wrapping_sub(1 + rng.below(1_000)),
        4 => u64::MAX - rng.below(3),
        _ => rng.next_u64(),
    }
}

/// An update following `previous` in a frame: every field kept or changed
/// on its own draw, links that appear and disappear, every kind.
fn next_update(rng: &mut SplitMix64, previous: &Update) -> Update {
    let p = &previous.state;
    let link = match rng.below(4) {
        0 => None,
        1 => Some(LinkId(rng.next_u64() as u32)),
        _ => p.link.or(Some(LinkId(rng.below(10) as u32))),
    };
    let towards = match (link, rng.below(4)) {
        (None, _) => p.towards.filter(|_| rng.below(2) == 0),
        (Some(_), 0) => None,
        (Some(_), 1) => Some(NodeId(rng.below(u64::from(TOWARDS_NONE_WIRE)) as u32)),
        (Some(_), _) => p.towards.filter(|n| n.0 != TOWARDS_NONE_WIRE).or(Some(NodeId(0))),
    };
    let turn_rate = match rng.below(4) {
        0 => 0.0,
        1 => p.turn_rate,
        _ => next_float(rng, p.turn_rate, &EDGE_F32, 1.0),
    };
    Update {
        sequence: next_sequence(rng, previous.sequence),
        state: ObjectState {
            position: Point::new(
                next_float(rng, p.position.x, &EDGE_F64, 50_000.0),
                next_float(rng, p.position.y, &EDGE_F64, 50_000.0),
            ),
            speed: next_float(rng, p.speed, &EDGE_F32, 70.0),
            heading: next_float(rng, p.heading, &EDGE_F32, 10.0),
            timestamp: match rng.below(3) {
                0 => p.timestamp + 1.0,
                _ => next_float(rng, p.timestamp, &EDGE_F64, 100_000.0),
            },
            link,
            arc_length: next_float(rng, p.arc_length, &EDGE_F32, 3_000.0),
            towards,
            turn_rate,
        },
        kind: KINDS[rng.below(KINDS.len() as u64) as usize],
    }
}

/// A frame of up to `max` updates, the first drawn whole, each later one
/// from the update before it; the source id of any width.
fn arb_frame(rng: &mut SplitMix64, max: u64) -> Frame {
    let source = match rng.below(3) {
        0 => rng.below(128),
        1 => u64::MAX - rng.below(2),
        _ => rng.next_u64() >> rng.below(64),
    };
    let mut updates = Vec::new();
    let mut previous = arb_update(rng);
    for _ in 0..rng.below(max + 1) {
        updates.push(previous);
        previous = next_update(rng, &previous);
    }
    Frame { source, updates }
}

/// Each update as the message codec round-trips it, or the verdict that
/// refuses it.
fn message_round_trip(frame: &Frame) -> Result<Vec<Update>, DecodeError> {
    frame
        .updates
        .iter()
        .map(|u| Update::decode(&u.encode().expect("search updates encode")))
        .collect()
}

/// Bytes of `value` as a LEB128 varint.
fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// `FrameView::parse` and `Frame::decode` agree on `bytes`, and whatever
/// they accept is canonical: it re-encodes to exactly `bytes`.
fn assert_one_verdict(bytes: &[u8], what: &str) {
    match (FrameView::parse(bytes), Frame::decode(bytes)) {
        (Ok(view), Ok(owned)) => {
            assert_eq!(view.source(), owned.source, "{what}");
            assert_eq!(view.updates().collect::<Vec<_>>(), owned.updates, "{what}");
            assert_eq!(owned.encode().expect("decoded frames encode"), bytes, "{what}");
            assert_eq!(owned.encoded_len(), bytes.len(), "{what}");
        }
        (Err(ve), Err(oe)) => assert_eq!(ve, oe, "{what}"),
        (view, owned) => panic!("{what}: view {view:?} vs owned {owned:?}"),
    }
}

#[test]
fn frames_decode_to_the_message_round_trip_and_re_encode_to_the_same_bytes() {
    let mut seen = [false; 6];
    for_each_seed(FRAME_SEEDS, |rng| {
        let frame = arb_frame(rng, 12);
        for pair in frame.updates.windows(2) {
            seen[0] |= pair[1].state.link.is_some() != pair[0].state.link.is_some();
            seen[1] |= pair[1].sequence < pair[0].sequence;
            seen[2] |= pair[1].state.position == pair[0].state.position;
        }
        for u in &frame.updates {
            let s = &u.state;
            seen[3] |= s.speed.to_bits() == (-0.0f64).to_bits();
            seen[4] |= s.position.x.is_subnormal() || (s.heading as f32).is_subnormal();
            seen[5] |= s.speed.abs() == f32::MAX as f64;
        }
        let bytes = frame.encode().expect("search frames encode");
        assert_eq!(bytes.len(), frame.encoded_len());
        let expected = message_round_trip(&frame);
        let decoded = Frame::decode(&bytes).map(|f| f.updates);
        assert_eq!(decoded, expected, "the frame codec is the message codec's values");
        if let Ok(updates) = decoded {
            let again = Frame { source: frame.source, updates };
            assert_eq!(again.encode().unwrap(), bytes, "a decoded frame re-encodes bit for bit");
            assert_eq!(FrameView::peek_source(&bytes), Some(frame.source));
        }
        assert_one_verdict(&bytes, "own encoding");
    });
    assert_eq!(seen, [true; 6], "links come and go, sequences fall, fields repeat, edges occur");
}

#[test]
fn every_truncation_and_byte_corruption_gets_one_verdict() {
    for_each_seed(CORRUPTION_SEEDS, |rng| {
        let frame = arb_frame(rng, 4);
        let bytes = frame.encode().expect("search frames encode");
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            assert!(
                matches!(Frame::decode(truncated), Err(DecodeError::Truncated { .. })),
                "cut {cut}"
            );
            assert_one_verdict(truncated, &format!("cut {cut}"));
        }
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for flip in 1..=u8::MAX {
                damaged[at] = bytes[at] ^ flip;
                assert_one_verdict(&damaged, &format!("byte {at} ^ {flip:#x}"));
            }
            damaged[at] = bytes[at];
        }
    });
}

#[test]
fn non_canonical_forms_and_hostile_counts_are_typed_errors() {
    for_each_seed(FRAME_SEEDS, |rng| {
        let frame = arb_frame(rng, 6);
        let bytes = frame.encode().expect("search frames encode");
        let source_len = varint_len(frame.source);
        let count_len = varint_len(frame.updates.len() as u64);
        let header_len = source_len + count_len;

        // A redundant continuation byte on the source id and on the count;
        // past ten bytes a varint is out of any field's range.
        for (at, len) in [(0, source_len), (source_len, count_len)] {
            let mut overlong = bytes[..at + len].to_vec();
            *overlong.last_mut().unwrap() |= 0x80;
            overlong.push(0x00);
            overlong.extend_from_slice(&bytes[at + len..]);
            let expected = if len == 10 {
                DecodeError::OutOfRange { at }
            } else {
                DecodeError::NonCanonical { at }
            };
            assert_eq!(Frame::decode(&overlong), Err(expected));
            assert_one_verdict(&overlong, "overlong varint");
        }

        // Counts the bytes cannot hold, and one past the 16-bit limit.
        let with_count = |count: u64| {
            let mut hostile = bytes[..source_len].to_vec();
            let mut c = count;
            while c >= 0x80 {
                hostile.push(c as u8 | 0x80);
                c >>= 7;
            }
            hostile.push(c as u8);
            hostile.extend_from_slice(&bytes[header_len..]);
            hostile
        };
        let claimed = frame.updates.len() as u64 + 1 + rng.below(u64::from(u16::MAX) - 12);
        let hostile = with_count(claimed);
        assert!(matches!(Frame::decode(&hostile), Err(DecodeError::Truncated { .. })));
        assert_one_verdict(&hostile, "hostile count");
        let too_many = with_count(u64::from(u16::MAX) + 1);
        assert_eq!(Frame::decode(&too_many), Err(DecodeError::OutOfRange { at: source_len }));

        // The first update's timestamp descriptor in a longer, zero-padded
        // form: one more significant byte that is zero.
        let Some(first) = frame.updates.first() else { return };
        let at = header_len + 1 + varint_len(first.sequence);
        let descriptor = bytes[at];
        let (lead, len) = (usize::from(descriptor >> 4), usize::from(descriptor & 0x0F));
        let mut padded = bytes[..at].to_vec();
        if descriptor == 0 {
            padded.extend_from_slice(&[0x01, 0x00]);
        } else if lead + len < 8 {
            padded.push((lead << 4 | (len + 1)) as u8);
            padded.extend_from_slice(&bytes[at + 1..at + 1 + len]);
            padded.push(0x00);
        } else if lead > 0 {
            padded.push(((lead - 1) << 4 | (len + 1)) as u8);
            padded.push(0x00);
            padded.extend_from_slice(&bytes[at + 1..at + 1 + len]);
        } else {
            // All eight bytes significant: no longer form exists, so name
            // eight leading zero bytes and none significant instead.
            padded.push(0x80);
            padded.extend_from_slice(&bytes[at + 1..at + 1 + len]);
        }
        padded.extend_from_slice(&bytes[at + 1 + len..]);
        assert_eq!(Frame::decode(&padded), Err(DecodeError::NonCanonical { at }));
        assert_one_verdict(&padded, "padded descriptor");
    });
}
