//! Property-based tests for the wire codec: `decode(encode(u))` reproduces
//! every update (modulo the documented `f32` narrowing), `encoded_len()` is
//! exact without allocating, and damaged buffers produce typed errors instead
//! of panics.

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
