//! Property tests for the framed codec and the wire envelope: arbitrary
//! payloads round-trip byte-exact; arbitrary mutilations (torn tails,
//! flipped bytes, random garbage) always come back as typed errors —
//! never a panic, never a hang.

use std::cmp::Ordering;

use dvdc::protocol::node_core::{BlockInfo, BlockKind, Msg, CTL};
use dvdc_transport::frame::{decode_exact, encode_frame, FrameDecoder, FrameError, HEADER_LEN};
use dvdc_transport::wire::{decode_envelope, encode_envelope, WireError};
use dvdc_vcluster::ids::NodeId;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_round_trips_arbitrary_payloads(payload in vec(any::<u8>(), 0..2048usize)) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(decode_exact(&frame).unwrap(), payload);
    }

    #[test]
    fn torn_frames_are_typed_errors(
        payload in vec(any::<u8>(), 0..512usize),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_frame(&payload);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        prop_assert_eq!(decode_exact(&frame[..cut]), Err(FrameError::Truncated));
    }

    #[test]
    fn flipped_bytes_never_decode_silently(
        payload in vec(any::<u8>(), 1..512usize),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut frame = encode_frame(&payload);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        // A flip anywhere except the reserved flags byte (offset 5,
        // ignored by design) must surface as a typed error — single-
        // position payload flips can never slip past the FNV trailer.
        match decode_exact(&frame) {
            Err(_) => prop_assert!(pos != 5, "flags flip should be accepted"),
            Ok(decoded) => {
                prop_assert!(pos == 5, "flip at {pos} decoded silently");
                prop_assert_eq!(decoded, payload);
            }
        }
    }

    #[test]
    fn random_garbage_never_panics_the_decoder(bytes in vec(any::<u8>(), 0..1024usize)) {
        let _ = decode_exact(&bytes);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        // Drain until the decoder wants more bytes or rejects the stream.
        while let Ok(Some(_)) = dec.next_frame() {}
    }

    #[test]
    fn decoder_reassembles_any_chunking(
        payloads in vec(vec(any::<u8>(), 0..256usize), 1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn payload_msg_round_trips_arbitrary_data(
        sender in 0usize..64,
        epoch in any::<u64>(),
        source in 0usize..64,
        fence in any::<u64>(),
        offset in any::<u64>(),
        data in vec(any::<u8>(), 0..2048usize),
    ) {
        // The codec carries any offset; what fits an image is the
        // receiving core's to judge.
        let (source, fence_epoch) = (NodeId(source), fence);
        let (node, kind) = (NodeId(sender), BlockKind::Parity);
        let msgs = [
            Msg::Payload { epoch, source, fence_epoch, data: data.clone() },
            Msg::PayloadPart { epoch, source, fence_epoch, offset, data: data.clone().into() },
            Msg::FetchPart { node, fence_epoch, offset, holder: source, kind, epoch, data: data.into() },
        ];
        for msg in msgs {
            let bytes = encode_envelope(NodeId(sender), &msg);
            prop_assert_eq!(decode_envelope(&bytes), Ok((NodeId(sender), msg)));
        }
    }

    #[test]
    fn hostile_part_lengths_and_block_counts_are_typed(
        offset in any::<u64>(),
        have in 0usize..64,
        small in 0u32..80,
        blocks in 0usize..4,
    ) {
        // A part whose length field claims a small or a hostile number of
        // bytes with `have` behind it, and a closing answer claiming as
        // many blocks with `blocks` behind it: exact claims decode, the
        // rest are typed, and nothing is allocated for a hostile one.
        let part = Msg::PayloadPart {
            epoch: 1,
            source: NodeId(0),
            fence_epoch: 0,
            offset,
            data: vec![7; have].into(),
        };
        let block = |i| BlockInfo { holder: NodeId(i), kind: BlockKind::Data, epoch: 1, data: vec![] };
        let answer = Msg::FetchBlocks {
            node: NodeId(1),
            fence_epoch: 0,
            blocks: (0..blocks).map(block).collect(),
        };
        // Each field sits right behind the header of the same length:
        // the data of the part, the blocks (21 bytes each) of the answer.
        for (msg, n, each) in [(part, have, 1), (answer, blocks, 21)] {
            for claimed in [small, u32::MAX - small] {
                let mut bytes = encode_envelope(NodeId(1), &msg);
                let at = bytes.len() - n * each - 4;
                bytes[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
                let want = match (claimed as usize).cmp(&n) {
                    Ordering::Equal => Ok((NodeId(1), msg.clone())),
                    Ordering::Greater => Err(WireError::Truncated),
                    Ordering::Less => Err(WireError::TrailingBytes),
                };
                prop_assert_eq!(decode_envelope(&bytes), want);
            }
        }
    }

    #[test]
    fn envelope_survives_frame_round_trip(
        reason_bytes in vec(32u8..127, 0..64usize),
        epoch in any::<u64>(),
    ) {
        let reason = String::from_utf8(reason_bytes).expect("printable ASCII");
        let msg = Msg::AbortRound { epoch, reason };
        let frame = encode_frame(&encode_envelope(CTL, &msg));
        let payload = decode_exact(&frame).unwrap();
        let (from, decoded) = decode_envelope(&payload).unwrap();
        prop_assert_eq!(from, CTL);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn garbage_envelopes_are_typed(bytes in vec(any::<u8>(), 0..256usize)) {
        // Any outcome is fine except a panic; errors must be the typed
        // WireError (guaranteed by the signature), and a successful
        // decode must re-encode to the same bytes (canonical format).
        if let Ok((from, msg)) = decode_envelope(&bytes) {
            prop_assert_eq!(encode_envelope(from, &msg), bytes);
        }
    }
}

#[test]
fn header_len_matches_layout() {
    // magic u32 + version u8 + flags u8 + len u32
    assert_eq!(HEADER_LEN, 4 + 1 + 1 + 4);
}
