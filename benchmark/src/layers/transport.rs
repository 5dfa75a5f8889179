//! `dvdc-transport`: the frame codec and the message envelope.

use dvdc::protocol::node_core::{BlockInfo, BlockKind, Msg};
use dvdc_transport::frame::{encode_frame, FrameDecoder};
use dvdc_transport::wire::{decode_envelope, encode_envelope};
use dvdc_vcluster::ids::NodeId;

use super::{filler, gb_per_s, K};

/// The reader side feeds the decoder what one `read` returns.
const READ_CHUNK: usize = 64 << 10;

pub fn pass(image_len: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let image = filler(image_len, seed);
    let frame = encode_frame(&image);
    let payload = Msg::Payload {
        epoch: 7,
        source: NodeId(1),
        fence_epoch: 0,
        data: image.clone(),
    };
    let envelope = encode_envelope(NodeId(1), &payload);
    let fetched = Msg::FetchBlocks {
        node: NodeId(1),
        fence_epoch: 0,
        blocks: (0..K)
            .map(|i| BlockInfo {
                holder: NodeId(i),
                kind: BlockKind::Data,
                epoch: 7,
                data: image.clone(),
            })
            .collect(),
    };
    vec![
        (
            "transport.frame.encode_gb_s",
            gb_per_s(image_len, || (), |()| encode_frame(&image)),
        ),
        (
            "transport.frame.decode_gb_s",
            gb_per_s(image_len, FrameDecoder::new, |mut decoder| {
                for chunk in frame.chunks(READ_CHUNK) {
                    decoder.feed(chunk);
                }
                decoder
                    .next_frame()
                    .expect("valid frame")
                    .expect("whole frame")
            }),
        ),
        (
            "transport.wire.encode_gb_s",
            gb_per_s(image_len, || (), |()| encode_envelope(NodeId(1), &payload)),
        ),
        (
            "transport.wire.decode_gb_s",
            gb_per_s(
                image_len,
                || (),
                |()| decode_envelope(&envelope).expect("valid envelope"),
            ),
        ),
        (
            "transport.wire.fetchblocks_gb_s",
            gb_per_s(
                K * image_len,
                || (),
                |()| {
                    decode_envelope(&encode_envelope(NodeId(1), &fetched)).expect("valid envelope")
                },
            ),
        ),
    ]
}
