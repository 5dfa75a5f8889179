//! Binary wire format for DVDC protocol messages.
//!
//! One frame payload carries one *envelope*: the sender's [`NodeId`] as a
//! `u64`, followed by a tagged [`Msg`] body. Encoding is self-contained
//! (little-endian integers, `u32`-length-prefixed byte strings and lists)
//! so the deployment path adds no serialization dependency and every
//! decode failure is a typed [`WireError`] — a hostile or torn payload
//! can never panic the daemon.
//!
//! The codec is declarative. `Wire` is implemented once per field
//! *type*; each enum is one table (`tag => Variant { field, … }`) from
//! which both directions are generated, with the field types inferred
//! from the enum itself. **Adding a message or an event is one table
//! line.** Tag rules: tags are explicit, a tag is never reused or
//! renumbered once released, and tag 0 stays unassigned so a zero-filled
//! buffer decodes to a typed error.
//!
//! Both directions run against a byte `Sink` or `Source` rather than
//! a buffer, so the same tables fill a `Vec` ([`encode_envelope`]), read
//! a slice ([`decode_envelope`]) and stream a message to or from a
//! socket inside a frame ([`write_envelope`], [`read_envelope`]) — an
//! image then moves between the `Msg`'s own `Vec` and the kernel without
//! an envelope or frame buffer in between.

use std::io::{Read, Write};

use dvdc::protocol::node_core::{BlockInfo, BlockKind, DigestSource, Msg, StatusView};
use dvdc_observe::registry::{intern, HistSnapshot, MetricsSnapshot, HIST_BUCKETS};
use dvdc_observe::{Event, TimedEvent};
use dvdc_simcore::time::SimTime;
use dvdc_vcluster::ids::NodeId;

use crate::frame::{read_frame_with, write_frame_with, FrameError, Sink, Source};

/// Typed decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The tag byte names no known [`Msg`] (or trace [`Event`]) variant.
    UnknownTag(u8),
    /// The buffer ended before the message did.
    Truncated,
    /// Bytes remained after a complete message — framing and body
    /// disagree about the length.
    TrailingBytes,
    /// A length or enum discriminant field held an impossible value.
    BadLength,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A trace timestamp was NaN, infinite or negative.
    BadTimestamp,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Truncated => write!(f, "message body truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message body"),
            WireError::BadLength => write!(f, "impossible length or discriminant in message body"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTimestamp => write!(f, "trace timestamp is not a finite time >= 0"),
        }
    }
}

impl std::error::Error for WireError {}

/// The tags an enum's table assigns, so tests can prove their samples
/// cover every line of it.
#[cfg(test)]
trait Tagged {
    /// Every assigned tag, in table order.
    const TAGS: &'static [u8];
}

// ---------------------------------------------------------------------
// The per-type codec
// ---------------------------------------------------------------------

/// One field type's encoding. Everything a message can carry implements
/// this exactly once; messages themselves are tables over it.
trait Wire: Sized {
    /// Fewest bytes any value of the type encodes to (never 0). A list
    /// decoder divides the bytes left by this to reject a hostile element
    /// count before allocating anything.
    const MIN_LEN: usize;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>);

    fn get(r: &mut impl Source) -> Result<Self, WireError>;

    /// Encodes list elements back to back; `u8` overrides it with one
    /// bulk put, borrowed where the sink can, so image bytes never move
    /// element by element.
    fn put_all<'a>(items: &'a [Self], out: &mut impl Sink<'a>) {
        for item in items {
            item.put(out);
        }
    }

    /// Decodes `n` elements; the caller has bounded `n` by [`Wire::MIN_LEN`].
    fn get_all(r: &mut impl Source, n: usize) -> Result<Vec<Self>, WireError> {
        (0..n).map(|_| Self::get(r)).collect()
    }
}

/// The next `N` bytes of `r`, for the fixed-width types.
fn take<const N: usize>(r: &mut impl Source) -> Result<[u8; N], WireError> {
    let mut bytes = [0u8; N];
    r.fill(&mut bytes).ok_or(WireError::Truncated)?;
    Ok(bytes)
}

impl Wire for u8 {
    const MIN_LEN: usize = 1;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&[*self]);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        Ok(take::<1>(r)?[0])
    }

    fn put_all<'a>(items: &'a [u8], out: &mut impl Sink<'a>) {
        out.put_ref(items);
    }

    fn get_all(r: &mut impl Source, n: usize) -> Result<Vec<u8>, WireError> {
        r.bytes(n).ok_or(WireError::Truncated)
    }
}

/// Fixed-width little-endian integers (`i64` as its two's-complement
/// bits).
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
                out.put(&self.to_le_bytes());
            }

            fn get(r: &mut impl Source) -> Result<Self, WireError> {
                take(r).map(<$t>::from_le_bytes)
            }
        }
    )*};
}
wire_int!(u32, u64, i64);

/// `usize` travels as a `u64`, so both ends agree whatever their width.
impl Wire for usize {
    const MIN_LEN: usize = 8;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&(*self as u64).to_le_bytes());
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::BadLength)
    }
}

impl Wire for NodeId {
    const MIN_LEN: usize = 8;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        self.0.put(out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        usize::get(r).map(NodeId)
    }
}

impl Wire for f64 {
    const MIN_LEN: usize = 8;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&self.to_bits().to_le_bytes());
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        u64::get(r).map(f64::from_bits)
    }
}

/// A trace timestamp. [`SimTime::from_secs`] asserts its argument, so
/// hostile bits are rejected here, before the constructor can panic.
impl Wire for SimTime {
    const MIN_LEN: usize = 8;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&self.as_secs().to_bits().to_le_bytes());
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        let secs = f64::get(r)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimTime::from_secs(secs))
        } else {
            Err(WireError::BadTimestamp)
        }
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&[*self as u8]);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadLength),
        }
    }
}

/// `u32` element count, then the elements. `Vec<u8>` is the byte-string
/// case and moves in bulk through the `u8` list hooks.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        out.put(&(self.len() as u32).to_le_bytes());
        T::put_all(self, out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        if r.left() / T::MIN_LEN < n {
            return Err(WireError::Truncated);
        }
        T::get_all(r, n)
    }
}

/// Strings are byte strings that must be UTF-8.
fn put_str<'a>(s: &'a str, out: &mut impl Sink<'a>) {
    out.put(&(s.len() as u32).to_le_bytes());
    out.put_ref(s.as_bytes());
}

impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        put_str(self, out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        String::from_utf8(Vec::get(r)?).map_err(|_| WireError::BadUtf8)
    }
}

/// Event phase/mode/kind names: sent as strings, interned on receipt.
impl Wire for &'static str {
    const MIN_LEN: usize = 4;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        put_str(self, out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        Ok(intern(&String::get(r)?))
    }
}

/// Presence byte (0/1), then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        match self {
            None => out.put(&[0]),
            Some(v) => {
                out.put(&[1]);
                v.put(out);
            }
        }
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(WireError::BadLength),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A struct is its fields in order. The types are listed (and checked
/// against the struct by the compiler) so `MIN_LEN` is their sum.
macro_rules! wire_struct {
    ($name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as Wire>::MIN_LEN)*;

            fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
                $(self.$field.put(out);)*
            }

            fn get(r: &mut impl Source) -> Result<Self, WireError> {
                Ok($name { $($field: <$ty>::get(r)?),* })
            }
        }
    };
}

wire_struct!(BlockInfo {
    holder: NodeId,
    kind: BlockKind,
    epoch: u64,
    data: Vec<u8>,
});
wire_struct!(StatusView {
    node: NodeId,
    coordinator: NodeId,
    committed_epoch: u64,
    fence_epoch: u64,
    peers_established: Vec<NodeId>,
    suspected: Vec<NodeId>,
    confirmed: Vec<NodeId>,
    custody: Vec<NodeId>,
    rounds_committed: u64,
    data_loss: bool,
});
wire_struct!(MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistSnapshot)>,
});
wire_struct!(TimedEvent {
    at: SimTime,
    seq: u64,
    event: Event,
});

/// Count, sum, then sparse `(bucket index, count)` pairs; an index past
/// the histogram's bucket range is rejected.
impl Wire for HistSnapshot {
    const MIN_LEN: usize = 8 + 8 + 4;

    fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
        self.count.put(out);
        self.sum.put(out);
        self.buckets.put(out);
    }

    fn get(r: &mut impl Source) -> Result<Self, WireError> {
        let h = HistSnapshot {
            count: Wire::get(r)?,
            sum: Wire::get(r)?,
            buckets: Wire::get(r)?,
        };
        if h.buckets.iter().any(|&(i, _)| i as usize >= HIST_BUCKETS) {
            return Err(WireError::BadLength);
        }
        Ok(h)
    }
}

/// An enum is a tag byte, then the variant's fields in the order the
/// table lists them. `$unknown` turns an unassigned tag into the error.
macro_rules! wire_enum {
    ($name:ident, $unknown:expr; $(
        $tag:literal => $variant:ident $({ $($field:ident),* })? $(( $inner:ident ))?
    ),* $(,)?) => {
        #[cfg(test)]
        impl Tagged for $name {
            const TAGS: &'static [u8] = &[$($tag),*];
        }

        impl Wire for $name {
            const MIN_LEN: usize = 1;

            fn put<'a>(&'a self, out: &mut impl Sink<'a>) {
                match self {$(
                    $name::$variant $({ $($field),* })? $(( $inner ))? => {
                        out.put(&[$tag]);
                        $($($field.put(out);)*)?
                        $($inner.put(out);)?
                    }
                )*}
            }

            fn get(r: &mut impl Source) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $($tag => $name::$variant
                        $({ $($field: Wire::get(r)?),* })?
                        $(({ let $inner = Wire::get(r)?; $inner }))?,)*
                    t => return Err($unknown(t)),
                })
            }
        }
    };
}

wire_enum! { BlockKind, |_| WireError::BadLength; 0 => Data, 1 => Parity }
wire_enum! { DigestSource, |_| WireError::BadLength; 0 => Committed, 1 => Custody, 2 => Missing }

wire_enum! { Msg, WireError::UnknownTag;
    1 => Hello { node, cluster_id, fence_epoch, incarnation },
    2 => Welcome { node, fence_epoch, incarnation },
    3 => Rejected { node, required_epoch, coordinator },
    4 => Heartbeat { node },
    5 => RoundBegin { epoch, sources, holders },
    6 => Payload { epoch, source, fence_epoch, data },
    7 => CaptureAck { epoch, node },
    8 => FoldAck { epoch, node },
    9 => Commit { epoch },
    10 => CommitAck { epoch, node },
    11 => AbortRound { epoch, reason },
    12 => Fence { node, epoch },
    13 => FetchReq { victim },
    14 => FetchBlocks { node, fence_epoch, blocks },
    15 => ResyncReq { node },
    16 => ResyncState { node, fence_epoch, committed_epoch, image },
    17 => ResyncDone { node, fence_epoch },
    18 => Readmit { node, fence_epoch, rollback_epoch },
    19 => StatusReq,
    20 => StatusResp(view),
    21 => CheckpointReq,
    22 => CheckpointDone { epoch },
    23 => CheckpointFailed { reason },
    24 => DigestReq { node },
    25 => DigestResp { node, epoch, digest, source },
    26 => KillQueryReq,
    27 => KillQueryResp { confirmed, suspected },
    28 => MetricsReq,
    29 => MetricsResp(snapshot),
    30 => TraceTailReq { max },
    31 => TraceTailResp { node, now, dropped, events },
    32 => PayloadPart { epoch, source, fence_epoch, offset, data },
    33 => FetchPart { node, fence_epoch, offset, part },
}

// A tag space of its own, independent of `Msg`'s.
wire_enum! { Event, WireError::UnknownTag;
    1 => RoundBegin { epoch },
    2 => RoundPhase { epoch, phase },
    3 => RoundCommitted { epoch },
    4 => RoundAborted { epoch, phase },
    5 => TransferLaunched { id, from, to, bytes, token_epoch },
    6 => TransferArrived { id, from, to, bytes },
    7 => TransferFenced { id, node, held_epoch, current_epoch },
    8 => TransferRetried { id, attempt },
    9 => TransferDropped { id, from, to, bytes },
    10 => HeartbeatArrived { node },
    11 => Suspected { node },
    12 => Confirmed { node },
    13 => Refuted { node },
    14 => FenceRaised { node, epoch },
    15 => FenceReadmitted { node, epoch },
    16 => RebuildBegin { victim, mode, epoch },
    17 => RebuildPhase { victim, phase },
    18 => RebuildCompleted { victim },
    19 => RebuildAborted { victim, phase },
    20 => ScrubCompleted { verified, corrupt, repaired },
    21 => CorruptionInjected { node, blocks },
    22 => DataLoss { node, group },
    23 => SessionEstablished { peer },
    24 => SessionRejected { peer, required_epoch },
    25 => StaleDropped { from, held_epoch, current_epoch },
    26 => PayloadDropped { from },
    27 => ResyncServed { peer },
    28 => FaultInjected { node, kind },
    29 => NodeHealed { node },
    30 => JobRestarted { node },
}

// ---------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------

/// Serialize a `[sender][msg]` envelope — the unit a frame payload
/// carries.
pub fn encode_envelope(from: NodeId, msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope_len(from, msg));
    from.put(&mut out);
    msg.put(&mut out);
    out
}

/// Bytes [`encode_envelope`] would produce, without producing them.
pub fn envelope_len(from: NodeId, msg: &Msg) -> usize {
    let mut len = 0usize;
    from.put(&mut len);
    msg.put(&mut len);
    len
}

fn get_envelope(r: &mut impl Source) -> Result<(NodeId, Msg), WireError> {
    let envelope = (Wire::get(r)?, Wire::get(r)?);
    if r.left() > 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(envelope)
}

/// Decode a `[sender][msg]` envelope. The whole buffer must be consumed
/// — surplus bytes are [`WireError::TrailingBytes`].
pub fn decode_envelope(mut bytes: &[u8]) -> Result<(NodeId, Msg), WireError> {
    get_envelope(&mut bytes)
}

/// Writes `msg` into `w` as one frame in one vectored write, its long
/// byte strings straight from the message: the bytes
/// `write_frame(w, &encode_envelope(from, msg))` would write, with neither
/// buffer built. A message too large for a frame is
/// [`FrameError::Oversized`] and leaves `w` untouched.
pub fn write_envelope<W: Write>(w: &mut W, from: NodeId, msg: &Msg) -> Result<(), FrameError> {
    write_frame_with(w, envelope_len(from, msg), |sink| {
        from.put(sink);
        msg.put(sink);
    })
}

/// Reads one frame from `r` and decodes its envelope as it arrives. The
/// outer error is the frame's (stream, header, digest), the inner one
/// the body's; a message is only returned from a frame whose trailer
/// verified.
pub fn read_envelope<R: Read>(r: &mut R) -> Result<Result<(NodeId, Msg), WireError>, FrameError> {
    read_frame_with(r, |payload| get_envelope(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, MAX_FRAME};
    use dvdc::protocol::node_core::{fnv64, initial_image, CTL, PART_LEN};
    use dvdc_observe::NO_TOKEN;
    use std::collections::BTreeSet;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    fn rt(from: NodeId, msg: Msg) {
        let bytes = encode_envelope(from, &msg);
        let (f2, m2) = decode_envelope(&bytes).unwrap();
        assert_eq!(f2, from);
        assert_eq!(m2, msg);
    }

    /// One sample of every [`Event`] variant.
    fn event_samples() -> Vec<Event> {
        vec![
            Event::RoundBegin { epoch: 1 },
            Event::RoundPhase {
                epoch: 1,
                phase: "Transfer",
            },
            Event::RoundCommitted { epoch: 1 },
            Event::RoundAborted {
                epoch: 2,
                phase: "Capture",
            },
            Event::TransferLaunched {
                id: 7,
                from: 0,
                to: 4,
                bytes: 4096,
                token_epoch: NO_TOKEN,
            },
            Event::TransferArrived {
                id: 7,
                from: 0,
                to: 4,
                bytes: 4096,
            },
            Event::TransferFenced {
                id: 8,
                node: 2,
                held_epoch: 1,
                current_epoch: 2,
            },
            Event::TransferRetried { id: 8, attempt: 3 },
            Event::TransferDropped {
                id: 8,
                from: 2,
                to: 4,
                bytes: 512,
            },
            Event::HeartbeatArrived { node: 1 },
            Event::Suspected { node: 1 },
            Event::Confirmed { node: 1 },
            Event::Refuted { node: 1 },
            Event::FenceRaised { node: 1, epoch: 2 },
            Event::FenceReadmitted { node: 1, epoch: 2 },
            Event::RebuildBegin {
                victim: 1,
                mode: "Failover",
                epoch: 3,
            },
            Event::RebuildPhase {
                victim: 1,
                phase: "Decode",
            },
            Event::RebuildCompleted { victim: 1 },
            Event::RebuildAborted {
                victim: 1,
                phase: "Fetch",
            },
            Event::ScrubCompleted {
                verified: 5,
                corrupt: 1,
                repaired: 1,
            },
            Event::CorruptionInjected { node: 3, blocks: 2 },
            Event::DataLoss { node: 3, group: 0 },
            Event::SessionEstablished { peer: 2 },
            Event::SessionRejected {
                peer: 2,
                required_epoch: 4,
            },
            Event::StaleDropped {
                from: 2,
                held_epoch: 1,
                current_epoch: 4,
            },
            Event::PayloadDropped { from: 2 },
            Event::ResyncServed { peer: 2 },
            Event::FaultInjected {
                node: 0,
                kind: "Crash",
            },
            Event::NodeHealed { node: 0 },
            Event::JobRestarted { node: 0 },
        ]
    }

    /// A `TraceTailResp` carrying every [`Event`] variant.
    fn trace_tail_of_every_event() -> Msg {
        Msg::TraceTailResp {
            node: NodeId(0),
            now: SimTime::from_secs(99.5),
            dropped: 0,
            events: event_samples()
                .into_iter()
                .enumerate()
                .map(|(i, event)| TimedEvent {
                    at: SimTime::from_secs(i as f64 * 0.5),
                    seq: i as u64,
                    event,
                })
                .collect(),
        }
    }

    /// At least one sample of every [`Msg`] variant (both arms of each
    /// optional or possibly-empty field).
    fn msg_samples() -> Vec<Msg> {
        let n = NodeId(3);
        let view = StatusView {
            node: NodeId(0),
            coordinator: NodeId(1),
            committed_epoch: 7,
            fence_epoch: 2,
            peers_established: vec![NodeId(1), NodeId(2)],
            suspected: vec![NodeId(4)],
            confirmed: vec![],
            custody: vec![NodeId(2)],
            rounds_committed: 7,
            data_loss: false,
        };
        let block = BlockInfo {
            holder: NodeId(2),
            kind: BlockKind::Parity,
            epoch: 5,
            data: vec![9u8; 64],
        };
        vec![
            Msg::Hello {
                node: n,
                cluster_id: 42,
                fence_epoch: 1,
                incarnation: 0x1122_3344_5566_7788,
            },
            Msg::Welcome {
                node: n,
                fence_epoch: 1,
                incarnation: 7,
            },
            Msg::Rejected {
                node: n,
                required_epoch: 3,
                coordinator: NodeId(0),
            },
            Msg::Heartbeat { node: n },
            Msg::RoundBegin {
                epoch: 4,
                sources: vec![NodeId(0), NodeId(1)],
                holders: vec![NodeId(4)],
            },
            Msg::Payload {
                epoch: 4,
                source: n,
                fence_epoch: 1,
                data: vec![1, 2, 3],
            },
            Msg::CaptureAck { epoch: 4, node: n },
            Msg::FoldAck { epoch: 4, node: n },
            Msg::Commit { epoch: 4 },
            Msg::CommitAck { epoch: 4, node: n },
            Msg::AbortRound {
                epoch: 4,
                reason: "node 2 confirmed failed".into(),
            },
            Msg::Fence { node: n, epoch: 2 },
            Msg::FetchReq { victim: n },
            Msg::FetchBlocks {
                node: NodeId(0),
                fence_epoch: 2,
                blocks: vec![block],
            },
            Msg::ResyncReq { node: n },
            Msg::ResyncState {
                node: n,
                fence_epoch: 2,
                committed_epoch: 4,
                image: Some(vec![7; 32]),
            },
            Msg::ResyncState {
                node: n,
                fence_epoch: 2,
                committed_epoch: 4,
                image: None,
            },
            Msg::ResyncDone {
                node: n,
                fence_epoch: 2,
            },
            Msg::Readmit {
                node: n,
                fence_epoch: 2,
                rollback_epoch: 4,
            },
            Msg::StatusReq,
            Msg::StatusResp(view),
            Msg::CheckpointReq,
            Msg::CheckpointDone { epoch: 5 },
            Msg::CheckpointFailed {
                reason: "not the coordinator".into(),
            },
            Msg::DigestReq { node: n },
            Msg::DigestResp {
                node: n,
                epoch: 5,
                digest: 0xDEAD_BEEF,
                source: DigestSource::Custody,
            },
            Msg::KillQueryReq,
            Msg::KillQueryResp {
                confirmed: vec![NodeId(2)],
                suspected: vec![NodeId(3), NodeId(4)],
            },
            Msg::MetricsReq,
            Msg::MetricsResp(MetricsSnapshot {
                counters: vec![("transport.frames_in".into(), 42)],
                gauges: vec![("transport.write_queue.peer1".into(), -3)],
                histograms: vec![(
                    "node.round_latency_ns".into(),
                    HistSnapshot {
                        count: 3,
                        sum: 1_500_000,
                        buckets: vec![(19, 2), (20, 1)],
                    },
                )],
            }),
            Msg::MetricsResp(MetricsSnapshot::default()),
            Msg::TraceTailReq { max: 64 },
            trace_tail_of_every_event(),
            Msg::PayloadPart {
                epoch: 4,
                source: n,
                fence_epoch: 1,
                offset: 1 << 18,
                data: vec![4, 5, 6],
            },
            Msg::FetchPart {
                node: NodeId(0),
                fence_epoch: 2,
                offset: 2 << 18,
                part: BlockInfo {
                    holder: NodeId(1),
                    kind: BlockKind::Data,
                    epoch: 5,
                    data: vec![8u8; 16],
                },
            },
        ]
    }

    /// The messages version 4 added: every other one encodes as it did.
    fn is_a_part(msg: &Msg) -> bool {
        matches!(msg, Msg::PayloadPart { .. } | Msg::FetchPart { .. })
    }

    /// The tag a value encodes under (its first byte).
    fn tag_of<T: Wire>(value: &T) -> u8 {
        let mut out = Vec::new();
        value.put(&mut out);
        out[0]
    }

    #[test]
    fn samples_cover_every_table_line() {
        // A variant added to a table without a sample here fails this
        // test, so the round-trip and golden tests below stay exhaustive.
        let msgs: BTreeSet<u8> = msg_samples().iter().map(tag_of).collect();
        assert_eq!(msgs, Msg::TAGS.iter().copied().collect());
        let events: BTreeSet<u8> = event_samples().iter().map(tag_of).collect();
        assert_eq!(events, Event::TAGS.iter().copied().collect());
        // Tags are unique and 0 stays unassigned.
        for tags in [Msg::TAGS, Event::TAGS] {
            assert_eq!(tags.iter().collect::<BTreeSet<_>>().len(), tags.len());
            assert!(!tags.contains(&0));
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in msg_samples() {
            rt(NodeId(1), msg);
        }
    }

    #[test]
    fn every_event_variant_round_trips_in_a_trace_tail() {
        rt(NodeId(0), trace_tail_of_every_event());
    }

    #[test]
    fn wire_bytes_match_the_golden_digest() {
        // Length and FNV-1a/64 of the samples' envelopes, concatenated.
        // Pinned for frame version 4, which added `PayloadPart` and
        // `FetchPart` and changed no other message: without them the
        // samples still encode to version 3's 2185 bytes and digest (which
        // added `incarnation` to `Hello` and `Welcome`; 2169 bytes,
        // 0x3927_044d_7a83_59a6 before). A mismatch means the on-wire
        // format changed: that needs a frame version bump, not a new digest.
        let golden = |keep: fn(&Msg) -> bool| {
            let samples = msg_samples().into_iter().filter(keep);
            let bytes: Vec<u8> = samples
                .flat_map(|m| encode_envelope(NodeId(1), &m))
                .collect();
            (bytes.len(), fnv64(&bytes))
        };
        assert_eq!(golden(|m| !is_a_part(m)), (2185, 0xa8dd_8645_4cb1_8313));
        assert_eq!(golden(|_| true), (2303, 0x3ecd_706d_14f9_731e));
    }

    /// Counts the calls a frame costs the stream it is written to, taking
    /// at most `take` bytes a call.
    struct Counting {
        take: usize,
        vectored: usize,
        plain: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain += 1;
            let n = buf.len().min(self.take);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored += 1;
            let mut left = self.take;
            for buf in bufs {
                let n = buf.len().min(left);
                self.bytes.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.take - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_survives_short_ones() {
        let part = Msg::PayloadPart {
            epoch: 9,
            source: NodeId(2),
            fence_epoch: 1,
            offset: PART_LEN as u64,
            data: initial_image(7, NodeId(2), PART_LEN),
        };
        let last = Msg::FetchBlocks {
            node: NodeId(3),
            fence_epoch: 0,
            blocks: (0..3)
                .map(|i| BlockInfo {
                    holder: NodeId(i),
                    kind: BlockKind::Data,
                    epoch: 2,
                    data: initial_image(7, NodeId(i), 5000 + i),
                })
                .collect(),
        };
        let written = |msg: &Msg, take: usize| {
            let mut stream = Counting {
                take,
                vectored: 0,
                plain: 0,
                bytes: Vec::new(),
            };
            write_envelope(&mut stream, NodeId(1), msg).unwrap();
            stream
        };
        for msg in [part, last, Msg::Commit { epoch: 3 }] {
            let want = encode_frame(&encode_envelope(NodeId(1), &msg));
            // A stream that takes the frame whole: one call, header to trailer.
            let whole = written(&msg, usize::MAX);
            assert_eq!(
                (whole.vectored, whole.plain, whole.bytes),
                (1, 0, want.clone())
            );
            // One that takes 1000 bytes a call: the rest follows, in order.
            let short = written(&msg, 1000);
            let calls = want.len().div_ceil(1000);
            assert_eq!((short.vectored, short.plain, short.bytes), (calls, 0, want));
        }
    }

    /// A stream whose every `read` returns one byte.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((byte, rest)), Some(slot)) => {
                    *slot = *byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn image_payload(len: usize) -> Msg {
        Msg::Payload {
            epoch: 9,
            source: NodeId(2),
            fence_epoch: 1,
            data: (0..len).map(|i| ((i * 31) >> 3) as u8).collect(),
        }
    }

    #[test]
    fn streamed_frames_are_the_buffered_bytes_and_read_back_off_any_stream() {
        // The golden set plus an image that takes the unbuffered path on
        // both sides, several chunks long with a ragged end.
        let mut msgs = msg_samples();
        msgs.push(image_payload((1 << 20) + 5));
        let from = NodeId(1);
        let mut wire = Vec::new();
        for msg in &msgs {
            let mut streamed = Vec::new();
            write_envelope(&mut streamed, from, msg).unwrap();
            assert_eq!(streamed, encode_frame(&encode_envelope(from, msg)));
            wire.extend(streamed);
        }

        let mut trickle = Trickle(&wire);
        for msg in &msgs {
            assert_eq!(read_envelope(&mut trickle), Ok(Ok((from, msg.clone()))));
        }
        assert!(trickle.0.is_empty());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut rx = BufReader::new(listener.accept().unwrap().0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for msg in &msgs {
                    write_envelope(&mut tx, from, msg).unwrap();
                }
            });
            for msg in &msgs {
                assert_eq!(read_envelope(&mut rx), Ok(Ok((from, msg.clone()))));
            }
        });
    }

    #[test]
    fn one_flipped_bit_in_an_image_in_flight_is_a_checksum_error() {
        let mut frame = Vec::new();
        write_envelope(&mut frame, NodeId(2), &image_payload(1 << 20)).unwrap();
        let middle = frame.len() / 2;
        frame[middle] ^= 0x10;
        assert!(matches!(
            read_envelope(&mut frame.as_slice()),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn corrupt_body_is_reported_as_the_corruption_not_as_a_codec_error() {
        // The flipped tag byte makes the body undecodable; the frame is
        // still read to its trailer and judged there.
        let mut frame = Vec::new();
        write_envelope(&mut frame, NodeId(1), &Msg::Commit { epoch: 9 }).unwrap();
        frame[crate::frame::HEADER_LEN + 8] = 0xEE;
        assert!(matches!(
            read_envelope(&mut frame.as_slice()),
            Err(FrameError::Checksum { .. })
        ));
        // The same body under a valid trailer is the codec's to reject.
        let mut body = encode_envelope(NodeId(1), &Msg::Commit { epoch: 9 });
        body[8] = 0xEE;
        assert_eq!(
            read_envelope(&mut encode_frame(&body).as_slice()),
            Ok(Err(WireError::UnknownTag(0xEE)))
        );
    }

    #[test]
    fn byte_string_longer_than_its_frame_is_truncated_not_allocated() {
        // A Payload whose data length field claims 4 GiB - 1 inside a
        // frame that ends right there: refused on the length alone.
        let mut body = encode_envelope(
            NodeId(1),
            &Msg::Payload {
                epoch: 1,
                source: NodeId(0),
                fence_epoch: 0,
                data: Vec::new(),
            },
        );
        let n = body.len();
        body[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_envelope(&body), Err(WireError::Truncated));
        assert_eq!(
            read_envelope(&mut encode_frame(&body).as_slice()),
            Ok(Err(WireError::Truncated))
        );
    }

    #[test]
    fn message_too_large_for_a_frame_is_refused_before_a_byte_is_written() {
        let msg = Msg::Payload {
            epoch: 1,
            source: NodeId(0),
            fence_epoch: 0,
            data: vec![0; MAX_FRAME as usize],
        };
        let mut out = Vec::new();
        assert_eq!(
            write_envelope(&mut out, NodeId(0), &msg),
            Err(FrameError::Oversized {
                len: MAX_FRAME + 37
            })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn hostile_trace_timestamp_is_a_typed_error() {
        let msg = Msg::TraceTailResp {
            node: NodeId(0),
            now: SimTime::from_secs(1.0),
            dropped: 0,
            events: vec![TimedEvent {
                at: SimTime::from_secs(1.5),
                seq: 0,
                event: Event::RoundBegin { epoch: 4 },
            }],
        };
        let valid = encode_envelope(NodeId(0), &msg);
        // The envelope starts [sender u64][tag u8][node u64][now f64] and
        // ends [at f64][seq u64][tag u8][epoch u64].
        for at in [8 + 1 + 8, valid.len() - (8 + 8 + 1 + 8)] {
            for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let mut bytes = valid.clone();
                bytes[at..at + 8].copy_from_slice(&hostile.to_bits().to_le_bytes());
                assert_eq!(decode_envelope(&bytes), Err(WireError::BadTimestamp));
            }
        }
    }

    #[test]
    fn hostile_metrics_and_trace_counts_cannot_oom() {
        // MetricsResp with a counter count of u32::MAX and no bytes
        // behind it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(29); // MetricsResp
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_envelope(&bytes), Err(WireError::Truncated));

        // TraceTailResp with a hostile event count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(31); // TraceTailResp
        bytes.extend_from_slice(&2u64.to_le_bytes()); // node
        bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // now
        bytes.extend_from_slice(&0u64.to_le_bytes()); // dropped
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
        assert_eq!(decode_envelope(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_histogram_bucket_index_is_rejected() {
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![(
                "h".into(),
                HistSnapshot {
                    count: 1,
                    sum: 1,
                    buckets: vec![(7, 1)],
                },
            )],
        };
        let mut bytes = encode_envelope(NodeId(0), &Msg::MetricsResp(snap));
        // Flip the bucket index (last 9 bytes are [index][count u64]) to
        // one past the valid range.
        let idx_pos = bytes.len() - 9;
        bytes[idx_pos] = dvdc_observe::registry::HIST_BUCKETS as u8;
        assert_eq!(decode_envelope(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn ctl_sender_round_trips() {
        rt(CTL, Msg::StatusReq);
        let bytes = encode_envelope(CTL, &Msg::CheckpointReq);
        let (from, _) = decode_envelope(&bytes).unwrap();
        assert_eq!(from, CTL);
    }

    #[test]
    fn zeroed_buffer_is_a_typed_error() {
        assert_eq!(decode_envelope(&[0u8; 9]), Err(WireError::UnknownTag(0)));
    }

    #[test]
    fn short_buffer_is_truncated() {
        assert_eq!(decode_envelope(&[1, 2, 3]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = encode_envelope(NodeId(1), &Msg::Commit { epoch: 9 });
        bytes.push(0);
        assert_eq!(decode_envelope(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn hostile_node_list_count_cannot_oom() {
        // Envelope: sender + RoundBegin with a sources count of u32::MAX
        // but no bytes behind it — must be Truncated, not an allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(5); // RoundBegin
        bytes.extend_from_slice(&4u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // sources count
        assert_eq!(decode_envelope(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn truncating_any_prefix_never_panics() {
        let msg = Msg::FetchBlocks {
            node: NodeId(0),
            fence_epoch: 2,
            blocks: vec![BlockInfo {
                holder: NodeId(1),
                kind: BlockKind::Data,
                epoch: 3,
                data: vec![5; 40],
            }],
        };
        let bytes = encode_envelope(NodeId(0), &msg);
        for cut in 0..bytes.len() {
            assert!(decode_envelope(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
