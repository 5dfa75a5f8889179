//! Length-prefixed framed codec for DVDC sockets.
//!
//! Wire layout of one frame:
//!
//! ```text
//! magic   u32 LE   0x4456_4443  ("DVDC" read as big-endian ASCII)
//! version u8       4
//! flags   u8       0 (reserved)
//! len     u32 LE   payload length in bytes, <= MAX_FRAME
//! payload len bytes
//! digest  u64 LE   XXH64 (seed 0) of the payload
//! ```
//!
//! Every malformed input maps to a typed [`FrameError`] — the decoder
//! never panics and never silently resynchronises on garbage (a stream
//! with a bad magic or checksum is dead; the link layer reconnects).
//! Earlier versions are not spoken: a version 1 frame (FNV-1a trailer), a
//! version 2 frame (same layout, `Hello`/`Welcome` without an
//! incarnation) or a version 3 frame (blocks whole, no part messages) is
//! [`FrameError::Version`], so a cluster of mixed builds fails typed at
//! the first header instead of misreading a message.
//!
//! A frame is built in memory ([`encode_frame`]) or streamed: the codec in
//! [`wire`](crate::wire) emits a message into a [`Sink`] and reads one
//! from a [`Source`]. [`FrameSink`] gathers a frame for one vectored write
//! to a stream, borrowing a long byte string where it lies, and
//! [`FrameSource`] reads one off a stream; each keeps the digest as the
//! bytes pass, so an image crosses this layer without being copied.

use std::io::{IoSlice, Read, Write};

use dvdc_simcore::rng::Xxh64;

/// Frame magic: the ASCII bytes `DVDC` packed big-endian-first into a
/// `u32`, serialized little-endian on the wire.
pub const MAGIC: u32 = 0x4456_4443;

/// Codec version carried in every frame header.
pub const VERSION: u8 = 4;

/// Hard cap on payload size (64 MiB). Larger `len` fields are rejected
/// before any allocation — a corrupt or hostile length cannot OOM the
/// process or stall the reader.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Fixed header size: magic + version + flags + len.
pub const HEADER_LEN: usize = 10;

/// Checksum trailer size.
pub const TRAILER_LEN: usize = 8;

/// Typed framing failures. `Io` carries only the [`std::io::ErrorKind`]
/// so the error stays `PartialEq` and cheaply clonable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`] — not a DVDC stream.
    BadMagic {
        /// The value actually read.
        got: u32,
    },
    /// The version byte is not one this build speaks.
    Version {
        /// The version actually read.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload digest did not match the trailer — torn or corrupt.
    Checksum {
        /// Digest recomputed over the received payload.
        expected: u64,
        /// Digest carried in the trailer.
        got: u64,
    },
    /// A one-shot decode was handed fewer bytes than one whole frame.
    Truncated,
    /// The underlying stream failed (includes EOF mid-frame as
    /// [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (want {MAGIC:#010x})")
            }
            FrameError::Version { got } => {
                write!(f, "unsupported frame version {got} (want {VERSION})")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            FrameError::Checksum { expected, got } => write!(
                f,
                "frame checksum mismatch: payload digests to {expected:#018x}, trailer says {got:#018x}"
            ),
            FrameError::Truncated => write!(f, "truncated frame: fewer bytes than one whole frame"),
            FrameError::Io(kind) => write!(f, "frame io error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// A byte string at least this long is written from where it lies;
/// shorter ones are copied in with the fields around them.
const WRITE_BUF: usize = 4096;

/// A large byte string is read off a stream this much at a time, and
/// digested as each chunk lands.
const CHUNK: usize = 256 << 10;

/// Where a codec puts the bytes of a payload: a `Vec`, a length counter,
/// or a frame on its way to a stream. Bytes that live as long as `'a` may
/// be borrowed rather than copied.
pub(crate) trait Sink<'a> {
    /// Copies `bytes` into the payload.
    fn put(&mut self, bytes: &[u8]);

    /// Adds `bytes` to the payload, borrowing them where the sink can.
    fn put_ref(&mut self, bytes: &'a [u8]) {
        self.put(bytes);
    }
}

impl Sink<'_> for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A `usize` counts what an encoding would occupy — the length a frame
/// header announces before the payload is streamed behind it.
impl Sink<'_> for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// Where a codec takes the bytes of a payload from: a slice, or a stream
/// behind a digest. `None`: the payload ended (or its stream failed)
/// before the field did.
pub(crate) trait Source {
    /// Payload bytes not yet taken. A length field larger than this is
    /// rejected before anything is allocated for it.
    fn left(&self) -> usize;

    /// Fills `out` with the next `out.len()` bytes.
    fn fill(&mut self, out: &mut [u8]) -> Option<()>;

    /// The next `n` bytes as the `Vec` the decoded message will own.
    fn bytes(&mut self, n: usize) -> Option<Vec<u8>>;
}

impl Source for &[u8] {
    fn left(&self) -> usize {
        self.len()
    }

    fn fill(&mut self, out: &mut [u8]) -> Option<()> {
        let (head, rest) = self.split_at_checked(out.len())?;
        out.copy_from_slice(head);
        *self = rest;
        Some(())
    }

    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        let (head, rest) = self.split_at_checked(n)?;
        *self = rest;
        Some(head.to_vec())
    }
}

/// One outbound frame, gathered for a single vectored write: the header,
/// fields and short byte strings are copied into `small`; each long byte
/// string is borrowed where it lies, with the length `small` had when it
/// came; the payload is digested as it passes.
pub(crate) struct FrameSink<'a> {
    small: Vec<u8>,
    long: Vec<(usize, &'a [u8])>,
    digest: Xxh64,
    put_len: usize,
}

impl<'a> Sink<'a> for FrameSink<'a> {
    fn put(&mut self, bytes: &[u8]) {
        self.put_len += bytes.len();
        self.digest.update(bytes);
        self.small.extend_from_slice(bytes);
    }

    fn put_ref(&mut self, bytes: &'a [u8]) {
        if bytes.len() < WRITE_BUF {
            return self.put(bytes);
        }
        self.put_len += bytes.len();
        self.digest.update(bytes);
        self.long.push((self.small.len(), bytes));
    }
}

/// Writes one frame into `w` in one vectored write, repeated only for
/// what the stream did not take: the header for a payload of `len` bytes,
/// whatever `fill` puts (exactly `len` bytes), the trailer. An oversized
/// `len` is refused before anything is written, so the stream stays
/// usable.
pub(crate) fn write_frame_with<'a, W: Write>(
    w: &mut W,
    len: usize,
    fill: impl FnOnce(&mut FrameSink<'a>),
) -> Result<(), FrameError> {
    let len32 = u32::try_from(len).unwrap_or(u32::MAX);
    if len32 > MAX_FRAME {
        return Err(FrameError::Oversized { len: len32 });
    }
    let mut sink = FrameSink {
        small: Vec::with_capacity(WRITE_BUF),
        long: Vec::new(),
        digest: Xxh64::default(),
        put_len: 0,
    };
    // The header; its flags (byte 5) are reserved, 0.
    sink.small
        .extend(MAGIC.to_le_bytes().into_iter().chain([VERSION, 0]));
    sink.small.extend(len32.to_le_bytes());
    fill(&mut sink);
    assert_eq!(sink.put_len, len, "payload is as long as its header says");
    sink.small.extend(sink.digest.finish().to_le_bytes());
    let (mut slices, mut at) = (Vec::with_capacity(2 * sink.long.len() + 1), 0);
    for &(end, bytes) in &sink.long {
        slices.extend([IoSlice::new(&sink.small[at..end]), IoSlice::new(bytes)]);
        at = end;
    }
    slices.push(IoSlice::new(&sink.small[at..]));
    let mut slices = &mut slices[..];
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(FrameError::Io(std::io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(w.flush()?)
}

/// Encode one payload into a complete frame (header + payload + trailer).
///
/// # Panics
///
/// Panics if `payload.len()` exceeds [`MAX_FRAME`]; [`write_frame`]
/// returns [`FrameError::Oversized`] instead.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    write_frame(&mut out, payload).expect("outbound frame exceeds MAX_FRAME");
    out
}

/// Validate a header already known to hold [`HEADER_LEN`] bytes; returns
/// the payload length.
fn parse_header(header: &[u8]) -> Result<usize, FrameError> {
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    if header[4] != VERSION {
        return Err(FrameError::Version { got: header[4] });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    Ok(len as usize)
}

/// Incremental decoder for a byte stream that arrives in arbitrary
/// chunks. Feed bytes in with [`feed`](FrameDecoder::feed), pull whole
/// frames out with [`next_frame`](FrameDecoder::next_frame). A partial
/// frame simply yields `Ok(None)` until more bytes arrive; malformed
/// bytes yield a typed error and poison the decoder (the stream cannot be
/// trusted past the first framing violation). Frames are parsed by
/// [`read_frame`], the reader a socket's frames go through.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes the frame at the head of `buf` needs as far as an attempt
    /// that found it torn has read: its header, or all of it once the
    /// header is in. Nothing is parsed again until they are buffered.
    need: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append raw bytes received from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete frame. `Ok(None)` means "need
    /// more bytes"; errors are sticky — once the stream violates framing,
    /// every subsequent call returns the same error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buf.len() < self.need {
            return Ok(None);
        }
        let (mut rest, mut need) = (&self.buf[..], HEADER_LEN);
        let read = read_frame_with(&mut rest, |payload| {
            need = HEADER_LEN + payload.left() + TRAILER_LEN;
            payload.bytes(payload.left())
        });
        match read.and_then(|payload| payload.ok_or(FrameError::Truncated)) {
            Ok(payload) => {
                let used = self.buf.len() - rest.len();
                self.buf.drain(..used);
                self.need = 0;
                Ok(Some(payload))
            }
            Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof)) => {
                self.need = need;
                Ok(None)
            }
            Err(e) => Err(self.poisoned.insert(e).clone()),
        }
    }
}

/// One-shot decode of a buffer expected to hold exactly one whole frame
/// (e.g. a control-plane reply read to EOF). Fewer bytes than a whole
/// frame is [`FrameError::Truncated`]; surplus bytes after the frame are
/// also `Truncated` (the caller's "exactly one" expectation was torn
/// either way).
pub fn decode_exact(mut bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    match read_frame(&mut bytes) {
        Ok(payload) if bytes.is_empty() => Ok(payload),
        Ok(_) | Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof)) => {
            Err(FrameError::Truncated)
        }
        Err(e) => Err(e),
    }
}

/// The payload of one inbound frame on its way out of `r`. The first
/// stream error sticks; [`read_frame_with`] reports it.
pub(crate) struct FrameSource<'a, R: Read> {
    r: &'a mut R,
    left: usize,
    digest: Xxh64,
    err: Option<std::io::ErrorKind>,
}

impl<R: Read> FrameSource<'_, R> {
    fn fail<T>(&mut self, kind: std::io::ErrorKind) -> Option<T> {
        self.err = Some(kind);
        self.left = 0;
        None
    }

    /// Digests what the decoder did not take, so the trailer can still
    /// be judged: a decoder that gave up on a corrupt payload leaves the
    /// corruption to be reported as what it is.
    fn skip_rest(&mut self) {
        let mut scratch = [0u8; WRITE_BUF];
        while self.left > 0
            && self
                .fill(&mut scratch[..self.left.min(WRITE_BUF)])
                .is_some()
        {}
    }
}

impl<R: Read> Source for FrameSource<'_, R> {
    fn left(&self) -> usize {
        self.left
    }

    fn fill(&mut self, out: &mut [u8]) -> Option<()> {
        if self.left < out.len() {
            return None;
        }
        if let Err(e) = self.r.read_exact(out) {
            return self.fail(e.kind());
        }
        self.digest.update(out);
        self.left -= out.len();
        Some(())
    }

    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.left < n {
            return None;
        }
        // `read_to_end` on a `Take` appends into spare capacity: the
        // bytes go from the stream into the Vec the message keeps, with
        // no zero-fill first and no staging copy after.
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let start = out.len();
            let want = (n - start).min(CHUNK) as u64;
            match self.r.by_ref().take(want).read_to_end(&mut out) {
                Ok(0) => return self.fail(std::io::ErrorKind::UnexpectedEof),
                Ok(_) => self.digest.update(&out[start..]),
                Err(e) => return self.fail(e.kind()),
            }
        }
        self.left -= n;
        Some(out)
    }
}

/// Reads one frame from `r`, handing its payload to `decode` as a
/// [`Source`] while it arrives. The trailer is verified before the
/// decoder's verdict is returned, whatever that verdict was, so a
/// corrupt frame is always a [`FrameError::Checksum`] and a decoded
/// value is never released unverified.
pub(crate) fn read_frame_with<R: Read, T>(
    r: &mut R,
    decode: impl FnOnce(&mut FrameSource<'_, R>) -> T,
) -> Result<T, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut source = FrameSource {
        left: parse_header(&header)?,
        r,
        digest: Xxh64::default(),
        err: None,
    };
    let decoded = decode(&mut source);
    source.skip_rest();
    if let Some(kind) = source.err {
        return Err(FrameError::Io(kind));
    }
    let expected = source.digest.finish();
    let mut trailer = [0u8; TRAILER_LEN];
    r.read_exact(&mut trailer)?;
    let got = u64::from_le_bytes(trailer);
    if expected != got {
        return Err(FrameError::Checksum { expected, got });
    }
    Ok(decoded)
}

/// Blocking read of one whole frame from a stream. EOF before the first
/// header byte is reported as `Io(UnexpectedEof)` like any other torn
/// read — callers that treat clean EOF as normal shutdown match on it.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    read_frame_with(r, |payload| payload.bytes(payload.left()))?.ok_or(FrameError::Truncated)
}

/// Blocking write of one payload as a whole frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_with(w, payload.len(), |sink| sink.put_ref(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let payload = b"hello dvdc".to_vec();
        let frame = encode_frame(&payload);
        assert_eq!(decode_exact(&frame).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = encode_frame(&[]);
        assert_eq!(frame.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(decode_exact(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_frame_is_typed_not_a_hang() {
        let frame = encode_frame(b"payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(
                decode_exact(&frame[..cut]),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_after_exact_frame_is_truncated() {
        let mut frame = encode_frame(b"x");
        frame.push(0xAA);
        assert_eq!(decode_exact(&frame), Err(FrameError::Truncated));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(b"x");
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_exact(&frame),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut frame = encode_frame(b"x");
        frame[4] = 9;
        assert_eq!(decode_exact(&frame), Err(FrameError::Version { got: 9 }));
    }

    #[test]
    fn version_1_frame_is_refused_by_version() {
        // What the previous formats put on the wire: version byte 1 and an
        // FNV-1a trailer; version byte 2 and today's trailer, around a
        // handshake without incarnations; version byte 3, around blocks
        // sent whole.
        let payload = b"from an old daemon";
        for got in [1, 2, 3] {
            let mut frame = encode_frame(payload);
            frame[4] = got;
            if got == 1 {
                let at = frame.len() - TRAILER_LEN;
                frame[at..].copy_from_slice(&dvdc_simcore::rng::fnv1a64(payload).to_le_bytes());
            }
            assert_eq!(decode_exact(&frame), Err(FrameError::Version { got }));
            assert_eq!(
                read_frame(&mut frame.as_slice()),
                Err(FrameError::Version { got })
            );
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            assert_eq!(dec.next_frame(), Err(FrameError::Version { got }));
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(b"x");
        frame[6..10].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            decode_exact(&frame),
            Err(FrameError::Oversized { len: MAX_FRAME + 1 })
        );
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut frame = encode_frame(b"checksum me");
        frame[HEADER_LEN + 3] ^= 0x01;
        assert!(matches!(
            decode_exact(&frame),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn decoder_reassembles_frames_fed_one_byte_at_a_time() {
        let payloads: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![], vec![0u8; 300]];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.feed(&[b]);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_poisons_on_corrupt_stream() {
        let mut frame = encode_frame(b"abc");
        let n = frame.len();
        frame[n - 1] ^= 0xFF; // corrupt the trailer
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let first = dec.next_frame();
        assert!(matches!(first, Err(FrameError::Checksum { .. })));
        // Sticky: feeding a now-valid frame does not resurrect the stream.
        dec.feed(&encode_frame(b"later"));
        assert_eq!(dec.next_frame(), first);
    }

    #[test]
    fn read_frame_reports_torn_stream_as_unexpected_eof() {
        let frame = encode_frame(b"stream me");
        let mut cursor = std::io::Cursor::new(frame[..frame.len() - 2].to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof))
        );
    }

    #[test]
    fn decoder_keeps_the_bytes_of_later_frames() {
        let mut stream = encode_frame(&[7u8; 5000]);
        stream.extend_from_slice(&encode_frame(b"next"));
        stream.extend_from_slice(&encode_frame(b"torn")[..6]);
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap(), [7u8; 5000]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"next");
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.buffered(), 6);
    }

    #[test]
    fn oversized_outbound_payload_is_typed_not_a_panic() {
        let mut out = Vec::new();
        let too_long = vec![0u8; MAX_FRAME as usize + 1];
        assert_eq!(
            write_frame(&mut out, &too_long),
            Err(FrameError::Oversized { len: MAX_FRAME + 1 })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn write_then_read_over_a_cursor() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"over the wire").unwrap();
        write_frame(&mut buf, b"twice").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"over the wire");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"twice");
    }
}
