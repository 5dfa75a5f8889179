//! The two ceilings the data path is measured against: a plain memory copy
//! and a raw loopback TCP copy, with none of the repository's code between.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use super::{filler, gb_per_s};

/// Bytes one loopback repetition moves.
const LOOPBACK_BYTES: usize = 32 << 20;

/// One writer thread sends `image` over 127.0.0.1 until `LOOPBACK_BYTES`
/// have gone; this thread reads them. Writes are image-sized, as the
/// runtime's are.
fn loopback_copy(image: &[u8]) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let writes = (LOOPBACK_BYTES / image.len()).max(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect loopback");
            stream.set_nodelay(true).expect("nodelay");
            for _ in 0..writes {
                stream.write_all(image).expect("loopback write");
            }
        });
        let (mut stream, _) = listener.accept().expect("accept loopback");
        let mut buf = vec![0u8; image.len().clamp(4 << 10, 1 << 20)];
        let mut left = writes * image.len();
        while left > 0 {
            let n = stream.read(&mut buf).expect("loopback read");
            assert!(n > 0, "loopback closed early");
            left -= n;
        }
    });
}

pub fn pass(image_len: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let image = filler(image_len, seed);
    let mut copy = vec![0u8; image_len];
    let writes = (LOOPBACK_BYTES / image_len).max(1);
    vec![
        (
            "os.memcpy_gb_s",
            gb_per_s(image_len, || (), |()| copy.copy_from_slice(&image)),
        ),
        (
            "os.loopback_copy_gb_s",
            // One call already moves `LOOPBACK_BYTES`; connection set-up
            // is inside it and small beside the copy.
            gb_per_s(writes * image_len, || (), |()| loopback_copy(&image)),
        ),
    ]
}
