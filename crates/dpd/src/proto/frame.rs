//! The transport framing layer: length-prefixed, CRC-guarded frames over
//! a byte stream, plus the connection handshake.
//!
//! ```text
//! handshake (each direction, once):  magic "DPN1" | version u32 le
//! frame:  len u32 le | crc32 u32 le | payload[len]
//! ```
//!
//! The framing extends the `wire.rs` no-OOM guarantee to the socket: a
//! declared length above [`MAX_FRAME`] is refused before any allocation,
//! and the payload is read in bounded chunks so a lying length can never
//! pre-allocate. Every failure is a typed [`FrameError`], never a panic.

use dp_support::crc32::crc32;
use std::io::{self, Read, Write};

/// Connection magic, exchanged by both ends before any frame.
pub const PROTO_MAGIC: [u8; 4] = *b"DPN1";

/// Protocol version, exchanged with the magic. Mismatches are refused at
/// handshake time so framing never has to guess. Version 2 submits the
/// recorder configuration without its retired start-checkpoint flag.
pub const PROTO_VERSION: u32 = 2;

/// Hard cap on a frame's declared payload length. Requests are tiny and
/// attach chunks are bounded well under this; anything larger is a
/// corrupt or hostile stream.
pub const MAX_FRAME: usize = 4 << 20;

/// Payload bytes read per `read` call while draining a frame — the
/// allocation granule that keeps lying lengths harmless.
const READ_CHUNK: usize = 4096;

/// A typed framing-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// Transport I/O failed (peer died mid-frame, socket error).
    Io(io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// A read timeout expired with no frame started (only seen on
    /// streams with a read timeout configured — the server's idle tick).
    Idle,
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The length the header claimed.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes of the current unit actually read.
        got: usize,
        /// Bytes the frame required.
        want: usize,
    },
    /// The payload CRC does not match the header.
    Corrupt {
        /// CRC the header declared.
        expected: u32,
        /// CRC of the bytes received.
        got: u32,
    },
    /// The handshake magic or version did not match.
    BadHandshake {
        /// Which part mismatched.
        detail: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Idle => write!(f, "read timed out before a frame started"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::Truncated { got, want } => {
                write!(f, "stream truncated mid-frame ({got} of {want} bytes)")
            }
            FrameError::Corrupt { expected, got } => write!(
                f,
                "frame CRC mismatch (header {expected:#010x}, payload {got:#010x})"
            ),
            FrameError::BadHandshake { detail } => write!(f, "handshake failed: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// True when the error kind means "the read timed out", for streams with
/// a read timeout configured.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `dst` from `r`, distinguishing a clean close before the first
/// byte (`ok(false)`) from truncation after it.
fn read_full(r: &mut impl Read, dst: &mut [u8], what_want: usize) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < dst.len() {
        match r.read(&mut dst[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated {
                        got,
                        want: what_want,
                    })
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Before the first byte a timeout is the idle tick; once a
            // frame has started the peer is committed, so keep waiting —
            // a dead peer ends with a close (`Ok(0)`), not a timeout.
            Err(e) if timed_out(&e) => {
                if got == 0 {
                    return Err(FrameError::Idle);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Writes the handshake greeting (magic + version).
///
/// # Errors
///
/// Transport I/O failures.
pub fn send_hello(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&PROTO_MAGIC)?;
    w.write_all(&PROTO_VERSION.to_le_bytes())?;
    w.flush()
}

/// Reads and verifies the peer's handshake greeting.
///
/// # Errors
///
/// [`FrameError::BadHandshake`] on magic/version mismatch,
/// [`FrameError::Closed`] / [`FrameError::Truncated`] /
/// [`FrameError::Io`] on transport trouble.
pub fn expect_hello(r: &mut impl Read) -> Result<(), FrameError> {
    let mut hello = [0u8; 8];
    if !read_full(r, &mut hello, 8)? {
        return Err(FrameError::Closed);
    }
    if hello[0..4] != PROTO_MAGIC {
        return Err(FrameError::BadHandshake {
            detail: "bad magic",
        });
    }
    let version = u32::from_le_bytes(hello[4..8].try_into().expect("4 bytes"));
    if version != PROTO_VERSION {
        return Err(FrameError::BadHandshake {
            detail: "version mismatch",
        });
    }
    Ok(())
}

/// Writes one frame (header + CRC + payload) and flushes.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`]; transport I/O
/// failures otherwise.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_FRAME}", payload.len()),
        ));
    }
    // One write call per frame: a reader with a read timeout must never
    // see a gap between the header and the payload just because the
    // writer got descheduled between two syscalls.
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    w.write_all(&out)?;
    w.flush()
}

/// Reads one frame's payload into `buf` (cleared first).
///
/// The declared length is validated against [`MAX_FRAME`] before a byte
/// of payload is read, and the payload accumulates in [`READ_CHUNK`]
/// steps — a hostile header cannot force a large allocation.
///
/// # Errors
///
/// Every [`FrameError`] variant: `Closed` at a frame boundary, `Idle` on
/// a pre-frame read timeout, `Truncated`/`Io` mid-frame, `Oversized` and
/// `Corrupt` for bad frames.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut head = [0u8; 8];
    if !read_full(r, &mut head, 8)? {
        return Err(FrameError::Closed);
    }
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    buf.clear();
    let mut chunk = [0u8; READ_CHUNK];
    while buf.len() < len {
        let want = (len - buf.len()).min(READ_CHUNK);
        match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    got: buf.len(),
                    want: len,
                })
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Mid-frame timeouts keep waiting (see `read_full`).
            Err(e) if timed_out(&e) => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let got = crc32(buf);
    if got != expected {
        return Err(FrameError::Corrupt { expected, got });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 10_000][..]] {
            let encoded = frame_bytes(payload);
            let mut buf = Vec::new();
            read_frame(&mut &encoded[..], &mut buf).unwrap();
            assert_eq!(buf, payload);
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        let encoded = frame_bytes(b"hello framing");
        for cut in 0..encoded.len() {
            let mut buf = Vec::new();
            let err = read_frame(&mut &encoded[..cut], &mut buf).unwrap_err();
            match (cut, err) {
                (0, FrameError::Closed) => {}
                (_, FrameError::Truncated { .. }) => {}
                (c, e) => panic!("cut {c}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_corrupt_or_bounded() {
        let encoded = frame_bytes(b"flip me");
        for bit in 0..encoded.len() * 8 {
            let mut bad = encoded.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut buf = Vec::new();
            // Flipping a length byte up yields Truncated/Oversized;
            // flipping it down leaves trailing bytes (fine for a single
            // read); anything touching CRC or payload must be Corrupt.
            match read_frame(&mut &bad[..], &mut buf) {
                Ok(()) => assert!(bit / 8 < 4, "payload/CRC flip at bit {bit} passed"),
                Err(
                    FrameError::Corrupt { .. }
                    | FrameError::Truncated { .. }
                    | FrameError::Oversized { .. },
                ) => {}
                Err(e) => panic!("bit {bit}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn oversized_header_is_refused_before_allocation() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        let mut buf = Vec::new();
        let err = read_frame(&mut &bad[..], &mut buf).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
        assert_eq!(buf.capacity(), 0, "oversized length must not allocate");
        assert!(write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn handshake_round_trips_and_rejects() {
        let mut hello = Vec::new();
        send_hello(&mut hello).unwrap();
        expect_hello(&mut &hello[..]).unwrap();
        let mut bad_magic = hello.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            expect_hello(&mut &bad_magic[..]),
            Err(FrameError::BadHandshake {
                detail: "bad magic"
            })
        ));
        let mut bad_version = hello.clone();
        bad_version[4] = 99;
        assert!(matches!(
            expect_hello(&mut &bad_version[..]),
            Err(FrameError::BadHandshake {
                detail: "version mismatch"
            })
        ));
        assert!(matches!(
            expect_hello(&mut &hello[..3]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            expect_hello(&mut &[][..]),
            Err(FrameError::Closed)
        ));
    }
}
