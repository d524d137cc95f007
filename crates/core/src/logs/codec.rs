//! Compact binary encoding of logs.
//!
//! The paper's log-size table reports *compressed* log rates; this codec is
//! the reproduction's analogue: LEB128 varints for counts and deltas, raw
//! bytes for payloads. It is used both to measure realistic log sizes
//! (Table "log sizes", experiment E4) and as the wire format when a
//! recording is saved.

use super::schedule::{SchedEvent, ScheduleLog};
use super::syscalls::{SyscallLog, SyscallLogEntry};
use dp_os::kernel::{ExternalChunk, ExternalDest, SyscallEffect};
use dp_vm::Tid;

/// Encoding/decoding failure (truncated or corrupt input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset at which decoding failed.
    pub offset: usize,
    /// What was being decoded.
    pub context: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log decode error at byte {}: {}",
            self.offset, self.context
        )
    }
}

impl std::error::Error for CodecError {}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
///
/// # Errors
///
/// Fails on truncation or overlong (>10-byte) encodings.
pub fn get_varint(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError {
            offset: *pos,
            context,
        })?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError {
                offset: *pos,
                context,
            });
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn get_bytes(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<Vec<u8>, CodecError> {
    let len = get_varint(buf, pos, context)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError {
        offset: *pos,
        context,
    })?;
    if end > buf.len() {
        return Err(CodecError {
            offset: *pos,
            context,
        });
    }
    let out = buf[*pos..end].to_vec();
    *pos = end;
    Ok(out)
}

const TAG_SLICE: u8 = 0;
const TAG_WAKE: u8 = 1;
const TAG_SIGNAL: u8 = 2;
/// Slice-only lead-byte flag: the instruction count repeats the previous
/// slice's, and no payload follows.
const REPEAT_FLAG: u8 = 1 << 2;
const TID_SHIFT: u32 = 3;
/// Lead-byte thread id escaping to a varint tid after the lead byte.
const TID_ESCAPE: u8 = 31;

/// Encodes a schedule log: `varint count`, then per event one lead byte
/// plus payload.
///
/// ```text
/// lead byte: bits 0..2  event tag (0 = slice, 1 = wake, 2 = signal)
///            bit  2     repeat flag (slice only: instruction count equals
///                       the previous slice's — no payload follows)
///            bits 3..8  thread id 0..30 inline; 31 = escape, varint tid
///                       follows the lead byte
/// payload:   slice: varint instrs (absent when the repeat flag is set)
///            wake: none
///            signal: varint sig
/// ```
///
/// The recorder's fixed-quantum slices make the repeat flag pay for
/// itself.
pub fn encode_schedule(log: &ScheduleLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    let mut last_instrs = None;
    for e in log.events() {
        let (lead, tid, payload) = match *e {
            SchedEvent::Slice { tid, instrs } => {
                let repeat = last_instrs == Some(instrs);
                last_instrs = Some(instrs);
                if repeat {
                    (TAG_SLICE | REPEAT_FLAG, tid.0, None)
                } else {
                    (TAG_SLICE, tid.0, Some(instrs))
                }
            }
            SchedEvent::LoggedWake { tid } => (TAG_WAKE, tid.0, None),
            SchedEvent::Signal { tid, sig } => (TAG_SIGNAL, tid.0, Some(sig)),
        };
        let tid_bits = if tid < u32::from(TID_ESCAPE) {
            tid as u8
        } else {
            TID_ESCAPE
        };
        out.push(lead | (tid_bits << TID_SHIFT));
        if tid_bits == TID_ESCAPE {
            put_varint(&mut out, u64::from(tid));
        }
        if let Some(v) = payload {
            put_varint(&mut out, v);
        }
    }
    out
}

/// Decodes a schedule log.
///
/// # Errors
///
/// Fails on truncated or corrupt input, including trailing bytes.
pub fn decode_schedule(buf: &[u8]) -> Result<ScheduleLog, CodecError> {
    let mut pos = 0;
    let count = get_varint(buf, &mut pos, "schedule count")?;
    let mut events = Vec::new();
    let mut last_instrs = None;
    for _ in 0..count {
        let lead = *buf.get(pos).ok_or(CodecError {
            offset: pos,
            context: "schedule lead byte",
        })?;
        pos += 1;
        let tid = match lead >> TID_SHIFT {
            TID_ESCAPE => Tid(get_varint(buf, &mut pos, "schedule tid")? as u32),
            bits => Tid(u32::from(bits)),
        };
        events.push(match lead & 0x3 {
            TAG_SLICE => {
                let instrs = if lead & REPEAT_FLAG != 0 {
                    last_instrs.ok_or(CodecError {
                        offset: pos,
                        context: "repeat flag with no previous slice",
                    })?
                } else {
                    get_varint(buf, &mut pos, "slice length")?
                };
                last_instrs = Some(instrs);
                SchedEvent::Slice { tid, instrs }
            }
            TAG_WAKE => SchedEvent::LoggedWake { tid },
            TAG_SIGNAL => SchedEvent::Signal {
                tid,
                sig: get_varint(buf, &mut pos, "signal number")?,
            },
            _ => {
                return Err(CodecError {
                    offset: pos,
                    context: "unknown schedule tag",
                })
            }
        });
    }
    if pos != buf.len() {
        return Err(CodecError {
            offset: pos,
            context: "trailing bytes after schedule",
        });
    }
    Ok(events.into_iter().collect())
}

const DEST_CONSOLE: u64 = 0;
const DEST_SOCKET: u64 = 1;

fn put_effect(out: &mut Vec<u8>, effect: &SyscallEffect) {
    put_varint(out, effect.guest_writes.len() as u64);
    for (addr, bytes) in &effect.guest_writes {
        put_varint(out, *addr);
        put_bytes(out, bytes);
    }
    put_varint(out, effect.external.len() as u64);
    for chunk in &effect.external {
        match &chunk.dest {
            ExternalDest::Console => put_varint(out, DEST_CONSOLE),
            ExternalDest::Socket(fd) => {
                put_varint(out, DEST_SOCKET);
                put_varint(out, *fd as u64);
            }
        }
        put_bytes(out, &chunk.bytes);
    }
}

fn get_effect(buf: &[u8], pos: &mut usize) -> Result<SyscallEffect, CodecError> {
    let mut effect = SyscallEffect::default();
    let writes = get_varint(buf, pos, "guest write count")?;
    for _ in 0..writes {
        let addr = get_varint(buf, pos, "guest write addr")?;
        let bytes = get_bytes(buf, pos, "guest write bytes")?;
        effect.guest_writes.push((addr, bytes));
    }
    let chunks = get_varint(buf, pos, "external chunk count")?;
    for _ in 0..chunks {
        let dest = match get_varint(buf, pos, "external dest")? {
            DEST_CONSOLE => ExternalDest::Console,
            DEST_SOCKET => ExternalDest::Socket(get_varint(buf, pos, "socket fd")? as u32),
            _ => {
                return Err(CodecError {
                    offset: *pos,
                    context: "unknown external dest",
                })
            }
        };
        let bytes = get_bytes(buf, pos, "external bytes")?;
        effect.external.push(ExternalChunk { dest, bytes });
    }
    Ok(effect)
}

/// Encodes a syscall log.
pub fn encode_syscalls(log: &SyscallLog) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, log.len() as u64);
    for e in log.entries() {
        put_varint(&mut out, e.tid.0 as u64);
        put_varint(&mut out, e.num as u64);
        out.extend_from_slice(&e.arg_hash.to_le_bytes());
        put_varint(&mut out, e.ret);
        put_varint(&mut out, e.via_wake as u64);
        put_effect(&mut out, &e.effect);
    }
    out
}

/// Decodes a syscall log.
///
/// # Errors
///
/// Fails on truncated or corrupt input.
pub fn decode_syscalls(buf: &[u8]) -> Result<SyscallLog, CodecError> {
    let mut pos = 0;
    let count = get_varint(buf, &mut pos, "syscall count")?;
    let mut log = SyscallLog::new();
    for _ in 0..count {
        let tid = Tid(get_varint(buf, &mut pos, "syscall tid")? as u32);
        let num = get_varint(buf, &mut pos, "syscall num")? as u32;
        if pos + 8 > buf.len() {
            return Err(CodecError {
                offset: pos,
                context: "arg hash",
            });
        }
        let arg_hash = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let ret = get_varint(buf, &mut pos, "syscall ret")?;
        let via_wake = get_varint(buf, &mut pos, "via wake flag")? != 0;
        let effect = get_effect(buf, &mut pos)?;
        log.push(SyscallLogEntry {
            tid,
            num,
            arg_hash,
            ret,
            effect,
            via_wake,
        });
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_os::abi;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos, "test").unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_is_an_error() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos, "test").is_err());
    }

    fn sample_schedule() -> ScheduleLog {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 10_000);
        log.push_wake(Tid(3));
        log.push_signal(Tid(1), 9);
        log.push_slice(Tid(1), 200);
        log.push_slice(Tid(2), 200); // repeated length
        log.push_slice(Tid(40), 7); // escaped tid
        log.push_slice(Tid(0), 1);
        log
    }

    #[test]
    fn schedule_roundtrip() {
        let log = sample_schedule();
        let buf = encode_schedule(&log);
        let back = decode_schedule(&buf).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn syscall_roundtrip_with_effects() {
        let mut log = SyscallLog::new();
        log.push(SyscallLogEntry {
            tid: Tid(2),
            num: abi::SYS_RECV,
            arg_hash: 0xdead_beef_cafe_f00d,
            ret: 5,
            via_wake: true,
            effect: SyscallEffect {
                guest_writes: vec![(0x3000, b"hello".to_vec())],
                external: vec![ExternalChunk {
                    dest: ExternalDest::Socket(1001),
                    bytes: b"out".to_vec(),
                }],
            },
        });
        log.push(SyscallLogEntry {
            tid: Tid(0),
            num: abi::SYS_CLOCK,
            arg_hash: 1,
            ret: u64::MAX,
            effect: SyscallEffect::default(),
            via_wake: false,
        });
        let buf = encode_syscalls(&log);
        let back = decode_syscalls(&buf).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn corrupt_tags_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one event
        buf.push(3); // bad tag
        assert!(decode_schedule(&buf).is_err());
        // A repeat flag with no previous slice is corrupt.
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(TAG_SLICE | REPEAT_FLAG);
        assert!(decode_schedule(&bad).is_err());
        // So is every truncation.
        let buf = encode_schedule(&sample_schedule());
        for cut in 1..buf.len() {
            assert!(
                decode_schedule(&buf[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn schedule_encoding_is_compact() {
        // A full epoch of one thread = a handful of bytes; this is the
        // paper's claim that uniparallel logging is tiny.
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 1_000_000);
        assert!(encode_schedule(&log).len() <= 8);
    }
}
