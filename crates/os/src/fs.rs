//! An in-memory filesystem with copy-on-write file contents, plus the
//! host-side durable-sink fault machinery.
//!
//! The filesystem is *inside* the recorded world: checkpoints snapshot it
//! (cloning is cheap — contents are `Arc`-shared) and rollback restores it,
//! which is the simulated equivalent of the paper running the recorded
//! process under Speculator so that speculative file writes can be undone.
//! Filesystem operations are therefore in the *re-executed* syscall class:
//! given identical guest states they produce identical results.
//!
//! [`SinkFaults`] / [`FaultedSink`] live on the other side of the recording
//! boundary: they model failures of the *host* filesystem the recorder
//! persists its journal to (torn writes from a crash, `ENOSPC`, failed
//! flushes, short writes). They never perturb the guest — only the
//! durability of what the recorder managed to write before dying.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

use crate::abi::{self, EBADF, EINVAL, ENOENT};
use dp_support::rng::{mix, roll};
use dp_support::wire::{put_varint, Bytes, Reader, Wire, WireError, DELTA_NEW, DELTA_SAME};

/// Open-file access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
    ReadWrite,
    Append,
}

/// An open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileDesc {
    path: String,
    offset: u64,
    mode: Mode,
}

/// The in-memory filesystem. `Clone` is a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFs {
    files: BTreeMap<String, Arc<Vec<u8>>>,
    fds: BTreeMap<u32, FileDesc>,
    next_fd: u32,
    /// Total bytes moved through read/write (workload characterization).
    pub io_bytes: u64,
}

/// First file descriptor handed out (0–2 are reserved by convention).
pub const FIRST_FILE_FD: u32 = 3;

impl SimFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        SimFs {
            files: BTreeMap::new(),
            fds: BTreeMap::new(),
            next_fd: FIRST_FILE_FD,
            io_bytes: 0,
        }
    }

    /// Installs a file before execution starts (world setup).
    pub fn preload(&mut self, path: &str, contents: Vec<u8>) {
        self.files.insert(path.to_string(), Arc::new(contents));
    }

    /// Reads a whole file (host-side verification helper).
    pub fn contents(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|a| a.as_slice())
    }

    /// Every file's contents, in path order: the blocks a checkpoint's
    /// page delta may copy pages from.
    pub fn file_contents(&self) -> Vec<&[u8]> {
        self.files.values().map(|c| c.as_slice()).collect()
    }

    /// Lists all paths (host-side verification helper).
    pub fn paths(&self) -> Vec<&str> {
        self.files.keys().map(|s| s.as_str()).collect()
    }

    /// Opens `path` with an [`crate::abi`] flag value.
    ///
    /// # Errors
    ///
    /// `ENOENT` for reads of missing files, `EINVAL` for unknown flags.
    pub fn open(&mut self, path: &str, flags: u64) -> Result<u32, i64> {
        let mode = match flags {
            abi::O_RDONLY => Mode::Read,
            abi::O_WRONLY => Mode::Write,
            abi::O_RDWR => Mode::ReadWrite,
            abi::O_APPEND => Mode::Append,
            _ => return Err(EINVAL),
        };
        match mode {
            Mode::Read => {
                if !self.files.contains_key(path) {
                    return Err(ENOENT);
                }
            }
            Mode::Write => {
                self.files.insert(path.to_string(), Arc::new(Vec::new()));
            }
            Mode::ReadWrite | Mode::Append => {
                self.files
                    .entry(path.to_string())
                    .or_insert_with(|| Arc::new(Vec::new()));
            }
        }
        let offset = match mode {
            Mode::Append => self.files[path].len() as u64,
            _ => 0,
        };
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FileDesc {
                path: path.to_string(),
                offset,
                mode,
            },
        );
        Ok(fd)
    }

    /// Closes an fd.
    ///
    /// # Errors
    ///
    /// `EBADF` if not open.
    pub fn close(&mut self, fd: u32) -> Result<(), i64> {
        self.fds.remove(&fd).map(|_| ()).ok_or(EBADF)
    }

    /// Reads up to `len` bytes at the fd's offset, advancing it.
    ///
    /// # Errors
    ///
    /// `EBADF` for bad fds or write-only fds.
    pub fn read(&mut self, fd: u32, len: u64) -> Result<Vec<u8>, i64> {
        let desc = self.fds.get_mut(&fd).ok_or(EBADF)?;
        if desc.mode == Mode::Write || desc.mode == Mode::Append {
            return Err(EBADF);
        }
        let file = self.files.get(&desc.path).ok_or(ENOENT)?;
        let start = (desc.offset as usize).min(file.len());
        let end = (start + len as usize).min(file.len());
        let data = file[start..end].to_vec();
        desc.offset = end as u64;
        self.io_bytes += data.len() as u64;
        Ok(data)
    }

    /// Writes bytes at the fd's offset, advancing it and growing the file.
    ///
    /// # Errors
    ///
    /// `EBADF` for bad fds or read-only fds.
    pub fn write(&mut self, fd: u32, data: &[u8]) -> Result<u64, i64> {
        let desc = self.fds.get_mut(&fd).ok_or(EBADF)?;
        if desc.mode == Mode::Read {
            return Err(EBADF);
        }
        let file = self.files.get_mut(&desc.path).ok_or(ENOENT)?;
        let contents = Arc::make_mut(file);
        let start = desc.offset as usize;
        if contents.len() < start + data.len() {
            contents.resize(start + data.len(), 0);
        }
        contents[start..start + data.len()].copy_from_slice(data);
        desc.offset += data.len() as u64;
        self.io_bytes += data.len() as u64;
        Ok(data.len() as u64)
    }

    /// Repositions an fd's offset.
    ///
    /// # Errors
    ///
    /// `EBADF` / `EINVAL` for bad fds / whence, or seeking before zero.
    pub fn lseek(&mut self, fd: u32, offset: i64, whence: u64) -> Result<u64, i64> {
        let size = {
            let desc = self.fds.get(&fd).ok_or(EBADF)?;
            self.files.get(&desc.path).ok_or(ENOENT)?.len() as i64
        };
        let desc = self.fds.get_mut(&fd).ok_or(EBADF)?;
        let base = match whence {
            abi::SEEK_SET => 0,
            abi::SEEK_CUR => desc.offset as i64,
            abi::SEEK_END => size,
            _ => return Err(EINVAL),
        };
        let target = base + offset;
        if target < 0 {
            return Err(EINVAL);
        }
        desc.offset = target as u64;
        Ok(desc.offset)
    }

    /// Size of the open file behind `fd`.
    ///
    /// # Errors
    ///
    /// `EBADF` for bad fds.
    pub fn fsize(&self, fd: u32) -> Result<u64, i64> {
        let desc = self.fds.get(&fd).ok_or(EBADF)?;
        Ok(self.files.get(&desc.path).ok_or(ENOENT)?.len() as u64)
    }

    /// Removes a file by path (open fds keep working on nothing).
    ///
    /// # Errors
    ///
    /// `ENOENT` if missing.
    pub fn unlink(&mut self, path: &str) -> Result<(), i64> {
        self.files.remove(path).map(|_| ()).ok_or(ENOENT)
    }
}

impl Default for SimFs {
    fn default() -> Self {
        Self::new()
    }
}

dp_support::impl_wire_enum!(Mode { 0 => Read, 1 => Write, 2 => ReadWrite, 3 => Append });
dp_support::impl_wire_struct!(FileDesc { path, offset, mode });
impl SimFs {
    /// Appends the delta that turns `base` into `self`: every path, each
    /// file's contents as a one-byte back-reference when `base` holds the
    /// same bytes under that path (else `1 ++ len ++ raw bytes`), then the
    /// descriptor table and counters whole.
    pub fn put_delta(&self, base: &SimFs, out: &mut Vec<u8>) {
        put_varint(out, self.files.len() as u64);
        for (path, contents) in &self.files {
            path.put(out);
            match base.files.get(path) {
                Some(b) if Arc::ptr_eq(b, contents) || b == contents => out.push(DELTA_SAME),
                _ => {
                    out.push(DELTA_NEW);
                    put_varint(out, contents.len() as u64);
                    out.extend_from_slice(contents);
                }
            }
        }
        self.fds.put(out);
        self.next_fd.put(out);
        self.io_bytes.put(out);
    }

    /// Applies a [`put_delta`](SimFs::put_delta) encoding to `base`;
    /// unchanged files share `base`'s contents.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for an unknown tag, a back-reference to a path
    /// `base` lacks, or truncated input; never a panic.
    pub fn get_delta(base: &SimFs, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = usize::get(r)?;
        let mut files = BTreeMap::new();
        for _ in 0..count {
            let path = String::get(r)?;
            let off = r.pos();
            let contents = match r.u8("file delta tag")? {
                DELTA_SAME => base.files.get(&path).cloned().ok_or(WireError {
                    offset: off,
                    context: "file back-reference the base lacks",
                })?,
                DELTA_NEW => Arc::new(Bytes::get(r)?.0),
                _ => {
                    return Err(WireError {
                        offset: off,
                        context: "unknown file delta tag",
                    })
                }
            };
            files.insert(path, contents);
        }
        Ok(SimFs {
            files,
            fds: Wire::get(r)?,
            next_fd: Wire::get(r)?,
            io_bytes: Wire::get(r)?,
        })
    }
}

const SALT_SHORT_WRITE: u64 = 0x5045_6b57;

/// Deterministic fault plan for a host-side durable sink (the recorder's
/// journal file). `Default` injects nothing.
///
/// Two of the classes are *fatal* (they model a crash of the recording
/// machine or an exhausted disk, after which nothing more becomes durable)
/// and two are *survivable* (a robust writer retries or reroutes them):
///
/// * `torn_at` — fatal: the sink dies mid-write at an exact byte offset;
///   bytes up to the offset are durable, everything after is lost;
/// * `enospc_at` — fatal: the device is full after the offset;
/// * `fail_flush_at` — fatal: the n-th `flush` call fails (data already
///   accepted stays durable, the writer learns its commit did not land);
/// * `short_write_p` — survivable: a `write` call accepts only a prefix,
///   which a correct writer (using `write_all`) simply retries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SinkFaults {
    /// Seed decorrelating plans with equal probabilities.
    pub seed: u64,
    /// Crash mid-write once this many bytes are durable (`None` = never).
    pub torn_at: Option<u64>,
    /// Device full once this many bytes are durable (`None` = never).
    pub enospc_at: Option<u64>,
    /// The n-th flush (1-based) fails and kills the sink (`None` = never).
    pub fail_flush_at: Option<u64>,
    /// Probability a `write` call transfers only a prefix of the buffer.
    pub short_write_p: f64,
}

impl SinkFaults {
    /// No injected faults.
    pub fn none() -> Self {
        SinkFaults::default()
    }

    /// True when any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.torn_at.is_some()
            || self.enospc_at.is_some()
            || self.fail_flush_at.is_some()
            || self.short_write_p > 0.0
    }

    /// Byte offset at which the sink dies, if any (torn write or `ENOSPC`,
    /// whichever comes first).
    fn death_offset(&self) -> Option<u64> {
        match (self.torn_at, self.enospc_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Should write call number `call` (0-based) be a short write, and if
    /// so, how many of `len` bytes does it accept? Always at least one byte
    /// so a retrying writer makes progress.
    fn short_write(&self, call: u64, len: usize) -> Option<usize> {
        if len <= 1 || self.short_write_p <= 0.0 {
            return None;
        }
        let h = mix(&[self.seed, call, SALT_SHORT_WRITE]);
        if roll(h, self.short_write_p) {
            Some(1 + (mix(&[h, len as u64]) % len as u64) as usize)
        } else {
            None
        }
    }
}

dp_support::impl_wire_struct!(SinkFaults {
    seed,
    torn_at,
    enospc_at,
    fail_flush_at,
    short_write_p
});

/// A [`Write`] adapter that injects a [`SinkFaults`] plan in front of an
/// inner sink. Once a fatal fault fires the sink is dead: every later
/// write or flush fails, exactly like a crashed recording machine. The
/// bytes the inner sink received before the fault are what a salvage scan
/// gets to work with.
#[derive(Debug)]
pub struct FaultedSink<W: Write> {
    inner: W,
    plan: SinkFaults,
    durable: u64,
    write_calls: u64,
    flush_calls: u64,
    dead: Option<&'static str>,
}

impl<W: Write> FaultedSink<W> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: W, plan: SinkFaults) -> Self {
        FaultedSink {
            inner,
            plan,
            durable: 0,
            write_calls: 0,
            flush_calls: 0,
            dead: None,
        }
    }

    /// Bytes the inner sink has durably accepted.
    pub fn durable_bytes(&self) -> u64 {
        self.durable
    }

    /// What killed the sink, if a fatal fault has fired.
    pub fn cause_of_death(&self) -> Option<&'static str> {
        self.dead
    }

    /// A shared view of the inner sink.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps the inner sink (e.g. to salvage the bytes it holds).
    pub fn into_inner(self) -> W {
        self.inner
    }

    fn die(&mut self, cause: &'static str, kind: io::ErrorKind) -> io::Error {
        self.dead = Some(cause);
        io::Error::new(kind, format!("{cause} after {} bytes", self.durable))
    }
}

impl<W: Write> Write for FaultedSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(cause) = self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, cause));
        }
        let call = self.write_calls;
        self.write_calls += 1;
        // Fatal limit first: accept only the durable prefix, then die.
        if let Some(limit) = self.plan.death_offset() {
            if self.durable + buf.len() as u64 > limit {
                let keep = limit.saturating_sub(self.durable) as usize;
                self.inner.write_all(&buf[..keep])?;
                self.durable += keep as u64;
                let (cause, kind) = if Some(limit) == self.plan.torn_at {
                    ("injected torn write", io::ErrorKind::WriteZero)
                } else {
                    ("injected ENOSPC", io::ErrorKind::StorageFull)
                };
                return Err(self.die(cause, kind));
            }
        }
        let n = self.plan.short_write(call, buf.len()).unwrap_or(buf.len());
        self.inner.write_all(&buf[..n])?;
        self.durable += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(cause) = self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, cause));
        }
        self.flush_calls += 1;
        if self.plan.fail_flush_at == Some(self.flush_calls) {
            return Err(self.die("injected flush failure", io::ErrorKind::Other));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut fs = SimFs::new();
        let w = fs.open("a.txt", abi::O_WRONLY).unwrap();
        assert_eq!(fs.write(w, b"hello").unwrap(), 5);
        fs.close(w).unwrap();
        let r = fs.open("a.txt", abi::O_RDONLY).unwrap();
        assert_eq!(fs.read(r, 100).unwrap(), b"hello");
        assert_eq!(fs.read(r, 100).unwrap(), b""); // EOF
        assert_eq!(fs.fsize(r), Ok(5));
    }

    #[test]
    fn open_missing_for_read_fails() {
        let mut fs = SimFs::new();
        assert_eq!(fs.open("nope", abi::O_RDONLY), Err(ENOENT));
        assert_eq!(fs.open("nope", 99), Err(EINVAL));
    }

    #[test]
    fn truncate_on_wronly_reopen() {
        let mut fs = SimFs::new();
        fs.preload("f", b"0123456789".to_vec());
        let w = fs.open("f", abi::O_WRONLY).unwrap();
        fs.write(w, b"ab").unwrap();
        assert_eq!(fs.contents("f").unwrap(), b"ab");
    }

    #[test]
    fn append_mode_appends() {
        let mut fs = SimFs::new();
        fs.preload("f", b"abc".to_vec());
        let a = fs.open("f", abi::O_APPEND).unwrap();
        fs.write(a, b"def").unwrap();
        assert_eq!(fs.contents("f").unwrap(), b"abcdef");
    }

    #[test]
    fn rdwr_sparse_write_zero_fills() {
        let mut fs = SimFs::new();
        let fd = fs.open("f", abi::O_RDWR).unwrap();
        fs.lseek(fd, 4, abi::SEEK_SET).unwrap();
        fs.write(fd, b"x").unwrap();
        assert_eq!(fs.contents("f").unwrap(), &[0, 0, 0, 0, b'x']);
    }

    #[test]
    fn lseek_whence_variants() {
        let mut fs = SimFs::new();
        fs.preload("f", b"0123456789".to_vec());
        let fd = fs.open("f", abi::O_RDONLY).unwrap();
        assert_eq!(fs.lseek(fd, 4, abi::SEEK_SET), Ok(4));
        assert_eq!(fs.lseek(fd, 2, abi::SEEK_CUR), Ok(6));
        assert_eq!(fs.lseek(fd, -1, abi::SEEK_END), Ok(9));
        assert_eq!(fs.lseek(fd, -100, abi::SEEK_CUR), Err(EINVAL));
        assert_eq!(fs.lseek(fd, 0, 7), Err(EINVAL));
        assert_eq!(fs.read(fd, 10).unwrap(), b"9");
    }

    #[test]
    fn mode_enforcement() {
        let mut fs = SimFs::new();
        fs.preload("f", b"abc".to_vec());
        let r = fs.open("f", abi::O_RDONLY).unwrap();
        assert_eq!(fs.write(r, b"x"), Err(EBADF));
        let w = fs.open("f", abi::O_WRONLY).unwrap();
        assert_eq!(fs.read(w, 1), Err(EBADF));
    }

    #[test]
    fn close_and_unlink() {
        let mut fs = SimFs::new();
        let fd = fs.open("f", abi::O_WRONLY).unwrap();
        assert_eq!(fs.close(fd), Ok(()));
        assert_eq!(fs.close(fd), Err(EBADF));
        assert_eq!(fs.unlink("f"), Ok(()));
        assert_eq!(fs.unlink("f"), Err(ENOENT));
        assert_eq!(fs.read(99, 1), Err(EBADF));
    }

    #[test]
    fn clone_is_cow_checkpoint() {
        let mut fs = SimFs::new();
        fs.preload("f", b"abc".to_vec());
        let snap = fs.clone();
        let fd = fs.open("f", abi::O_RDWR).unwrap();
        fs.write(fd, b"XYZ").unwrap();
        assert_eq!(snap.contents("f").unwrap(), b"abc");
        assert_eq!(fs.contents("f").unwrap(), b"XYZ");
        assert_ne!(snap, fs);
    }

    #[test]
    fn fd_allocation_is_deterministic() {
        let mut a = SimFs::new();
        let mut b = SimFs::new();
        for fs in [&mut a, &mut b] {
            fs.open("x", abi::O_WRONLY).unwrap();
            fs.open("y", abi::O_WRONLY).unwrap();
        }
        assert_eq!(a, b);
    }
}
