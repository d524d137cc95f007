//! Paged guest memory with copy-on-write snapshots and dirty-page tracking.
//!
//! Memory is a sparse map of 4 KiB pages shared via `Arc`. Cloning a
//! `Memory` (the checkpoint operation at the heart of DoublePlay) only clones
//! the page table; pages are copied lazily on the next write — the same
//! asymptotics as the paper's `fork()`-based checkpoints. Reads of unmapped
//! addresses return zero (anonymous-mapping semantics), which keeps guest
//! programs simple and makes the zero page irrelevant to state digests.
//!
//! Each page version carries its own digest, computed once, so clones,
//! checkpoints and decoded start images never re-hash a page they share.
//!
//! A memory is stored only as a delta against another ([`Memory::put_delta`]):
//! the journal header's boot image against an empty memory, each later
//! start image against the one before.
//!
//! Dirty-page tracking serves two masters: the checkpoint cost model (cost is
//! proportional to pages dirtied per epoch) and fast divergence diagnostics
//! (only dirty pages need diffing).

use crate::hash::Fnv1a;
use crate::value::{Width, Word};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

mod delta;

/// A fast, deterministic hasher for page numbers (FxHash-style multiply).
/// Page tables are in the interpreter's hottest path; SipHash would cost
/// more than the interpretation itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher {
    state: u64,
}

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state =
                (self.state.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>;

/// Bytes per page.
pub const PAGE_SIZE: u64 = 4096;
const PAGE_SHIFT: u32 = 12;

/// Page number containing `addr`.
#[inline]
pub fn page_of(addr: Word) -> u64 {
    addr >> PAGE_SHIFT
}

type PageBytes = [u8; PAGE_SIZE as usize];

/// One page version: its bytes and their digest, shared by every memory
/// holding this `Arc`. A write copies the page if it is shared and empties
/// the digest slot of its now unique copy.
#[derive(Debug, Clone)]
struct Page {
    bytes: PageBytes,
    digest: DigestSlot,
}

/// A page version's [`page_digest`], once a digest has computed it. A
/// digest claims an empty slot before hashing, so each version is hashed
/// once however many threads digest memories that share it; a digest that
/// finds a slot claimed elsewhere reads it after its other pages. The
/// `Release` store of `state` publishes `value` to `get`'s `Acquire` load.
#[derive(Debug, Default)]
struct DigestSlot {
    state: AtomicU8,
    value: AtomicU64,
}

/// [`DigestSlot`] states: empty, claimed, all-zero page, digest in `value`.
const SLOT_EMPTY: u8 = 0;
const SLOT_CLAIMED: u8 = 1;
const SLOT_ZERO: u8 = 2;
const SLOT_DIGEST: u8 = 3;

impl DigestSlot {
    /// The digest if known: `Some(None)` for an all-zero page.
    fn get(&self) -> Option<Option<u64>> {
        match self.state.load(Ordering::Acquire) {
            SLOT_ZERO => Some(None),
            SLOT_DIGEST => Some(Some(self.value.load(Ordering::Relaxed))),
            _ => None,
        }
    }

    /// The digest of `bytes`, from the slot or hashed into it by this call
    /// (counted in `hashed`); `None` while another thread holds the claim.
    /// States only rise while the page is shared, so `fetch_max` claims an
    /// empty slot and leaves a claimed or filled one as it is.
    fn get_or_hash(&self, bytes: &PageBytes, hashed: &mut u64) -> Option<Option<u64>> {
        let relaxed = Ordering::Relaxed;
        if self.get().is_some() || self.state.fetch_max(SLOT_CLAIMED, relaxed) != SLOT_EMPTY {
            return self.get();
        }
        *hashed += 1;
        let digest = page_digest(bytes);
        self.value.store(digest.unwrap_or(0), relaxed);
        let state = digest.map_or(SLOT_ZERO, |_| SLOT_DIGEST);
        self.state.store(state, Ordering::Release);
        Some(digest)
    }
}

/// Only `Arc::make_mut` copies a page, to write it: the copy starts empty.
impl Clone for DigestSlot {
    fn clone(&self) -> Self {
        DigestSlot::default()
    }
}

/// The `N` bytes of `page` at `off`, which the caller keeps in the page.
#[inline(always)]
fn bytes_at<const N: usize>(page: &PageBytes, off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&page[off..off + N]);
    out
}

/// The process-wide shared zero page, its digest known. Every caller gets
/// the same `Arc`, so "is this page all zeros?" can often be answered by
/// pointer identity before falling back to a byte scan.
fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| {
        Arc::new(Page {
            bytes: [0u8; PAGE_SIZE as usize],
            digest: DigestSlot {
                state: AtomicU8::new(SLOT_ZERO),
                value: AtomicU64::new(0),
            },
        })
    })
    .clone()
}

/// True when a page holds only zero bytes (pointer identity first).
fn is_zero(page: &Arc<Page>) -> bool {
    Arc::ptr_eq(page, &zero_page()) || page.bytes.iter().all(|&b| b == 0)
}

/// True when two page slots hold the same bytes; an absent page (`None`)
/// reads as zero. Shared `Arc`s short-circuit before the byte compare.
fn same_bytes(a: Option<&Arc<Page>>, b: Option<&Arc<Page>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a.bytes == b.bytes,
        (Some(p), None) | (None, Some(p)) => is_zero(p),
        (None, None) => true,
    }
}

/// A page version holding `bytes`, all-zero bodies interned to the
/// shared zero `Arc`; other pages start with an empty digest slot, so
/// decoding one hashes nothing.
fn page_with(bytes: PageBytes) -> Arc<Page> {
    if bytes.iter().all(|&b| b == 0) {
        return zero_page();
    }
    Arc::new(Page {
        bytes,
        digest: DigestSlot::default(),
    })
}

/// Forces [`Memory::state_digest`] to recompute from scratch on every call,
/// bypassing the per-page digest slots. The digest *value* is identical
/// either way (property-tested); this knob exists so benchmarks can
/// measure the full-rehash baseline through the unmodified recorder path.
pub fn set_full_rehash(enabled: bool) {
    FULL_REHASH.store(enabled, Ordering::Relaxed);
}

static FULL_REHASH: AtomicBool = AtomicBool::new(false);

/// Mixes one `(page_no, page_digest)` pair into a 64-bit contribution
/// (splitmix64 finalizer), 0 for an all-zero page. Contributions combine by
/// wrapping addition, so the memory digest is order-independent.
fn mix(pno: u64, digest: Option<u64>) -> u64 {
    let Some(digest) = digest else {
        return 0;
    };
    let mut x = pno
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(digest)
        .wrapping_add(0x243f_6a88_85a3_08d3);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digest of one page's bytes, or `None` for an all-zero page, which
/// digests as absent. The zero scan bails at the first nonzero byte; a
/// nonzero page is FNV-hashed.
fn page_digest(bytes: &PageBytes) -> Option<u64> {
    if bytes.iter().all(|&b| b == 0) {
        return None;
    }
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    Some(h.finish())
}

/// Cumulative digest counters of one memory: how many pages' bytes its
/// digests hashed vs. how many cached page digests they reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Pages whose bytes a digest scanned: page versions no memory had
    /// digested yet.
    pub hashed_pages: u64,
    /// Resident pages whose cached digest a [`Memory::state_digest`] call
    /// reused without touching their bytes.
    pub skipped_pages: u64,
}

/// [`HashStats`] behind atomics, so [`Memory::state_digest`] can count
/// through `&self` on a memory that other threads share. Statistics only,
/// hence `Relaxed`. A clone counts its own digests from zero.
#[derive(Debug, Default)]
struct Counters {
    hashed: AtomicU64,
    skipped: AtomicU64,
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        Counters::default()
    }
}

/// Sparse, copy-on-write paged memory.
#[derive(Debug, Clone)]
pub struct Memory {
    pages: PageMap,
    /// Pages written since the last [`Memory::take_dirty`].
    dirty: BTreeSet<u64>,
    /// Fast path: the page most recently marked dirty (writes cluster).
    last_dirty: u64,
    counters: Counters,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Memory {
            pages: PageMap::default(),
            dirty: BTreeSet::new(),
            last_dirty: u64::MAX,
            counters: Counters::default(),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Word) -> u8 {
        match self.pages.get(&page_of(addr)) {
            Some(p) => p.bytes[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// The bytes of page `pno`, ready to be written: the page is allocated
    /// (as zeros) or copied if shared, marked dirty, and its digest slot
    /// emptied. Every write goes through here.
    #[inline(always)]
    fn page_mut(&mut self, pno: u64) -> &mut PageBytes {
        if self.last_dirty != pno {
            self.last_dirty = pno;
            self.dirty.insert(pno);
        }
        let page = Arc::make_mut(self.pages.entry(pno).or_insert_with(zero_page));
        *page.digest.state.get_mut() = SLOT_EMPTY;
        &mut page.bytes
    }

    /// Writes one byte, allocating or copying the page as needed.
    #[inline]
    pub fn write_u8(&mut self, addr: Word, value: u8) {
        self.page_mut(page_of(addr))[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Reads `width` bytes little-endian, zero-extended to a word.
    /// Accesses may be unaligned and may straddle pages.
    ///
    /// The in-page case is inlined into the interpreter's loop (plain
    /// `#[inline]` still left a call there); a page-straddling access takes
    /// the out-of-line byte path.
    #[inline(always)]
    pub fn read(&self, addr: Word, width: Width) -> Word {
        let off = (addr % PAGE_SIZE) as usize;
        if off + width.bytes() as usize > PAGE_SIZE as usize {
            return self.read_straddling(addr, width);
        }
        let Some(page) = self.pages.get(&page_of(addr)) else {
            return 0;
        };
        let page = &page.bytes;
        match width {
            Width::W1 => page[off] as Word,
            Width::W2 => u16::from_le_bytes(bytes_at(page, off)) as Word,
            Width::W4 => u32::from_le_bytes(bytes_at(page, off)) as Word,
            Width::W8 => u64::from_le_bytes(bytes_at(page, off)),
        }
    }

    /// [`Memory::read`] of an access that crosses a page boundary.
    #[cold]
    #[inline(never)]
    fn read_straddling(&self, addr: Word, width: Width) -> Word {
        let mut v: Word = 0;
        for i in 0..width.bytes() {
            v |= (self.read_u8(addr.wrapping_add(i)) as Word) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `value` little-endian, with the
    /// same in-page fast path as [`Memory::read`].
    #[inline(always)]
    pub fn write(&mut self, addr: Word, value: Word, width: Width) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + width.bytes() as usize > PAGE_SIZE as usize {
            return self.write_straddling(addr, value, width);
        }
        let page = self.page_mut(page_of(addr));
        let bytes = value.to_le_bytes();
        match width {
            Width::W1 => page[off] = value as u8,
            Width::W2 => page[off..off + 2].copy_from_slice(&bytes[..2]),
            Width::W4 => page[off..off + 4].copy_from_slice(&bytes[..4]),
            Width::W8 => page[off..off + 8].copy_from_slice(&bytes),
        }
    }

    /// [`Memory::write`] of an access that crosses a page boundary.
    #[cold]
    #[inline(never)]
    fn write_straddling(&mut self, addr: Word, value: Word, width: Width) {
        for i in 0..width.bytes() {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Copies `out.len()` bytes out of guest memory into a caller-provided
    /// buffer, page by page. Unmapped ranges read as zero. This is the
    /// allocation-free variant for hot paths (syscall-payload hashing runs
    /// once per logged syscall per verify attempt); [`Memory::read_bytes`]
    /// is the convenience wrapper.
    pub fn read_into(&self, addr: Word, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(out.len() - done);
            match self.pages.get(&page_of(a)) {
                Some(p) => out[done..done + n].copy_from_slice(&p.bytes[off..off + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Copies `len` bytes out of guest memory.
    pub fn read_bytes(&self, addr: Word, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Copies bytes into guest memory, one page at a time: one page
    /// lookup, one copy-on-write and one dirty mark per page touched. The
    /// result is exactly that of a [`Memory::write_u8`] per byte: the same
    /// bytes, and the same resident and dirty pages (writing zeros still
    /// makes a page resident).
    pub fn write_bytes(&mut self, addr: Word, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            self.page_mut(page_of(a))[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Returns and clears the set of pages written since the last call.
    /// Used by the recorder to charge checkpoint cost per epoch.
    pub fn take_dirty(&mut self) -> BTreeSet<u64> {
        self.last_dirty = u64::MAX;
        std::mem::take(&mut self.dirty)
    }

    /// Pages written since the last [`Memory::take_dirty`], without clearing.
    pub fn dirty(&self) -> &BTreeSet<u64> {
        &self.dirty
    }

    /// Digest of memory contents: a commutative mix of every resident
    /// page's number and digest, reading each page version's cached digest
    /// and hashing only versions no memory has digested yet. It walks
    /// every resident page, but hashes bytes only for pages written (or
    /// decoded) since they were last digested, wherever that was.
    /// All-zero pages digest identically to unmapped pages, so zero-fill
    /// semantics cannot cause false divergence. Equal to
    /// [`Memory::state_digest_scratch`] always.
    pub fn state_digest(&self) -> u64 {
        if FULL_REHASH.load(Ordering::Relaxed) {
            return self.state_digest_scratch();
        }
        let (mut hashed, mut acc) = (0u64, 0u64);
        let mut claimed_elsewhere = Vec::new();
        for (&pno, page) in &self.pages {
            match page.digest.get_or_hash(&page.bytes, &mut hashed) {
                Some(digest) => acc = acc.wrapping_add(mix(pno, digest)),
                None => claimed_elsewhere.push((pno, &page.digest)),
            }
        }
        // Pages another thread claimed: it fills each as soon as it is hashed.
        for (pno, slot) in claimed_elsewhere {
            while slot.get().is_none() {
                std::thread::yield_now();
            }
            acc = acc.wrapping_add(mix(pno, slot.get().flatten()));
        }
        let skipped = self.pages.len() as u64 - hashed;
        self.counters.hashed.fetch_add(hashed, Ordering::Relaxed);
        self.counters.skipped.fetch_add(skipped, Ordering::Relaxed);
        acc
    }

    /// Digest of memory contents recomputed from scratch, ignoring (and
    /// not filling) the per-page digest slots. The correctness oracle for
    /// [`Memory::state_digest`] and the benchmark baseline.
    pub fn state_digest_scratch(&self) -> u64 {
        let digests = self
            .pages
            .iter()
            .map(|(&pno, p)| mix(pno, page_digest(&p.bytes)));
        digests.fold(0, u64::wrapping_add)
    }

    /// Digest counters of this memory since it was created, cloned or
    /// decoded: pages hashed vs. cached digests reused.
    pub fn hash_stats(&self) -> HashStats {
        HashStats {
            hashed_pages: self.counters.hashed.load(Ordering::Relaxed),
            skipped_pages: self.counters.skipped.load(Ordering::Relaxed),
        }
    }

    /// Finds the first byte address at which `self` and `other` differ, if
    /// any — the divergence-diagnostics path.
    pub fn first_difference(&self, other: &Memory) -> Option<Word> {
        let pnos: BTreeSet<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        let zero = zero_page();
        for pno in pnos {
            let a = self.pages.get(&pno).unwrap_or(&zero);
            let b = other.pages.get(&pno).unwrap_or(&zero);
            if Arc::ptr_eq(a, b) {
                continue;
            }
            for i in 0..PAGE_SIZE as usize {
                if a.bytes[i] != b.bytes[i] {
                    return Some(pno * PAGE_SIZE + i as u64);
                }
            }
        }
        None
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::delta::{PAGE_BYTES, PAGE_FILE, PAGE_RUNS, PAGE_ZERO};
    use super::*;
    use dp_support::wire::Reader;
    use std::sync::Mutex;

    /// Serializes the tests that either flip the process-wide
    /// [`set_full_rehash`] knob or assert exact counter values (a
    /// concurrently enabled knob would bypass the digest slots and skew
    /// counts).
    static KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn zero_fill_reads() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, Width::W8), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = Memory::new();
        for (w, v) in [
            (Width::W1, 0xabu64),
            (Width::W2, 0xabcd),
            (Width::W4, 0xdead_beef),
            (Width::W8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x2000, v, w);
            assert_eq!(m.read(0x2000, w), v);
        }
    }

    #[test]
    fn truncation_on_narrow_write() {
        let mut m = Memory::new();
        m.write(0x100, u64::MAX, Width::W8);
        m.write(0x100, 0, Width::W1);
        assert_eq!(m.read(0x100, Width::W8), !0xff);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 3; // straddles page 0 and 1
        m.write(addr, 0x1122_3344_5566_7788, Width::W8);
        assert_eq!(m.read(addr, Width::W8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cow_snapshot_isolation() {
        let mut a = Memory::new();
        a.write(0x1000, 7, Width::W8);
        let snap = a.clone();
        a.write(0x1000, 9, Width::W8);
        assert_eq!(snap.read(0x1000, Width::W8), 7);
        assert_eq!(a.read(0x1000, Width::W8), 9);
    }

    #[test]
    fn dirty_tracking() {
        let mut m = Memory::new();
        m.write(0x1000, 1, Width::W8);
        m.write(0x1008, 2, Width::W8);
        m.write(PAGE_SIZE * 5, 3, Width::W1);
        let dirty = m.take_dirty();
        assert_eq!(dirty.len(), 2);
        assert!(m.take_dirty().is_empty());
        m.write(0x1000, 4, Width::W8);
        assert_eq!(m.take_dirty().len(), 1);
    }

    #[test]
    fn hash_ignores_zero_pages() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write(0x5000, 1, Width::W8);
        a.write(0x5000, 0, Width::W8); // page now all-zero again
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.state_digest_scratch(), b.state_digest_scratch());
    }

    #[test]
    fn incremental_digest_matches_scratch() {
        let mut m = Memory::new();
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        m.write(0x1000, 7, Width::W8);
        m.write(PAGE_SIZE * 9, 0xff, Width::W1);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        // A write after a digest must empty the page's digest slot even
        // though the dirty fast path still points at the page, whichever
        // write path it takes.
        m.write(0x1000, 8, Width::W8);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        m.write_u8(0x1001, 9);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        m.write_bytes(0x1002, &[10, 11]);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        m.write(PAGE_SIZE * 10 - 2, u64::MAX, Width::W4); // straddles 9 and 10
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        m.write(PAGE_SIZE * 10 - 1, 0x1234, Width::W2);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        // take_dirty must not touch digests.
        m.write(0x2000, 3, Width::W4);
        m.take_dirty();
        assert_eq!(m.state_digest(), m.state_digest_scratch());
    }

    #[test]
    fn clones_share_page_digests() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        m.write_bytes(0x4000, b"checkpointed");
        m.write_bytes(0x9000, b"twice");
        let snap = m.clone();
        // Digesting the clone fills the slots the source shares: the
        // source's own digest then hashes nothing.
        assert_eq!(snap.state_digest(), m.state_digest_scratch());
        assert_eq!(snap.hash_stats().hashed_pages, 2);
        assert_eq!(m.state_digest(), snap.state_digest());
        assert_eq!(m.hash_stats().hashed_pages, 0);
        // Writes diverge the two digests independently and correctly, and
        // each side hashes only the page it copied.
        let mut snap = snap;
        snap.write(0x4000, 0xaa, Width::W1);
        m.write(0x9000, 0xbb, Width::W1);
        assert_eq!(snap.state_digest(), snap.state_digest_scratch());
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        assert_ne!(m.state_digest(), snap.state_digest());
        assert_eq!(snap.hash_stats().hashed_pages, 3);
        assert_eq!(m.hash_stats().hashed_pages, 1);
    }

    /// Four threads digest clones of one never-digested memory at once.
    /// Every digest is right, and each shared page version is hashed by
    /// exactly one of them.
    #[test]
    fn concurrent_clones_hash_each_page_version_once() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        for p in 0..256u64 {
            m.write(p * PAGE_SIZE + p, p + 1, Width::W8);
        }
        let expect = m.state_digest_scratch();
        let barrier = std::sync::Barrier::new(4);
        let hashed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let clone = m.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        assert_eq!(clone.state_digest(), expect);
                        clone.hash_stats().hashed_pages
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(hashed, 256);
        assert_eq!(m.state_digest(), expect);
        assert_eq!(m.hash_stats().hashed_pages, 0);
    }

    #[test]
    fn digest_refresh_is_proportional_to_writes() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        for p in 0..64u64 {
            m.write(p * PAGE_SIZE, p + 1, Width::W8);
        }
        m.state_digest(); // every page is a new version: 64 hashed
        assert_eq!(m.hash_stats().hashed_pages, 64);
        m.write(5 * PAGE_SIZE, 99, Width::W8);
        m.state_digest();
        let stats = m.hash_stats();
        assert_eq!(stats.hashed_pages, 65, "only the written page re-hashed");
        assert_eq!(stats.skipped_pages, 63, "the other 63 reused their digest");
    }

    #[test]
    fn full_rehash_knob_preserves_the_digest_value() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        m.write_bytes(0x7000, &[1, 2, 3]);
        let incremental = m.state_digest();
        set_full_rehash(true);
        let forced = m.state_digest();
        set_full_rehash(false);
        assert_eq!(incremental, forced);
    }

    fn delta_of(cur: &Memory, base: &Memory, files: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        cur.put_delta(base, files, &mut out);
        out
    }

    #[test]
    fn decoded_memory_digests_identically() {
        let mut m = Memory::new();
        m.write_bytes(0x3000, b"roundtrip");
        m.write(0x6000, 1, Width::W8);
        m.write(0x6000, 0, Width::W8); // resident all-zero page
        let warm = m.state_digest();
        let empty = Memory::new();
        let bytes = delta_of(&m, &empty, &[]);
        let back = Memory::get_delta(&empty, &[], &mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.state_digest(), warm);
        // Re-encoding is byte-identical: the all-zero page reads as absent
        // either way.
        assert_eq!(delta_of(&back, &empty, &[]), bytes);
    }

    #[test]
    fn page_deltas_compare_bytes_not_pointers() {
        let mut base = Memory::new();
        base.write(0x3000, 5, Width::W8);
        base.write(0x6000, 1, Width::W8);
        base.write(0x6000, 0, Width::W8); // resident, all zero
        base.write_bytes(0x7000, &[0xab; 4096]);
        base.take_dirty();
        // A fresh memory with equal bytes shares no page with `base`, and
        // lacks the zero page: still an empty page list.
        let mut same = Memory::new();
        same.write(0x3000, 5, Width::W8);
        same.write_bytes(0x7000, &[0xab; 4096]);
        same.take_dirty();
        assert_eq!(delta_of(&same, &base, &[]), vec![0, 0]);
        // One page zeroed, one word of a resident page and one byte of an
        // absent page changed, a base page's bytes at another number
        // (written raw), and a whole and a partial block of a base file:
        // six entries, ascending.
        let file: Vec<u8> = (0..2 * 4096 + 100).map(|i| (i % 251) as u8).collect();
        let files: [&[u8]; 1] = [&file];
        let mut cur = base.clone();
        cur.write(0x3000, 0, Width::W8);
        cur.write(0x7010, 0x1122, Width::W8);
        cur.write(0x9000, 7, Width::W1);
        cur.write_bytes(0xa000, &[0xab; 4096]);
        cur.write_bytes(0xb000, &file[4096..8192]);
        cur.write_bytes(0xc000, &file[8192..]);
        let bytes = delta_of(&cur, &base, &files);
        #[rustfmt::skip]
        let expect = [
            &[
                6,
                3, PAGE_ZERO,
                // One run: gap 16, length 8, as the varint 16 << 4 | 8.
                7, PAGE_RUNS, 1, 0x88, 0x02, 0x22, 0x11, 0, 0, 0, 0, 0, 0,
                9, PAGE_RUNS, 1, 0x01, 7,
                10, PAGE_BYTES,
            ][..],
            &[0xab; 4096],
            &[
                11, PAGE_FILE, 0, 1,
                12, PAGE_FILE, 0, 2,
                6, 3, 7, 9, 10, 11, 12, // the dirty set
            ],
        ]
        .concat();
        assert_eq!(bytes, expect);
        let back = Memory::get_delta(&base, &files, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.state_digest(), cur.state_digest_scratch());
        assert_eq!(back.first_difference(&cur), None);
        assert_eq!(back.dirty(), cur.dirty());
        assert_eq!(delta_of(&back, &base, &files), bytes);
        // Against an equal base that shares no page with `cur`, the same
        // bytes.
        let fresh = Memory::get_delta(
            &Memory::new(),
            &[],
            &mut Reader::new(&delta_of(&base, &Memory::new(), &[])),
        )
        .unwrap();
        assert_eq!(delta_of(&cur, &fresh, &files), bytes);
    }

    #[test]
    fn malformed_page_deltas_are_typed_errors() {
        let base = Memory::new();
        let file = vec![9u8; 5000];
        let files: [&[u8]; 1] = [&file];
        let decode = |bytes: &[u8]| Memory::get_delta(&base, &files, &mut Reader::new(bytes));
        let error = |bytes: &[u8]| decode(bytes).unwrap_err().context;
        assert_eq!(error(&[1, 4, 9]), "unknown page delta tag");
        assert_eq!(
            error(&[2, 4, PAGE_ZERO, 4, PAGE_ZERO, 0]),
            "page delta out of ascending order"
        );
        assert_eq!(error(&[1, 4, PAGE_BYTES, 1, 2]), "memory page");
        // Runs (`gap << 4 | length` headers): one past the page end (gap
        // 4095, length 2), one whose gap overflows, a zero-length one, a
        // long length that overflows, a count beyond the input, and a run
        // cut short.
        let runs = |heads: &[u64], tail: &[u8]| {
            let mut p = vec![1, 4, PAGE_RUNS, heads.len() as u8];
            heads
                .iter()
                .for_each(|&h| dp_support::wire::put_varint(&mut p, h));
            p.extend_from_slice(tail);
            p
        };
        let past = "page delta run past the page end";
        assert_eq!(error(&runs(&[4095 << 4 | 2], &[1, 2, 0])), past);
        assert_eq!(error(&runs(&[u64::MAX], &[0])), past);
        assert_eq!(error(&runs(&[15, u64::MAX], &[0])), past);
        assert_eq!(error(&runs(&[0], &[0])), "zero-length page delta run");
        assert_eq!(
            error(&[1, 4, PAGE_RUNS, 9, 1, 5, 0]),
            "page delta run count exceeds the input"
        );
        assert_eq!(error(&runs(&[4], &[5])), "page delta run");
        assert!(decode(&runs(&[4095 << 4 | 1], &[1, 0])).is_ok());
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        // File blocks: of a missing file, and past the file's end (block 1
        // is the partial last one).
        assert_eq!(
            error(&[1, 4, PAGE_FILE, 1, 0, 0]),
            "file block of a file the base lacks"
        );
        let end = "file block past a file's end";
        assert_eq!(error(&[1, 4, PAGE_FILE, 0, 2, 0]), end);
        assert_eq!(
            error(&[&[1, 4, PAGE_FILE, 0][..], &max, &[0]].concat()),
            end
        );
        assert!(decode(&[1, 4, PAGE_FILE, 0, 1, 0]).is_ok());
        // A count far past the input never allocates: it runs out of bytes.
        assert!(decode(&[0xff, 0xff, 0xff, 0x7f]).is_err());
    }

    #[test]
    fn first_difference_finds_exact_byte() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_bytes(0x3000, b"hello world");
        b.write_bytes(0x3000, b"hello_world");
        assert_eq!(a.first_difference(&b), Some(0x3005));
        assert_eq!(a.first_difference(&a.clone()), None);
    }

    #[test]
    fn first_difference_vs_unmapped() {
        let mut a = Memory::new();
        a.write(0x9000, 0xff, Width::W1);
        let b = Memory::new();
        assert_eq!(a.first_difference(&b), Some(0x9000));
        assert_eq!(b.first_difference(&a), Some(0x9000));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(PAGE_SIZE - 100, &data);
        assert_eq!(m.read_bytes(PAGE_SIZE - 100, 256), data);
    }

    #[test]
    fn read_into_spans_pages_and_holes() {
        let mut m = Memory::new();
        // Map pages 0 and 2, leave page 1 unmapped: the read must splice
        // mapped bytes around an all-zero hole.
        m.write_bytes(PAGE_SIZE - 4, &[1, 2, 3, 4]);
        m.write_bytes(2 * PAGE_SIZE, &[5, 6]);
        let len = (2 * PAGE_SIZE + 2 - (PAGE_SIZE - 4)) as usize;
        let mut buf = vec![0xaa; len];
        m.read_into(PAGE_SIZE - 4, &mut buf);
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
        assert!(buf[4..len - 2].iter().all(|&b| b == 0));
        assert_eq!(&buf[len - 2..], &[5, 6]);
        assert_eq!(m.read_bytes(PAGE_SIZE - 4, len), buf);
    }
}
