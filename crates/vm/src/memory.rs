//! Paged guest memory with copy-on-write snapshots and dirty-page tracking.
//!
//! Memory is a sparse map of 4 KiB pages shared via `Arc`. Cloning a
//! `Memory` (the checkpoint operation at the heart of DoublePlay) only clones
//! the page table; pages are copied lazily on the next write — the same
//! asymptotics as the paper's `fork()`-based checkpoints. Reads of unmapped
//! addresses return zero (anonymous-mapping semantics), which keeps guest
//! programs simple and makes the zero page irrelevant to state digests.
//!
//! Dirty-page tracking serves two masters: the checkpoint cost model (cost is
//! proportional to pages dirtied per epoch) and fast divergence diagnostics
//! (only dirty pages need diffing).

use crate::hash::Fnv1a;
use crate::value::{Width, Word};
use dp_support::wire::{put_varint, Reader, Wire, WireError};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

type Page = [u8; PAGE_SIZE as usize];

/// The `N` bytes of `page` at `off`, which the caller keeps in the page.
#[inline(always)]
fn bytes_at<const N: usize>(page: &Page, off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&page[off..off + N]);
    out
}

/// The process-wide shared zero page. Every caller gets the same `Arc`, so
/// "is this page all zeros?" can often be answered by pointer identity
/// before falling back to a byte scan.
fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0u8; PAGE_SIZE as usize]))
        .clone()
}

/// True when a page holds only zero bytes (pointer identity first).
fn is_zero(page: &Arc<Page>) -> bool {
    Arc::ptr_eq(page, &zero_page()) || page.iter().all(|&b| b == 0)
}

/// True when two page slots hold the same bytes; an absent page (`None`)
/// reads as zero. Shared `Arc`s short-circuit before the byte compare.
fn same_bytes(a: Option<&Arc<Page>>, b: Option<&Arc<Page>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a[..] == b[..],
        (Some(p), None) | (None, Some(p)) => is_zero(p),
        (None, None) => true,
    }
}

/// A decoded page body, with all-zero bodies interned to the shared zero
/// `Arc` so digests skip them by pointer identity instead of a byte scan.
fn page_from(raw: &[u8]) -> Arc<Page> {
    if raw.iter().all(|&b| b == 0) {
        return zero_page();
    }
    let mut page = [0u8; PAGE_SIZE as usize];
    page.copy_from_slice(raw);
    Arc::new(page)
}

/// Page-delta entry tags: the page is now zero (or absent), or its new
/// 4096 bytes follow.
const PAGE_ZERO: u8 = 0;
const PAGE_BYTES: u8 = 1;

/// Forces [`Memory::state_digest`] to recompute from scratch on every call,
/// bypassing the incremental cache. The digest *value* is identical either
/// way (property-tested); this knob exists so benchmarks can measure the
/// full-rehash baseline through the unmodified recorder path.
pub fn set_full_rehash(enabled: bool) {
    FULL_REHASH.store(enabled, Ordering::Relaxed);
}

static FULL_REHASH: AtomicBool = AtomicBool::new(false);

/// Mixes one `(page_no, page_digest)` pair into a 64-bit contribution
/// (splitmix64 finalizer). Contributions combine by wrapping addition, so
/// the memory digest is order-independent and can be updated per page
/// without re-folding the whole page table.
fn mix(pno: u64, digest: u64) -> u64 {
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

/// Digest of one page's bytes, or `None` for an all-zero page. A shared
/// zero-page `Arc` short-circuits by pointer identity; otherwise the byte
/// scan bails at the first nonzero byte and the page is FNV-hashed.
/// `hashed` counts pages whose bytes were actually examined.
fn page_digest(page: &Arc<Page>, hashed: &mut u64) -> Option<u64> {
    if Arc::ptr_eq(page, &zero_page()) {
        return None;
    }
    *hashed += 1;
    if page.iter().all(|&b| b == 0) {
        return None;
    }
    let mut h = Fnv1a::new();
    h.write_bytes(page.as_slice());
    Some(h.finish())
}

/// Cumulative counters of the incremental digest cache: how many pages'
/// bytes refreshes actually hashed vs. how many cached digests were reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Pages whose bytes a digest refresh scanned (cache misses).
    pub hashed_pages: u64,
    /// Resident pages whose cached digest a [`Memory::state_digest`] call
    /// reused without touching their bytes (cache hits).
    pub skipped_pages: u64,
}

/// Incremental digest state for one `Memory`.
///
/// Lives behind a `Mutex` because [`Memory::state_digest`] refreshes
/// through `&self` (state hashing happens on shared references in the
/// verify hot path); the write paths go through `Mutex::get_mut`, which
/// never locks. The staleness set is deliberately *separate* from the
/// recorder's dirty set: `take_dirty` must not clear digest staleness, and
/// a digest refresh must not clear recorder dirt.
#[derive(Debug, Clone)]
struct DigestCache {
    /// Per-page digests. A page absent here contributes nothing — all-zero
    /// and unmapped pages are both "absent", so zero-fill semantics cannot
    /// cause false divergence.
    digests: HashMap<u64, u64, BuildHasherDefault<PageHasher>>,
    /// Wrapping sum of [`mix`]`(pno, digest)` over every entry of
    /// `digests`: the commutative memory digest.
    acc: u64,
    /// Pages whose cached digest may be out of date.
    stale: BTreeSet<u64>,
    /// Fast path: the page most recently marked stale (writes cluster).
    /// Reset whenever a refresh drains `stale`, so a write after a refresh
    /// to the same page re-marks it.
    last_stale: u64,
    /// Cumulative refresh counters.
    stats: HashStats,
}

impl DigestCache {
    /// A cache where every resident page is stale: the first refresh
    /// recomputes everything (the cold full rehash).
    fn cold(pages: &PageMap) -> Self {
        DigestCache {
            digests: HashMap::default(),
            acc: 0,
            stale: pages.keys().copied().collect(),
            last_stale: u64::MAX,
            stats: HashStats::default(),
        }
    }
}

/// Sparse, copy-on-write paged memory.
#[derive(Debug)]
pub struct Memory {
    pages: PageMap,
    /// Pages written since the last [`Memory::take_dirty`].
    dirty: BTreeSet<u64>,
    /// Fast path: the page most recently marked dirty (writes cluster).
    last_dirty: u64,
    /// Incremental digest cache; see [`DigestCache`].
    cache: Mutex<DigestCache>,
}

/// Cloning copies the digest cache, so a checkpoint inherits every cached
/// page digest for free — the clone's next [`Memory::state_digest`] pays
/// only for pages written since the source's last refresh.
impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            pages: self.pages.clone(),
            dirty: self.dirty.clone(),
            last_dirty: self.last_dirty,
            cache: Mutex::new(self.lock_cache().clone()),
        }
    }
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Memory {
            pages: PageMap::default(),
            dirty: BTreeSet::new(),
            last_dirty: u64::MAX,
            cache: Mutex::new(DigestCache::cold(&PageMap::default())),
        }
    }

    /// Poison-tolerant cache lock: a panicking verify worker (injected
    /// faults are caught with `catch_unwind`) must not wedge digests.
    fn lock_cache(&self) -> MutexGuard<'_, DigestCache> {
        self.cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Word) -> u8 {
        match self.pages.get(&page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating or copying the page as needed.
    #[inline]
    pub fn write_u8(&mut self, addr: Word, value: u8) {
        let pno = page_of(addr);
        let page = self.pages.entry(pno).or_insert_with(zero_page);
        Arc::make_mut(page)[(addr % PAGE_SIZE) as usize] = value;
        self.mark_dirty(pno);
    }

    #[inline]
    fn mark_dirty(&mut self, pno: u64) {
        if self.last_dirty != pno {
            self.last_dirty = pno;
            self.dirty.insert(pno);
        }
        // `&mut self` makes the lock free; the stale fast path is tracked
        // separately from `last_dirty` because a digest refresh clears
        // staleness without clearing recorder dirt.
        let cache = match self.cache.get_mut() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        if cache.last_stale != pno {
            cache.last_stale = pno;
            cache.stale.insert(pno);
        }
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
        let pno = page_of(addr);
        let page = Arc::make_mut(self.pages.entry(pno).or_insert_with(zero_page));
        let bytes = value.to_le_bytes();
        match width {
            Width::W1 => page[off] = value as u8,
            Width::W2 => page[off..off + 2].copy_from_slice(&bytes[..2]),
            Width::W4 => page[off..off + 4].copy_from_slice(&bytes[..4]),
            Width::W8 => page[off..off + 8].copy_from_slice(&bytes),
        }
        self.mark_dirty(pno);
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
                Some(p) => out[done..done + n].copy_from_slice(&p[off..off + n]),
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
    /// bytes, and the same resident, dirty and digest-stale pages (writing
    /// zeros still makes a page resident).
    pub fn write_bytes(&mut self, addr: Word, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(bytes.len() - done);
            let pno = page_of(a);
            let page = self.pages.entry(pno).or_insert_with(zero_page);
            Arc::make_mut(page)[off..off + n].copy_from_slice(&bytes[done..done + n]);
            self.mark_dirty(pno);
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

    /// Digest of memory contents, computed incrementally: only pages
    /// written since the last call are re-hashed; everything else reuses
    /// its cached per-page digest. All-zero pages digest identically to
    /// unmapped pages, so zero-fill semantics cannot cause false
    /// divergence. Equal to [`Memory::state_digest_scratch`] always.
    pub fn state_digest(&self) -> u64 {
        if FULL_REHASH.load(Ordering::Relaxed) {
            return self.state_digest_scratch();
        }
        let mut cache = self.lock_cache();
        self.refresh(&mut cache);
        cache.acc
    }

    /// Re-digests every stale page, adjusting the commutative accumulator
    /// by the old and new per-page contributions.
    fn refresh(&self, cache: &mut DigestCache) {
        cache.last_stale = u64::MAX;
        let stale = std::mem::take(&mut cache.stale);
        let mut examined = 0u64;
        for pno in stale {
            examined += 1;
            let fresh = self
                .pages
                .get(&pno)
                .and_then(|p| page_digest(p, &mut cache.stats.hashed_pages));
            let old = match fresh {
                Some(d) => cache.digests.insert(pno, d),
                None => cache.digests.remove(&pno),
            };
            if let Some(d) = old {
                cache.acc = cache.acc.wrapping_sub(mix(pno, d));
            }
            if let Some(d) = fresh {
                cache.acc = cache.acc.wrapping_add(mix(pno, d));
            }
        }
        cache.stats.skipped_pages += (self.pages.len() as u64).saturating_sub(examined);
    }

    /// Digest of memory contents recomputed from scratch, ignoring (and
    /// not touching) the incremental cache. The correctness oracle for
    /// [`Memory::state_digest`] and the benchmark baseline.
    pub fn state_digest_scratch(&self) -> u64 {
        let mut hashed = 0u64;
        let mut acc = 0u64;
        for (&pno, page) in &self.pages {
            if let Some(d) = page_digest(page, &mut hashed) {
                acc = acc.wrapping_add(mix(pno, d));
            }
        }
        acc
    }

    /// Cumulative digest-cache counters: pages hashed vs. cache hits.
    pub fn hash_stats(&self) -> HashStats {
        self.lock_cache().stats
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
                if a[i] != b[i] {
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

/// Wire encoding: pages as sorted `(page_no, raw 4096 bytes)` pairs (so the
/// `Arc` sharing is transparent to the format), then the dirty set. The
/// `last_dirty` fast path and the digest cache are reset on decode — a
/// decoded memory pays one cold full rehash on its first digest.
impl Wire for Memory {
    fn put(&self, out: &mut Vec<u8>) {
        let mut pnos: Vec<u64> = self.pages.keys().copied().collect();
        pnos.sort_unstable();
        put_varint(out, pnos.len() as u64);
        for pno in pnos {
            pno.put(out);
            out.extend_from_slice(&self.pages[&pno][..]);
        }
        self.dirty.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = usize::get(r)?;
        let mut pages = PageMap::default();
        for _ in 0..count {
            let pno = u64::get(r)?;
            // Resident zero pages are interned: re-encoding is
            // byte-identical either way.
            pages.insert(pno, page_from(r.take(PAGE_SIZE as usize, "memory page")?));
        }
        let dirty = <BTreeSet<u64> as Wire>::get(r)?;
        let cache = Mutex::new(DigestCache::cold(&pages));
        Ok(Memory {
            pages,
            dirty,
            last_dirty: u64::MAX,
            cache,
        })
    }
}

/// Delta encoding against a base memory: the pages whose *bytes* differ,
/// in ascending page order, then the dirty set whole.
///
/// ```text
/// pages := count | (pno | 0 "now zero/absent" | 1 ++ 4096 raw bytes)*
/// ```
///
/// An all-zero page equals an absent one, and `Arc` identity is only a
/// fast path before the byte compare, so the bytes are a pure function of
/// the two memories' contents — never of clone topology or cache state.
impl Memory {
    /// Appends the delta that turns `base` into `self`.
    pub fn put_delta(&self, base: &Memory, out: &mut Vec<u8>) {
        let mut pnos: Vec<u64> = self
            .pages
            .keys()
            .chain(base.pages.keys())
            .copied()
            .collect();
        pnos.sort_unstable();
        pnos.dedup();
        let changed: Vec<(u64, Option<&Arc<Page>>)> = pnos
            .into_iter()
            .filter_map(|pno| {
                let cur = self.pages.get(&pno);
                (!same_bytes(cur, base.pages.get(&pno))).then(|| (pno, cur.filter(|p| !is_zero(p))))
            })
            .collect();
        put_varint(out, changed.len() as u64);
        for (pno, page) in changed {
            pno.put(out);
            match page {
                None => out.push(PAGE_ZERO),
                Some(p) => {
                    out.push(PAGE_BYTES);
                    out.extend_from_slice(&p[..]);
                }
            }
        }
        self.dirty.put(out);
    }

    /// Applies a [`put_delta`](Memory::put_delta) encoding to `base`. The
    /// result shares every unchanged page with `base` and inherits its
    /// digest cache, with only the changed pages marked stale.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for an unknown entry tag, page numbers out of
    /// ascending order, or truncated input; never a panic.
    pub fn get_delta(base: &Memory, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut mem = base.clone();
        let cache = match mem.cache.get_mut() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        let count = usize::get(r)?;
        let mut prev = None;
        for _ in 0..count {
            let off = r.pos();
            let pno = u64::get(r)?;
            if prev.is_some_and(|p| pno <= p) {
                return Err(WireError {
                    offset: off,
                    context: "page delta out of ascending order",
                });
            }
            prev = Some(pno);
            let off = r.pos();
            match r.u8("page delta tag")? {
                PAGE_ZERO => {
                    mem.pages.remove(&pno);
                }
                PAGE_BYTES => {
                    let page = page_from(r.take(PAGE_SIZE as usize, "memory page")?);
                    mem.pages.insert(pno, page);
                }
                _ => {
                    return Err(WireError {
                        offset: off,
                        context: "unknown page delta tag",
                    })
                }
            }
            cache.stale.insert(pno);
        }
        mem.dirty = <BTreeSet<u64> as Wire>::get(r)?;
        mem.last_dirty = u64::MAX;
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that either flip the process-wide
    /// [`set_full_rehash`] knob or assert exact cache-counter values (a
    /// concurrently enabled knob would bypass the cache and skew counts).
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
        // Mutating after a refresh must re-stale the page even though the
        // dirty fast path still points at it.
        m.write(0x1000, 8, Width::W8);
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        // take_dirty must not clear digest staleness.
        m.write(0x2000, 3, Width::W4);
        m.take_dirty();
        assert_eq!(m.state_digest(), m.state_digest_scratch());
    }

    #[test]
    fn clones_inherit_the_digest_cache() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        m.write_bytes(0x4000, b"checkpointed");
        m.state_digest(); // warm
        let hashed_before = m.hash_stats().hashed_pages;
        let snap = m.clone();
        // The clone's digest is served entirely from the inherited cache.
        assert_eq!(snap.state_digest(), m.state_digest_scratch());
        assert_eq!(snap.hash_stats().hashed_pages, hashed_before);
        // Writes diverge the two digests independently and correctly.
        let mut snap = snap;
        snap.write(0x4000, 0xaa, Width::W1);
        m.write(0x8000, 0xbb, Width::W1);
        assert_eq!(snap.state_digest(), snap.state_digest_scratch());
        assert_eq!(m.state_digest(), m.state_digest_scratch());
        assert_ne!(m.state_digest(), snap.state_digest());
    }

    #[test]
    fn digest_refresh_is_proportional_to_writes() {
        let _serial = KNOB.lock().unwrap_or_else(|p| p.into_inner());
        let mut m = Memory::new();
        for p in 0..64u64 {
            m.write(p * PAGE_SIZE, p + 1, Width::W8);
        }
        m.state_digest(); // cold rehash: 64 pages
        assert_eq!(m.hash_stats().hashed_pages, 64);
        m.write(5 * PAGE_SIZE, 99, Width::W8);
        m.state_digest();
        let stats = m.hash_stats();
        assert_eq!(stats.hashed_pages, 65, "only the written page re-hashed");
        assert_eq!(stats.skipped_pages, 63, "the other 63 served from cache");
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

    #[test]
    fn decoded_memory_digests_identically() {
        let mut m = Memory::new();
        m.write_bytes(0x3000, b"roundtrip");
        m.write(0x6000, 1, Width::W8);
        m.write(0x6000, 0, Width::W8); // resident all-zero page
        let warm = m.state_digest();
        let bytes = dp_support::wire::to_bytes(&m);
        let back: Memory = dp_support::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.state_digest(), warm);
        // Re-encoding after the zero-page interning is byte-identical.
        assert_eq!(dp_support::wire::to_bytes(&back), bytes);
    }

    fn delta_of(cur: &Memory, base: &Memory) -> Vec<u8> {
        let mut out = Vec::new();
        cur.put_delta(base, &mut out);
        out
    }

    #[test]
    fn page_deltas_compare_bytes_not_pointers() {
        let mut base = Memory::new();
        base.write(0x3000, 5, Width::W8);
        base.write(0x6000, 1, Width::W8);
        base.write(0x6000, 0, Width::W8); // resident, all zero
        base.take_dirty();
        // A fresh memory with equal bytes shares no page with `base`, and
        // lacks the zero page: still an empty page list.
        let mut same = Memory::new();
        same.write(0x3000, 5, Width::W8);
        same.take_dirty();
        assert_eq!(delta_of(&same, &base), vec![0, 0]);
        // One changed page, one page zeroed: two entries, ascending.
        let mut cur = base.clone();
        cur.write(0x3000, 0, Width::W8);
        cur.write(0x9000, 7, Width::W1);
        let bytes = delta_of(&cur, &base);
        assert_eq!(&bytes[..4], &[2, 3, PAGE_ZERO, 9]);
        let back = Memory::get_delta(&base, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.state_digest(), cur.state_digest_scratch());
        assert_eq!(back.first_difference(&cur), None);
        assert_eq!(back.dirty(), cur.dirty());
        assert_eq!(delta_of(&back, &base), bytes);
    }

    #[test]
    fn malformed_page_deltas_are_typed_errors() {
        let base = Memory::new();
        let decode = |bytes: &[u8]| Memory::get_delta(&base, &mut Reader::new(bytes)).unwrap_err();
        assert_eq!(decode(&[1, 4, 9]).context, "unknown page delta tag");
        assert_eq!(
            decode(&[2, 4, PAGE_ZERO, 4, PAGE_ZERO, 0]).context,
            "page delta out of ascending order"
        );
        assert_eq!(decode(&[1, 4, PAGE_BYTES, 1, 2]).context, "memory page");
        // A count far past the input never allocates: it runs out of bytes.
        assert!(Memory::get_delta(&base, &mut Reader::new(&[0xff, 0xff, 0xff, 0x7f])).is_err());
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
