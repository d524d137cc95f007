//! The page-delta codec of start images (format v5): the pages whose bytes
//! differ between a base memory and a later one, each written in the
//! smallest of three forms.
//!
//! ```text
//! delta := count | (pno | form)* | dirty set        entries in ascending pno
//! form  := 0                       the page is now zero (or absent)
//!        | 1 ++ 4096 raw bytes
//!        | 2 ++ file ++ block      4 KiB block `block` of the base's file number
//!                                  `file`, zero-padded past the file's end
//!        | 3 ++ count ++ run*      runs of bytes that differ from the base's
//!                                  page pno (an absent page reads as zeros)
//! run   := gap << 4 | min(len, 15) ++ (len - 15 if len >= 15) ++ bytes[len]
//!                                  the run starts `gap` bytes after the previous
//!                                  one ends; a run of fewer than 15 bytes at most
//!                                  7 bytes on costs one byte besides its bytes
//! ```
//!
//! Form 2 is a reference, form 3 a difference and form 1 the raw page;
//! the shortest encoding wins, and a tie goes to a file block, then the
//! runs. File blocks are found through an index of sampled fingerprints,
//! built on first need. The index only names candidates, and every
//! candidate is confirmed byte for byte before it is referenced, so the
//! bytes are a pure function of the two memories' contents and the
//! base's files — never of `Arc` sharing, digest state or history.

use super::{bytes_at, is_zero, page_with, same_bytes, Memory, Page, PageBytes, PAGE_SIZE};
use dp_support::wire::{put_varint, Reader, Wire, WireError};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The page is now zero (or absent).
pub(super) const PAGE_ZERO: u8 = 0;
/// The page's 4096 raw bytes follow.
pub(super) const PAGE_BYTES: u8 = 1;
/// A copy of a 4 KiB block of one of the base's files.
pub(super) const PAGE_FILE: u8 = 2;
/// Runs of bytes that differ from the base's page.
pub(super) const PAGE_RUNS: u8 = 3;

const PAGE: usize = PAGE_SIZE as usize;
const ZEROS: &PageBytes = &[0; PAGE];

/// Candidates one lookup confirms at most, so a fingerprint that many
/// different blocks share cannot make an encoding quadratic.
const MAX_PROBES: usize = 8;

/// Equal bytes a run absorbs rather than ending there: a new run costs at
/// least one header byte.
const BRIDGE: usize = 1;

/// A run's length nibble: lengths from `LONG` on continue in a varint.
const LONG: usize = 15;

/// Words a fingerprint samples.
const SAMPLES: usize = 16;

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

fn word(page: &PageBytes, i: usize) -> u64 {
    u64::from_le_bytes(bytes_at(page, 8 * i))
}

/// Which of `x`'s eight bytes are nonzero, as the bits of a byte.
fn nonzero_bytes(x: u64) -> u32 {
    let t = x | (x >> 4);
    let t = t | (t >> 2);
    let t = t | (t >> 1);
    ((t & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// The byte ranges where `cur` differs from `old`, ascending, with runs
/// at most [`BRIDGE`] equal bytes apart merged. Equal words are skipped
/// whole.
fn diff_runs(cur: &PageBytes, old: &PageBytes) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for i in 0..PAGE / 8 {
        let mut differ = nonzero_bytes(word(cur, i) ^ word(old, i));
        while differ != 0 {
            let first = differ.trailing_zeros();
            let len = (differ >> first).trailing_ones();
            differ = differ >> (first + len) << (first + len);
            let (start, end) = (8 * i + first as usize, 8 * i + (first + len) as usize);
            match runs.last_mut() {
                Some((_, e)) if start - *e <= BRIDGE => *e = end,
                _ => runs.push((start, end)),
            }
        }
    }
    runs
}

/// A run's header: its gap and length nibble, then the rest of a long
/// length.
fn put_run_head(gap: usize, len: usize, out: &mut Vec<u8>) {
    put_varint(out, (gap as u64) << 4 | len.min(LONG) as u64);
    if len >= LONG {
        put_varint(out, (len - LONG) as u64);
    }
}

fn run_head_len(gap: usize, len: usize) -> usize {
    let long = if len >= LONG {
        varint_len((len - LONG) as u64)
    } else {
        0
    };
    varint_len((gap as u64) << 4 | len.min(LONG) as u64) + long
}

/// A 4 KiB file block: `block`'s bytes of `file`, `None` past its end. A
/// final partial block stands for itself zero-padded to a page.
fn file_block(file: &[u8], block: u64) -> Option<&[u8]> {
    let start = usize::try_from(block).ok()?.checked_mul(PAGE)?;
    (start < file.len()).then(|| &file[start..file.len().min(start + PAGE)])
}

/// True when `page` holds `block`'s bytes followed by zeros.
fn holds_block(page: &PageBytes, block: &[u8]) -> bool {
    page[..block.len()] == *block && page[block.len()..].iter().all(|&b| b == 0)
}

/// A fingerprint of [`SAMPLES`] words spread across a page (bytes past
/// the end of a partial block read as zeros). Equal contents give equal
/// fingerprints; the index uses it only to find candidates.
fn fingerprint(bytes: &[u8]) -> u64 {
    (0..SAMPLES).fold(0x243f_6a88_85a3_08d3, |h, k| {
        let off = k * (PAGE / SAMPLES) + 8 * k;
        let mut w = [0u8; 8];
        if let Some(have) = bytes.get(off..) {
            let n = have.len().min(8);
            w[..n].copy_from_slice(&have[..n]);
        }
        (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    })
}

/// The forms a changed, nonzero page can take.
enum Form {
    File(usize, u64),
    Runs(Vec<(usize, usize)>),
    Bytes,
}

impl Form {
    fn len(&self) -> usize {
        match self {
            Form::File(file, block) => 1 + varint_len(*file as u64) + varint_len(*block),
            Form::Runs(runs) => {
                let mut at = 0;
                let mut n = 1 + varint_len(runs.len() as u64);
                for &(s, e) in runs {
                    n += run_head_len(s - at, e - s) + (e - s);
                    at = e;
                }
                n
            }
            Form::Bytes => 1 + PAGE,
        }
    }

    fn put(&self, page: &PageBytes, out: &mut Vec<u8>) {
        match self {
            Form::File(file, block) => {
                out.push(PAGE_FILE);
                file.put(out);
                block.put(out);
            }
            Form::Runs(runs) => {
                out.push(PAGE_RUNS);
                put_varint(out, runs.len() as u64);
                let mut at = 0;
                for &(s, e) in runs {
                    put_run_head(s - at, e - s, out);
                    out.extend_from_slice(&page[s..e]);
                    at = e;
                }
            }
            Form::Bytes => {
                out.push(PAGE_BYTES);
                out.extend_from_slice(page);
            }
        }
    }
}

/// What an encoding may reference: the base's page with the same
/// number, and its files' blocks, indexed on first need as sorted
/// `(fingerprint, file, block)`.
struct Refs<'a> {
    base: &'a Memory,
    files: &'a [&'a [u8]],
    blocks: Option<Vec<(u64, usize, u64)>>,
}

impl Refs<'_> {
    /// The first base file block, in file then block order, holding
    /// `page`'s bytes, among the first [`MAX_PROBES`] with its
    /// fingerprint.
    fn block_of(&mut self, page: &PageBytes) -> Option<(usize, u64)> {
        let files = self.files;
        let index = self.blocks.get_or_insert_with(|| {
            let mut index = Vec::new();
            for (f, file) in files.iter().enumerate() {
                for (b, block) in file.chunks(PAGE).enumerate() {
                    index.push((fingerprint(block), f, b as u64));
                }
            }
            index.sort_unstable();
            index
        });
        if index.is_empty() {
            return None;
        }
        let fp = fingerprint(page);
        let first = index.partition_point(|&(k, ..)| k < fp);
        index[first..]
            .iter()
            .take(MAX_PROBES)
            .take_while(|&&(k, ..)| k == fp)
            .map(|&(_, f, b)| (f, b))
            .find(|&(f, b)| file_block(files[f], b).is_some_and(|blk| holds_block(page, blk)))
    }

    /// Appends the shortest form of changed, nonzero page `pno`; on a tie
    /// the first in `forms` order.
    fn put_page(&mut self, pno: u64, page: &PageBytes, out: &mut Vec<u8>) {
        let old = self.base.pages.get(&pno).map_or(ZEROS, |p| &p.bytes);
        let forms = [
            self.block_of(page).map(|(f, b)| Form::File(f, b)),
            Some(Form::Runs(diff_runs(page, old))),
            Some(Form::Bytes),
        ];
        let best = forms
            .iter()
            .flatten()
            .min_by_key(|form| form.len())
            .expect("the raw form is always there");
        best.put(page, out);
    }
}

impl Memory {
    /// Appends the delta that turns `base` into `self`: the pages whose
    /// bytes differ, in ascending page order, then the dirty set whole.
    /// Each changed page is written in the shortest of three forms: a
    /// copy of a 4 KiB block of one of `files`, the runs of bytes that
    /// differ from `base`'s page with the same number, or its raw bytes.
    /// `files` are the base world's file contents, in an order the decoder
    /// is given too. The bytes depend only on the two memories' contents
    /// and `files`.
    pub fn put_delta(&self, base: &Memory, files: &[&[u8]], out: &mut Vec<u8>) {
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
        let mut refs = Refs {
            base,
            files,
            blocks: None,
        };
        for (pno, page) in changed {
            pno.put(out);
            match page {
                None => out.push(PAGE_ZERO),
                Some(page) => refs.put_page(pno, &page.bytes, out),
            }
        }
        self.dirty.put(out);
    }

    /// Applies a [`put_delta`](Memory::put_delta) encoding to `base`, whose
    /// file contents are `files`. The result shares every unchanged page,
    /// and so its digest, with `base`; only the pages the delta spells
    /// out, as bytes, runs or file blocks, hash on its first digest.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for an unknown form, page numbers out of ascending
    /// order, a reference `base` or `files` cannot satisfy, a malformed
    /// run, or truncated input; never a panic.
    pub fn get_delta(
        base: &Memory,
        files: &[&[u8]],
        r: &mut Reader<'_>,
    ) -> Result<Self, WireError> {
        let mut mem = base.clone();
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
            let err = |context| WireError {
                offset: off,
                context,
            };
            let page = match r.u8("page delta tag")? {
                PAGE_ZERO => {
                    mem.pages.remove(&pno);
                    continue;
                }
                PAGE_BYTES => {
                    let raw = r.take(PAGE, "memory page")?;
                    page_with(raw.try_into().expect("`take` returns a page of bytes"))
                }
                PAGE_FILE => {
                    let file = usize::get(r)?;
                    let block = u64::get(r)?;
                    let file = files
                        .get(file)
                        .ok_or_else(|| err("file block of a file the base lacks"))?;
                    let block = file_block(file, block)
                        .ok_or_else(|| err("file block past a file's end"))?;
                    let mut bytes = [0; PAGE];
                    bytes[..block.len()].copy_from_slice(block);
                    page_with(bytes)
                }
                PAGE_RUNS => {
                    let mut bytes = base.pages.get(&pno).map_or([0; PAGE], |p| p.bytes);
                    read_runs(r, &mut bytes)?;
                    page_with(bytes)
                }
                _ => return Err(err("unknown page delta tag")),
            };
            mem.pages.insert(pno, page);
        }
        mem.dirty = <BTreeSet<u64> as Wire>::get(r)?;
        mem.last_dirty = u64::MAX;
        Ok(mem)
    }
}

/// Applies a runs form's runs to `page`.
fn read_runs(r: &mut Reader<'_>, page: &mut PageBytes) -> Result<(), WireError> {
    let off = r.pos();
    let count = usize::get(r)?;
    // Each run takes at least two bytes, so a count beyond the input is
    // refused before the loop runs.
    if count > r.remaining() {
        return Err(WireError {
            offset: off,
            context: "page delta run count exceeds the input",
        });
    }
    let mut at = 0usize;
    for _ in 0..count {
        let off = r.pos();
        let err = |context| WireError {
            offset: off,
            context,
        };
        let head = u64::get(r)?;
        let (gap, nibble) = (head >> 4, (head & 15) as usize);
        let len = match nibble {
            LONG => usize::get(r)?.checked_add(LONG),
            0 => return Err(err("zero-length page delta run")),
            len => Some(len),
        };
        let start = usize::try_from(gap).ok().and_then(|g| at.checked_add(g));
        let end = start.zip(len).and_then(|(s, l)| s.checked_add(l));
        let (Some(start), Some(end)) = (start, end.filter(|&e| e <= PAGE)) else {
            return Err(err("page delta run past the page end"));
        };
        page[start..end].copy_from_slice(r.take(end - start, "page delta run")?);
        at = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_differing_bytes_and_bridge_one_byte_gaps() {
        for x in [
            0u64,
            1,
            0xff,
            0x100,
            0x8000_0000_0000_0000,
            u64::MAX,
            0x00ff_0001_0000_0100,
        ] {
            let expect = (0..8).filter(|k| (x >> (8 * k)) & 0xff != 0);
            assert_eq!(
                nonzero_bytes(x),
                expect.map(|k| 1 << k).sum::<u32>(),
                "{x:#x}"
            );
        }
        let old = [0u8; PAGE];
        let mut cur = old;
        assert!(diff_runs(&cur, &old).is_empty());
        cur[5] = 1;
        assert_eq!(diff_runs(&cur, &old), vec![(5, 6)]);
        // Two equal bytes apart: two runs; one apart: bridged.
        cur[8] = 1;
        assert_eq!(diff_runs(&cur, &old), vec![(5, 6), (8, 9)]);
        cur[7] = 1;
        assert_eq!(diff_runs(&cur, &old), vec![(5, 9)]);
        // Keys whose low half changed: one run per word, not one run.
        cur[16..20].fill(2);
        cur[24..28].fill(2);
        assert_eq!(diff_runs(&cur, &old)[1..], [(16, 20), (24, 28)]);
        // A run across a word boundary, ending on the last byte of the page.
        cur[4090..].fill(3);
        assert_eq!(diff_runs(&cur, &old).last(), Some(&(4090, 4096)));
        // Short near runs cost one header byte, long far ones more.
        assert_eq!(Form::Runs(vec![(5, 9)]).len(), 1 + 1 + 1 + 4);
        assert_eq!(run_head_len(7, 14), 1);
        assert_eq!(run_head_len(8, 14), 2);
        assert_eq!(run_head_len(0, 15), 2);
        let mut out = Vec::new();
        put_run_head(3, 300, &mut out);
        assert_eq!(out.len(), run_head_len(3, 300));
    }

    #[test]
    fn file_blocks_zero_pad_and_end_at_the_file() {
        let file = vec![7u8; PAGE + 10];
        assert_eq!(file_block(&file, 0).map(<[u8]>::len), Some(PAGE));
        assert_eq!(file_block(&file, 1).map(<[u8]>::len), Some(10));
        assert_eq!(file_block(&file, 2), None);
        assert_eq!(file_block(&file, u64::MAX), None);
        let mut page = [0u8; PAGE];
        page[..10].fill(7);
        assert!(holds_block(&page, file_block(&file, 1).unwrap()));
        assert_eq!(fingerprint(&page), fingerprint(&page[..10]));
        page[PAGE - 1] = 1;
        assert!(!holds_block(&page, file_block(&file, 1).unwrap()));
    }
}
