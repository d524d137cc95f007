//! Properties of the delta start-checkpoint codec
//! (`CheckpointImage::{put_delta, get_delta}`), the form in which every
//! journaled epoch stores its start image.
//!
//! Over arbitrary sequences of memory writes, zero-writes, snapshots (each
//! one a new delta base), dirty-set drains, file rewrites, `SYS_READ`s of
//! file blocks into page-aligned buffers, page copies and few-byte
//! changes:
//!
//! * decoding a delta against its base gives back the image: same memory
//!   digest, same thread table, same kernel;
//! * the decoded image re-encodes to the same bytes;
//! * the bytes depend only on contents: encoding against a base that was
//!   itself decoded from a delta chain (so shares no `Arc` with the live
//!   image) gives the same bytes as encoding against the live snapshot;
//! * a page equal to a file block of its base costs at most 16 bytes, and
//!   a page with one word or a few bytes changed at most 32.

use dp_core::CheckpointImage;
use dp_os::abi;
use dp_os::kernel::{Kernel, WorldConfig};
use dp_support::check::{check, Gen};
use dp_support::wire::Reader;
use dp_vm::builder::ProgramBuilder;
use dp_vm::observer::NullObserver;
use dp_vm::{Machine, SliceLimits, StopReason, SyscallRequest, Tid, Width};
use std::sync::Arc;

/// Guest pages the writes land in.
const FIRST_PAGE: u64 = 16;
const PAGES: u64 = 12;
/// Where file paths and payloads are staged for the file syscalls.
const STAGING: u64 = 0x40_0000;
const PATHS: [&str; 3] = ["/a", "/b", "/seed"];
/// A file no mutation rewrites, of three whole blocks and a partial one.
const BIG: &str = "/big";
const BIG_LEN: u64 = 3 * 4096 + 500;
/// Most bytes a page delta entry may take when the page equals a block of
/// a base file, or differs from its own in one word or a few bytes.
const BLOCK_COST: usize = 16;
const EDIT_COST: usize = 32;

/// Runs the only thread up to its next syscall trap. The guest traps
/// forever, so the test can hand the kernel any request it likes.
fn trap(m: &mut Machine) {
    let run = m
        .run_slice(Tid(0), SliceLimits::budget(16), &mut NullObserver)
        .unwrap();
    assert!(matches!(run.stop, StopReason::Syscall(_)), "{:?}", run.stop);
}

fn trapped_world() -> (Machine, Kernel) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let top = f.label();
    f.bind(top);
    f.syscall(abi::SYS_GETTID);
    f.jmp(top);
    f.finish();
    let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
    trap(&mut m);
    let big = (0..BIG_LEN).map(|i| (i * 131 + i / 4096) as u8).collect();
    let world = WorldConfig {
        files: vec![
            ("/seed".into(), b"preloaded contents".to_vec()),
            (BIG.into(), big),
        ],
        ..WorldConfig::default()
    };
    (m, Kernel::new(world))
}

/// Issues one syscall on the trapped thread, then traps it again.
fn sys(m: &mut Machine, k: &mut Kernel, num: u32, args: [u64; 3]) -> u64 {
    let req = SyscallRequest {
        tid: Tid(0),
        num,
        args: [args[0], args[1], args[2], 0, 0, 0],
    };
    k.handle(m, req, 0);
    let ret = m.thread(Tid(0)).regs[0];
    trap(m);
    ret
}

/// Replaces a file's contents (`append` adds to them instead) through the
/// kernel's own open/write/close path.
fn write_file(m: &mut Machine, k: &mut Kernel, path: &str, data: &[u8], append: bool) {
    m.mem_mut().write_bytes(STAGING, path.as_bytes());
    let flags = if append { abi::O_APPEND } else { abi::O_WRONLY };
    let fd = sys(m, k, abi::SYS_OPEN, [STAGING, path.len() as u64, flags]);
    m.mem_mut().write_bytes(STAGING + 4096, data);
    sys(
        m,
        k,
        abi::SYS_WRITE,
        [fd, STAGING + 4096, data.len() as u64],
    );
    sys(m, k, abi::SYS_CLOSE, [fd, 0, 0]);
}

/// Reads block `block` of `/big` into page `page` through the kernel's
/// open/lseek/read/close path.
fn read_block(m: &mut Machine, k: &mut Kernel, block: u64, page: u64) {
    m.mem_mut().write_bytes(STAGING, BIG.as_bytes());
    let fd = sys(
        m,
        k,
        abi::SYS_OPEN,
        [STAGING, BIG.len() as u64, abi::O_RDONLY],
    );
    sys(m, k, abi::SYS_LSEEK, [fd, block * 4096, abi::SEEK_SET]);
    sys(m, k, abi::SYS_READ, [fd, page * 4096, 4096]);
    sys(m, k, abi::SYS_CLOSE, [fd, 0, 0]);
}

fn unlink(m: &mut Machine, k: &mut Kernel, path: &str) {
    m.mem_mut().write_bytes(STAGING, path.as_bytes());
    sys(m, k, abi::SYS_UNLINK, [STAGING, path.len() as u64, 0]);
}

fn image(m: &Machine, k: &Kernel) -> CheckpointImage {
    CheckpointImage {
        machine: m.clone().into_image(),
        kernel: k.clone(),
        machine_hash: m.state_hash(),
    }
}

fn delta(cur: &CheckpointImage, base: &CheckpointImage) -> Vec<u8> {
    let mut out = Vec::new();
    cur.put_delta(base, &mut out);
    out
}

fn apply(base: &CheckpointImage, bytes: &[u8]) -> CheckpointImage {
    let mut r = Reader::new(bytes);
    let back = CheckpointImage::get_delta(base, &mut r).expect("valid delta decodes");
    assert!(
        r.is_empty(),
        "delta leaves {} trailing bytes",
        r.remaining()
    );
    back
}

/// One random mutation of the live world. Returns a page the mutation
/// wrote and the most bytes its delta entry against the world before the
/// mutation may take, for the mutations that bound it.
fn mutate(g: &mut Gen, m: &mut Machine, k: &mut Kernel) -> Option<(u64, usize)> {
    let page = FIRST_PAGE + g.below(PAGES);
    match g.below(11) {
        0..=2 => {
            let addr = page * 4096 + g.below(4096 - 8);
            let width = *g.pick(&[Width::W1, Width::W2, Width::W4, Width::W8]);
            m.mem_mut().write(addr, g.u64(), width);
            return Some((page, EDIT_COST));
        }
        // Zero-writes: a whole page, or one word (often the page's only
        // nonzero bytes, so the page reads as zero again).
        3 => m.mem_mut().write_bytes(page * 4096, &[0; 4096]),
        4 => m.mem_mut().write(page * 4096, 0, Width::W8),
        5 => {
            let path = *g.pick(&PATHS);
            let data = g.bytes(64);
            write_file(m, k, path, &data, g.bool());
        }
        6 => {
            let path = *g.pick(&PATHS);
            unlink(m, k, path);
        }
        // A block of `/big` read into a page: a whole block makes the page
        // a copy of it; the partial last block leaves the page's tail.
        7 => {
            let block = g.below(BIG_LEN.div_ceil(4096));
            read_block(m, k, block, page);
            if (block + 1) * 4096 <= BIG_LEN {
                return Some((page, BLOCK_COST));
            }
        }
        // One guest page copied onto another.
        8 => {
            let from = FIRST_PAGE + g.below(PAGES);
            let bytes = m.mem().read_bytes(from * 4096, 4096);
            m.mem_mut().write_bytes(page * 4096, &bytes);
        }
        // A few scattered bytes of one page.
        9 => {
            for _ in 0..1 + g.below(3) {
                let addr = page * 4096 + g.below(4096);
                m.mem_mut().write_u8(addr, g.u8());
            }
            return Some((page, EDIT_COST));
        }
        _ => {
            m.mem_mut().take_dirty();
        }
    }
    None
}

/// The bytes page `page`'s delta entry takes: `cur`'s page against
/// `prev`'s memory, with nothing else changed and no dirty set.
fn entry_cost(prev: &CheckpointImage, cur: &CheckpointImage, page: u64) -> usize {
    let base = &prev.machine.mem;
    let mut only = base.clone();
    only.write_bytes(page * 4096, &cur.machine.mem.read_bytes(page * 4096, 4096));
    only.take_dirty();
    let mut out = Vec::new();
    only.put_delta(base, &prev.kernel.fs().file_contents(), &mut out);
    // The entry count and the empty dirty set take a byte each.
    out.len() - 2
}

#[test]
fn deltas_decode_to_the_image_and_reencode_identically() {
    check(
        "deltas_decode_to_the_image_and_reencode_identically",
        48,
        |g| {
            let (mut m, mut k) = trapped_world();
            // `base` is the live snapshot the writer would diff against;
            // `chain` is the same image as salvage rebuilds it, by applying
            // each snapshot's delta to the previous decoded base.
            let mut base = image(&m, &k);
            let mut chain = base.clone();
            let steps = 1 + g.index(40);
            let mut prev = base.clone();
            for _ in 0..steps {
                let bounded = mutate(g, &mut m, &mut k);
                let cur = image(&m, &k);
                if let Some((page, most)) = bounded {
                    let cost = entry_cost(&prev, &cur, page);
                    assert!(cost <= most, "page {page}'s entry took {cost} bytes");
                }
                let bytes = delta(&cur, &base);
                let back = apply(&base, &bytes);
                assert_eq!(
                    back.machine.mem.state_digest(),
                    cur.machine.mem.state_digest_scratch()
                );
                assert_eq!(
                    back.machine.mem.state_digest_scratch(),
                    cur.machine.mem.state_digest_scratch()
                );
                assert_eq!(back.machine.mem.dirty(), cur.machine.mem.dirty());
                assert_eq!(back.machine.threads, cur.machine.threads);
                assert_eq!(back.machine.halted, cur.machine.halted);
                assert_eq!(back.kernel, cur.kernel);
                assert_eq!(back.machine_hash, cur.machine_hash);
                assert_eq!(delta(&back, &base), bytes, "decoded image re-encodes");
                assert_eq!(
                    delta(&cur, &chain),
                    bytes,
                    "bytes must not depend on Arc identity"
                );
                if g.prob(0.3) {
                    chain = apply(&chain, &bytes);
                    base = cur.clone();
                }
                prev = cur;
            }
            // The chain's final image is the live one, down to every byte.
            let end = image(&m, &k);
            let restored = Machine::from_image(
                m.program().clone(),
                apply(&chain, &delta(&end, &chain)).machine,
            );
            assert_eq!(restored.state_hash(), m.state_hash());
        },
    );
}

#[test]
fn an_unchanged_image_costs_no_pages_and_no_file_bytes() {
    let (mut m, mut k) = trapped_world();
    for p in 0..PAGES {
        m.mem_mut().write((FIRST_PAGE + p) * 4096, p + 1, Width::W8);
    }
    write_file(&mut m, &mut k, "/a", &[7; 3000], false);
    let base = image(&m, &k);
    let bytes = delta(&base, &base);
    assert!(
        bytes.len() < 200,
        "an empty delta still wrote {} bytes",
        bytes.len()
    );
    // A rewrite with identical bytes (a fresh allocation) is still a
    // back-reference, and a one-word write costs a few bytes.
    let empty = bytes.len();
    write_file(&mut m, &mut k, "/a", &[7; 3000], false);
    m.mem_mut().write(FIRST_PAGE * 4096, 99, Width::W8);
    let bytes = delta(&image(&m, &k), &base);
    assert!(
        bytes.len() <= empty + EDIT_COST,
        "one changed word took {} bytes over the empty delta's {empty}",
        bytes.len()
    );
}
