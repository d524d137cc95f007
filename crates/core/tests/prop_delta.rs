//! Properties of the delta start-checkpoint codec
//! (`CheckpointImage::{put_delta, get_delta}`), the form in which every
//! journaled epoch stores its start image.
//!
//! Over arbitrary sequences of memory writes, zero-writes, snapshots (each
//! one a new delta base), dirty-set drains and file rewrites:
//!
//! * decoding a delta against its base gives back the image: same memory
//!   digest, same thread table, same kernel;
//! * the decoded image re-encodes to the same bytes;
//! * the bytes depend only on contents: encoding against a base that was
//!   itself decoded from a delta chain (so shares no `Arc` with the live
//!   image) gives the same bytes as encoding against the live snapshot.

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
    let world = WorldConfig {
        files: vec![("/seed".into(), b"preloaded contents".to_vec())],
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

fn unlink(m: &mut Machine, k: &mut Kernel, path: &str) {
    m.mem_mut().write_bytes(STAGING, path.as_bytes());
    sys(m, k, abi::SYS_UNLINK, [STAGING, path.len() as u64, 0]);
}

fn image(m: &Machine, k: &Kernel) -> CheckpointImage {
    CheckpointImage {
        machine: m.image(),
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

/// One random mutation of the live world.
fn mutate(g: &mut Gen, m: &mut Machine, k: &mut Kernel) {
    let page = FIRST_PAGE + g.below(PAGES);
    match g.below(8) {
        0..=2 => {
            let addr = page * 4096 + g.below(4096 - 8);
            let width = *g.pick(&[Width::W1, Width::W2, Width::W4, Width::W8]);
            m.mem_mut().write(addr, g.u64(), width);
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
        _ => {
            m.mem_mut().take_dirty();
        }
    }
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
            for _ in 0..steps {
                mutate(g, &mut m, &mut k);
                let cur = image(&m, &k);
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
                    base = cur;
                }
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
    // back-reference, and a one-page write costs one page.
    write_file(&mut m, &mut k, "/a", &[7; 3000], false);
    m.mem_mut().write(FIRST_PAGE * 4096, 99, Width::W8);
    let bytes = delta(&image(&m, &k), &base);
    assert!(
        (4096..4096 + 300).contains(&bytes.len()),
        "one changed page took {} bytes",
        bytes.len()
    );
}
