//! Recording a server: the Apache-style workload with scripted clients
//! arriving over time. Demonstrates speculative external output (responses
//! are only released when their epoch commits), recording persistence to
//! disk, crash-consistent journaling with salvage, and replay from the
//! loaded artifact.
//!
//! ```sh
//! cargo run --release --example server_recording
//! ```

use doubleplay::prelude::*;
use doubleplay::workloads::webserve;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let case = webserve::build(2, Size::Small);
    let config = DoublePlayConfig::new(2).epoch_cycles(150_000);

    // Record while streaming every committed epoch into a journal:
    // if this process dies mid-run, the journal retains the committed
    // prefix instead of losing everything.
    let jpath = std::env::temp_dir().join("webserve.dprj");
    let mut journal = JournalWriter::new(std::io::BufWriter::new(std::fs::File::create(&jpath)?))?;
    let bundle = record_to(&case.spec, &config, &mut journal)?;
    drop(journal);
    let stats = &bundle.stats;
    println!(
        "served requests under recording: {} epochs, overhead {:.1}%",
        stats.epochs,
        stats.overhead() * 100.0
    );

    // External output (the responses) was buffered speculatively and
    // released epoch by epoch as they committed.
    let sent: u64 = bundle
        .recording
        .external()
        .map(|c| c.bytes.len() as u64)
        .sum();
    println!(
        "external output committed: {sent} bytes across {} chunks (expected {:?})",
        bundle.recording.external().count(),
        case.expected_external_bytes
    );
    assert_eq!(Some(sent), case.expected_external_bytes);

    // Persist the recording and reload it — the artifact a bug report
    // would attach.
    let path = std::env::temp_dir().join("webserve.dprec");
    bundle.recording.save(std::fs::File::create(&path)?)?;
    let loaded = Recording::load(std::fs::File::open(&path)?)?;
    println!(
        "saved {} KiB recording to {}",
        std::fs::metadata(&path)?.len() / 1024,
        path.display()
    );

    // Replay from the loaded artifact and verify the server behaved
    // identically: same epochs, same final state.
    let report = replay_sequential(&loaded, &case.spec.program)?;
    println!(
        "replayed {} epochs from disk; server exit code {:?}",
        report.epochs, report.exit_code
    );
    assert_eq!(report.epochs as u64, stats.epochs);

    // Simulate a crash of the recording machine: truncate the journal at
    // an arbitrary byte (here 80%, landing mid-frame) and salvage. The
    // commit rule guarantees we recover exactly the epochs whose commit
    // markers reached the disk — each one bit-identical to the real run.
    let journal_bytes = std::fs::read(&jpath)?;
    let torn = &journal_bytes[..journal_bytes.len() * 8 / 10];
    let salvaged = JournalReader::salvage(torn)?;
    println!(
        "crash at byte {}: salvaged {}/{} committed epochs ({} bytes dropped: {})",
        torn.len(),
        salvaged.committed(),
        bundle.recording.epochs.len(),
        salvaged.dropped_bytes,
        salvaged.detail
    );
    let partial = replay_sequential(&salvaged.recording, &case.spec.program)?;
    let k = salvaged.committed();
    assert_eq!(partial.epochs as usize, k);
    assert_eq!(
        partial.final_hash,
        bundle.recording.epochs[k - 1].end_machine_hash,
        "salvaged prefix must replay to the recorded state"
    );
    println!("salvaged prefix replayed and verified ({k} epochs)");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&jpath).ok();
    Ok(())
}
