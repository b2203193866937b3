//! Stretch-count regression tests: a mounted volume runs the PBKDF2 key
//! stretch once per object per session, not once per operation.
//!
//! `kdf::stretches()` is process-global, so each test diffs it around a
//! window that only its own thread drives; the tests in this binary take a
//! shared lock so their windows never overlap.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::StegParams;
use stegfs_crypto::kdf;
use stegfs_tests::payload;
use stegfs_vfs::{OpenOptions, Vfs};

const KEY: &str = "stretch counting key";

static SERIAL: Mutex<()> = Mutex::new(());

fn volume() -> Vfs<MemBlockDevice> {
    Vfs::format(MemBlockDevice::new(1024, 8192), StegParams::for_tests()).unwrap()
}

/// Stretches run while `f` runs.
fn stretches_during(f: impl FnOnce()) -> u64 {
    let before = kdf::stretches();
    f();
    kdf::stretches() - before
}

#[test]
fn creating_n_hidden_files_costs_at_most_n_plus_two_stretches() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: u64 = 12;
    let vfs = volume();
    let session = vfs.signon(KEY);
    let used = stretches_during(|| {
        for i in 0..N {
            let path = format!("/hidden/file-{i}");
            let h = vfs.open(session, &path, OpenOptions::read_write()).unwrap();
            vfs.write_at(h, 0, &payload(i, 3_000)).unwrap();
            vfs.close(h).unwrap();
        }
    });
    assert!(
        used <= N + 2,
        "{used} stretches to create {N} hidden files (at most {} allowed)",
        N + 2
    );
    vfs.signoff(session).unwrap();
}

#[test]
fn reopening_a_file_already_opened_in_the_session_costs_no_stretch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let vfs = volume();
    let session = vfs.signon(KEY);
    let data = payload(99, 10_000);
    let h = vfs
        .open(session, "/hidden/doc", OpenOptions::read_write())
        .unwrap();
    vfs.write_at(h, 0, &data).unwrap();
    vfs.close(h).unwrap();
    let h = vfs
        .open(session, "/hidden/doc", OpenOptions::read_only())
        .unwrap();
    vfs.close(h).unwrap();

    let used = stretches_during(|| {
        for _ in 0..5 {
            let h = vfs
                .open(session, "/hidden/doc", OpenOptions::read_only())
                .unwrap();
            assert_eq!(vfs.read_at(h, 0, data.len()).unwrap(), data);
            vfs.close(h).unwrap();
        }
    });
    assert_eq!(used, 0, "re-opens within the session re-stretched keys");
    vfs.signoff(session).unwrap();
}
