//! `vault_sessions`: the paper's usage model.  Each client signs on with its
//! own key, touches 32 whole files (half hidden, half plain; 90% read, 10%
//! rewrite) and signs off, which purges its read cache.  Looking a hidden
//! object up by key and name dominates, so key derivation, the locator,
//! headers and the header cache show here; the journal and engine do nothing.

use crate::common::*;
use crate::dev::{Counters, CountingDevice};
use crate::model::{Deck, Rng, BLK};
use crate::stats::Metrics;
use crate::trace;
use crate::Outcome;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stegfs_blockdev::MemBlockDevice;
use stegfs_vfs::{OpenOptions, SessionId, Vfs};

const CLIENTS: usize = 2;
/// Hidden and plain files per client (64 of each in all).
const FILES_PER_NS: usize = 32;
const FILE_LEN: usize = 16 * 1024;
const ACCESSES_PER_SESSION: usize = 32;
const VOLUME_MB: u64 = 32;

type Dev = CountingDevice<MemBlockDevice>;

struct Volume {
    vfs: Vfs<Dev>,
    counters: Arc<Counters>,
    /// Each client's files; a client only touches its own.
    files: Vec<Mutex<Vec<BenchFile>>>,
}

fn build(seed: u64, traced: bool) -> Volume {
    let (dev, counters) =
        CountingDevice::new(MemBlockDevice::with_capacity_mb(BLOCK_SIZE, VOLUME_MB));
    let vfs = Vfs::format(dev, params(seed, traced)).expect("format vault volume");
    let files = (0..CLIENTS)
        .map(|c| {
            let mut set = Vec::new();
            for i in 0..FILES_PER_NS {
                let id = ((c * FILES_PER_NS + i) * 2) as u64;
                set.push(BenchFile::new(true, format!("v{c}-{i}"), id, FILE_LEN));
                set.push(BenchFile::new(
                    false,
                    format!("v{c}-{i}.dat"),
                    id + 1,
                    FILE_LEN,
                ));
            }
            let s = vfs.signon(&key(seed, c));
            create_files(&vfs, s, &set);
            vfs.signoff(s).expect("set-up signoff");
            Mutex::new(set)
        })
        .collect();
    Volume {
        vfs,
        counters,
        files,
    }
}

/// One whole-file access: open, read or rewrite the whole file, close.
fn access(vfs: &Vfs<Dev>, s: SessionId, f: &mut BenchFile, write: bool, t: &mut Tally) {
    let blocks = FILE_LEN / BLK;
    let path = f.vfs_path();
    t.attempted += 1;
    let started = Instant::now();
    let result = if write {
        let data = f.model.bump(0, blocks);
        t.user_bytes_written += FILE_LEN as u64;
        trace::request("op.rewrite", || {
            let h = trace::span("vfs.open", || {
                vfs.open(s, &path, OpenOptions::new().read(true).write(true))
            })?;
            let w = trace::span("vfs.write_at", || vfs.write_at(h, 0, &data));
            trace::span("vfs.close", || vfs.close(h))?;
            w.map(|_| None)
        })
    } else {
        trace::request("op.read", || {
            let h = trace::span("vfs.open", || vfs.open(s, &path, OpenOptions::read_only()))?;
            let r = trace::span("vfs.read_at", || vfs.read_at(h, 0, FILE_LEN));
            trace::span("vfs.close", || vfs.close(h))?;
            r.map(Some)
        })
    };
    let latency = started.elapsed();
    match result {
        Ok(read) => {
            t.samples.class(f.hidden, write).push(latency);
            if let Some(data) = read {
                if !f.model.matches(0, &data) {
                    t.mismatches += 1;
                }
            }
        }
        Err(e) => {
            eprintln!(
                "vault_sessions: {} {path} failed: {e}",
                if write { "rewrite" } else { "read" }
            );
            t.failed += 1;
        }
    }
}

fn client(vol: &Volume, seed: u64, c: usize, deadline: Instant) -> Tally {
    let mut rng = Rng::new(seed, 0x7661_756c + c as u64);
    let mut files = vol.files[c].lock().expect("file set poisoned");
    let (hidden, plain): (Vec<usize>, Vec<usize>) =
        (0..files.len()).partition(|&i| files[i].hidden);
    let uak = key(seed, c);
    // (hidden, write): half hidden, 10% rewrites.
    let mut deck = Deck::new(&[
        ((true, false), 9),
        ((true, true), 1),
        ((false, false), 9),
        ((false, true), 1),
    ]);
    let mut t = Tally::default();
    while Instant::now() < deadline {
        let s = trace::request("vfs.signon", || vol.vfs.signon(&uak));
        for _ in 0..ACCESSES_PER_SESSION {
            if Instant::now() >= deadline {
                break;
            }
            let (is_hidden, write) = deck.draw(&mut rng);
            let set = if is_hidden { &hidden } else { &plain };
            let i = set[rng.below(set.len())];
            access(&vol.vfs, s, &mut files[i], write, &mut t);
        }
        trace::request("vfs.signoff", || vol.vfs.signoff(s)).expect("signoff");
    }
    t
}

/// A wrong key must read like a name that never existed: both fail in the
/// not-found family.  Returns the number of opens that broke the rule.
fn deniability_checks(vol: &Volume, seed: u64) -> (u64, u64) {
    let mut attempted = 0;
    let mut broken = 0;
    for c in 0..CLIENTS {
        let files = vol.files[c].lock().expect("file set poisoned");
        let wrong = vol.vfs.signon(&format!("{}-wrong", key(seed, c)));
        let right = vol.vfs.signon(&key(seed, c));
        for (i, f) in files.iter().filter(|f| f.hidden).take(4).enumerate() {
            for (s, path) in [
                (wrong, f.vfs_path()),
                (right, format!("/hidden/never-{c}-{i}")),
            ] {
                attempted += 1;
                match vol.vfs.open(s, &path, OpenOptions::read_only()) {
                    Err(e) if e.is_not_found() => {}
                    other => {
                        eprintln!("vault_sessions: deniability check on {path}: {other:?}");
                        broken += 1;
                    }
                }
            }
        }
        vol.vfs.signoff(wrong).expect("signoff");
        vol.vfs.signoff(right).expect("signoff");
    }
    (attempted, broken)
}

/// Every file keeps its size, so live user data is fixed.
const LIVE_USER_BYTES: u64 = (CLIENTS * FILES_PER_NS * 2 * FILE_LEN) as u64;

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    let measure = |vol: &Volume, secs: f64, traced: bool| {
        closed_loop(
            &vol.vfs,
            &vol.counters,
            secs,
            CLIENTS,
            traced,
            |c, deadline| client(vol, seed, c, deadline),
        )
    };

    if !traced {
        let (setup_s, vol) = timed_setup(|| build(seed, false));
        let (mut tally, elapsed, io, _, _) = measure(&vol, seconds, false);
        m.e2e("setup_s", setup_s, "s");
        closed_loop_report(&mut m, &mut tally, elapsed, &io);
        m.e2e("space_amp", space_amp(&vol.vfs, LIVE_USER_BYTES), "ratio");
        let (checks, broken) = deniability_checks(&vol, seed);
        out.absorb(&tally, checks, broken);
    } else {
        let base = build(seed, false);
        let (base_tally, base_elapsed, ..) = measure(&base, seconds / 2.0, false);
        let base_rate = base_tally.samples.total() as f64 / base_elapsed.as_secs_f64();
        drop(base);

        let vol = build(seed, true);
        let (mut tally, elapsed, io, cache0, cache1) = measure(&vol, seconds / 2.0, true);
        let rate = closed_loop_report(&mut m, &mut tally, elapsed, &io);
        cache_metrics(&mut m, &cache0, &cache1, tally.samples.total() as u64);
        m.layer("obs.overhead_frac", 1.0 - rate / base_rate, "ratio");
        no_engine(&mut m);
        let (checks, broken) = deniability_checks(&vol, seed);
        out.absorb(&base_tally, 0, 0);
        out.absorb(&tally, checks, broken);

        let files = vol.files[0].lock().expect("file set poisoned").clone();
        vfs_rungs(&vol.vfs, &key(seed, 0), &files, seed, &mut m);
        let fs = vol.vfs.into_stegfs();
        core_rungs(&fs, &key(seed, 0), &files, seed, &mut m);
        crypto_rungs(&mut m);
    }
    out.finish(m)
}
