//! `handle_rw_4x_cache`: 4 KiB aligned I/O on long-lived handles (70% read,
//! 30% write) over 16 MiB of hidden and 16 MiB of plain files, 4× the
//! default 4 MiB read cache.  Files are Zipf-skewed (θ = 0.9), offsets
//! uniform.  Nothing in the timed window opens, closes or signs off, so no
//! key is derived: the read cache, AES, the hidden write path and `PlainFs`
//! do the work, and a key-derivation change must not move these numbers.

use crate::common::*;
use crate::dev::{Counters, CountingDevice};
use crate::model::{Deck, Rng, Zipf, BLK};
use crate::stats::Metrics;
use crate::trace;
use crate::Outcome;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stegfs_blockdev::MemBlockDevice;
use stegfs_vfs::{OpenOptions, SessionId, Vfs, VfsHandle};

const CLIENTS: usize = 2;
/// Hidden and plain files per client (128 of each in all, 16 MiB each side).
const FILES_PER_NS: usize = 64;
const FILE_LEN: usize = 128 * 1024;
const VOLUME_MB: u64 = 96;
const ZIPF_THETA: f64 = 0.9;
/// Untimed operations per client before the window, so the cache is warm.
const WARMUP_OPS: usize = 20_000;
const LIVE_USER_BYTES: u64 = (CLIENTS * FILES_PER_NS * 2 * FILE_LEN) as u64;

type Dev = CountingDevice<MemBlockDevice>;

/// A client's open handles: hidden files first, then plain.
struct ClientFiles {
    session: SessionId,
    files: Vec<(VfsHandle, BenchFile)>,
}

struct Volume {
    vfs: Vfs<Dev>,
    counters: Arc<Counters>,
    clients: Vec<Mutex<ClientFiles>>,
}

fn build(seed: u64, traced: bool) -> Volume {
    let (dev, counters) =
        CountingDevice::new(MemBlockDevice::with_capacity_mb(BLOCK_SIZE, VOLUME_MB));
    let vfs = Vfs::format(dev, params(seed, traced)).expect("format handle volume");
    let clients = (0..CLIENTS)
        .map(|c| {
            let hidden = (0..FILES_PER_NS).map(|i| (true, format!("h{c}-{i}")));
            let plain = (0..FILES_PER_NS).map(|i| (false, format!("h{c}-{i}.dat")));
            let set: Vec<BenchFile> = hidden
                .chain(plain)
                .enumerate()
                .map(|(i, (h, name))| BenchFile::new(h, name, (c * 1000 + i) as u64, FILE_LEN))
                .collect();
            let session = vfs.signon(&key(seed, c));
            create_files(&vfs, session, &set);
            let files = set
                .into_iter()
                .map(|f| {
                    let h = vfs
                        .open(
                            session,
                            &f.vfs_path(),
                            OpenOptions::new().read(true).write(true),
                        )
                        .expect("set-up open");
                    (h, f)
                })
                .collect();
            Mutex::new(ClientFiles { session, files })
        })
        .collect();
    Volume {
        vfs,
        counters,
        clients,
    }
}

fn client(vol: &Volume, seed: u64, c: usize, warmup: usize, deadline: Instant) -> Tally {
    let mut rng = Rng::new(seed, 0x6861_6e64 + c as u64);
    let zipf = Zipf::new(FILES_PER_NS, ZIPF_THETA);
    let mut cf = vol.clients[c].lock().expect("client files poisoned");
    let blocks = FILE_LEN / BLK;
    // (hidden, write): half hidden, 70% reads.
    let mut deck = Deck::new(&[
        ((true, false), 7),
        ((true, true), 3),
        ((false, false), 7),
        ((false, true), 3),
    ]);
    let mut t = Tally::default();
    let mut done = 0usize;
    loop {
        let timed = done >= warmup;
        if timed && Instant::now() >= deadline {
            break;
        }
        done += 1;
        let (hidden, write) = deck.draw(&mut rng);
        let i = zipf.sample(&mut rng) + if hidden { 0 } else { FILES_PER_NS };
        let blk = rng.below(blocks);
        let (h, f) = &mut cf.files[i];
        let h = *h;
        let off = (blk * BLK) as u64;
        let started = Instant::now();
        let result = if write {
            let data = f.model.bump(blk, 1);
            if timed {
                t.user_bytes_written += BLK as u64;
            }
            trace::request("op.write4k", || {
                trace::span("vfs.write_at", || vol.vfs.write_at(h, off, &data)).map(|_| None)
            })
        } else {
            trace::request("op.read4k", || {
                trace::span("vfs.read_at", || vol.vfs.read_at(h, off, BLK)).map(Some)
            })
        };
        let latency = started.elapsed();
        t.attempted += 1;
        match result {
            Ok(read) => {
                if timed {
                    t.samples.class(f.hidden, write).push(latency);
                }
                if read.is_some_and(|data| !f.model.matches(blk, &data)) {
                    t.mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!(
                    "handle_rw_4x_cache: {} on {} failed: {e}",
                    if write { "write" } else { "read" },
                    f.vfs_path()
                );
                t.failed += 1;
            }
        }
    }
    t
}

fn close_all(vol: &Volume) {
    for cf in &vol.clients {
        let cf = cf.lock().expect("client files poisoned");
        for (h, _) in &cf.files {
            vol.vfs.close(*h).expect("close");
        }
        vol.vfs.signoff(cf.session).expect("signoff");
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    // The warm-up is checked like any other pass, but not timed.
    let measure = |vol: &Volume, secs: f64, traced: bool, out: &mut Outcome| {
        for c in 0..CLIENTS {
            out.absorb(
                &client(vol, seed ^ 0x77, c, WARMUP_OPS, Instant::now()),
                0,
                0,
            );
        }
        closed_loop(
            &vol.vfs,
            &vol.counters,
            secs,
            CLIENTS,
            traced,
            |c, deadline| client(vol, seed, c, 0, deadline),
        )
    };

    if !traced {
        let (setup_s, vol) = timed_setup(|| build(seed, false));
        let (mut tally, elapsed, io, _, _) = measure(&vol, seconds, false, &mut out);
        m.e2e("setup_s", setup_s, "s");
        closed_loop_report(&mut m, &mut tally, elapsed, &io);
        m.e2e("space_amp", space_amp(&vol.vfs, LIVE_USER_BYTES), "ratio");
        out.absorb(&tally, 0, 0);
        close_all(&vol);
    } else {
        let base = build(seed, false);
        let (base_tally, base_elapsed, ..) = measure(&base, seconds / 2.0, false, &mut out);
        let base_rate = base_tally.samples.total() as f64 / base_elapsed.as_secs_f64();
        close_all(&base);
        drop(base);

        let vol = build(seed, true);
        let (mut tally, elapsed, io, cache0, cache1) = measure(&vol, seconds / 2.0, true, &mut out);
        let rate = closed_loop_report(&mut m, &mut tally, elapsed, &io);
        cache_metrics(&mut m, &cache0, &cache1, tally.samples.total() as u64);
        m.layer("obs.overhead_frac", 1.0 - rate / base_rate, "ratio");
        no_engine(&mut m);
        out.absorb(&base_tally, 0, 0);
        out.absorb(&tally, 0, 0);

        let files: Vec<BenchFile> = vol.clients[0]
            .lock()
            .expect("client files poisoned")
            .files
            .iter()
            .map(|(_, f)| f.clone())
            .collect();
        close_all(&vol);
        vfs_rungs(&vol.vfs, &key(seed, 0), &files, seed, &mut m);
        let fs = vol.vfs.into_stegfs();
        core_rungs(&fs, &key(seed, 0), &files, seed, &mut m);
        crypto_rungs(&mut m);
    }
    out.finish(m)
}
