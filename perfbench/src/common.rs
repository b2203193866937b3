//! What the workloads share: volume parameters, the seeded file sets, the
//! end-of-run metrics and the single-threaded per-layer rungs.

use crate::dev::{Counters, IoCount};
use crate::model::{FileModel, Rng, BLK};
use crate::stats::{median, Metrics, OpSamples};
use std::time::{Duration, Instant};
use stegfs_blockdev::BlockDevice;
use stegfs_core::{CacheStats, StegFs, StegParams};
use stegfs_crypto::{kdf, Aes};
use stegfs_vfs::{OpenOptions, SessionId, Vfs, VfsHandle};

/// Volume block size of every workload (1 KiB, so the default 4096-block
/// read cache holds 4 MiB).
pub const BLOCK_SIZE: usize = 1024;

/// The p99 latency limit behind `max_rate_ops_per_s`, in ms.
pub const LIMIT_MS: f64 = 100.0;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Default parameters with random fill off (its doc says it has no bearing on
/// timing, and it would dominate set-up), observability on only when traced.
pub fn params(seed: u64, traced: bool) -> StegParams {
    StegParams {
        random_fill: false,
        volume_seed: seed,
        obs_enabled: traced,
        trace_capacity: if traced {
            stegfs_core::TRACE_CAPACITY
        } else {
            0
        },
        ..StegParams::default()
    }
}

/// The access key of client `client`.
pub fn key(seed: u64, client: usize) -> String {
    format!("perfbench-key-{seed:x}-{client}")
}

/// One benchmark file: where it lives and what it should hold.
#[derive(Clone)]
pub struct BenchFile {
    pub hidden: bool,
    /// Object name (hidden) or file name (plain), without namespace.
    pub name: String,
    pub model: FileModel,
}

impl BenchFile {
    pub fn new(hidden: bool, name: String, id: u64, len: usize) -> Self {
        BenchFile {
            hidden,
            name,
            model: FileModel::new(id, len),
        }
    }

    pub fn vfs_path(&self) -> String {
        if self.hidden {
            format!("/hidden/{}", self.name)
        } else {
            format!("/plain/{}", self.name)
        }
    }

    /// Path inside the plain file system (plain files only).
    pub fn plain_path(&self) -> String {
        format!("/{}", self.name)
    }
}

/// Create every file in `files` through `vfs` and write its version-0
/// contents.
pub fn create_files<D: BlockDevice>(vfs: &Vfs<D>, session: SessionId, files: &[BenchFile]) {
    for f in files {
        let h = vfs
            .open(session, &f.vfs_path(), OpenOptions::read_write())
            .unwrap_or_else(|e| panic!("set-up create {}: {e}", f.vfs_path()));
        vfs.write_at(h, 0, &f.model.expected(0, f.model.versions.len()))
            .unwrap_or_else(|e| panic!("set-up write {}: {e}", f.vfs_path()));
        vfs.close(h).expect("set-up close");
    }
}

/// Median wall time of `SETUP_REPS` set-ups, and the last volume built.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous volume first so peak memory holds one volume.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Blocks in use ÷ blocks of live user data.
pub fn space_amp<D: BlockDevice>(vfs: &Vfs<D>, live_user_bytes: u64) -> f64 {
    let r = vfs.space_report().expect("space report");
    let in_use = r.total_blocks - r.free_blocks;
    in_use as f64 / live_user_bytes.div_ceil(r.block_size as u64) as f64
}

/// The device metrics every workload reports.
pub fn io_metrics(m: &mut Metrics, io: &IoCount, ops: u64, user_bytes: u64, window: Duration) {
    let ops = ops.max(1) as f64;
    m.e2e(
        "write_amp",
        (io.blocks_written * BLOCK_SIZE as u64) as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    m.layer(
        "blockdev.read_subs_per_op",
        io.read_subs as f64 / ops,
        "count",
    );
    m.layer(
        "blockdev.write_subs_per_op",
        io.write_subs as f64 / ops,
        "count",
    );
    m.layer(
        "blockdev.blocks_read_per_op",
        io.blocks_read as f64 / ops,
        "count",
    );
    m.layer(
        "blockdev.blocks_written_per_op",
        io.blocks_written as f64 / ops,
        "count",
    );
    m.layer("blockdev.flushes_per_op", io.flushes as f64 / ops, "count");
    m.layer(
        "blockdev.busy_frac",
        io.busy.as_secs_f64() / window.as_secs_f64().max(1e-9),
        "ratio",
    );
}

/// Read-cache ratios from two `cache_stats()` snapshots.
pub fn cache_metrics(m: &mut Metrics, before: &CacheStats, after: &CacheStats, ops: u64) {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    m.layer(
        "core.cache_block_hit_ratio",
        ratio(
            after.block_hits - before.block_hits,
            after.block_misses - before.block_misses,
        ),
        "ratio",
    );
    m.layer(
        "core.cache_header_hit_ratio",
        ratio(
            after.header_hits - before.header_hits,
            after.header_misses - before.header_misses,
        ),
        "ratio",
    );
    m.layer(
        "core.cache_extent_hit_ratio",
        ratio(
            after.extent_hits - before.extent_hits,
            after.extent_misses - before.extent_misses,
        ),
        "ratio",
    );
    m.layer(
        "core.cache_evictions_per_op",
        (after.evictions - before.evictions) as f64 / ops.max(1) as f64,
        "count",
    );
}

/// Engine metrics for workloads that do not use the engine: 0 means "not
/// applicable" (see the benchmark's README).
pub fn no_engine(m: &mut Metrics) {
    for name in [
        "engine.queue_wait_p50_ms",
        "engine.queue_wait_p99_ms",
        "engine.service_p50_ms",
    ] {
        m.layer(name, 0.0, "ms");
    }
    m.layer("engine.backlog_max", 0.0, "count");
    m.layer("bench.gen_lag_p99_ms", 0.0, "ms");
}

/// Median time of `f` over `n` calls, in microseconds.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Aligned 4 KiB offsets of `file`, visited in a seeded order.
fn offsets(file: &BenchFile, rng: &mut Rng, n: usize) -> Vec<u64> {
    let blocks = file.model.versions.len();
    (0..n).map(|_| (rng.below(blocks) * BLK) as u64).collect()
}

/// The `vfs.*` rungs, single-threaded on the workload's own volume.
pub fn vfs_rungs<D: BlockDevice>(
    vfs: &Vfs<D>,
    uak: &str,
    files: &[BenchFile],
    seed: u64,
    m: &mut Metrics,
) {
    let mut rng = Rng::new(seed, 0x7275_6e67);
    let s = vfs.signon(uak);
    let hidden: Vec<&BenchFile> = files.iter().filter(|f| f.hidden).collect();
    let plain: Vec<&BenchFile> = files.iter().filter(|f| !f.hidden).collect();
    let open_us = |set: &[&BenchFile]| {
        median_us(set.len().min(32), |i| {
            let h = vfs
                .open(s, &set[i].vfs_path(), OpenOptions::read_only())
                .expect("rung open");
            vfs.close(h).expect("rung close");
        })
    };
    m.layer("vfs.hidden_open_us", open_us(&hidden), "us");
    m.layer("vfs.plain_open_us", open_us(&plain), "us");

    let handles: Vec<(VfsHandle, Vec<u64>)> = hidden
        .iter()
        .take(8)
        .map(|f| {
            let h = vfs
                .open(s, &f.vfs_path(), OpenOptions::new().read(true).write(true))
                .expect("rung open");
            (h, offsets(f, &mut rng, 500))
        })
        .collect();
    let data = vec![0xa5u8; BLK];
    let pick = |i: usize| {
        (
            handles[i % handles.len()].0,
            handles[i % handles.len()].1[i / handles.len() % 500],
        )
    };
    m.layer(
        "vfs.read4k_us",
        median_us(2000, |i| {
            let (h, off) = pick(i);
            std::hint::black_box(vfs.read_at(h, off, BLK).expect("rung read"));
        }),
        "us",
    );
    m.layer(
        "vfs.write4k_us",
        median_us(400, |i| {
            let (h, off) = pick(i);
            vfs.write_at(h, off, &data).expect("rung write");
        }),
        "us",
    );
    m.layer(
        "vfs.fsync_us",
        median_us(20, |i| {
            let (h, _) = pick(i);
            vfs.fsync(h).expect("rung fsync");
        }),
        "us",
    );
    for (h, _) in handles {
        vfs.close(h).expect("rung close");
    }
    vfs.signoff(s).expect("rung signoff");
}

/// The `core.*` and `fs.*` rungs, single-threaded on the workload's own
/// volume, reached by taking the `StegFs` back out of the `Vfs`.
pub fn core_rungs<D: BlockDevice>(
    fs: &StegFs<D>,
    uak: &str,
    files: &[BenchFile],
    seed: u64,
    m: &mut Metrics,
) {
    let mut rng = Rng::new(seed, 0x636f_7265);
    let hidden: Vec<&BenchFile> = files.iter().filter(|f| f.hidden).collect();
    let plain: Vec<&BenchFile> = files.iter().filter(|f| !f.hidden).collect();
    m.layer(
        "core.open_hidden_us",
        median_us(hidden.len().min(16), |i| {
            std::hint::black_box(
                fs.open_hidden(&hidden[i].name, uak)
                    .expect("rung open_hidden"),
            );
        }),
        "us",
    );
    let mut handles: Vec<_> = hidden
        .iter()
        .take(8)
        .map(|f| {
            (
                fs.open_hidden(&f.name, uak).expect("rung open_hidden"),
                offsets(f, &mut rng, 500),
            )
        })
        .collect();
    let n = handles.len();
    m.layer(
        "core.read_range_us",
        median_us(2000, |i| {
            let (h, offs) = &handles[i % n];
            std::hint::black_box(
                fs.read_range_at(h, offs[i / n % 500], BLK)
                    .expect("rung read"),
            );
        }),
        "us",
    );
    let data = vec![0x5au8; BLK];
    m.layer(
        "core.write_range_us",
        median_us(400, |i| {
            let (h, offs) = &mut handles[i % n];
            let off = offs[i / n % 500];
            fs.write_range_at(h, off, &data).expect("rung write");
        }),
        "us",
    );
    let plain_offs: Vec<(String, u64)> = (0..500)
        .map(|i| {
            let f = plain[i % plain.len()];
            (f.plain_path(), offsets(f, &mut rng, 1)[0])
        })
        .collect();
    let pfs = fs.plain_fs();
    m.layer(
        "fs.plain_read4k_us",
        median_us(2000, |i| {
            let (p, off) = &plain_offs[i % 500];
            std::hint::black_box(pfs.read_file_range(p, *off, BLK).expect("rung plain read"));
        }),
        "us",
    );
    m.layer(
        "fs.plain_write4k_us",
        median_us(400, |i| {
            let (p, off) = &plain_offs[i % 500];
            pfs.write_file_range(p, *off, &data)
                .expect("rung plain write");
        }),
        "us",
    );
}

/// The `crypto.*` rungs.
pub fn crypto_rungs(m: &mut Metrics) {
    m.layer(
        "crypto.derive_key_us",
        median_us(40, |i| {
            std::hint::black_box(kdf::derive_key(
                b"perfbench passphrase",
                b"perfbench",
                &i.to_le_bytes(),
            ));
        }),
        "us",
    );
    let aes = Aes::new(&[7u8; 32]);
    let mut block = [0u8; 16];
    let per_batch = 10_000;
    let batch_us = median_us(21, |_| {
        for _ in 0..per_batch {
            aes.encrypt_block(std::hint::black_box(&mut block));
        }
    });
    m.layer(
        "crypto.aes_block_ns",
        batch_us * 1e3 / per_batch as f64,
        "ns",
    );
}

/// The metrics of a closed-loop pass; returns its `ops_per_s`.
pub fn closed_loop_report(m: &mut Metrics, t: &mut Tally, elapsed: Duration, io: &IoCount) -> f64 {
    let ops = t.samples.total() as u64;
    let ops_per_s = ops as f64 / elapsed.as_secs_f64();
    m.layer("ops_per_s", ops_per_s, "1/s");
    t.samples.report(m);
    // A closed loop runs at capacity, so its rate is the highest rate that
    // meets the limit whenever its p99 does.
    let meets = t.samples.worst_p99() <= LIMIT_MS;
    m.layer(
        "max_rate_ops_per_s",
        if meets { ops_per_s } else { 0.0 },
        "1/s",
    );
    io_metrics(m, io, ops, t.user_bytes_written, elapsed);
    ops_per_s
}

/// What one closed-loop client thread did.
#[derive(Default)]
pub struct Tally {
    pub samples: OpSamples,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub user_bytes_written: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.samples.merge(&other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.user_bytes_written += other.user_bytes_written;
    }
}

/// One closed-loop pass: `clients` threads each run `client` until
/// `seconds` have passed, with the benchmark's spans on when `traced`.  Returns the merged tally, the wall time, and the
/// device and cache deltas over the pass.
pub fn closed_loop<D, F>(
    vfs: &Vfs<D>,
    counters: &Counters,
    seconds: f64,
    clients: usize,
    traced: bool,
    client: F,
) -> (Tally, Duration, IoCount, CacheStats, CacheStats)
where
    D: BlockDevice + Sync,
    F: Fn(usize, Instant) -> Tally + Sync,
{
    crate::trace::set_enabled(traced);
    let io0 = counters.snapshot();
    let cache0 = vfs.cache_stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    std::thread::scope(|sc| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let client = &client;
                sc.spawn(move || client(c, deadline))
            })
            .collect();
        for t in threads {
            total.merge(t.join().expect("client thread panicked"));
        }
    });
    let elapsed = start.elapsed();
    crate::trace::set_enabled(false);
    (
        total,
        elapsed,
        counters.snapshot().since(&io0),
        cache0,
        vfs.cache_stats(),
    )
}
