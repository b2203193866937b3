//! The benchmark's own device counter: a [`BlockDevice`] wrapper that counts
//! submissions, blocks and flushes, and in traced runs also records busy
//! time and one span per device call.

use crate::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stegfs_blockdev::{BlockDevice, BlockId, BlockResult};

/// Counters shared between the wrapper inside the stack and the benchmark.
#[derive(Default)]
pub struct Counters {
    read_subs: AtomicU64,
    write_subs: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    flushes: AtomicU64,
    busy: Mutex<Busy>,
}

#[derive(Default)]
struct Busy {
    in_flight: u32,
    since: Option<Instant>,
    total: Duration,
}

/// A snapshot of [`Counters`].
#[derive(Clone, Copy, Default, Debug)]
pub struct IoCount {
    pub read_subs: u64,
    pub write_subs: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    pub flushes: u64,
    /// Time with at least one device call in flight (traced runs only).
    pub busy: Duration,
}

impl IoCount {
    pub fn since(&self, earlier: &IoCount) -> IoCount {
        IoCount {
            read_subs: self.read_subs - earlier.read_subs,
            write_subs: self.write_subs - earlier.write_subs,
            blocks_read: self.blocks_read - earlier.blocks_read,
            blocks_written: self.blocks_written - earlier.blocks_written,
            flushes: self.flushes - earlier.flushes,
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }
}

impl Counters {
    pub fn snapshot(&self) -> IoCount {
        IoCount {
            read_subs: self.read_subs.load(Ordering::Relaxed),
            write_subs: self.write_subs.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            busy: self.busy.lock().expect("busy clock poisoned").total,
        }
    }

    fn begin(&self) {
        let mut b = self.busy.lock().expect("busy clock poisoned");
        if b.in_flight == 0 {
            b.since = Some(Instant::now());
        }
        b.in_flight += 1;
    }

    fn end(&self) {
        let mut b = self.busy.lock().expect("busy clock poisoned");
        b.in_flight -= 1;
        if b.in_flight == 0 {
            if let Some(since) = b.since.take() {
                b.total += since.elapsed();
            }
        }
    }
}

/// Counts every call into `inner`.
pub struct CountingDevice<D> {
    inner: D,
    counters: Arc<Counters>,
}

impl<D: BlockDevice> CountingDevice<D> {
    pub fn new(inner: D) -> (Self, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let dev = CountingDevice {
            inner,
            counters: Arc::clone(&counters),
        };
        (dev, counters)
    }

    fn call<R>(&self, name: &'static str, f: impl FnOnce(&D) -> R) -> R {
        if !trace::enabled() {
            return f(&self.inner);
        }
        self.counters.begin();
        let out = trace::span(name, || f(&self.inner));
        self.counters.end();
        out
    }
}

fn add(counter: &AtomicU64, n: usize) {
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

impl<D: BlockDevice> BlockDevice for CountingDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        add(&self.counters.read_subs, 1);
        add(&self.counters.blocks_read, 1);
        self.call("dev.read", |d| d.read_block(block, buf))
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        add(&self.counters.write_subs, 1);
        add(&self.counters.blocks_written, 1);
        self.call("dev.write", |d| d.write_block(block, buf))
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        add(&self.counters.read_subs, 1);
        add(&self.counters.blocks_read, blocks.len());
        self.call("dev.read", |d| d.read_blocks(blocks, buf))
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        add(&self.counters.write_subs, 1);
        add(&self.counters.blocks_written, blocks.len());
        self.call("dev.write", |d| d.write_blocks(blocks, buf))
    }

    fn flush(&self) -> BlockResult<()> {
        add(&self.counters.flushes, 1);
        self.call("dev.flush", |d| d.flush())
    }
}
