//! `fsync_openloop`: durable small writes arriving on a Poisson schedule.
//!
//! One generator thread holds two engine clients, each with its own key, and
//! submits at a few fixed offered rates (frozen from the capacity measured
//! when the benchmark was defined) to an engine with a fixed worker count.
//! Requests are half hidden, half plain: 40% overwrite 4 KiB and fsync, 20%
//! create a 4 KiB file and fsync, 20% unlink the oldest file (keeping the
//! file count steady) and 20% read back a recently fsynced file.  The volume
//! is journaled with the checkpoint daemon on, over a `LatencyDevice`
//! (50 µs per submission, 500 µs per flush) over a `CrashDevice`.  It is the
//! only workload with a journal, fsync, metadata churn and queueing on a
//! device where the number of I/Os matters.
//!
//! Latency is timed from each request's due time.  The run ends with a
//! power cut, a remount and a check that every fsync-acknowledged write
//! reads back byte-identical.

use crate::common::*;
use crate::dev::{Counters, CountingDevice, IoCount};
use crate::model::{Deck, Rng, BLK};
use crate::stats::{Metrics, OpSamples, Samples};
use crate::trace;
use crate::Outcome;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stegfs_blockdev::{CrashDevice, LatencyDevice, MemBlockDevice};
use stegfs_core::StegParams;
use stegfs_engine::{Client, Completion, Engine, Request, RequestId, Response};
use stegfs_vfs::{OpenOptions, Vfs, VfsHandle};

const CLIENTS: usize = 2;
const WORKERS: usize = 4;
/// Files per client and namespace at the start.
const INITIAL_FILES: usize = 24;
const VOLUME_MB: u64 = 32;
/// Large enough for a default 1 MiB dummy-file rewrite in one transaction.
const JOURNAL_BLOCKS: u64 = 2048;
const BLOCK_LATENCY: Duration = Duration::from_micros(50);
const FLUSH_LATENCY: Duration = Duration::from_micros(500);
/// Offered rates (operations/s), stepped in order, and each step's share of
/// the run.  Frozen from the capacity measured when the benchmark was
/// defined: about 120/s meets the limit, 160/s does not.  The first step is
/// the reference rate the latency percentiles are reported at, and gets most
/// of the run so they rest on enough samples.
const STEPS: [(f64, f64); 5] = [
    (80.0, 0.6),
    (100.0, 0.1),
    (120.0, 0.1),
    (140.0, 0.1),
    (160.0, 0.1),
];
const REFERENCE_STEP: usize = 0;
/// Reads pick among this many most recently fsynced files.
const RECENT: usize = 8;
/// How long the generator waits for in-flight requests after the schedule.
const DRAIN: Duration = Duration::from_secs(60);

type Dev = CountingDevice<LatencyDevice<CrashDevice<MemBlockDevice>>>;

fn stack(crash: &CrashDevice<MemBlockDevice>) -> (Dev, Arc<Counters>) {
    CountingDevice::new(
        LatencyDevice::symmetric(crash.clone(), BLOCK_LATENCY).with_flush_latency(FLUSH_LATENCY),
    )
}

fn volume_params(seed: u64, traced: bool) -> StegParams {
    StegParams {
        journal_blocks: JOURNAL_BLOCKS,
        checkpoint_daemon: true,
        ..params(seed, traced)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Overwrite,
    Create,
    Unlink,
    Read,
}

/// One arrival's (client, hidden, kind): both clients and namespaces
/// equally, 40% overwrite, 20% create, 20% unlink, 20% read.
fn deck() -> Deck<(usize, bool, Kind)> {
    let mut cards = Vec::new();
    for client in 0..CLIENTS {
        for hidden in [false, true] {
            for (kind, n) in [
                (Kind::Overwrite, 4),
                (Kind::Create, 2),
                (Kind::Unlink, 2),
                (Kind::Read, 2),
            ] {
                cards.push(((client, hidden, kind), n));
            }
        }
    }
    Deck::new(&cards)
}

/// The files of one client in one namespace.
#[derive(Default)]
struct Pool {
    /// Live files by id.
    files: HashMap<u64, BenchFile>,
    /// Ids in creation order (the front is the oldest).
    order: VecDeque<u64>,
    /// Ids most recently fsynced, newest last.
    recent: VecDeque<u64>,
    /// Ids with a request in flight.
    busy: Vec<u64>,
}

impl Pool {
    fn idle(&self, id: u64) -> bool {
        self.files.contains_key(&id) && !self.busy.contains(&id)
    }

    fn pick(&self, kind: Kind, rng: &mut Rng) -> Option<u64> {
        match kind {
            Kind::Unlink => self.order.iter().copied().find(|&id| self.idle(id)),
            Kind::Read => {
                let idle: Vec<u64> = self
                    .recent
                    .iter()
                    .copied()
                    .filter(|&id| self.idle(id))
                    .collect();
                (!idle.is_empty()).then(|| idle[rng.below(idle.len())])
            }
            _ => (0..8)
                .map(|_| self.order[rng.below(self.order.len())])
                .find(|&id| self.idle(id)),
        }
    }

    fn fsynced(&mut self, id: u64) {
        self.recent.retain(|&r| r != id);
        self.recent.push_back(id);
        if self.recent.len() > RECENT {
            self.recent.pop_front();
        }
    }

    fn remove(&mut self, id: u64) {
        self.files.remove(&id);
        self.order.retain(|&o| o != id);
        self.recent.retain(|&r| r != id);
    }
}

struct Volume {
    vfs: Arc<Vfs<Dev>>,
    counters: Arc<Counters>,
    crash: CrashDevice<MemBlockDevice>,
    /// `pools[client][hidden as usize]`.
    pools: Vec<[Pool; 2]>,
    next_id: u64,
}

/// Format and fill the volume without the latency model (pricing the
/// format would make set-up dominate the run), then mount it through the
/// priced stack.
fn build(seed: u64, traced: bool) -> Volume {
    let crash = CrashDevice::new(MemBlockDevice::with_capacity_mb(BLOCK_SIZE, VOLUME_MB));
    let vfs =
        Vfs::format(crash.clone(), volume_params(seed, traced)).expect("format journaled volume");
    let mut next_id = 0;
    let pools = (0..CLIENTS)
        .map(|c| {
            let s = vfs.signon(&key(seed, c));
            let mut pools: [Pool; 2] = Default::default();
            for hidden in [false, true] {
                let pool = &mut pools[hidden as usize];
                for _ in 0..INITIAL_FILES {
                    let f = new_file(c, hidden, &mut next_id);
                    create_files(&vfs, s, std::slice::from_ref(&f));
                    pool.order.push_back(f.model.id);
                    pool.fsynced(f.model.id);
                    pool.files.insert(f.model.id, f);
                }
            }
            vfs.signoff(s).expect("set-up signoff");
            pools
        })
        .collect();
    vfs.unmount().expect("set-up unmount");
    let (dev, counters) = stack(&crash);
    let vfs = Vfs::mount(dev, volume_params(seed, traced)).expect("mount journaled volume");
    Volume {
        vfs: Arc::new(vfs),
        counters,
        crash,
        pools,
        next_id,
    }
}

fn new_file(client: usize, hidden: bool, next_id: &mut u64) -> BenchFile {
    let id = *next_id;
    *next_id += 1;
    let name = if hidden {
        format!("o{client}-{id}")
    } else {
        format!("o{client}-{id}.dat")
    };
    BenchFile::new(hidden, name, id, BLK)
}

/// One client operation in flight: a chain of engine requests.
struct Op {
    client: usize,
    hidden: bool,
    kind: Kind,
    file: u64,
    path: String,
    step: usize,
    due: Instant,
    rate_step: usize,
    handle: Option<VfsHandle>,
    /// When the current step was submitted.
    submitted: Instant,
    /// Contents being written (overwrite and create).
    data: Vec<u8>,
    failed: bool,
    trace_id: u64,
}

impl Op {
    /// The request for the current step, or `None` when the chain is done.
    fn request(&self) -> Option<Request> {
        let h = self.handle;
        let write_opts = OpenOptions::new().read(true).write(true);
        match (self.kind, self.step) {
            (Kind::Unlink, 0) => Some(Request::Unlink {
                path: self.path.clone(),
            }),
            (Kind::Overwrite, 0) => Some(Request::Open {
                path: self.path.clone(),
                opts: write_opts,
            }),
            (Kind::Create, 0) => Some(Request::Open {
                path: self.path.clone(),
                opts: write_opts.create(true),
            }),
            (Kind::Read, 0) => Some(Request::Open {
                path: self.path.clone(),
                opts: OpenOptions::read_only(),
            }),
            (Kind::Read, 1) => Some(Request::ReadAt {
                handle: h?,
                offset: 0,
                len: BLK,
            }),
            (Kind::Overwrite | Kind::Create, 1) => Some(Request::WriteAt {
                handle: h?,
                offset: 0,
                data: self.data.clone(),
            }),
            (Kind::Overwrite | Kind::Create, 2) => Some(Request::Fsync { handle: h? }),
            (Kind::Read, 2) | (Kind::Overwrite | Kind::Create, 3) => {
                Some(Request::Close { handle: h? })
            }
            _ => None,
        }
    }
}

/// What the generator measured.
#[derive(Default)]
struct Run {
    /// Latency samples per rate step.
    steps: Vec<OpSamples>,
    /// Failed operations per rate step.
    step_failed: Vec<u64>,
    /// Operations in flight when each step's time ran out.
    step_backlog: Vec<usize>,
    tally: Tally,
    queue_wait: Samples,
    service: Samples,
    gen_lag: Samples,
    backlog_max: usize,
    ops_done: u64,
    elapsed: Duration,
    io: IoCount,
}

/// An arrival of the Poisson schedule.
struct Arrival {
    due: Duration,
    rate_step: usize,
    client: usize,
    hidden: bool,
    kind: Kind,
}

/// When each step ends, in seconds from the start.
fn step_ends(seconds: f64) -> Vec<f64> {
    STEPS
        .iter()
        .scan(0.0, |end, (_, share)| {
            *end += share * seconds;
            Some(*end)
        })
        .collect()
}

fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x6f70_656e);
    let mut deck = deck();
    let mut out = Vec::new();
    let mut t = 0.0;
    for (s, (&(rate, _), end)) in STEPS.iter().zip(step_ends(seconds)).enumerate() {
        loop {
            t += rng.exp(1.0 / rate);
            if t >= end {
                t = end;
                break;
            }
            let (client, hidden, kind) = deck.draw(&mut rng);
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                rate_step: s,
                client,
                hidden,
                kind,
            });
        }
    }
    out
}

fn generate(vol: &mut Volume, clients: &[Client<Dev>], seed: u64, seconds: f64) -> Run {
    let arrivals = schedule(seed, seconds);
    let mut rng = Rng::new(seed, 0x7069_636b);
    let mut run = Run {
        steps: vec![OpSamples::default(); STEPS.len()],
        step_failed: vec![0; STEPS.len()],
        step_backlog: vec![0; STEPS.len()],
        ..Run::default()
    };
    let ends: Vec<Duration> = step_ends(seconds)
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect();
    let mut in_flight: HashMap<(usize, RequestId), Op> = HashMap::new();
    let mut requests_out = 0usize;
    let io0 = vol.counters.snapshot();
    let start = Instant::now();
    let mut next = 0;
    let mut step_marked = 0;
    loop {
        let now = Instant::now();
        while step_marked < STEPS.len() && now >= start + ends[step_marked] {
            run.step_backlog[step_marked] = in_flight.len();
            step_marked += 1;
        }
        while next < arrivals.len() && start + arrivals[next].due <= now {
            let a = &arrivals[next];
            next += 1;
            let due = start + a.due;
            if let Some(op) = begin(vol, a, due, &mut rng) {
                run.gen_lag
                    .push(Instant::now().saturating_duration_since(due));
                run.tally.attempted += 1;
                submit(clients, op, &mut in_flight, &mut requests_out, &mut run);
            }
        }
        for (c, client) in clients.iter().enumerate() {
            while let Some(done) = client.try_recv() {
                requests_out -= 1;
                // A completion with no op is the close of a failed op.
                if let Some(op) = in_flight.remove(&(c, done.id)) {
                    advance(
                        vol,
                        clients,
                        op,
                        done,
                        &mut in_flight,
                        &mut requests_out,
                        &mut run,
                    );
                }
            }
        }
        if next == arrivals.len() && in_flight.is_empty() {
            break;
        }
        if next == arrivals.len() && now >= start + Duration::from_secs_f64(seconds) + DRAIN {
            eprintln!(
                "fsync_openloop: {} operations still in flight after the drain",
                in_flight.len()
            );
            run.tally.failed += in_flight.len() as u64;
            break;
        }
        // Sleep briefly: the generator must not take a CPU from the workers.
        let until_due = arrivals.get(next).map_or(Duration::from_micros(100), |a| {
            (start + a.due).saturating_duration_since(now)
        });
        std::thread::sleep(until_due.min(Duration::from_micros(100)));
    }
    run.elapsed = start.elapsed();
    run.io = vol.counters.snapshot().since(&io0);
    run
}

/// Turn an arrival into an operation on a concrete file, or `None` when no
/// file is free for it (counted nowhere; it cannot happen with the pool
/// sizes used).
fn begin(vol: &mut Volume, a: &Arrival, due: Instant, rng: &mut Rng) -> Option<Op> {
    let pool = &mut vol.pools[a.client][a.hidden as usize];
    // Creates and unlinks alternate per pool, so the file count (and with it
    // `space_amp`) stays at its initial size instead of random-walking.
    let kind = match a.kind {
        Kind::Create if pool.files.len() > INITIAL_FILES => Kind::Unlink,
        Kind::Unlink if pool.files.len() <= INITIAL_FILES => Kind::Create,
        k => k,
    };
    let (file, data) = if kind == Kind::Create {
        let f = new_file(a.client, a.hidden, &mut vol.next_id);
        let id = f.model.id;
        let data = f.model.expected(0, 1);
        pool.files.insert(id, f);
        (id, data)
    } else {
        let id = pool.pick(kind, rng)?;
        let data = match kind {
            Kind::Overwrite => pool
                .files
                .get_mut(&id)
                .expect("picked file")
                .model
                .bump(0, 1),
            _ => Vec::new(),
        };
        (id, data)
    };
    pool.busy.push(file);
    let path = pool.files[&file].vfs_path();
    Some(Op {
        client: a.client,
        hidden: a.hidden,
        kind,
        file,
        path,
        step: 0,
        due,
        rate_step: a.rate_step,
        handle: None,
        submitted: due,
        data,
        failed: false,
        trace_id: trace::new_id(),
    })
}

fn submit(
    clients: &[Client<Dev>],
    mut op: Op,
    in_flight: &mut HashMap<(usize, RequestId), Op>,
    requests_out: &mut usize,
    run: &mut Run,
) {
    let request = op.request().expect("an op has a request to submit");
    op.submitted = Instant::now();
    let id = clients[op.client]
        .submit(request)
        .expect("engine accepts requests while running");
    *requests_out += 1;
    run.backlog_max = run.backlog_max.max(*requests_out);
    in_flight.insert((op.client, id), op);
}

/// Handle one completion: check it, then submit the op's next step or
/// finish the op.
fn advance(
    vol: &mut Volume,
    clients: &[Client<Dev>],
    mut op: Op,
    done: Completion,
    in_flight: &mut HashMap<(usize, RequestId), Op>,
    requests_out: &mut usize,
    run: &mut Run,
) {
    let finished_at = op.submitted + done.latency;
    run.queue_wait
        .push(done.latency.saturating_sub(done.service));
    run.service.push(done.service);
    trace::record(
        trace::new_id(),
        "engine.request",
        op.trace_id,
        op.trace_id,
        op.submitted,
        finished_at,
    );
    let pool = &mut vol.pools[op.client][op.hidden as usize];
    match done.result {
        Ok(Response::Handle(h)) => op.handle = Some(h),
        Ok(Response::Data(data)) => {
            if !pool.files[&op.file].model.matches(0, &data) {
                eprintln!("fsync_openloop: read of {} returned wrong bytes", op.path);
                run.tally.mismatches += 1;
            }
        }
        Ok(Response::Written(n)) if n == op.data.len() => {}
        Ok(Response::Unit) => {
            if matches!(op.request(), Some(Request::Fsync { .. })) {
                pool.fsynced(op.file);
                if op.kind == Kind::Create {
                    pool.order.push_back(op.file);
                }
            }
        }
        Ok(other) => {
            eprintln!(
                "fsync_openloop: unexpected response {other:?} on {}",
                op.path
            );
            op.failed = true;
        }
        Err(e) => {
            eprintln!(
                "fsync_openloop: {:?} step {} on {} failed: {e}",
                op.kind, op.step, op.path
            );
            op.failed = true;
        }
    }
    op.step += 1;
    if op.failed {
        // Close what is open; the file's state is unknown from here on.
        if let Some(h) = op.handle.take() {
            let _ = clients[op.client].submit(Request::Close { handle: h });
            *requests_out += 1;
        }
        pool.busy.retain(|&b| b != op.file);
        pool.remove(op.file);
        run.tally.failed += 1;
        run.step_failed[op.rate_step] += 1;
        return;
    }
    if op.request().is_some() {
        submit(clients, op, in_flight, requests_out, run);
        return;
    }
    pool.busy.retain(|&b| b != op.file);
    if op.kind == Kind::Unlink {
        pool.remove(op.file);
    }
    let write = op.kind != Kind::Read;
    if write {
        run.tally.user_bytes_written += op.data.len() as u64;
    }
    // Done: the op's latency runs from its due time to its last completion.
    let latency = finished_at.saturating_duration_since(op.due);
    run.steps[op.rate_step]
        .class(op.hidden, write)
        .push(latency);
    run.ops_done += 1;
    trace::record(
        op.trace_id,
        "op.client",
        op.trace_id,
        0,
        op.due,
        finished_at,
    );
}

fn serve(vol: &Volume, seed: u64) -> (Engine<Dev>, Vec<Client<Dev>>) {
    let engine = Engine::start(Arc::clone(&vol.vfs), WORKERS);
    let clients = (0..CLIENTS).map(|c| engine.client(&key(seed, c))).collect();
    (engine, clients)
}

/// Pull the plug on the drained volume, remount what survived and check
/// that every live file reads back its last fsync-acknowledged contents.
/// Returns the checks made, how many failed, and the remounted volume.
fn crash_and_verify(
    vol: Volume,
    engine: Engine<Dev>,
    clients: Vec<Client<Dev>>,
    seed: u64,
    traced: bool,
) -> (u64, u64, Vfs<Dev>) {
    drop(clients);
    engine.shutdown();
    let Volume {
        vfs, crash, pools, ..
    } = vol;
    let fs = Arc::try_unwrap(vfs)
        .unwrap_or_else(|_| panic!("volume still shared after engine shutdown"))
        .into_stegfs();
    // A killed process: no final checkpoint, no unmount.
    fs.stop_checkpoint_daemon(false);
    drop(fs);
    crash.crash(seed);

    let (dev, _) = stack(&crash);
    let vfs = Vfs::mount(dev, volume_params(seed, traced)).expect("remount after crash");
    let (mut checks, mut broken) = (0, 0);
    for (c, client_pools) in pools.iter().enumerate() {
        let s = vfs.signon(&key(seed, c));
        for f in client_pools.iter().flat_map(|p| p.files.values()) {
            checks += 1;
            let data = vfs
                .open(s, &f.vfs_path(), OpenOptions::read_only())
                .and_then(|h| {
                    let d = vfs.read_at(h, 0, BLK);
                    vfs.close(h)?;
                    d
                });
            match data {
                Ok(d) if f.model.matches(0, &d) => {}
                other => {
                    eprintln!(
                        "fsync_openloop: {} lost its fsynced contents across the crash: {:?}",
                        f.vfs_path(),
                        other.map(|d| d.len())
                    );
                    broken += 1;
                }
            }
        }
        vfs.signoff(s).expect("signoff");
    }
    (checks, broken, vfs)
}

fn live_user_bytes(vol: &Volume) -> u64 {
    let files: usize = vol.pools.iter().flatten().map(|p| p.files.len()).sum();
    (files * BLK) as u64
}

/// The highest offered rate whose ops met the p99 limit, with none failed
/// and no more in flight at the step's end than the limit allows
/// (Little's law), i.e. without a growing backlog.
fn max_rate(run: &Run) -> f64 {
    (0..STEPS.len())
        .filter(|&s| {
            let backlog_allowed = (STEPS[s].0 * LIMIT_MS / 1e3).max(4.0);
            run.step_failed[s] == 0
                && run.steps[s].total() > 0
                && run.steps[s].all().p99_any() <= LIMIT_MS
                && run.step_backlog[s] as f64 <= backlog_allowed
        })
        .map(|s| STEPS[s].0)
        .fold(0.0, f64::max)
}

fn report(run: &mut Run, m: &mut Metrics) {
    for (s, (rate, _)) in STEPS.iter().enumerate() {
        let mut all = run.steps[s].all();
        println!(
            "step {s}: offered {rate:.0}/s, {} ops, {} failed, p50 {:.3} ms, p99 {:.3} ms, backlog at end {}",
            all.len(),
            run.step_failed[s],
            all.p50(),
            all.p99_any(),
            run.step_backlog[s]
        );
    }
    run.steps[REFERENCE_STEP].report(m);
    m.layer("max_rate_ops_per_s", max_rate(run), "1/s");
    m.layer(
        "ops_per_s",
        run.ops_done as f64 / run.elapsed.as_secs_f64(),
        "1/s",
    );
    io_metrics(
        m,
        &run.io,
        run.ops_done,
        run.tally.user_bytes_written,
        run.elapsed,
    );
    m.layer("engine.queue_wait_p50_ms", run.queue_wait.p50(), "ms");
    m.layer(
        "engine.queue_wait_p99_ms",
        run.queue_wait.p99().unwrap_or(0.0),
        "ms",
    );
    m.layer("engine.service_p50_ms", run.service.p50(), "ms");
    m.layer("engine.backlog_max", run.backlog_max as f64, "count");
    m.layer(
        "bench.gen_lag_p99_ms",
        run.gen_lag.p99().unwrap_or(0.0),
        "ms",
    );
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    if !traced {
        let (setup_s, mut vol) = timed_setup(|| build(seed, false));
        m.e2e("setup_s", setup_s, "s");
        let (engine, clients) = serve(&vol, seed);
        let mut run = generate(&mut vol, &clients, seed, seconds);
        report(&mut run, &mut m);
        m.e2e(
            "space_amp",
            space_amp(&vol.vfs, live_user_bytes(&vol)),
            "ratio",
        );
        let (checks, broken, vfs) = crash_and_verify(vol, engine, clients, seed, false);
        out.absorb(&run.tally, checks, broken);
        vfs.unmount().expect("unmount");
    } else {
        let mut base = build(seed, false);
        let (engine, clients) = serve(&base, seed);
        let base_run = generate(&mut base, &clients, seed, seconds / 2.0);
        let (checks, broken, vfs) = crash_and_verify(base, engine, clients, seed, false);
        out.absorb(&base_run.tally, checks, broken);
        vfs.unmount().expect("unmount");

        let mut vol = build(seed, true);
        let (engine, clients) = serve(&vol, seed);
        trace::set_enabled(true);
        let cache0 = vol.vfs.cache_stats();
        let mut run = generate(&mut vol, &clients, seed, seconds / 2.0);
        let cache1 = vol.vfs.cache_stats();
        trace::set_enabled(false);
        report(&mut run, &mut m);
        cache_metrics(&mut m, &cache0, &cache1, run.ops_done);
        let all_p50 = |r: &Run| {
            let mut all = Samples::default();
            r.steps.iter().for_each(|s| all.extend(&s.all()));
            all.p50()
        };
        m.layer(
            "obs.overhead_frac",
            all_p50(&run) / all_p50(&base_run) - 1.0,
            "ratio",
        );
        let files: Vec<BenchFile> = vol.pools[0]
            .iter()
            .flat_map(|p| p.files.values().cloned())
            .collect();
        let (checks, broken, vfs) = crash_and_verify(vol, engine, clients, seed, true);
        out.absorb(&run.tally, checks, broken);

        vfs_rungs(&vfs, &key(seed, 0), &files, seed, &mut m);
        let fs = vfs.into_stegfs();
        core_rungs(&fs, &key(seed, 0), &files, seed, &mut m);
        crypto_rungs(&mut m);
        fs.unmount().expect("unmount");
    }
    out.finish(m)
}
