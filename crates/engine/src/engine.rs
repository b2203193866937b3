//! The engine proper: the shared job queue, the worker pool, and the
//! per-client completion queues.

use crate::request::{Completion, Request, RequestId, Response};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;
use stegfs_blockdev::BlockDevice;
use stegfs_obs::{span, LockStats, Obs};
use stegfs_vfs::{SessionId, Vfs, VfsError, VfsResult};

/// One queued unit of work.
struct Job {
    client: Arc<ClientShared>,
    id: RequestId,
    session: SessionId,
    request: Request,
    submitted: Instant,
}

/// State shared between the engine handle, its workers and every client.
struct EngineShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutting_down: AtomicBool,
    /// Set when a request panicked mid-execution.  A panic can unwind out of
    /// a core critical section with the protected state half-mutated
    /// (parking_lot locks do not poison), so the engine **fails stop**: no
    /// further request touches the volume — queued and future work drains as
    /// error completions, and nobody hangs.
    poisoned: AtomicBool,
    completed: AtomicU64,
    /// The volume's observability registry (queue-lock contention, queue
    /// depth, per-op latency).  Grabbed from the VFS at engine start.
    obs: Arc<Obs>,
}

/// Lock the engine queue, feeding the wait into the registry's
/// `engine.queue` lock family.  The engine queue pairs a std `Mutex` with a
/// `Condvar`, so it cannot adopt `TimedMutex` wholesale; this helper covers
/// the acquisition (the contended part — `Condvar` re-locks are wake-ups,
/// not competition).
fn lock_queue<'a>(
    queue: &'a Mutex<VecDeque<Job>>,
    stats: &LockStats,
) -> MutexGuard<'a, VecDeque<Job>> {
    if !stats.is_enabled() {
        return queue.lock().expect("engine queue poisoned");
    }
    match queue.try_lock() {
        Ok(g) => {
            stats.note_uncontended();
            g
        }
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = queue.lock().expect("engine queue poisoned");
            stats.note_contended(start.elapsed().as_nanos() as u64);
            g
        }
        Err(TryLockError::Poisoned(_)) => panic!("engine queue poisoned"),
    }
}

/// Index of a request in [`stegfs_obs::ENGINE_OPS`] (one latency histogram per op type).
fn op_index(request: &Request) -> usize {
    match request {
        Request::Open { .. } => 0,
        Request::Close { .. } => 1,
        Request::Read { .. } => 2,
        Request::ReadAt { .. } => 3,
        Request::Write { .. } => 4,
        Request::WriteAt { .. } => 5,
        Request::Seek { .. } => 6,
        Request::Stat { .. } => 7,
        Request::Readdir { .. } => 8,
        Request::Unlink { .. } => 9,
        Request::Fsync { .. } => 10,
        Request::SyncAll => 11,
    }
}

/// A client's completion queue.
struct ClientShared {
    completions: Mutex<VecDeque<Completion>>,
    ready: Condvar,
}

/// The thread-pool request engine.  See the crate docs for the lifecycle.
///
/// Holds one `Arc<Vfs>` and N worker threads; dropping the engine (or
/// calling [`Engine::shutdown`]) refuses further submissions, drains the
/// queue, and joins the workers.
pub struct Engine<D: BlockDevice + Send + Sync + 'static> {
    vfs: Arc<Vfs<D>>,
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl<D: BlockDevice + Send + Sync + 'static> Engine<D> {
    /// Start `workers` worker threads over the shared volume.
    ///
    /// # Panics
    /// Panics if `workers` is zero (nothing would ever complete).
    pub fn start(vfs: Arc<Vfs<D>>, workers: usize) -> Self {
        assert!(workers > 0, "an engine needs at least one worker");
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            obs: Arc::clone(vfs.obs()),
        });
        let workers = (0..workers)
            .map(|worker| {
                let vfs = Arc::clone(&vfs);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&vfs, &shared, worker as u32))
            })
            .collect();
        Engine {
            vfs,
            shared,
            workers,
        }
    }

    /// The served volume (e.g. for direct administrative access).
    pub fn vfs(&self) -> &Arc<Vfs<D>> {
        &self.vfs
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Total number of requests completed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Sign a User Access Key on and return a client connection.
    /// Deliberately infallible, like [`Vfs::signon`] — a wrong key yields a
    /// client whose `/hidden` is empty, indistinguishable from a right key
    /// with nothing hidden.
    pub fn client(&self, uak: &str) -> Client<D> {
        Client {
            vfs: Arc::clone(&self.vfs),
            engine: Arc::clone(&self.shared),
            shared: Arc::new(ClientShared {
                completions: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
            session: self.vfs.signon(uak),
            next_id: AtomicU64::new(0),
        }
    }

    /// Stop accepting submissions, complete everything already accepted, and
    /// join the workers.  `Drop` does the same, so letting the engine fall
    /// out of scope is equivalent.
    pub fn shutdown(self) {
        // Drop runs the teardown.
    }

    fn stop_and_join(&mut self) {
        {
            // Flip the flag under the queue lock so it serialises against
            // in-flight `submit` calls (see `Client::submit`).
            let _q = self.shared.queue.lock().expect("engine queue poisoned");
            self.shared.shutting_down.store(true, Ordering::Release);
        }
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<D: BlockDevice + Send + Sync + 'static> Drop for Engine<D> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A client connection: one signed-on session plus a private completion
/// queue.  Shareable across threads (`submit`/`recv` take `&self`); a
/// multi-threaded client sees each completion exactly once.
pub struct Client<D: BlockDevice + Send + Sync + 'static> {
    vfs: Arc<Vfs<D>>,
    engine: Arc<EngineShared>,
    shared: Arc<ClientShared>,
    session: SessionId,
    next_id: AtomicU64,
}

impl<D: BlockDevice + Send + Sync + 'static> Client<D> {
    /// The session this client's `/hidden` paths resolve against.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Enqueue a request; returns its id immediately.  Fails only when the
    /// engine is shutting down (accepted work is always completed).
    pub fn submit(&self, request: Request) -> VfsResult<RequestId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Job {
            client: Arc::clone(&self.shared),
            id,
            session: self.session,
            request,
            submitted: Instant::now(),
        };
        {
            // The shutdown check and the push share one queue-lock hold (and
            // shutdown flips the flag under the same lock): a job accepted
            // here is therefore always visible to a still-running worker —
            // it can never slip into a queue whose pool has already drained
            // and exited.
            let mut q = lock_queue(&self.engine.queue, &self.engine.obs.engine_queue);
            if self.engine.shutting_down.load(Ordering::Acquire) {
                return Err(VfsError::Unsupported("engine is shut down".into()));
            }
            if self.engine.poisoned.load(Ordering::Acquire) {
                return Err(VfsError::Unsupported(
                    "engine poisoned by an earlier panicking request".into(),
                ));
            }
            q.push_back(job);
            self.engine.obs.engine.note_queue_depth(q.len() as u64);
        }
        self.engine.job_ready.notify_one();
        Ok(id)
    }

    /// Block until any completion is available and return it (oldest first).
    pub fn recv(&self) -> Completion {
        let mut q = self.shared.completions.lock().expect("client queue");
        loop {
            if let Some(c) = q.pop_front() {
                return c;
            }
            q = self.shared.ready.wait(q).expect("client queue");
        }
    }

    /// Return a completion if one is already available.
    pub fn try_recv(&self) -> Option<Completion> {
        self.shared
            .completions
            .lock()
            .expect("client queue")
            .pop_front()
    }

    /// Block until the completion of request `id` arrives, buffering (and
    /// preserving) completions of other requests.
    pub fn wait_for(&self, id: RequestId) -> Completion {
        let mut q = self.shared.completions.lock().expect("client queue");
        loop {
            if let Some(pos) = q.iter().position(|c| c.id == id) {
                return q.remove(pos).expect("position is valid");
            }
            q = self.shared.ready.wait(q).expect("client queue");
        }
    }

    /// Submit and wait: the blocking convenience for depth-1 clients.
    ///
    /// # Panics
    /// Panics if the engine refused the submission (it is shutting down).
    pub fn call(&self, request: Request) -> Completion {
        let id = self.submit(request).expect("engine is shut down");
        self.wait_for(id)
    }

    /// Number of completions currently waiting to be received.
    pub fn pending_completions(&self) -> usize {
        self.shared.completions.lock().expect("client queue").len()
    }

    /// Sign the session off, closing every handle it still holds.  Dropping
    /// the client without calling this leaves the session alive (another
    /// client of the same engine could still use its handles).
    pub fn signoff(self) -> VfsResult<()> {
        self.vfs.signoff(self.session)
    }
}

/// Worker body: pop, execute, complete; exit once shut down *and* drained.
/// `worker` is the pool index, used as the `tid` for captured trace events.
fn worker_loop<D: BlockDevice + Send + Sync>(vfs: &Vfs<D>, shared: &EngineShared, worker: u32) {
    loop {
        let job = {
            let mut q = lock_queue(&shared.queue, &shared.obs.engine_queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                q = shared.job_ready.wait(q).expect("engine queue poisoned");
            }
            // Queue lock dropped here: execution holds no engine lock.
        };
        let started = Instant::now();
        // A panicking request must not shrink the pool or strand its client:
        // catch the unwind, deliver an error completion, and *poison* the
        // engine.  The unwind may have left the shared volume's invariants
        // half-mutated (parking_lot locks do not poison), so after the
        // catch no request *begins executing* against the volume — queued
        // work drains as errors and new submissions are refused.  Requests
        // already mid-execution on sibling workers do run to completion
        // (there is no cooperative cancellation), so poisoning bounds the
        // exposure to the in-flight window rather than eliminating it; the
        // `AssertUnwindSafe` is justified by that bound plus the error-only
        // drain, not by any stronger isolation.
        let request = job.request;
        let op = op_index(&request);
        let enabled = shared.obs.is_enabled();
        // Flat metrics follow `obs_enabled`; the causal span layer is
        // additionally gated on a non-zero trace capacity.
        let tracing = shared.obs.is_tracing();
        if tracing {
            // Admission: every span opened anywhere below (vfs, core, fs,
            // journal, blockdev) attaches to this request until request_end.
            span::request_begin(op);
            span::note(
                span::Phase::QueueWait,
                started.saturating_duration_since(job.submitted).as_nanos() as u64,
            );
        }
        let result = if shared.poisoned.load(Ordering::Acquire) {
            Err(VfsError::Unsupported(
                "engine poisoned by an earlier panicking request".into(),
            ))
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(vfs, job.session, request)
            }))
            .unwrap_or_else(|_| {
                shared.poisoned.store(true, Ordering::Release);
                Err(VfsError::Unsupported("request panicked".into()))
            })
        };
        let completion = Completion {
            id: job.id,
            result,
            latency: job.submitted.elapsed(),
            service: started.elapsed(),
        };
        if enabled {
            shared.obs.engine.record_completion(
                op,
                completion.latency.as_nanos() as u64,
                completion.service.as_nanos() as u64,
            );
        }
        if tracing {
            // request_end force-closes anything a panicking request left
            // open, so the worker's context never leaks into the next job.
            if let Some(finished) = span::request_end() {
                shared.obs.complete_request(
                    &finished,
                    completion.latency.as_nanos() as u64,
                    worker,
                );
            }
        }
        // Count before delivering: a client that has received every one of
        // its completions must observe the full count.
        shared.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut c = job.client.completions.lock().expect("client queue");
            c.push_back(completion);
        }
        job.client.ready.notify_all();
    }
}

/// Dispatch one request against the volume.
fn execute<D: BlockDevice>(
    vfs: &Vfs<D>,
    session: SessionId,
    request: Request,
) -> VfsResult<Response> {
    match request {
        Request::Open { path, opts } => vfs.open(session, &path, opts).map(Response::Handle),
        Request::Close { handle } => vfs.close(handle).map(|()| Response::Unit),
        Request::Read { handle, len } => vfs.read(handle, len).map(Response::Data),
        Request::ReadAt {
            handle,
            offset,
            len,
        } => vfs.read_at(handle, offset, len).map(Response::Data),
        Request::Write { handle, data } => vfs
            .write(handle, &data)
            .map(|()| Response::Written(data.len())),
        Request::WriteAt {
            handle,
            offset,
            data,
        } => vfs
            .write_at(handle, offset, &data)
            .map(|()| Response::Written(data.len())),
        Request::Seek { handle, pos } => vfs.seek(handle, pos).map(Response::Offset),
        Request::Stat { path } => vfs.stat(session, &path).map(Response::Stat),
        Request::Readdir { path } => vfs.readdir(session, &path).map(Response::Listing),
        Request::Unlink { path } => vfs.unlink(session, &path).map(|()| Response::Unit),
        Request::Fsync { handle } => vfs.fsync(handle).map(|()| Response::Unit),
        Request::SyncAll => vfs.sync().map(|()| Response::Unit),
    }
}
