//! Deniability-safe read-path caching for hidden objects.
//!
//! The paper decrypts hidden blocks "on-the-fly during retrieval", and the
//! reproduction used to do so literally: every hidden read re-walked the
//! keyed locator, re-decrypted the header and inode-chain blocks and
//! re-decrypted every data block, so a warm read cost nearly as much as a
//! cold one.  [`ReadCache`] removes the redundant work while keeping the
//! on-disk image — the only thing the adversary ever sees — bit-identical.
//!
//! # The cache contract: what may be cached where, and when it must die
//!
//! Everything in this module is **RAM only**.  Nothing here is ever
//! serialised, journaled, or written to the device; a cached and an uncached
//! run of the same workload produce byte-identical disk images (asserted by
//! `tests/readpath_cache.rs`).
//!
//! Three things are cached, all keyed by material derived from the object's
//! access key (so a cache entry is exactly as secret as the key that created
//! it):
//!
//! * **Stretched object keys** — the [`ObjectKeys`] of `(physical name,
//!   FAK)`, so the ~1 ms PBKDF2 stretch runs once per object per session
//!   instead of on every key-addressed operation.  The map is indexed by
//!   one SHA-256 over its own domain label and the pair, so the index is
//!   never key material itself.  It holds at most
//!   [`MAX_CACHED_KEYS`] sets (fewer when the block capacity is smaller;
//!   none when it is 0), LRU-evicted per shard.  Keys are a pure function of
//!   the pair, so an entry can never go stale; it is dropped when the
//!   object is deleted, renamed or re-keyed ([`ReadCache::forget_keys`]) all
//!   the same.
//! * **Per-object header + extent maps** — the decrypted
//!   [`HiddenHeader`] and the data/chain block lists of the inode chain,
//!   keyed by the object's 256-bit signature.  A hit skips the
//!   `locate_header` probe walk *and* the chain decryption entirely.
//! * **Decrypted data blocks** — a sharded LRU of plaintext block images,
//!   keyed by `(entry generation, physical block)`.  A hit skips both the
//!   device read and the AES-CTR pass.
//!
//! When entries must die:
//!
//! * **Any mutation of the object** — write, resize/truncate, in-place range
//!   write, rename, unlink, re-key (sharing revocation), dummy-file rewrite —
//!   invalidates its entry ([`ReadCache::invalidate`]).  Invalidation bumps a
//!   global *generation*; a reader that started its disk walk before the
//!   bump cannot install a stale entry afterwards (the insert is rejected),
//!   and plaintext blocks cached under the dead entry generation become
//!   unreachable even if the same physical block is later recycled into
//!   another object.
//! * **Session sign-off** — the VFS purges the departing session's scope
//!   ([`ReadCache::purge_scope`]): every entry tagged with that session's
//!   keys, plus every entry whose owner was never established, is removed
//!   and zeroed, so no decrypted byte — and no stretched key — outlives the
//!   session that could legitimately use it.  Entries other live sessions
//!   resolved through their own keys stay warm.  `disconnect_all` and
//!   unmount still purge *everything* ([`ReadCache::purge`]).  Purged and
//!   evicted plaintext buffers are zeroed before they are freed
//!   ([`zeroize`]); a purged or evicted key set is zeroed by
//!   [`ObjectKeys`]'s `Drop` once the last open handle using it lets go.
//! * **Remount** — the cache lives inside the mounted [`crate::StegFs`]
//!   value and is never persisted, so a crash-replay remount starts provably
//!   empty.
//!
//! The cache never makes a *negative* claim: a miss falls through to the
//! normal locator/decrypt path, so wrong-key lookups behave exactly as
//! before (deniable not-found), and nothing about timing distinguishes "no
//! such object" from "not cached".  The key map in particular records only
//! what a derivation returned — never whether the object it addresses
//! exists — so a cached wrong key still probes, and fails, like a fresh one.
//!
//! # Coherence model
//!
//! The cache is coherent for every mutation that goes through
//! [`crate::StegFs`] — which is every mutation the public API can express.
//! Every [`crate::hidden`] operation takes its cache in its
//! [`ObjectCtx`](crate::hidden::ObjectCtx), and the cache is write-through:
//! each mutation invalidates the object and, on success, republishes its
//! new header and extent map.  Mutating a hidden object of a *live, cached*
//! `StegFs` through any cache other than the volume's own bypasses
//! invalidation and is unsupported (the same rule as bypassing the object
//! shards).
//!
//! # Who reads past the cache
//!
//! A few callers must judge what is *on disk*, not what RAM remembers, and
//! pass [`ReadCache::disabled`]:
//!
//! * `StegFs::scavenge_entry` and `StegFs::process_repairs` — repair
//!   compares every replica and share on disk against the header found on
//!   disk, and converges the incarnation the disk holds now;
//! * `StegFs::rebuild_dir_from_shadow` — it decides whether a directory is
//!   lost, which children still probe, and what to tear down, all from the
//!   surviving blocks;
//! * the offline scavenger's damage maps (the survival bench and its
//!   tests), which must name the blocks the disk really holds.
//!
//! They read through the same code as everyone else; only the cache they
//! pass differs.

use crate::crypt::{ObjectKeys, SIGNATURE_LEN};
use crate::header::HiddenHeader;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stegfs_crypto::sha256::sha256_concat;
use stegfs_obs::{span, ReadCacheStats};

/// Number of independently locked shards for each of the three maps.
const SHARDS: usize = 16;

/// Most stretched key sets the key map holds.  The bound is also capped by
/// the plaintext-block capacity, so a small cache stays small and a
/// capacity of 0 caches no keys at all.  A key set is ~0.7 KiB with its
/// expanded AES schedules, so the map stays within a few hundred KiB.
pub const MAX_CACHED_KEYS: usize = 512;

/// Index of one key set in the key map (see [`key_digest`]).
type KeyDigest = [u8; 32];

/// The key-map index of `(physical name, FAK)`: one SHA-256 under its own
/// domain label, length-prefixing the name so no two pairs collide.  The
/// table is keyed by this digest, never by key material.
fn key_digest(physical_name: &str, fak: &[u8]) -> KeyDigest {
    sha256_concat(&[
        b"stegfs-key-cache",
        &(physical_name.len() as u64).to_be_bytes(),
        physical_name.as_bytes(),
        fak,
    ])
}

/// Entry generation that never matches a live entry: block lookups and
/// inserts under it are no-ops.  Used when an insert lost against a
/// concurrent invalidation.
pub const DEAD_GEN: u64 = u64::MAX;

/// Cache key: the object's signature (unique per `(physical name, FAK)`
/// pair, so two UAK directories sharing the reserved physical name can never
/// collide).
pub type ObjectSig = [u8; SIGNATURE_LEN];

/// The cached block map of one hidden object: its data blocks in logical
/// order plus the chain blocks that encode them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentList {
    /// Data blocks in logical order (for coded objects: share blocks in
    /// group-major order).
    pub data_blocks: Vec<u64>,
    /// Inode-chain blocks in walk order.
    pub chain_blocks: Vec<u64>,
    /// Per-share checksums parallel to `data_blocks`; empty for plain
    /// objects.
    pub share_csums: Vec<u64>,
    /// `(m, n)` of the object's durability policy, `None` for plain.
    /// Decides the key space of the plaintext-block cache (see
    /// [`Self::block_cache_keys`]).
    pub coding: Option<(usize, usize)>,
}

impl ExtentList {
    /// An extent list for a plain (uncoded) object.
    pub fn plain(data_blocks: Vec<u64>, chain_blocks: Vec<u64>) -> Self {
        ExtentList {
            data_blocks,
            chain_blocks,
            share_csums: Vec::new(),
            coding: None,
        }
    }

    /// Every key the object may occupy in the plaintext-block cache.  Plain
    /// objects cache decrypted blocks under their physical block numbers;
    /// coded objects cache *decoded logical* blocks under logical indices
    /// (the share blocks themselves are never cached), so invalidation must
    /// sweep logical keys `0 .. groups * m`.
    pub fn block_cache_keys(&self) -> Vec<u64> {
        match self.coding {
            None => self.data_blocks.clone(),
            Some((m, n)) => {
                let groups = self.data_blocks.len() / n.max(1);
                (0..(groups * m) as u64).collect()
            }
        }
    }
}

/// One cached object: decrypted header, its location, and (once a read has
/// walked the chain) the extent list.  `gen` tags the plaintext blocks this
/// object may have in the block cache.
struct CachedObject {
    gen: u64,
    /// Session scope this entry belongs to (0 = unscoped; see
    /// [`ReadCache::tag_scope`]).  Scoped purges remove matching *and*
    /// unscoped entries, so an untagged entry can never outlive a sign-off.
    scope: u64,
    header_block: u64,
    header: HiddenHeader,
    extents: Option<Arc<ExtentList>>,
}

/// Result of a successful header lookup.
pub struct CachedOpen {
    /// Entry generation (tags this object's plaintext blocks).
    pub gen: u64,
    /// Physical block holding the header.
    pub header_block: u64,
    /// Decrypted header.
    pub header: HiddenHeader,
}

struct BlockEntry {
    data: Vec<u8>,
    tick: u64,
}

/// One cached key set, scope-tagged like a header entry.
struct KeyEntry {
    keys: Arc<ObjectKeys>,
    scope: u64,
    tick: u64,
}

#[derive(Default)]
struct KeyShard {
    map: HashMap<KeyDigest, KeyEntry>,
    tick: u64,
}

#[derive(Default)]
struct BlockShard {
    map: HashMap<(u64, u64), BlockEntry>,
    tick: u64,
    bytes: u64,
}

/// Snapshot of the cache counters, printed by the benches next to the
/// device-level `IoStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Header lookups served from the cache (locator walk skipped).
    pub header_hits: u64,
    /// Header lookups that fell through to the locator.
    pub header_misses: u64,
    /// Extent-map lookups served from the cache (chain walk skipped).
    pub extent_hits: u64,
    /// Extent-map lookups that fell through to the chain walk.
    pub extent_misses: u64,
    /// Plaintext data blocks served from the cache.
    pub block_hits: u64,
    /// Plaintext data blocks that had to be read and decrypted.
    pub block_misses: u64,
    /// Plaintext blocks evicted (zeroed) to stay within capacity.
    pub evictions: u64,
    /// Object invalidations (mutations observed).
    pub invalidations: u64,
    /// Inserts dropped because an invalidation raced the disk walk.
    pub rejected_inserts: u64,
    /// Full purges (sign-off / unmount).
    pub purges: u64,
    /// Scoped purges (one departing session's entries swept).
    pub scoped_purges: u64,
    /// Plaintext blocks currently resident.
    pub resident_blocks: u64,
    /// Plaintext bytes currently resident.
    pub resident_bytes: u64,
    /// Object header/extent entries currently resident.
    pub resident_objects: u64,
    /// Key-set lookups served from the key map (stretch skipped).
    pub key_hits: u64,
    /// Key-set lookups that had to run the stretch.
    pub key_misses: u64,
    /// Stretched key sets currently resident.
    pub resident_keys: u64,
}

#[derive(Default)]
struct Counters {
    header_hits: AtomicU64,
    header_misses: AtomicU64,
    extent_hits: AtomicU64,
    extent_misses: AtomicU64,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    rejected_inserts: AtomicU64,
    purges: AtomicU64,
    scoped_purges: AtomicU64,
    key_hits: AtomicU64,
    key_misses: AtomicU64,
}

/// Overwrite a buffer with zeros in a way the optimiser cannot elide, then
/// let it drop.  Used for every evicted, purged or pooled plaintext buffer;
/// the same primitive wipes dropped key sets ([`ObjectKeys`]).
pub use stegfs_crypto::ct::zeroize;

/// The read-path cache of one mounted volume.  See the module docs for the
/// full contract; in one line: *decrypted state may be cached in RAM for as
/// long as the mutating API is told about every mutation and a sign-off
/// purges everything.*
pub struct ReadCache {
    /// Total plaintext-block capacity (0 disables all caching).
    capacity_blocks: usize,
    /// Global invalidation generation: bumped by every invalidate/purge.
    /// Readers snapshot it before a disk walk; inserts are rejected if it
    /// moved, so a stale walk can never overwrite a fresher invalidation.
    global_gen: AtomicU64,
    /// Source of per-entry generations for block-cache tagging.
    next_entry_gen: AtomicU64,
    objects: Vec<Mutex<HashMap<ObjectSig, CachedObject>>>,
    blocks: Vec<Mutex<BlockShard>>,
    keys: Vec<Mutex<KeyShard>>,
    /// Bumped by every purge, before its sweep: a derivation that started
    /// before a sign-off cannot park the departed session's keys afterwards
    /// (invalidations leave it alone — keys never go stale).
    key_epoch: AtomicU64,
    counters: Counters,
    /// Session scope of each signature, fed by the lookup paths that *do*
    /// know which access key resolved the object ([`Self::tag_scope`]).
    /// Consulted on insert so cached entries carry their owning session.
    scopes: Mutex<HashMap<ObjectSig, u64>>,
    /// Latency histograms of the volume's observability registry (disabled
    /// handle until [`Self::set_obs`]).
    obs: Arc<ReadCacheStats>,
}

fn object_shard(sig: &ObjectSig) -> usize {
    // The signature is already uniform (HMAC output); its first byte shards.
    sig[0] as usize % SHARDS
}

fn block_shard(block: u64) -> usize {
    (block as usize) % SHARDS
}

impl ReadCache {
    /// A cache holding at most `capacity_blocks` decrypted blocks
    /// (0 disables caching entirely: every lookup misses, every insert is a
    /// no-op, and reads behave exactly as before this layer existed).
    pub fn new(capacity_blocks: usize) -> Self {
        ReadCache {
            capacity_blocks,
            global_gen: AtomicU64::new(0),
            // 0 is a valid entry gen; DEAD_GEN (u64::MAX) never is.
            next_entry_gen: AtomicU64::new(0),
            objects: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            blocks: (0..SHARDS)
                .map(|_| Mutex::new(BlockShard::default()))
                .collect(),
            keys: (0..SHARDS)
                .map(|_| Mutex::new(KeyShard::default()))
                .collect(),
            key_epoch: AtomicU64::new(0),
            counters: Counters::default(),
            scopes: Mutex::new(HashMap::new()),
            obs: Arc::new(ReadCacheStats::new(false)),
        }
    }

    /// Attach the volume's observability histograms (done once during
    /// assembly, before the cache is shared).
    pub fn set_obs(&mut self, stats: Arc<ReadCacheStats>) {
        self.obs = stats;
    }

    #[inline]
    fn clock(&self) -> Option<Instant> {
        if self.obs.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// True if the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity_blocks > 0
    }

    /// Snapshot the global generation *before* starting a disk walk whose
    /// result will be inserted; pass the snapshot to the `store_*` call.
    pub fn begin(&self) -> u64 {
        self.global_gen.load(Ordering::Acquire)
    }

    fn fresh_entry_gen(&self) -> u64 {
        self.next_entry_gen.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Header / extent map
    // ------------------------------------------------------------------

    /// The cached header of `sig` without touching the hit/miss counters —
    /// the freshness probe `hidden::cached_chain` uses to decide whether a
    /// caller-supplied header may be (re)installed.
    pub fn peek_header(&self, sig: &ObjectSig) -> Option<(u64, HiddenHeader)> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        shard
            .get(sig)
            .map(|obj| (obj.header_block, obj.header.clone()))
    }

    /// Look up the cached header of `sig` (skipping the locator walk on a
    /// hit).
    pub fn lookup_header(&self, sig: &ObjectSig) -> Option<CachedOpen> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        match shard.get(sig) {
            Some(obj) => {
                self.counters.header_hits.fetch_add(1, Ordering::Relaxed);
                Some(CachedOpen {
                    gen: obj.gen,
                    header_block: obj.header_block,
                    header: obj.header.clone(),
                })
            }
            None => {
                self.counters.header_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up the cached extent list of `sig`, but only if it still indexes
    /// the chain the caller's header names (`chain_head`, `count`) — a
    /// cached map from a previous incarnation never resolves.
    pub fn lookup_extents(
        &self,
        sig: &ObjectSig,
        chain_head: u64,
        count: u64,
    ) -> Option<(u64, Arc<ExtentList>)> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        let hit = shard.get(sig).and_then(|obj| {
            let ext = obj.extents.as_ref()?;
            let matches =
                obj.header.inode_chain == chain_head && ext.data_blocks.len() as u64 == count;
            matches.then(|| (obj.gen, Arc::clone(ext)))
        });
        match hit {
            Some(found) => {
                self.counters.extent_hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                self.counters.extent_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Install (or refresh) the header of `sig`, read during a walk that
    /// began at generation `started`.  Rejected (a no-op) if any
    /// invalidation or purge happened since `started`.
    pub fn store_header(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
    ) {
        self.store(sig, started, header_block, header, None);
    }

    /// Install the extent list of `sig` alongside its header; returns the
    /// entry generation to tag plaintext-block inserts with, or [`DEAD_GEN`]
    /// when the insert was rejected.
    pub fn store_extents(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
        extents: Arc<ExtentList>,
    ) -> u64 {
        self.store(sig, started, header_block, header, Some(extents))
    }

    fn store(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
        extents: Option<Arc<ExtentList>>,
    ) -> u64 {
        if !self.enabled() {
            return DEAD_GEN;
        }
        // Read the scope tag before taking the shard lock (no path ever
        // holds both the scope table and a shard lock at once).
        let scope = self.scopes.lock().get(sig).copied().unwrap_or(0);
        let mut shard = self.objects[object_shard(sig)].lock();
        // The generation check runs under the shard lock, and invalidate()
        // bumps the generation *before* taking the shard lock — so either we
        // see the bump here and reject, or the invalidation runs after us
        // and removes the entry we are about to insert.  Either way no stale
        // entry survives an invalidation.
        if self.global_gen.load(Ordering::Acquire) != started {
            self.counters
                .rejected_inserts
                .fetch_add(1, Ordering::Relaxed);
            return DEAD_GEN;
        }
        match shard.get_mut(sig) {
            Some(obj) if obj.header_block == header_block && obj.header == header => {
                // Same incarnation: keep the gen (existing cached blocks stay
                // valid), optionally add the extents and a late scope tag.
                if let Some(ext) = extents {
                    obj.extents = Some(ext);
                }
                if scope != 0 {
                    obj.scope = scope;
                }
                obj.gen
            }
            other => {
                let gen = self.fresh_entry_gen();
                let obj = CachedObject {
                    gen,
                    scope,
                    header_block,
                    header,
                    extents,
                };
                match other {
                    Some(slot) => *slot = obj,
                    None => {
                        shard.insert(*sig, obj);
                    }
                }
                gen
            }
        }
    }

    /// Record that `sig` was resolved through the session identified by
    /// `scope` (any stable non-zero value derived from the session's user
    /// access key).  Entries installed for `sig` from now on carry the tag,
    /// and [`Self::purge_scope`] for that value sweeps them.  The table
    /// holds signatures and opaque scope ids only — no key material.
    pub fn tag_scope(&self, sig: &ObjectSig, scope: u64) {
        if !self.enabled() || scope == 0 {
            return;
        }
        self.scopes.lock().insert(*sig, scope);
        // An already-resident entry (cached before the tag existed) gets
        // tagged in place so it does not linger as "unscoped" forever.
        let mut shard = self.objects[object_shard(sig)].lock();
        if let Some(obj) = shard.get_mut(sig) {
            obj.scope = scope;
        }
    }

    // ------------------------------------------------------------------
    // Stretched object keys
    // ------------------------------------------------------------------

    /// The key set of `(physical_name, fak)`: served from the key map, or
    /// produced by `derive` (the stretch) on a miss and installed tagged
    /// with `scope`.  A non-zero `scope` also re-tags a resident entry, as
    /// [`Self::tag_scope`] does for headers; 0 means "caller does not know
    /// the session" and leaves an existing tag alone.  `derive` runs with no
    /// lock held.  With the cache disabled every call derives.
    pub fn object_keys(
        &self,
        physical_name: &str,
        fak: &[u8],
        scope: u64,
        derive: impl FnOnce() -> ObjectKeys,
    ) -> Arc<ObjectKeys> {
        if !self.enabled() {
            return Arc::new(derive());
        }
        let digest = key_digest(physical_name, fak);
        let idx = object_shard(&digest);
        {
            let mut shard = self.keys[idx].lock();
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(entry) = shard.map.get_mut(&digest) {
                entry.tick = tick;
                if scope != 0 {
                    entry.scope = scope;
                }
                self.counters.key_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.keys);
            }
        }
        self.counters.key_misses.fetch_add(1, Ordering::Relaxed);
        let started = self.key_epoch.load(Ordering::Acquire);
        let keys = Arc::new(derive());
        let per_shard = (self.capacity_blocks.min(MAX_CACHED_KEYS) / SHARDS).max(1);
        let mut shard = self.keys[idx].lock();
        // Same ordering argument as `store`: a purge bumps the epoch before
        // it sweeps, so either this insert sees the bump and is dropped, or
        // the sweep runs after it and removes it.
        if self.key_epoch.load(Ordering::Acquire) != started {
            return keys;
        }
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.entry(digest).or_insert_with(|| KeyEntry {
            keys: Arc::clone(&keys),
            scope,
            tick,
        });
        // A racing miss may have installed the same keys first; share its.
        let keys = Arc::clone(&entry.keys);
        if scope != 0 {
            entry.scope = scope;
        }
        while shard.map.len() > per_shard {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            // Dropping the entry zeroes the key set (ObjectKeys: Drop) unless
            // an open handle still shares it.
            shard.map.remove(&victim);
        }
        keys
    }

    /// Drop the cached key set of `(physical_name, fak)` — called when the
    /// object is deleted, renamed or re-keyed.
    pub fn forget_keys(&self, physical_name: &str, fak: &[u8]) {
        if !self.enabled() {
            return;
        }
        let digest = key_digest(physical_name, fak);
        self.keys[object_shard(&digest)].lock().map.remove(&digest);
    }

    // ------------------------------------------------------------------
    // Plaintext block cache
    // ------------------------------------------------------------------

    /// Copy the cached plaintext of `block` (under entry generation `gen`)
    /// straight into `out`; returns false on a miss.  Copying under the
    /// shard lock keeps the hot hit path allocation-free and never hands
    /// out an owned plaintext buffer that could be dropped un-zeroed.
    pub fn get_block_into(&self, gen: u64, block: u64, out: &mut [u8]) -> bool {
        if !self.enabled() || gen == DEAD_GEN {
            return false;
        }
        let start = self.clock();
        let mut shard = self.blocks[block_shard(block)].lock();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&(gen, block)) {
            Some(entry) => {
                entry.tick = tick;
                out.copy_from_slice(&entry.data);
                drop(shard);
                self.counters.block_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = start {
                    let ns = start.elapsed().as_nanos() as u64;
                    self.obs.hit_ns.record(ns);
                    span::note(span::Phase::CacheHit, ns);
                }
                true
            }
            None => {
                drop(shard);
                self.counters.block_misses.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = start {
                    let ns = start.elapsed().as_nanos() as u64;
                    self.obs.miss_ns.record(ns);
                    span::note(span::Phase::CacheMiss, ns);
                }
                false
            }
        }
    }

    /// True if `block` is resident under entry generation `gen`.  Unlike
    /// [`Self::get_block_into`] this records no hit/miss and does not touch
    /// the LRU order — it is the readahead filter's probe.
    pub fn contains_block(&self, gen: u64, block: u64) -> bool {
        if !self.enabled() || gen == DEAD_GEN {
            return false;
        }
        self.blocks[block_shard(block)]
            .lock()
            .map
            .contains_key(&(gen, block))
    }

    /// Insert the plaintext of `block` under entry generation `gen`,
    /// evicting (and zeroing) least-recently-used blocks to stay within the
    /// per-shard capacity.
    ///
    /// The insert is accepted only while `gen` is still the live generation
    /// of `sig`'s entry, verified — and held — under the object shard lock,
    /// so a reader that lost a race against [`Self::invalidate`] cannot
    /// park un-zeroed plaintext of the old incarnation under a dead key.
    /// Lock order: object shard < block shard (same as `invalidate`).
    pub fn put_block(&self, sig: &ObjectSig, gen: u64, block: u64, data: &[u8]) {
        if !self.enabled() || gen == DEAD_GEN {
            return;
        }
        let object_guard = self.objects[object_shard(sig)].lock();
        if object_guard.get(sig).map(|o| o.gen) != Some(gen) {
            // Invalidated (or replaced) since the reader picked up `gen`:
            // the plaintext belongs to a dead incarnation — drop it.
            self.counters
                .rejected_inserts
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let per_shard = (self.capacity_blocks / SHARDS).max(1);
        let mut shard = self.blocks[block_shard(block)].lock();
        shard.tick += 1;
        let tick = shard.tick;
        let entry = BlockEntry {
            data: data.to_vec(),
            tick,
        };
        shard.bytes += entry.data.len() as u64;
        if let Some(mut old) = shard.map.insert((gen, block), entry) {
            shard.bytes -= old.data.len() as u64;
            zeroize(&mut old.data);
        }
        while shard.map.len() > per_shard {
            let start = self.clock();
            // Per-shard maps are small (capacity / SHARDS), so a min-scan
            // eviction is noise next to the AES work a miss costs.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some(mut evicted) = shard.map.remove(&victim) {
                shard.bytes -= evicted.data.len() as u64;
                zeroize(&mut evicted.data);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = start {
                    self.obs.evict_ns.record(start.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invalidation and purge
    // ------------------------------------------------------------------

    /// Drop everything cached for `sig` (call after any mutation of the
    /// object).  The object's plaintext blocks are removed and zeroed; the
    /// generation bump makes any insert racing this call land dead.
    pub fn invalidate(&self, sig: &ObjectSig) {
        if !self.enabled() {
            return;
        }
        // Bump first (see store() for the ordering argument).
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        // The object shard stays held across the block sweep: `put_block`
        // verifies the entry's liveness under this same lock, so once the
        // entry is gone no further plaintext of its generation can be
        // inserted, and everything inserted before is swept here.
        let start = self.clock();
        let mut object_guard = self.objects[object_shard(sig)].lock();
        if let Some(obj) = object_guard.remove(sig) {
            if let Some(ext) = obj.extents {
                for block in ext.block_cache_keys() {
                    let mut shard = self.blocks[block_shard(block)].lock();
                    if let Some(mut e) = shard.map.remove(&(obj.gen, block)) {
                        shard.bytes -= e.data.len() as u64;
                        zeroize(&mut e.data);
                    }
                }
            }
        }
        drop(object_guard);
        if let Some(start) = start {
            self.obs
                .zeroize_ns
                .record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Drop and zero every entry belonging to the departing session `scope`
    /// — plus every *unscoped* entry, so nothing whose owner is unknown can
    /// outlive a sign-off.  Entries other live sessions resolved through
    /// their own keys stay warm; the volume-wide [`Self::purge`] remains the
    /// unmount/disconnect-all hammer.
    pub fn purge_scope(&self, scope: u64) {
        if !self.enabled() || scope == 0 {
            return;
        }
        let start = self.clock();
        // Bump first, same ordering argument as `invalidate`: in-flight
        // walks that started before the sign-off cannot install afterwards.
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        self.key_epoch.fetch_add(1, Ordering::AcqRel);
        self.counters.scoped_purges.fetch_add(1, Ordering::Relaxed);
        self.scopes.lock().retain(|_, s| *s != scope);
        for shard in &self.keys {
            shard
                .lock()
                .map
                .retain(|_, e| e.scope != scope && e.scope != 0);
        }
        // Sweep matching (and unscoped) object entries, collecting their
        // generations; then sweep the block shards by generation so no
        // plaintext survives even if an extent list was never installed.
        let mut dead_gens = HashSet::new();
        for shard in &self.objects {
            let mut shard = shard.lock();
            shard.retain(|_, obj| {
                let dies = obj.scope == scope || obj.scope == 0;
                if dies {
                    dead_gens.insert(obj.gen);
                }
                !dies
            });
        }
        if !dead_gens.is_empty() {
            for shard in &self.blocks {
                let mut shard = shard.lock();
                let victims: Vec<(u64, u64)> = shard
                    .map
                    .keys()
                    .filter(|(gen, _)| dead_gens.contains(gen))
                    .copied()
                    .collect();
                for key in victims {
                    if let Some(mut e) = shard.map.remove(&key) {
                        shard.bytes -= e.data.len() as u64;
                        zeroize(&mut e.data);
                    }
                }
            }
        }
        if let Some(start) = start {
            self.obs
                .zeroize_ns
                .record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Drop and zero **everything** — the sign-off/unmount hook.  After this
    /// returns, [`CacheStats::resident_blocks`],
    /// [`CacheStats::resident_bytes`] and [`CacheStats::resident_keys`] are
    /// zero and no decrypted byte or stretched key from before the purge is
    /// reachable through the cache.
    pub fn purge(&self) {
        if !self.enabled() {
            return;
        }
        let start = self.clock();
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        self.key_epoch.fetch_add(1, Ordering::AcqRel);
        self.counters.purges.fetch_add(1, Ordering::Relaxed);
        self.scopes.lock().clear();
        for shard in &self.keys {
            shard.lock().map.clear();
        }
        for shard in &self.objects {
            shard.lock().clear();
        }
        for shard in &self.blocks {
            let mut shard = shard.lock();
            for (_, entry) in shard.map.iter_mut() {
                zeroize(&mut entry.data);
            }
            shard.map.clear();
            shard.bytes = 0;
        }
        if let Some(start) = start {
            self.obs
                .zeroize_ns
                .record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Snapshot the counters (residency computed live from the shards).
    pub fn stats(&self) -> CacheStats {
        let mut resident_blocks = 0u64;
        let mut resident_bytes = 0u64;
        for shard in &self.blocks {
            let shard = shard.lock();
            resident_blocks += shard.map.len() as u64;
            resident_bytes += shard.bytes;
        }
        let resident_objects = self
            .objects
            .iter()
            .map(|s| s.lock().len() as u64)
            .sum::<u64>();
        let resident_keys = self
            .keys
            .iter()
            .map(|s| s.lock().map.len() as u64)
            .sum::<u64>();
        let c = &self.counters;
        CacheStats {
            header_hits: c.header_hits.load(Ordering::Relaxed),
            header_misses: c.header_misses.load(Ordering::Relaxed),
            extent_hits: c.extent_hits.load(Ordering::Relaxed),
            extent_misses: c.extent_misses.load(Ordering::Relaxed),
            block_hits: c.block_hits.load(Ordering::Relaxed),
            block_misses: c.block_misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            rejected_inserts: c.rejected_inserts.load(Ordering::Relaxed),
            purges: c.purges.load(Ordering::Relaxed),
            scoped_purges: c.scoped_purges.load(Ordering::Relaxed),
            resident_blocks,
            resident_bytes,
            resident_objects,
            key_hits: c.key_hits.load(Ordering::Relaxed),
            key_misses: c.key_misses.load(Ordering::Relaxed),
            resident_keys,
        }
    }

    /// A shared always-empty cache (capacity 0: every lookup misses, every
    /// insert is a no-op) for callers that must see the disk; see the
    /// module docs for who passes it and why.
    pub fn disabled() -> &'static ReadCache {
        static DISABLED: std::sync::OnceLock<ReadCache> = std::sync::OnceLock::new();
        DISABLED.get_or_init(|| ReadCache::new(0))
    }
}

/// A tiny thread-local pool of scratch buffers for the hidden read/write
/// paths, so every batched operation stops allocating (and leaking traces of
/// plaintext into) a fresh `Vec`.  Buffers are zeroed *before* they enter
/// the pool, so the pool itself never holds plaintext.
pub(crate) mod scratch {
    use std::cell::RefCell;

    thread_local! {
        static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    }

    /// Buffers retained per thread; engine workers are a fixed pool, so this
    /// bounds the idle footprint.
    const MAX_POOLED: usize = 8;
    /// Never hoard buffers beyond this capacity.
    const MAX_POOLED_CAPACITY: usize = 4 << 20;

    /// Take a zero-filled buffer of exactly `len` bytes, reusing a pooled
    /// allocation when one is available.
    pub fn take(len: usize) -> Vec<u8> {
        let pooled = POOL.with(|p| p.borrow_mut().pop());
        match pooled {
            Some(mut v) => {
                // Pooled buffers are zeroed and emptied by `put`, so this
                // only fills fresh growth.
                v.resize(len, 0);
                v
            }
            None => vec![0u8; len],
        }
    }

    /// Zero `v` and return it to the pool (or drop it if the pool is full).
    pub fn put(mut v: Vec<u8>) {
        super::zeroize(&mut v);
        v.clear();
        if v.capacity() == 0 || v.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjectKind;

    fn header(size: u64) -> HiddenHeader {
        let mut h = HiddenHeader::new([7u8; SIGNATURE_LEN], ObjectKind::File);
        h.size = size;
        h
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = ReadCache::new(0);
        let sig = [1u8; SIGNATURE_LEN];
        let started = c.begin();
        c.store_header(&sig, started, 5, header(0));
        assert!(c.lookup_header(&sig).is_none());
        c.put_block(&sig, 0, 9, b"plaintext");
        let mut out = [0u8; 9];
        assert!(!c.get_block_into(0, 9, &mut out));
        assert_eq!(c.stats().resident_blocks, 0);
    }

    #[test]
    fn header_roundtrip_and_invalidation() {
        let c = ReadCache::new(64);
        let sig = [2u8; SIGNATURE_LEN];
        let started = c.begin();
        c.store_header(&sig, started, 42, header(100));
        let hit = c.lookup_header(&sig).expect("hit");
        assert_eq!(hit.header_block, 42);
        assert_eq!(hit.header.size, 100);
        c.invalidate(&sig);
        assert!(c.lookup_header(&sig).is_none());
        let s = c.stats();
        assert_eq!(s.header_hits, 1);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn racing_insert_after_invalidation_is_rejected() {
        let c = ReadCache::new(64);
        let sig = [3u8; SIGNATURE_LEN];
        let started = c.begin();
        // An invalidation lands while the "disk walk" is in flight.
        c.invalidate(&sig);
        c.store_header(&sig, started, 7, header(1));
        assert!(
            c.lookup_header(&sig).is_none(),
            "stale insert must not land"
        );
        let gen = c.store_extents(
            &sig,
            started,
            7,
            header(1),
            Arc::new(ExtentList::plain(vec![10], vec![])),
        );
        assert_eq!(gen, DEAD_GEN);
        c.put_block(&sig, gen, 10, b"should not stick");
        let mut out = [0u8; 16];
        assert!(!c.get_block_into(gen, 10, &mut out));
        assert!(c.stats().rejected_inserts >= 1);
    }

    #[test]
    fn extent_lookup_requires_matching_chain() {
        let c = ReadCache::new(64);
        let sig = [4u8; SIGNATURE_LEN];
        let mut h = header(2048);
        h.inode_chain = 99;
        h.data_block_count = 2;
        let ext = Arc::new(ExtentList::plain(vec![10, 11], vec![99]));
        let gen = c.store_extents(&sig, c.begin(), 5, h, ext);
        assert_ne!(gen, DEAD_GEN);
        assert!(c.lookup_extents(&sig, 99, 2).is_some());
        // A header naming a different chain (stale caller) never matches.
        assert!(c.lookup_extents(&sig, 98, 2).is_none());
        assert!(c.lookup_extents(&sig, 99, 3).is_none());
    }

    /// Install a live entry for `sig` whose extents cover `blocks`; returns
    /// the entry generation block inserts must carry.
    fn live_entry(c: &ReadCache, sig: &ObjectSig, blocks: &[u64]) -> u64 {
        let gen = c.store_extents(
            sig,
            c.begin(),
            1,
            header(blocks.len() as u64 * 64),
            Arc::new(ExtentList::plain(blocks.to_vec(), vec![])),
        );
        assert_ne!(gen, DEAD_GEN);
        gen
    }

    #[test]
    fn block_cache_lru_evicts_and_counts_bytes() {
        // Capacity below one per shard rounds up to 1 per shard.
        let c = ReadCache::new(SHARDS);
        let sig = [9u8; SIGNATURE_LEN];
        // Same shard: blocks congruent modulo SHARDS.
        let b0 = 0u64;
        let b1 = SHARDS as u64;
        let b2 = 2 * SHARDS as u64;
        let gen = live_entry(&c, &sig, &[b0, b1, b2]);
        let mut out = [0u8; 64];
        c.put_block(&sig, gen, b0, &[0xaa; 64]);
        c.put_block(&sig, gen, b1, &[0xbb; 64]);
        assert!(c.get_block_into(gen, b1, &mut out), "b1 most recently used");
        assert_eq!(out, [0xbb; 64]);
        c.put_block(&sig, gen, b2, &[0xcc; 64]);
        // Shard holds one entry: only the newest survives.
        assert!(c.get_block_into(gen, b2, &mut out));
        assert_eq!(out, [0xcc; 64]);
        assert!(!c.get_block_into(gen, b0, &mut out));
        let s = c.stats();
        assert!(s.evictions >= 2);
        assert_eq!(s.resident_blocks, 1);
        assert_eq!(s.resident_bytes, 64);
    }

    #[test]
    fn put_under_dead_generation_is_rejected() {
        // The race finding: a reader holds (gen, extents), the object is
        // invalidated mid-read, and the reader's late insert must land
        // nowhere (no un-zeroed plaintext parked under a dead key).
        let c = ReadCache::new(256);
        let sig = [10u8; SIGNATURE_LEN];
        let gen = live_entry(&c, &sig, &[5]);
        c.invalidate(&sig);
        c.put_block(&sig, gen, 5, b"plaintext of the dead incarnation");
        assert_eq!(c.stats().resident_blocks, 0, "dead insert stuck");
        assert!(c.stats().rejected_inserts >= 1);
    }

    #[test]
    fn purge_leaves_zero_resident() {
        let c = ReadCache::new(256);
        let sig = [5u8; SIGNATURE_LEN];
        let blocks: Vec<u64> = (0..32).collect();
        let gen = live_entry(&c, &sig, &blocks);
        for &b in &blocks {
            c.put_block(&sig, gen, b, &[1u8; 128]);
        }
        assert!(c.stats().resident_blocks > 0);
        c.purge();
        let s = c.stats();
        assert_eq!(s.resident_blocks, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resident_objects, 0);
        assert_eq!(s.purges, 1);
        let mut out = [0u8; 128];
        assert!(!c.get_block_into(gen, 0, &mut out));
    }

    #[test]
    fn generation_tagging_isolates_incarnations() {
        let c = ReadCache::new(256);
        let sig = [6u8; SIGNATURE_LEN];
        // Old incarnation caches block 50, is invalidated (rewrite), and
        // block 50 is recycled into the new incarnation under a new gen.
        let old_gen = live_entry(&c, &sig, &[50]);
        c.put_block(&sig, old_gen, 50, b"old plaintext");
        c.invalidate(&sig);
        let new_gen = live_entry(&c, &sig, &[50]);
        // The new incarnation reads under its own gen: no alias either way.
        let mut out = [0u8; 13];
        assert!(!c.get_block_into(new_gen, 50, &mut out));
        assert!(!c.get_block_into(old_gen, 50, &mut out));
    }

    #[test]
    fn coded_invalidation_sweeps_logical_keys() {
        // A coded object's plaintext cache holds *decoded logical* blocks
        // under logical indices; invalidate must sweep those, not the
        // physical share block numbers it never caches under.
        let c = ReadCache::new(256);
        let sig = [13u8; SIGNATURE_LEN];
        let mut h = header(4 * 64);
        h.policy = crate::coding::Policy::Disperse { m: 2, n: 4 };
        h.data_block_count = 8;
        let ext = Arc::new(ExtentList {
            data_blocks: vec![500, 501, 502, 503, 600, 601, 602, 603],
            chain_blocks: vec![],
            share_csums: vec![0; 8],
            coding: Some((2, 4)),
        });
        assert_eq!(ext.block_cache_keys(), vec![0, 1, 2, 3]);
        let gen = c.store_extents(&sig, c.begin(), 1, h, ext);
        assert_ne!(gen, DEAD_GEN);
        for logical in 0..4u64 {
            c.put_block(&sig, gen, logical, &[logical as u8; 64]);
        }
        assert_eq!(c.stats().resident_blocks, 4);
        c.invalidate(&sig);
        assert_eq!(
            c.stats().resident_blocks,
            0,
            "decoded logical blocks survived invalidation"
        );
    }

    #[test]
    fn scoped_purge_sweeps_own_and_unscoped_entries_only() {
        let c = ReadCache::new(256);
        let (alice, bob) = (11u64, 22u64);
        let sig_a = [1u8; SIGNATURE_LEN];
        let sig_b = [2u8; SIGNATURE_LEN];
        let sig_u = [3u8; SIGNATURE_LEN];
        c.tag_scope(&sig_a, alice);
        c.tag_scope(&sig_b, bob);
        let gen_a = live_entry(&c, &sig_a, &[100]);
        let gen_b = live_entry(&c, &sig_b, &[101]);
        let gen_u = live_entry(&c, &sig_u, &[102]); // never tagged
        c.put_block(&sig_a, gen_a, 100, &[0xaa; 32]);
        c.put_block(&sig_b, gen_b, 101, &[0xbb; 32]);
        c.put_block(&sig_u, gen_u, 102, &[0xcc; 32]);

        c.purge_scope(alice);

        // Alice's entry and the unscoped one are gone; Bob's stays warm.
        assert!(c.lookup_header(&sig_a).is_none());
        assert!(c.lookup_header(&sig_u).is_none());
        assert!(c.lookup_header(&sig_b).is_some());
        let mut out = [0u8; 32];
        assert!(!c.get_block_into(gen_a, 100, &mut out));
        assert!(!c.get_block_into(gen_u, 102, &mut out));
        assert!(c.get_block_into(gen_b, 101, &mut out));
        assert_eq!(out, [0xbb; 32]);
        assert_eq!(c.stats().scoped_purges, 1);
        assert_eq!(c.stats().resident_blocks, 1);
    }

    #[test]
    fn scoped_purge_blocks_late_inserts_from_departed_walks() {
        // A walk in flight when the session signs off must not re-install.
        let c = ReadCache::new(64);
        let sig = [7u8; SIGNATURE_LEN];
        c.tag_scope(&sig, 42);
        let started = c.begin();
        c.purge_scope(42);
        c.store_header(&sig, started, 9, header(3));
        assert!(c.lookup_header(&sig).is_none(), "stale walk re-installed");
    }

    #[test]
    fn tag_scope_tags_resident_entries_in_place() {
        let c = ReadCache::new(64);
        let sig = [8u8; SIGNATURE_LEN];
        let gen = live_entry(&c, &sig, &[60]);
        c.put_block(&sig, gen, 60, &[1u8; 16]);
        // Entry cached before any tag existed; tagging it now scopes it.
        c.tag_scope(&sig, 5);
        c.purge_scope(99); // some other session leaves...
        assert!(c.lookup_header(&sig).is_some(), "tagged entry swept early");
        c.purge_scope(5); // ...then its owner does
        assert!(c.lookup_header(&sig).is_none());
        let mut out = [0u8; 16];
        assert!(!c.get_block_into(gen, 60, &mut out));
    }

    #[test]
    fn obs_histograms_record_cache_traffic() {
        let obs = stegfs_obs::Obs::new(true);
        let mut c = ReadCache::new(SHARDS);
        c.set_obs(obs.readcache.clone());
        let sig = [12u8; SIGNATURE_LEN];
        let b0 = 0u64;
        let b1 = SHARDS as u64; // same shard as b0: forces an eviction
        let gen = live_entry(&c, &sig, &[b0, b1]);
        let mut out = [0u8; 16];
        c.put_block(&sig, gen, b0, &[9u8; 16]);
        assert!(c.get_block_into(gen, b0, &mut out));
        assert!(!c.get_block_into(gen, b1, &mut out));
        c.put_block(&sig, gen, b1, &[8u8; 16]);
        c.purge();
        let s = obs.readcache.summary();
        assert_eq!(s.hit_ns.count, 1);
        assert_eq!(s.miss_ns.count, 1);
        assert_eq!(s.evict_ns.count, 1);
        assert_eq!(s.zeroize_ns.count, 1);
    }

    fn keys_of(name: &str) -> ObjectKeys {
        ObjectKeys::derive(name, b"fak")
    }

    #[test]
    fn key_map_stretches_once_and_never_stores_when_disabled() {
        let off = ReadCache::new(0);
        let mut derived = 0;
        for _ in 0..2 {
            off.object_keys("a", b"fak", 1, || {
                derived += 1;
                keys_of("a")
            });
        }
        assert_eq!(derived, 2, "a disabled cache must derive every time");
        assert_eq!(off.stats().resident_keys, 0);

        let c = ReadCache::new(64);
        let mut derived = 0;
        let first = c.object_keys("a", b"fak", 1, || {
            derived += 1;
            keys_of("a")
        });
        let second = c.object_keys("a", b"fak", 0, || {
            derived += 1;
            keys_of("a")
        });
        assert_eq!(derived, 1);
        assert!(Arc::ptr_eq(&first, &second));
        let s = c.stats();
        assert_eq!((s.key_hits, s.key_misses, s.resident_keys), (1, 1, 1));
        c.forget_keys("a", b"fak");
        assert_eq!(c.stats().resident_keys, 0);
    }

    #[test]
    fn key_map_is_bounded() {
        // Capacity below one per shard rounds up to one key set per shard.
        let c = ReadCache::new(SHARDS);
        for i in 0..3 * SHARDS {
            c.object_keys(&format!("obj-{i}"), b"fak", 1, || keys_of("x"));
        }
        assert!(c.stats().resident_keys <= SHARDS as u64);
    }

    #[test]
    fn scoped_purge_sweeps_own_and_unscoped_keys_and_late_inserts() {
        let c = ReadCache::new(256);
        let (alice, bob) = (11u64, 22u64);
        c.object_keys("alice's", b"f", alice, || keys_of("a"));
        c.object_keys("bob's", b"f", bob, || keys_of("b"));
        c.object_keys("unscoped", b"f", 0, || keys_of("u"));
        c.purge_scope(alice);
        assert_eq!(c.stats().resident_keys, 1, "only bob's set may survive");

        // A derivation in flight across a sign-off lands nowhere.
        c.object_keys("late", b"f", bob, || {
            c.purge_scope(33);
            keys_of("late")
        });
        assert_eq!(c.stats().resident_keys, 1);
        c.purge();
        assert_eq!(c.stats().resident_keys, 0);
    }

    #[test]
    fn scratch_pool_reuses_and_zeroes() {
        let mut v = scratch::take(128);
        assert_eq!(v, vec![0u8; 128]);
        v.fill(0x5a);
        let cap = v.capacity();
        scratch::put(v);
        let v2 = scratch::take(64);
        assert_eq!(v2, vec![0u8; 64], "pooled buffer must come back zeroed");
        assert!(v2.capacity() >= 64);
        // Usually the very same allocation comes back.
        let _ = cap;
    }
}
