//! StegFS configuration parameters (Table 1 of the paper).

use crate::coding::Policy;
use crate::error::{StegError, StegResult};
use crate::header::FREE_POOL_CAPACITY;

/// Tunable parameters of a StegFS volume, matching Table 1 of the paper.
///
/// | Paper symbol | Field | Default |
/// |---|---|---|
/// | `P_abandon`  | [`abandoned_pct`](Self::abandoned_pct)   | 1 % |
/// | `FB_min`     | [`free_blocks_min`](Self::free_blocks_min) | 0 |
/// | `FB_max`     | [`free_blocks_max`](Self::free_blocks_max) | 10 |
/// | `N_dummy`    | [`dummy_file_count`](Self::dummy_file_count) | 10 |
/// | `S_dummy`    | [`dummy_file_size`](Self::dummy_file_size) | 1 MB |
#[derive(Debug, Clone, PartialEq)]
pub struct StegParams {
    /// Percentage of data-region blocks abandoned at format time (marked
    /// allocated in the bitmap but belonging to nothing).
    pub abandoned_pct: f64,
    /// Minimum number of free blocks held inside a hidden file; when the
    /// internal pool falls below this bound it is topped up.
    pub free_blocks_min: usize,
    /// Maximum number of free blocks held inside a hidden file; truncation
    /// returns blocks to the volume once the pool exceeds this bound.
    pub free_blocks_max: usize,
    /// Number of dummy hidden files created at format time and refreshed by
    /// [`crate::StegFs::touch_dummy_files`].
    pub dummy_file_count: usize,
    /// Size in bytes of each dummy hidden file.
    pub dummy_file_size: u64,
    /// Upper bound on locator probes before a lookup is declared
    /// unsuccessful.  Not in the paper (the kernel driver searches until it
    /// wraps); bounded here so a wrong key terminates promptly.
    pub max_locator_probes: usize,
    /// Volume seed: drives FAK generation, abandoned-block placement, dummy
    /// file keys and the random fill.  Fixing it makes experiments
    /// reproducible; a deployment would randomise it.
    pub volume_seed: u64,
    /// Whether to fill the volume with random patterns at format time.
    /// Required for the hiding property; the performance experiments may
    /// disable it to shorten set-up, as it does not affect timing results.
    pub random_fill: bool,
    /// Blocks reserved for the write-ahead journal at format time (0 = no
    /// journal, the paper's original write-through behaviour).  With a
    /// journal, every multi-block update — plain or hidden — is
    /// crash-atomic, and the region must be sized larger than the largest
    /// single update (a file rewrite of N blocks needs roughly N + N/40 + 2
    /// slots); [`crate::StegFs::format`] validates this against
    /// [`dummy_file_size`](Self::dummy_file_size).
    pub journal_blocks: u64,
    /// Capacity of the RAM-only read-path cache, in decrypted data blocks
    /// (0 disables it, restoring the paper's literal decrypt-on-every-read
    /// behaviour).  The cache is session-scoped and purged at sign-off; it
    /// never changes what reaches the disk — see [`crate::readcache`] for
    /// the full contract.
    pub readpath_cache_blocks: usize,
    /// Whether the RAM-only observability registry (`stegfs-obs`) collects
    /// anything.  The instrumentation is always compiled in; with this
    /// `false` every histogram has zero shards, no clock is ever read and
    /// every record call is a branch-and-return.  Either way nothing
    /// observable reaches the disk and metric names/shapes are static, so
    /// the setting has no bearing on deniability — only on the (small)
    /// collection overhead.
    pub obs_enabled: bool,
    /// Default durability policy for user-created hidden objects (files
    /// created through the `steg_*` API and hidden directories).  Dummy
    /// files and UAK directories always stay [`Policy::Plain`]; individual
    /// objects can override this via
    /// [`crate::StegFs::steg_create_with_policy`].  Shares are ordinary
    /// encrypted hidden blocks on disk, so the setting is invisible to an
    /// adversary.
    pub hidden_policy: Policy,
    /// Run the background checkpoint daemon on journaled volumes: a thread
    /// that advances the journal tail and anchors off the commit path, so
    /// foreground writers rarely pay for ring reclamation themselves.  The
    /// daemon writes nothing a foreground `sync` would not write (the same
    /// checksummed anchor records), so it has no bearing on deniability.
    /// No-op without a journal.  The front-ends consult this at mount time;
    /// [`crate::StegFs::start_checkpoint_daemon`] starts it explicitly.
    pub checkpoint_daemon: bool,
    /// Causal-tracing switch: any non-zero value (the default is
    /// [`TRACE_CAPACITY`](crate::TRACE_CAPACITY)) turns the per-request span
    /// layer on when [`obs_enabled`](Self::obs_enabled) is set; `0` turns it
    /// off while leaving the flat metrics untouched.  Like `obs_enabled`,
    /// the setting never changes what reaches the disk.
    pub trace_capacity: usize,
}

impl Default for StegParams {
    fn default() -> Self {
        StegParams {
            abandoned_pct: 1.0,
            free_blocks_min: 0,
            free_blocks_max: 10,
            dummy_file_count: 10,
            dummy_file_size: 1024 * 1024,
            max_locator_probes: 100_000,
            volume_seed: 0x5743_2003,
            random_fill: true,
            journal_blocks: 0,
            readpath_cache_blocks: 4096,
            obs_enabled: true,
            hidden_policy: Policy::Plain,
            checkpoint_daemon: false,
            trace_capacity: stegfs_obs::TRACE_CAPACITY,
        }
    }
}

impl StegParams {
    /// Parameters suitable for fast unit tests: tiny dummy files, no random
    /// fill, small abandoned percentage.
    pub fn for_tests() -> Self {
        StegParams {
            abandoned_pct: 1.0,
            free_blocks_min: 0,
            free_blocks_max: 4,
            dummy_file_count: 2,
            dummy_file_size: 4 * 1024,
            max_locator_probes: 50_000,
            volume_seed: 42,
            random_fill: false,
            journal_blocks: 0,
            readpath_cache_blocks: 1024,
            obs_enabled: true,
            hidden_policy: Policy::Plain,
            checkpoint_daemon: false,
            trace_capacity: stegfs_obs::TRACE_CAPACITY,
        }
    }

    /// Parameters for the performance experiments: paper defaults but without
    /// the (timing-irrelevant) random fill so gigabyte volumes format fast.
    pub fn for_experiments(seed: u64) -> Self {
        StegParams {
            random_fill: false,
            journal_blocks: 0,
            volume_seed: seed,
            ..StegParams::default()
        }
    }

    /// Validate the parameter combination.
    pub fn validate(&self) -> StegResult<()> {
        if !(0.0..=50.0).contains(&self.abandoned_pct) {
            return Err(StegError::InvalidParameter(format!(
                "abandoned_pct must be within [0, 50], got {}",
                self.abandoned_pct
            )));
        }
        if self.free_blocks_max > FREE_POOL_CAPACITY {
            return Err(StegError::InvalidParameter(format!(
                "free_blocks_max {} exceeds header capacity {}",
                self.free_blocks_max, FREE_POOL_CAPACITY
            )));
        }
        if self.free_blocks_min > self.free_blocks_max {
            return Err(StegError::InvalidParameter(format!(
                "free_blocks_min {} exceeds free_blocks_max {}",
                self.free_blocks_min, self.free_blocks_max
            )));
        }
        if self.max_locator_probes == 0 {
            return Err(StegError::InvalidParameter(
                "max_locator_probes must be positive".into(),
            ));
        }
        self.hidden_policy.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = StegParams::default();
        assert_eq!(p.abandoned_pct, 1.0);
        assert_eq!(p.free_blocks_min, 0);
        assert_eq!(p.free_blocks_max, 10);
        assert_eq!(p.dummy_file_count, 10);
        assert_eq!(p.dummy_file_size, 1024 * 1024);
        assert_eq!(p.trace_capacity, stegfs_obs::TRACE_CAPACITY);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn test_and_experiment_presets_validate() {
        assert!(StegParams::for_tests().validate().is_ok());
        assert!(StegParams::for_experiments(7).validate().is_ok());
    }

    #[test]
    fn invalid_combinations_rejected() {
        let p = StegParams {
            abandoned_pct: 90.0,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            free_blocks_max: FREE_POOL_CAPACITY + 1,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            free_blocks_min: 11,
            free_blocks_max: 10,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            max_locator_probes: 0,
            ..StegParams::default()
        };
        assert!(p.validate().is_err());

        let p = StegParams {
            hidden_policy: Policy::Disperse { m: 4, n: 2 },
            ..StegParams::default()
        };
        assert!(p.validate().is_err());
    }
}
