//! A [`Storage`] wrapper that counts what reaches the disk: bytes
//! written, fsyncs, and how long compactions spend in I/O.

use clogic::store::{Storage, StoreError, WAL_FILE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals shared between the wrapper (owned by the session) and the
/// benchmark, which reads them before and after each op.
#[derive(Default)]
pub struct StoreCounts {
    pub bytes: AtomicU64,
    pub fsyncs: AtomicU64,
    pub compactions: AtomicU64,
    pub compaction_ns: AtomicU64,
}

impl StoreCounts {
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

pub struct CountingStorage<S> {
    inner: S,
    counts: Arc<StoreCounts>,
    /// Set when a compaction starts (a whole-file write of anything but
    /// the WAL); cleared when it ends (the sync of the reset WAL).
    compaction_start: Option<Instant>,
}

impl<S: Storage> CountingStorage<S> {
    pub fn new(inner: S, counts: Arc<StoreCounts>) -> CountingStorage<S> {
        CountingStorage {
            inner,
            counts,
            compaction_start: None,
        }
    }
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read(&mut self, file: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(file)
    }

    fn write(&mut self, file: &str, data: &[u8]) -> Result<(), StoreError> {
        if file != WAL_FILE && self.compaction_start.is_none() {
            self.compaction_start = Some(Instant::now());
        }
        self.counts
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(file, data)
    }

    fn append(&mut self, file: &str, data: &[u8]) -> Result<(), StoreError> {
        self.counts
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(file, data)
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(file, len)
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        let r = self.inner.sync(file);
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        if file == WAL_FILE {
            if let Some(start) = self.compaction_start.take() {
                self.counts.compactions.fetch_add(1, Ordering::Relaxed);
                self.counts
                    .compaction_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        r
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, file: &str) -> Result<(), StoreError> {
        self.inner.remove(file)
    }

    fn len(&mut self, file: &str) -> Result<Option<u64>, StoreError> {
        self.inner.len(file)
    }

    fn breaker_open(&self) -> bool {
        self.inner.breaker_open()
    }
}
