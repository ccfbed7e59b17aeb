//! The bounded admission queue shared by every serving front-end.
//!
//! Extracted from [`Server`](crate::Server) so the TCP front-end
//! ([`net`](crate::net)) feeds the *same* mechanism instead of growing a
//! second, subtly different overload policy: one bounded queue, one shed
//! vocabulary ([`Degradation`] with trip kind [`TripKind::Shed`]), one
//! set of metrics (`serve.submitted`, `serve.shed`, `serve.queue_depth`).

use clogic_obs::{Counter, Gauge, Obs};
use folog::{Degradation, TripKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a job was refused admission.
#[derive(Debug)]
pub enum AdmitError {
    /// The queue has been closed (server shutting down).
    Closed,
    /// The queue was full; the [`Degradation`] carries the occupancy
    /// observed at refusal.
    Full(Degradation),
}

/// A bounded MPMC job queue with shed-on-full admission control.
///
/// Producers [`push`](AdmissionQueue::push); worker threads
/// [`pop`](AdmissionQueue::pop) (blocking) until
/// [`close`](AdmissionQueue::close) is called, after which `pop` drains
/// what remains and then returns `None`. Occupancy is mirrored into the
/// `serve.queue_depth` gauge, accepted jobs bump `serve.submitted`, and
/// refusals bump `serve.shed`; the three handles are registered once, in
/// [`new`](AdmissionQueue::new), so a push or pop never touches the
/// metrics registry.
pub struct AdmissionQueue<J> {
    queue: Mutex<VecDeque<J>>,
    available: Condvar,
    open: AtomicBool,
    depth: usize,
    /// `serve.submitted` — jobs admitted.
    submitted: Counter,
    /// `serve.queue_depth` — jobs waiting right now.
    waiting: Gauge,
    /// `serve.shed` — jobs refused.
    shed: Counter,
}

impl<J> AdmissionQueue<J> {
    /// An open queue admitting at most `depth` waiting jobs (min 1).
    pub fn new(depth: usize, obs: Obs) -> AdmissionQueue<J> {
        AdmissionQueue {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            open: AtomicBool::new(true),
            depth: depth.max(1),
            submitted: obs.metrics.counter("serve.submitted"),
            waiting: obs.metrics.gauge("serve.queue_depth"),
            shed: obs.metrics.counter("serve.shed"),
        }
    }

    /// Whether the queue still accepts jobs.
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// The shed error for refusing at `occupancy`, counted in
    /// `serve.shed`. Public so fronts can shed for reasons of their own
    /// (shutdown drains) with the same vocabulary.
    pub fn shed(&self, occupancy: usize, detail: String) -> Degradation {
        self.shed.inc();
        Degradation {
            trip: TripKind::Shed,
            strategy: "serve",
            elapsed: Duration::ZERO,
            work: occupancy as u64,
            detail,
        }
    }

    /// Admits `job`, or refuses with [`AdmitError::Closed`] /
    /// [`AdmitError::Full`].
    pub fn push(&self, job: J) -> Result<(), AdmitError> {
        if !self.is_open() {
            return Err(AdmitError::Closed);
        }
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.depth {
            let occupancy = queue.len();
            drop(queue);
            return Err(AdmitError::Full(self.shed(
                occupancy,
                format!(
                    "admission queue full: {occupancy} waiting, capacity {}",
                    self.depth
                ),
            )));
        }
        queue.push_back(job);
        self.submitted.inc();
        self.waiting.inc();
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// empty.
    pub fn pop(&self) -> Option<J> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = queue.pop_front() {
                self.waiting.dec();
                return Some(job);
            }
            if !self.is_open() {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops admission and wakes every blocked `pop`; returns the jobs
    /// still waiting so the caller can shed them individually.
    pub fn close(&self) -> Vec<J> {
        self.open.store(false, Ordering::Release);
        let drained: Vec<J> = {
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.drain(..).collect()
        };
        for _ in &drained {
            self.waiting.dec();
        }
        self.available.notify_all();
        drained
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_depth_then_sheds() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2, Obs::new());
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(AdmitError::Full(d)) => {
                assert_eq!(d.trip, TripKind::Shed);
                assert_eq!(d.work, 2);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_and_unblocks() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4, Obs::new());
        q.push(1).unwrap();
        q.push(2).unwrap();
        let drained = q.close();
        assert_eq!(drained, vec![1, 2]);
        assert!(matches!(q.push(3), Err(AdmitError::Closed)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn metrics_track_occupancy() {
        let obs = Obs::new();
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1, obs.clone());
        q.push(1).unwrap();
        let _ = q.push(2);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("serve.submitted"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(1));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(1));
        q.pop();
        assert_eq!(obs.metrics.snapshot().gauge("serve.queue_depth"), Some(0));
    }
}
