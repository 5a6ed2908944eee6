//! The bounded admission queue: backpressure at the service's front door.
//!
//! A production mapping service cannot admit unbounded work — a burst of
//! requests must either wait at the door ([`JobQueue::push`] blocks) or be
//! turned away immediately with the request handed back
//! (`JobQueue::try_push`), never pile up until memory dies. The queue is a
//! plain mutex + two condvars (one for writers waiting on space, one for the
//! dispatcher waiting on work); the dispatcher drains whole pending runs with
//! `JobQueue::drain_wait` so the batcher sees every compatible job at once.

use gpu_sim::sync::{locked, wait_on};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError<T> {
    /// The queue is at capacity; the request is handed back to the caller.
    Full(T),
    /// The service is shutting down and admits nothing new.
    Closed(T),
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC queue with blocking and non-blocking admission.
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    /// Signaled when space frees up (admitters wait here).
    space: Condvar,
    /// Signaled when work arrives or the queue closes (the dispatcher waits
    /// here).
    work: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a service that can never admit is a
    /// misconfiguration, not a policy.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity for at least one job");
        JobQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            space: Condvar::new(),
            work: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of pending items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently pending.
    pub fn len(&self) -> usize {
        locked(&self.inner).items.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item`, blocking while the queue is full (backpressure). Returns
    /// the item back if the queue closed while waiting.
    pub fn push(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut inner = locked(&self.inner);
        loop {
            if inner.closed {
                return Err(SubmitError::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.work.notify_all();
                return Ok(());
            }
            inner = wait_on(&self.space, inner);
        }
    }

    /// Admits `item` without blocking; a full queue refuses and hands the item
    /// back (the client decides whether to retry, shed, or block via
    /// [`JobQueue::push`]).
    pub(crate) fn try_push(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut inner = locked(&self.inner);
        if inner.closed {
            return Err(SubmitError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(SubmitError::Full(item));
        }
        inner.items.push_back(item);
        self.work.notify_all();
        Ok(())
    }

    /// Takes every pending item, blocking until at least one is available.
    /// Returns `None` once the queue is closed **and** drained — the
    /// dispatcher's termination condition.
    pub(crate) fn drain_wait(&self) -> Option<Vec<T>> {
        let mut inner = locked(&self.inner);
        loop {
            if !inner.items.is_empty() {
                let drained: Vec<T> = inner.items.drain(..).collect();
                self.space.notify_all();
                return Some(drained);
            }
            if inner.closed {
                return None;
            }
            inner = wait_on(&self.work, inner);
        }
    }

    /// Takes every pending item without blocking (possibly none) — the
    /// dispatcher's opportunistic top-up, so jobs that arrived while a batch
    /// ran can join the next compatible batch.
    pub fn drain_now(&self) -> Vec<T> {
        let mut inner = locked(&self.inner);
        let drained: Vec<T> = inner.items.drain(..).collect();
        if !drained.is_empty() {
            self.space.notify_all();
        }
        drained
    }

    /// Closes the queue: pending items still drain, new submissions are
    /// refused, and a dispatcher blocked in [`JobQueue::drain_wait`] wakes.
    pub(crate) fn close(&self) {
        let mut inner = locked(&self.inner);
        inner.closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn try_push_refuses_when_full_and_hands_the_item_back() {
        let queue = JobQueue::new(2);
        assert_eq!(queue.capacity(), 2);
        queue.try_push(1).expect("first fits");
        queue.try_push(2).expect("second fits");
        assert_eq!(queue.try_push(3), Err(SubmitError::Full(3)));
        assert_eq!(queue.len(), 2);
        // Draining frees space again.
        assert_eq!(queue.drain_wait(), Some(vec![1, 2]));
        queue.try_push(3).expect("space after drain");
    }

    #[test]
    fn push_blocks_until_space_frees() {
        let queue = Arc::new(JobQueue::new(1));
        queue.try_push(10).expect("fits");
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(11))
        };
        // Give the producer time to hit the full queue and park.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.len(), 1, "producer must be parked, not admitted");
        assert_eq!(queue.drain_wait(), Some(vec![10]));
        producer.join().expect("producer").expect("admitted after drain");
        assert_eq!(queue.drain_wait(), Some(vec![11]));
    }

    #[test]
    fn drain_wait_blocks_until_work_arrives() {
        let queue = Arc::new(JobQueue::new(4));
        let dispatcher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.drain_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.try_push(42).expect("admitted");
        assert_eq!(dispatcher.join().expect("dispatcher"), Some(vec![42]));
    }

    #[test]
    fn close_refuses_new_work_but_drains_pending() {
        let queue = JobQueue::new(4);
        queue.try_push(1).expect("admitted");
        queue.close();
        assert_eq!(queue.try_push(2), Err(SubmitError::Closed(2)));
        assert_eq!(queue.push(3), Err(SubmitError::Closed(3)));
        assert_eq!(queue.drain_wait(), Some(vec![1]));
        assert_eq!(queue.drain_wait(), None);
    }

    #[test]
    fn close_unblocks_parked_producer() {
        let queue = Arc::new(JobQueue::new(1));
        queue.try_push(1).expect("fits");
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(producer.join().expect("producer"), Err(SubmitError::Closed(2)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = JobQueue::<u8>::new(0);
    }
}
