//! Bounded priority admission queue.
//!
//! Depth is a hard bound — admission control, not a hint. A push onto a
//! full queue either *sheds* a strictly lower-priority queued job to make
//! room (lowest level first; within a level the newest job goes, so older
//! jobs keep their queue progress) or is rejected outright, and the daemon
//! turns the rejection into a retry-after hint. Dispatch order is highest
//! priority first, FIFO within a priority level.

use crate::job::JobSpec;
use std::cmp::Reverse;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A job admitted to the queue.
#[derive(Debug)]
pub struct QueuedJob {
    /// Server-assigned id (admission order; doubles as the FIFO tiebreak).
    pub id: u64,
    /// The job.
    pub spec: JobSpec,
    /// When the job was admitted (queue-wait telemetry).
    pub submitted: Instant,
}

/// Why a push failed.
#[derive(Debug)]
pub enum PushError {
    /// Queue at capacity and nothing queued is lower-priority than the
    /// newcomer. The rejected job rides back so the daemon can derive a
    /// retry-after hint from *its* shape, not from some global average.
    Full(Box<QueuedJob>),
    /// The queue has been closed for new work.
    Closed,
}

/// What a successful push did.
#[derive(Debug)]
pub enum Pushed {
    /// There was room.
    Admitted,
    /// The queue was full; this lower-priority job was evicted to make
    /// room (the daemon settles it as shed). Boxed: a `QueuedJob` carries a
    /// whole solver config, which would dwarf the `Admitted` variant.
    Shed(Box<QueuedJob>),
}

struct QState {
    jobs: Vec<QueuedJob>,
    closed: bool,
}

/// The bounded priority queue. All methods are thread-safe.
pub struct JobQueue {
    depth: usize,
    state: Mutex<QState>,
    cv: Condvar,
}

impl JobQueue {
    /// A queue admitting at most `depth` jobs at a time.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1);
        Self { depth, state: Mutex::new(QState { jobs: Vec::new(), closed: false }), cv: Condvar::new() }
    }

    /// The configured depth bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit a job, shedding a strictly lower-priority one if the queue is
    /// full.
    pub fn push(&self, job: QueuedJob) -> Result<Pushed, PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        let mut outcome = Pushed::Admitted;
        if st.jobs.len() >= self.depth {
            // shed candidate: lowest priority level; within it, the newest
            // (highest id) — older jobs keep their queue progress
            let victim = st
                .jobs
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.spec.priority.level(), Reverse(j.id)))
                .map(|(i, j)| (i, j.spec.priority.level()));
            match victim {
                Some((i, level)) if level < job.spec.priority.level() => {
                    outcome = Pushed::Shed(Box::new(st.jobs.swap_remove(i)));
                }
                _ => return Err(PushError::Full(Box::new(job))),
            }
        }
        st.jobs.push(job);
        self.cv.notify_one();
        Ok(outcome)
    }

    /// Block until a job is available (highest priority, FIFO within a
    /// level) or the queue is closed *and* drained; `None` means shutdown.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(i) =
                st.jobs.iter().enumerate().max_by_key(|(_, j)| (j.spec.priority.level(), Reverse(j.id))).map(|(i, _)| i)
            {
                return Some(st.jobs.swap_remove(i));
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Close the queue for new work; blocked `pop`s return once drained.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use ns_core::config::{Regime, SolverConfig};
    use ns_numerics::Grid;
    use ns_runtime::Shape;

    fn job(id: u64, priority: Priority) -> QueuedJob {
        let mut spec = JobSpec::new(SolverConfig::paper(Grid::small(), Regime::Euler), 2, Shape::SERIAL);
        spec.priority = priority;
        QueuedJob { id, spec, submitted: Instant::now() }
    }

    #[test]
    fn dispatch_is_priority_then_fifo() {
        let q = JobQueue::new(8);
        for (id, p) in [(1, Priority::Low), (2, Priority::High), (3, Priority::Normal), (4, Priority::High)] {
            q.push(job(id, p)).unwrap();
        }
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![2, 4, 3, 1], "priority desc, FIFO within a level");
    }

    #[test]
    fn full_queue_sheds_lowest_priority_newest_first() {
        let q = JobQueue::new(3);
        q.push(job(1, Priority::Low)).unwrap();
        q.push(job(2, Priority::Normal)).unwrap();
        q.push(job(3, Priority::Low)).unwrap();
        // a High arrival sheds the newest Low (id 3), not the older one
        match q.push(job(4, Priority::High)).unwrap() {
            Pushed::Shed(victim) => assert_eq!(victim.id, 3),
            other => panic!("expected shed, got {other:?}"),
        }
        // an arrival that outranks nothing queued is rejected, riding back
        match q.push(job(5, Priority::Low)).unwrap_err() {
            PushError::Full(rejected) => assert_eq!(rejected.id, 5),
            other => panic!("expected Full, got {other:?}"),
        }
        // a normal arrival still outranks the remaining low job
        match q.push(job(6, Priority::Normal)).unwrap() {
            Pushed::Shed(victim) => assert_eq!(victim.id, 1),
            other => panic!("expected shed, got {other:?}"),
        }
        let order: Vec<u64> = (0..3).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![4, 2, 6]);
    }

    #[test]
    fn equal_priority_never_sheds() {
        let q = JobQueue::new(2);
        q.push(job(1, Priority::Normal)).unwrap();
        q.push(job(2, Priority::Normal)).unwrap();
        assert!(
            matches!(q.push(job(3, Priority::Normal)).unwrap_err(), PushError::Full(_)),
            "a full queue of equals rejects rather than shedding"
        );
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(4);
        q.push(job(1, Priority::Normal)).unwrap();
        q.close();
        assert!(matches!(q.push(job(2, Priority::Normal)).unwrap_err(), PushError::Closed));
        assert_eq!(q.pop().unwrap().id, 1, "queued work is still served after close");
        assert!(q.pop().is_none(), "then pops report shutdown");
    }

    #[test]
    fn pop_blocks_until_work_or_close() {
        use std::sync::Arc;
        let q = Arc::new(JobQueue::new(2));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|j| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(job(9, Priority::Normal)).unwrap();
        assert_eq!(h.join().unwrap(), Some(9));
        let q3 = Arc::clone(&q);
        let h = std::thread::spawn(move || q3.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap(), "close releases blocked pops");
    }
}
