//! Admission control and the worker pool.
//!
//! Three concerns live here, each one `parking_lot` mutex (poison-free,
//! so a panic under a lock does not stop the service):
//!
//! - [`AdmissionGate`] bounds in-flight queries. A query holds a
//!   [`Permit`] from admission until its response is written; once the
//!   gate starts draining, new admissions are refused and
//!   [`AdmissionGate::await_drain`] blocks until the last permit drops
//!   — that is the graceful-shutdown barrier.
//! - [`WorkerPool`] runs jobs on long-lived scoped threads that share
//!   one locked queue. The service offers a request's help only to
//!   workers waiting for work at that moment, one job each, so no job
//!   waits behind another and there is nothing for per-worker queues or
//!   stealing to balance. It is the only scheduler in the workspace: a
//!   morsel evaluates its windows serially.
//! - [`FanOut`] is one request's morsels: a cursor its thread and its
//!   helpers claim from, a result slot each, and a deadline-aware wait.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A queued unit of work: a boxed closure borrowing at most `'env`
/// (the service scope), so jobs can reference the table directly while
/// per-query state travels in `Arc`s.
pub type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Queue<'env> {
    jobs: VecDeque<Job<'env>>,
    /// `false` once [`WorkerPool::close`] ran; workers exit when the
    /// pool is closed *and* the queue is drained.
    open: bool,
    /// Workers waiting on the condvar for a job.
    idle: usize,
}

/// A fixed-size pool over one locked queue. Workers are started
/// externally (scoped threads calling [`WorkerPool::run_worker`]) so
/// they may borrow the service environment. A submitter pushes and a
/// worker checks "job, closed, or wait" under the same mutex, so no
/// wake-up is lost and no lock is taken while another is held.
pub struct WorkerPool<'env> {
    queue: Mutex<Queue<'env>>,
    cv: Condvar,
    workers: usize,
}

impl<'env> WorkerPool<'env> {
    /// A pool sized for `workers` threads (0 means every submit runs
    /// inline).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
                idle: 0,
            }),
            cv: Condvar::new(),
            workers,
        }
    }

    /// Number of workers the pool was sized for.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job and wakes one worker. With no workers, or after
    /// [`WorkerPool::close`], the job runs inline on the caller —
    /// submission never silently drops work.
    pub fn submit(&self, job: Job<'env>) {
        if self.workers > 0 {
            let mut q = self.queue.lock();
            if q.open {
                q.jobs.push_back(job);
                drop(q);
                self.cv.notify_one();
                return;
            }
        }
        job();
    }

    /// Queues up to `max` jobs made by `job`, one for each worker that
    /// waits for work now and that no queued job will take, and returns
    /// how many. It never waits: with no idle worker nothing is queued.
    /// A closed pool has no idle worker once its workers saw the close.
    pub(crate) fn offer(&self, max: usize, mut job: impl FnMut() -> Job<'env>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut q = self.queue.lock();
        let spare = q.idle.saturating_sub(q.jobs.len()).min(max);
        q.jobs.extend((0..spare).map(|_| job()));
        drop(q);
        (0..spare).for_each(|_| self.cv.notify_one());
        spare
    }

    /// The worker loop; call from a dedicated thread (`_label` only
    /// names the worker at the call site). Returns once the pool is
    /// closed and the queue is empty. Jobs run with the lock released,
    /// and a job that panics costs only itself: the worker takes the
    /// next one. A job that must report its failure catches its own
    /// panic, as the service's morsel jobs do.
    pub fn run_worker(&self, _label: usize) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if !q.open {
                        return;
                    }
                    q.idle += 1;
                    self.cv.wait(&mut q);
                    q.idle -= 1;
                }
            };
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Closes the pool: queued jobs still run, new submits run inline,
    /// workers exit once drained.
    pub fn close(&self) {
        self.queue.lock().open = false;
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for WorkerPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

/// Why admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The in-flight bound is reached — back off and retry (HTTP 429 /
    /// TCP `BUSY`).
    Busy,
    /// The service is draining for shutdown (HTTP 503 / TCP `ERR`).
    Draining,
}

#[derive(Debug)]
struct GateState {
    inflight: usize,
    draining: bool,
}

/// Bounds concurrent in-flight queries and sequences graceful
/// shutdown.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    cv: Condvar,
    max: usize,
}

impl AdmissionGate {
    /// A gate admitting at most `max` concurrent queries.
    #[must_use]
    pub fn new(max: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                inflight: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            max: max.max(1),
        }
    }

    /// Tries to admit one query; on success the returned [`Permit`]
    /// must be held until the response is written.
    ///
    /// # Errors
    ///
    /// [`Refusal::Draining`] once shutdown began, [`Refusal::Busy`]
    /// at the in-flight bound.
    pub fn try_admit(&self) -> Result<Permit<'_>, Refusal> {
        let mut st = self.state.lock();
        if st.draining {
            return Err(Refusal::Draining);
        }
        if st.inflight >= self.max {
            return Err(Refusal::Busy);
        }
        st.inflight += 1;
        Ok(Permit { gate: self })
    }

    /// Queries currently holding permits.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.state.lock().inflight
    }

    /// The admission bound.
    #[must_use]
    pub fn max_inflight(&self) -> usize {
        self.max
    }

    /// Stops admitting new queries. In-flight queries keep their
    /// permits.
    pub fn begin_drain(&self) {
        self.state.lock().draining = true;
    }

    /// Blocks until every query holding a permit has released it.
    /// Call after [`AdmissionGate::begin_drain`].
    pub fn await_drain(&self) {
        let mut st = self.state.lock();
        while st.inflight > 0 {
            self.cv.wait(&mut st);
        }
    }
}

/// RAII admission permit; dropping it releases the slot, and the last
/// one wakes [`AdmissionGate::await_drain`].
#[derive(Debug)]
pub struct Permit<'g> {
    gate: &'g AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.inflight -= 1;
        if st.inflight == 0 {
            drop(st);
            self.gate.cv.notify_all();
        }
    }
}

/// One request's morsels: a cursor its thread and its helpers claim
/// slots from, `n` result slots, and a deadline-aware wait.
#[derive(Debug)]
pub struct FanOut<T> {
    slots: Mutex<Vec<Option<T>>>,
    /// Slots not yet complete.
    left: AtomicUsize,
    /// The next slot to claim; `n` or past it once none is left.
    next: AtomicUsize,
    n: usize,
}

impl<T> FanOut<T> {
    /// A latch expecting `n` completions.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            left: AtomicUsize::new(n),
            next: AtomicUsize::new(0),
            n,
        }
    }

    /// Claims the next slot in slot order; `None` once every slot is
    /// claimed or the latch is closed. No slot is claimed twice.
    pub fn claim(&self) -> Option<usize> {
        Some(self.next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < self.n)
    }

    /// Closes the latch: no slot is claimed after this, so
    /// [`FanOut::wait`] times out unless every slot already was.
    pub fn close(&self) {
        self.next.fetch_max(self.n, Ordering::Relaxed);
    }

    /// Records slot `i` (possibly `None` for an evaluation that failed)
    /// and counts the completion.
    pub fn complete(&self, i: usize, value: Option<T>) {
        self.slots.lock()[i] = value;
        self.left.fetch_sub(1, Ordering::Release);
    }

    /// Waits until every slot completed or `timeout` elapses, yielding
    /// the CPU between looks rather than sleeping: what it waits for is
    /// being evaluated now, and a wake-up would cost more. On timeout the
    /// latch closes and `None` is returned.
    pub fn wait(&self, timeout: Duration) -> Option<Vec<Option<T>>> {
        let deadline = Instant::now() + timeout;
        while self.left.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                self.close();
                return None;
            }
            std::thread::yield_now();
        }
        Some(std::mem::take(&mut self.slots.lock()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    #[test]
    fn pool_runs_every_submitted_job() {
        let counter = AtomicU64::new(0);
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            for i in 0..3 {
                let p = &pool;
                scope.spawn(move || p.run_worker(i));
            }
            for _ in 0..100 {
                pool.submit(Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
            // A burst of slow jobs: several workers drain one queue.
            for _ in 0..50 {
                pool.submit(Box::new(|| {
                    std::thread::sleep(Duration::from_micros(50));
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.close();
        });
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    /// Regression test kept from the two-lock pool, where a worker
    /// holding its queue lock while taking the state lock deadlocked
    /// against `submit` (state → queue). Many submitters racing busy
    /// workers reproduced that within a few thousand iterations; with
    /// one lock the same storm must simply complete.
    #[test]
    fn concurrent_submitters_do_not_deadlock_with_claimers() {
        let counter = AtomicU64::new(0);
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for i in 0..2 {
                let p = &pool;
                scope.spawn(move || p.run_worker(i));
            }
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    let p = &pool;
                    let c = &counter;
                    scope.spawn(move || {
                        for _ in 0..2_000 {
                            p.submit(Box::new(move || {
                                c.fetch_add(1, Ordering::Relaxed);
                            }));
                        }
                    })
                })
                .collect();
            for s in submitters {
                s.join().expect("submitter");
            }
            pool.close();
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 2_000);
    }

    /// Workers that went to sleep on an empty queue wake for every
    /// later job and for `close`: the wait has no timeout to fall back
    /// on, so a lost wake-up would hang this test.
    #[test]
    fn sleeping_workers_wake_for_each_job_and_for_close() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for i in 0..2 {
                let p = &pool;
                scope.spawn(move || p.run_worker(i));
            }
            for round in 0..200u64 {
                let fan = Arc::new(FanOut::<u64>::new(1));
                let done = Arc::clone(&fan);
                pool.submit(Box::new(move || done.complete(0, Some(round))));
                // Waiting for the answer lets both workers drain the
                // queue and block again before the next submit.
                assert_eq!(fan.wait(Duration::from_secs(10)), Some(vec![Some(round)]));
            }
            pool.close();
        });
    }

    /// A panicking job used to take its worker down with it: with one
    /// worker the next job never ran, and its waiter timed out.
    #[test]
    fn a_worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        std::thread::scope(|scope| {
            scope.spawn(|| pool.run_worker(0));
            pool.submit(Box::new(|| panic!("a morsel job panicked")));
            let fan = Arc::new(FanOut::<u64>::new(1));
            let done = Arc::clone(&fan);
            pool.submit(Box::new(move || done.complete(0, Some(7))));
            assert_eq!(fan.wait(Duration::from_secs(1)), Some(vec![Some(7)]));
            pool.close();
        });
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let ran = AtomicBool::new(false);
        let pool = WorkerPool::new(0);
        pool.submit(Box::new(|| {
            ran.store(true, Ordering::Relaxed);
        }));
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn closed_pool_runs_submissions_inline() {
        let ran = AtomicBool::new(false);
        let pool = WorkerPool::new(1);
        pool.close();
        pool.submit(Box::new(|| {
            ran.store(true, Ordering::Relaxed);
        }));
        assert!(ran.load(Ordering::Relaxed));
        std::thread::scope(|scope| {
            scope.spawn(|| pool.run_worker(0)); // exits: closed + empty
        });
    }

    #[test]
    fn gate_bounds_inflight_and_drains() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit().expect("first");
        let b = gate.try_admit().expect("second");
        assert_eq!(gate.try_admit().unwrap_err(), Refusal::Busy);
        drop(a);
        let c = gate.try_admit().expect("slot freed");
        gate.begin_drain();
        assert_eq!(gate.try_admit().unwrap_err(), Refusal::Draining);
        // await_drain returns once the survivors finish.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                drop(b);
                drop(c);
            });
            gate.await_drain();
        });
        assert_eq!(gate.inflight(), 0);
    }

    /// Takes `lock` on a scoped thread that then panics: a std mutex
    /// would be poisoned after this.
    fn panic_holding<T: Send>(lock: &Mutex<T>) {
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock.lock();
                panic!("a thread panics holding a service lock");
            })
            .join()
        });
        assert!(holder.is_err());
    }

    #[test]
    fn a_panic_under_a_service_lock_does_not_poison_the_service() {
        let gate = AdmissionGate::new(2);
        panic_holding(&gate.state);
        let permit = gate.try_admit().expect("still admits");
        assert_eq!(gate.inflight(), 1);
        gate.begin_drain();
        drop(permit);
        gate.await_drain();
        assert_eq!(gate.inflight(), 0);

        let fan = FanOut::<u64>::new(1);
        panic_holding(&fan.slots);
        fan.complete(0, Some(5));
        assert_eq!(fan.wait(Duration::from_secs(1)), Some(vec![Some(5)]));
    }

    #[test]
    fn fanout_collects_and_times_out() {
        let fan = Arc::new(FanOut::<u64>::new(2));
        fan.complete(1, Some(7));
        fan.complete(0, Some(3));
        assert_eq!(
            fan.wait(Duration::from_millis(10)),
            Some(vec![Some(3), Some(7)])
        );

        let slow = Arc::new(FanOut::<u64>::new(1));
        assert_eq!(slow.wait(Duration::from_millis(10)), None);
        assert_eq!(slow.claim(), None, "a timed-out latch is closed");
    }

    #[test]
    fn concurrent_claimers_take_each_morsel_once_and_a_closed_cursor_yields_none() {
        const MORSELS: usize = 2_000;
        let fan = FanOut::<usize>::new(MORSELS);
        let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
            let claimers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(i) = fan.claim() {
                            fan.complete(i, Some(i));
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            claimers
                .into_iter()
                .map(|c| c.join().expect("claimer"))
                .collect()
        });
        let mut all: Vec<usize> = claimed.concat();
        all.sort_unstable();
        assert_eq!(all, (0..MORSELS).collect::<Vec<_>>(), "each morsel once");
        let slots = fan
            .wait(Duration::from_secs(1))
            .expect("every slot completed");
        assert!(slots.iter().enumerate().all(|(i, v)| *v == Some(i)));

        let fan = FanOut::<usize>::new(3);
        assert_eq!(fan.claim(), Some(0));
        fan.close();
        assert_eq!((fan.claim(), fan.claim()), (None, None));
        fan.complete(0, Some(0));
        assert_eq!(fan.wait(Duration::ZERO), None, "slots 1 and 2 never ran");
    }

    /// `offer` queues a job only for a worker that waits now: none
    /// before the worker starts, one while it waits, none while the job
    /// it was offered holds it, none once the pool is closed.
    #[test]
    fn offer_queues_only_for_waiting_workers() {
        let release = AtomicBool::new(false);
        let ran = AtomicU64::new(0);
        let pool = WorkerPool::new(1);
        let job = || -> Job<'_> {
            Box::new(|| {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        };
        assert_eq!(pool.offer(4, job), 0, "no worker runs yet");
        std::thread::scope(|s| {
            s.spawn(|| pool.run_worker(0));
            while pool.queue.lock().idle == 0 {
                std::thread::yield_now();
            }
            assert_eq!(pool.offer(0, job), 0);
            assert_eq!(pool.offer(4, job), 1, "one job for the one idle worker");
            assert_eq!(pool.offer(4, job), 0, "the worker is taken");
            release.store(true, Ordering::Release);
            pool.close();
        });
        assert_eq!(pool.offer(4, job), 0, "a closed pool");
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
