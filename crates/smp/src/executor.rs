//! Persistent processor team: workers spawned once, parked between jobs.
//!
//! Spawning and joining `p` OS threads per call is fine for one long
//! traversal but dominates latency when many algorithm invocations
//! share a process (batch benchmarks, request serving). [`Executor`]
//! keeps the team alive instead:
//!
//! * `p − 1` worker threads are created once and park on a condition
//!   variable between jobs (rank 0 is the submitting thread itself, so
//!   `p == 1` never spawns anything).
//! * A job is submitted by **epoch/closure handoff**: the submitter
//!   publishes a type-erased closure pointer together with a bumped
//!   epoch under the state mutex, wakes the workers, runs rank 0
//!   inline, and then blocks until every worker has reported back.
//!   Because the submitter cannot return (or unwind) before the last
//!   worker finishes, the closure may borrow the submitter's stack —
//!   the same lifetime guarantee a scoped spawn gives, without the
//!   spawn.
//! * The [`SenseBarrier`] and [`TerminationDetector`] are **owned by
//!   the team** and reused across jobs. Each rank joins a job with a
//!   [`BarrierToken::with_sense`] token minted from the barrier's
//!   current sense, which is stable between jobs (no episode can
//!   complete before every rank has entered its first wait).
//!
//! Panic semantics: a panic on any rank is caught, the submitter still
//! waits for the rest of the team, and then panics with "team worker
//! panicked". The executor itself stays usable after a failed job. A
//! panic *between* two barrier waits of the same job deadlocks the
//! team — barriers require all `p` ranks.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::barrier::{BarrierToken, SenseBarrier};
use crate::detect::TerminationDetector;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::team::TeamCtx;

/// Type-erased per-rank job body: `call(data, rank, ctx)` invokes the
/// submitter's closure through a raw pointer that stays valid until the
/// submitter observes completion.
#[derive(Clone, Copy)]
struct Job {
    call: for<'a> unsafe fn(*const (), usize, TeamCtx<'a>),
    data: *const (),
}

// SAFETY: `data` points at a closure that is `Sync` (enforced by the
// bounds on `Executor::run`) and outlives the job (the submitter blocks
// until `remaining == 0` before dropping it).
unsafe impl Send for Job {}

struct JobState {
    /// Current job; `Some` exactly while a job is in flight.
    job: Option<Job>,
    /// Bumped once per submission; workers run a job when they see an
    /// epoch they have not seen before.
    epoch: u64,
    /// Workers (ranks `1..p`) still running the current job.
    remaining: usize,
    /// Ranks `1..p` whose job body panicked (rank 0 is tracked by the
    /// submitter directly).
    panicked: usize,
    shutdown: bool,
}

struct Shared {
    p: usize,
    barrier: SenseBarrier,
    detector: TerminationDetector,
    state: Mutex<JobState>,
    /// Signals workers: new epoch or shutdown.
    work_cv: Condvar,
    /// Signals the submitter: `remaining` reached zero.
    done_cv: Condvar,
    /// Serializes concurrent `run` calls from different threads.
    submit: Mutex<()>,
    /// Jobs finished over the executor's lifetime (panicked jobs
    /// included — the whole team still ran them to completion).
    jobs_completed: AtomicU64,
}

/// Per-rank result cell; each rank writes only its own slot, and the
/// submitter reads them only after the completion handshake.
struct ResultSlot<R>(UnsafeCell<Option<R>>);

// SAFETY: writes are rank-disjoint and ordered before the reads by the
// state mutex (release on decrement, acquire on the submitter's wait).
unsafe impl<R: Send> Sync for ResultSlot<R> {}

/// A long-lived team of `p` processors sharing one barrier and one
/// termination detector.
///
/// Submit work with [`run`](Self::run); jobs execute with the
/// [`TeamCtx`] API and return per-rank results in rank order. Dropping
/// the executor shuts the workers down and joins them.
///
/// ```
/// use st_smp::Executor;
///
/// let exec = Executor::new(4);
/// let ranks = exec.run(|ctx| ctx.rank());
/// assert_eq!(ranks, vec![0, 1, 2, 3]);
/// // Same team, next job — no threads spawned in between.
/// let doubled = exec.run(|ctx| ctx.rank() * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6]);
/// ```
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("p", &self.shared.p)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Executor {
    /// Creates a team of `p` processors, spawning `p − 1` parked worker
    /// threads (none for `p == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "team needs at least one processor");
        let shared = Arc::new(Shared {
            p,
            barrier: SenseBarrier::new(p),
            detector: TerminationDetector::new(p),
            state: Mutex::new(JobState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            jobs_completed: AtomicU64::new(0),
        });
        let workers = (1..p)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("st-exec-{rank}"))
                    .spawn(move || worker_loop(&shared, rank))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Team size `p`.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.p
    }

    /// Number of OS threads backing the team (always `p − 1`; rank 0
    /// runs on the submitting thread).
    pub fn worker_threads(&self) -> usize {
        self.workers.len()
    }

    /// The team-owned barrier (mostly for inspection; jobs use it via
    /// [`TeamCtx::barrier`]).
    pub fn barrier(&self) -> &SenseBarrier {
        &self.shared.barrier
    }

    /// The team-owned termination detector, reused across jobs.
    ///
    /// A job that wants starvation detection calls
    /// [`TerminationDetector::set_threshold`] and
    /// [`TerminationDetector::reset`] before the team starts.
    pub fn detector(&self) -> &TerminationDetector {
        &self.shared.detector
    }

    /// Jobs this team has finished since construction (an observability
    /// lifetime counter; never reset).
    pub fn jobs_completed(&self) -> u64 {
        self.shared.jobs_completed.load(Ordering::Relaxed)
    }

    /// Runs `f` once per rank on the team and returns each rank's
    /// result in rank order. Rank 0 executes inline on the calling
    /// thread; ranks `1..p` execute on the parked workers.
    ///
    /// Concurrent calls from different threads are serialized.
    ///
    /// # Panics
    ///
    /// Panics with "team worker panicked" if `f` panics on any rank
    /// (after the whole team has finished the job). The executor
    /// remains usable afterwards.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TeamCtx<'_>) -> R + Sync,
    {
        let p = self.shared.p;
        let slots: Vec<ResultSlot<R>> = (0..p).map(|_| ResultSlot(UnsafeCell::new(None))).collect();
        let slots_ref = &slots;
        let body = move |rank: usize, ctx: TeamCtx<'_>| {
            let r = f(ctx);
            // SAFETY: each rank writes its own slot exactly once.
            unsafe { *slots_ref[rank].0.get() = Some(r) };
        };

        if p == 1 {
            // No workers exist; run rank 0 inline with no handoff. A
            // panic in `f` propagates with its original payload, but
            // the job must still be counted first: the multi-rank path
            // counts panicked jobs (the whole team ran them), and a
            // `p == 1` team skipping the increment made `jobs_completed`
            // disagree between the two paths — exactly the kind of
            // lifecycle drift the loom executor model pins down.
            let token = BarrierToken::with_sense(self.shared.barrier.current_sense());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                body(0, TeamCtx::new(0, 1, &self.shared.barrier, &token));
            }));
            drop(body);
            self.shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = outcome {
                resume_unwind(payload);
            }
            return collect_results(slots);
        }

        let _serialize = self.shared.submit.lock();
        // Read the sense before publishing: no episode of this job can
        // complete until rank 0 (this thread) reaches a barrier, so the
        // value stays valid for every rank's fresh token.
        let sense = self.shared.barrier.current_sense();
        {
            let mut s = self.shared.state.lock();
            debug_assert_eq!(s.remaining, 0, "job submitted while previous in flight");
            s.job = Some(erase(&body));
            s.epoch += 1;
            s.remaining = p - 1;
            s.panicked = 0;
            self.shared.work_cv.notify_all();
        }

        let token = BarrierToken::with_sense(sense);
        let rank0_ok = catch_unwind(AssertUnwindSafe(|| {
            body(0, TeamCtx::new(0, p, &self.shared.barrier, &token));
        }))
        .is_ok();

        // Wait for every worker before touching `body`/`slots` again —
        // this is what makes the raw borrow in `Job` sound.
        let worker_panics = {
            let mut s = self.shared.state.lock();
            while s.remaining > 0 {
                self.shared.done_cv.wait(&mut s);
            }
            s.job = None;
            s.panicked
        };
        self.shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if !rank0_ok || worker_panics > 0 {
            panic!("team worker panicked");
        }
        drop(body);
        collect_results(slots)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn collect_results<R>(slots: Vec<ResultSlot<R>>) -> Vec<R> {
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("rank produced no result"))
        .collect()
}

/// Erases a per-rank body into a raw (fn, data) pair.
fn erase<W>(w: &W) -> Job
where
    W: for<'a> Fn(usize, TeamCtx<'a>),
{
    unsafe fn call<W>(data: *const (), rank: usize, ctx: TeamCtx<'_>)
    where
        W: for<'b> Fn(usize, TeamCtx<'b>),
    {
        // SAFETY: `data` was produced from `&W` by `erase` and is kept
        // alive by the submitter until the job completes.
        let w = unsafe { &*data.cast::<W>() };
        w(rank, ctx);
    }
    Job {
        call: call::<W>,
        data: (w as *const W).cast(),
    }
}

fn worker_loop(shared: &Shared, rank: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = shared.state.lock();
            loop {
                if s.shutdown {
                    return;
                }
                if s.epoch != seen {
                    seen = s.epoch;
                    break s.job.expect("epoch bumped without a job");
                }
                shared.work_cv.wait(&mut s);
            }
        };
        let token = BarrierToken::with_sense(shared.barrier.current_sense());
        let ok = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the submitter keeps the closure alive until it
            // sees our decrement below.
            unsafe {
                (job.call)(
                    job.data,
                    rank,
                    TeamCtx::new(rank, shared.p, &shared.barrier, &token),
                )
            }
        }))
        .is_ok();
        let mut s = shared.state.lock();
        if !ok {
            s.panicked += 1;
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_rank_order() {
        let exec = Executor::new(8);
        assert_eq!(
            exec.run(|ctx| ctx.rank() * 10),
            (0..8).map(|r| r * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reuse_across_jobs() {
        let exec = Executor::new(4);
        let jobs = if cfg!(miri) { 5 } else { 50 };
        let total = AtomicUsize::new(0);
        for _ in 0..jobs {
            exec.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * jobs);
    }

    #[test]
    fn barriers_stay_consistent_across_jobs() {
        const P: usize = 3;
        let exec = Executor::new(P);
        let counter = AtomicUsize::new(0);
        for job in 1..=10usize {
            exec.run(|ctx| {
                counter.fetch_add(1, Ordering::AcqRel);
                ctx.barrier();
                assert_eq!(counter.load(Ordering::Acquire), job * P);
                ctx.barrier();
            });
        }
        assert_eq!(exec.barrier().generations(), 20);
    }

    #[test]
    fn single_processor_spawns_no_threads() {
        let exec = Executor::new(1);
        assert_eq!(exec.worker_threads(), 0);
        let r = exec.run(|ctx| {
            assert!(ctx.barrier());
            ctx.rank() + 7
        });
        assert_eq!(r, vec![7]);
    }

    #[test]
    fn drop_mid_idle_joins_cleanly() {
        let exec = Executor::new(6);
        drop(exec); // never ran a job
        let exec = Executor::new(4);
        exec.run(|_| ());
        drop(exec); // workers parked again after a job
    }

    #[test]
    #[should_panic(expected = "team worker panicked")]
    fn worker_panic_propagates() {
        let exec = Executor::new(4);
        exec.run(|ctx| {
            if ctx.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "team worker panicked")]
    fn rank0_panic_propagates() {
        let exec = Executor::new(3);
        exec.run(|ctx| {
            if ctx.rank() == 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn executor_survives_a_panicked_job() {
        let exec = Executor::new(4);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            exec.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(failed.is_err());
        // The team is still intact, barrier included.
        exec.run(|ctx| {
            ctx.barrier();
        });
        assert_eq!(exec.run(|ctx| ctx.rank()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_submitters_are_serialized() {
        let exec = Executor::new(4);
        let per_submitter = if cfg!(miri) { 4 } else { 25 };
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..per_submitter {
                        exec.run(|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * per_submitter * 4);
    }

    #[test]
    fn jobs_completed_counts_every_run() {
        let exec = Executor::new(3);
        assert_eq!(exec.jobs_completed(), 0);
        for _ in 0..5 {
            exec.run(|_| ());
        }
        assert_eq!(exec.jobs_completed(), 5);
        // p == 1 fast path counts too.
        let solo = Executor::new(1);
        solo.run(|_| ());
        assert_eq!(solo.jobs_completed(), 1);
    }

    #[test]
    fn detector_is_shared_and_retunable() {
        let exec = Executor::new(2);
        assert_eq!(exec.detector().processors(), 2);
        exec.detector().set_threshold(Some(2));
        exec.detector().reset();
        exec.detector().set_threshold(None);
    }

    /// Retuning the persistent team's detector between jobs must change
    /// the verdict of the next job (the loom model
    /// `executor::set_threshold_between_jobs_changes_verdict` checks
    /// every interleaving; this is the plain-build smoke version).
    #[test]
    fn set_threshold_between_jobs_flips_the_verdict() {
        use crate::IdleOutcome;
        use std::time::Duration;
        let exec = Executor::new(2);
        let timeout = Duration::from_millis(1);
        exec.run(|_| loop {
            match exec.detector().idle_wait(timeout) {
                IdleOutcome::AllDone => break,
                IdleOutcome::Retry => continue,
                IdleOutcome::Starved => panic!("job 1 must not starve"),
            }
        });
        assert!(exec.detector().is_done());

        exec.detector().reset();
        exec.detector().set_threshold(Some(1));
        exec.run(|_| {
            assert_eq!(exec.detector().idle_wait(timeout), IdleOutcome::Starved);
        });
        assert!(exec.detector().is_starved());
        assert_eq!(exec.detector().stats().starvation_trips, 1);
    }

    /// Regression for the p == 1 lifecycle defect the loom harness
    /// flagged: a panicking solo job used to skip the `jobs_completed`
    /// bump that the multi-rank path performs, so the team's books
    /// diverged by profile. The panic must propagate AND count.
    #[test]
    fn solo_panicked_job_is_still_counted() {
        let solo = Executor::new(1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            solo.run(|_| panic!("boom"));
        }));
        assert!(r.is_err(), "solo panic must propagate");
        assert_eq!(solo.jobs_completed(), 1, "panicked job must count");
        solo.run(|_| ());
        assert_eq!(solo.jobs_completed(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        Executor::new(0);
    }
}
