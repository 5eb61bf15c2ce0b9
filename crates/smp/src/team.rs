//! Processor teams: the SIMPLE-style "pardo" region.
//!
//! [`Executor::run`](crate::Executor::run) runs a closure on a team of
//! `p` ranks, handing each a [`TeamCtx`] carrying its rank and a shared
//! [`SenseBarrier`]. This mirrors how the paper's POSIX-threads code
//! structures every algorithm: a fixed team, ranks `0..p`, and explicit
//! software barriers between phases.

use crate::barrier::{BarrierToken, SenseBarrier};

/// Per-thread context inside a team region.
pub struct TeamCtx<'a> {
    rank: usize,
    size: usize,
    barrier: &'a SenseBarrier,
    token: &'a BarrierToken,
}

impl<'a> TeamCtx<'a> {
    /// Builds the context the executor hands to one rank.
    pub(crate) fn new(
        rank: usize,
        size: usize,
        barrier: &'a SenseBarrier,
        token: &'a BarrierToken,
    ) -> Self {
        Self {
            rank,
            size,
            barrier,
            token,
        }
    }
}

impl TeamCtx<'_> {
    /// This thread's rank in `0..p`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Team size p.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Waits for the whole team; returns `true` on exactly one thread.
    #[inline]
    pub fn barrier(&self) -> bool {
        self.barrier.wait(self.token)
    }

    /// The half-open range of `0..total` assigned to this rank under a
    /// balanced block distribution (the standard SIMPLE data partition).
    pub fn block_range(&self, total: usize) -> std::ops::Range<usize> {
        block_range(self.rank, self.size, total)
    }
}

/// Balanced block partition of `0..total` into `p` ranges: the first
/// `total % p` ranks get one extra element.
pub fn block_range(rank: usize, p: usize, total: usize) -> std::ops::Range<usize> {
    assert!(rank < p, "rank {rank} out of range for team of {p}");
    let base = total / p;
    let extra = total % p;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..start + len
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranks_are_distinct_and_complete() {
        let ranks = Executor::new(4).run(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_fast_path() {
        let r = Executor::new(1).run(|ctx| {
            assert_eq!(ctx.size(), 1);
            assert!(ctx.barrier());
            7
        });
        assert_eq!(r, vec![7]);
    }

    #[test]
    fn barrier_separates_phases() {
        const P: usize = 4;
        let counter = AtomicUsize::new(0);
        Executor::new(P).run(|ctx| {
            counter.fetch_add(1, Ordering::AcqRel);
            ctx.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::Acquire), P);
        });
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for p in 1..=7 {
            for total in [0usize, 1, 5, 16, 17, 100] {
                let mut covered = 0;
                let mut expected_start = 0;
                for rank in 0..p {
                    let r = block_range(rank, p, total);
                    assert_eq!(r.start, expected_start, "p={p} total={total}");
                    expected_start = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total);
                assert_eq!(expected_start, total);
            }
        }
    }

    #[test]
    fn block_ranges_are_balanced() {
        let sizes: Vec<usize> = (0..4).map(|r| block_range(r, 4, 10).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_team_rejected() {
        Executor::new(0).run(|_| ());
    }

    #[test]
    fn results_in_rank_order() {
        let out = Executor::new(5).run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }
}
