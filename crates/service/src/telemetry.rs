//! Server-side telemetry: latency histograms, the job event journal,
//! the in-flight table, and the slow-job log.
//!
//! [`Telemetry`] is the service's answer to two questions the plain
//! [`PoolGauges`](st_obs::PoolGauges) cannot address: *what is the
//! latency distribution* (per priority lane and per algorithm, as
//! lock-free [`ShardedHistogram`]s the dispatchers record into), and
//! *what happened to this particular job* (the bounded
//! [`EventJournal`] of lifecycle events keyed by [`TraceId`], the
//! in-flight table behind `/debug/jobs`, and the slow-job log that
//! keeps the full [`JobMetrics`](st_obs::JobMetrics) of any job whose
//! wall latency crossed the configured threshold).
//!
//! Everything here is bounded: histograms are fixed arrays, the
//! journal and slow log are drop-oldest rings, and the in-flight table
//! shrinks as jobs finish — telemetry never grows with uptime.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use st_core::SpanningForest;
use st_obs::hist::ShardedHistogram;
use st_obs::journal::{escape_json_into, EventJournal, JobEventKind, TraceId};
use st_obs::{HistogramFamily, HistogramSeries, QUEUE_LANES};

use crate::job::JobError;
use crate::spec::AlgorithmId;

/// Default journal capacity when neither the builder nor
/// `ST_JOURNAL_CAP` sets one: six events per job means ~1350 jobs of
/// history at ~100 bytes an event.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// Default slow-job threshold (wall latency, queue + exec) when
/// neither the builder nor `ST_SLOW_JOB_MS` sets one.
pub const DEFAULT_SLOW_JOB_MS: u64 = 1000;

/// Slow-job reports retained (drop-oldest).
const SLOW_LOG_CAPACITY: usize = 32;

/// Lowercase lane names, index-aligned with the admission lanes.
pub(crate) const LANE_NAMES: [&str; QUEUE_LANES] = ["high", "normal", "low"];

/// Histogram bucket for jobs whose algorithm is not one of the
/// catalog-addressable [`AlgorithmId`]s (in-process submissions of
/// custom [`SpanningAlgorithm`](st_core::engine::SpanningAlgorithm)s).
const OTHER_ALGORITHM: &str = "other";

/// One entry of the in-flight table: a job that has been admitted but
/// has not resolved yet.
#[derive(Clone, Debug)]
pub struct InflightJob {
    /// The job's trace id.
    pub trace: TraceId,
    /// Admission lane (0 = highest priority).
    pub lane: u8,
    /// Algorithm label (an [`AlgorithmId`] name or `"other"`).
    pub algorithm: &'static str,
    /// `"queued"` until a dispatcher starts the job, then `"running"`.
    pub stage: &'static str,
    /// Executing team id once running.
    pub team: Option<u32>,
    /// Journal-epoch nanoseconds when the job was submitted.
    pub submitted_t_ns: u64,
}

/// One slow-job report: the trace id, the wall latency that tripped
/// the threshold, and the job's full metrics (per-rank counters,
/// phases, spans) as rendered JSON.
#[derive(Clone, Debug)]
pub struct SlowJob {
    /// The job's trace id.
    pub trace: TraceId,
    /// Wall latency (queue + exec) in nanoseconds.
    pub wall_ns: u64,
    /// The complete [`JobMetrics`](st_obs::JobMetrics) report,
    /// pre-rendered as JSON.
    pub metrics_json: String,
}

/// The service's telemetry plane: histograms, journal, in-flight
/// table, slow-job log.
pub struct Telemetry {
    /// Lifecycle event ring.
    journal: EventJournal,
    /// Queue-wait latency per admission lane, nanoseconds.
    lane_queue: [ShardedHistogram; QUEUE_LANES],
    /// Execution latency per admission lane, nanoseconds.
    lane_exec: [ShardedHistogram; QUEUE_LANES],
    /// Wall (queue + exec) latency per admission lane, nanoseconds.
    lane_wall: [ShardedHistogram; QUEUE_LANES],
    /// Wall latency of result-cache hits — split out so the zero-cost
    /// hot path cannot understate the real-execution percentiles.
    cached_wall: ShardedHistogram,
    /// Execution latency per algorithm, nanoseconds.
    algo_exec: Vec<(&'static str, ShardedHistogram)>,
    /// Per-batch update latency, incremental-maintenance path.
    update_incremental: ShardedHistogram,
    /// Per-batch update latency, full-recompute fallback path.
    update_recomputed: ShardedHistogram,
    /// Wall-latency threshold past which a job's full metrics are kept.
    slow_threshold_ns: u64,
    /// Recent slow-job reports (drop-oldest ring).
    slow: Mutex<VecDeque<SlowJob>>,
    /// Admitted-but-unresolved jobs, keyed by raw trace id.
    inflight: Mutex<HashMap<u64, InflightJob>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("journal", &self.journal)
            .field("slow_threshold_ns", &self.slow_threshold_ns)
            .finish()
    }
}

/// The number of dispatcher-side recorder shards. Dispatcher threads
/// are the only recorders, one per team; 8 covers every realistic team
/// layout without a cache-padded array per core.
const HIST_SHARDS: usize = 8;

fn lane_histograms() -> [ShardedHistogram; QUEUE_LANES] {
    std::array::from_fn(|_| ShardedHistogram::new(HIST_SHARDS))
}

impl Telemetry {
    /// A fresh telemetry plane with the given journal capacity and
    /// slow-job threshold.
    pub fn new(journal_capacity: usize, slow_threshold_ns: u64) -> Self {
        let algo_exec = AlgorithmId::ALL
            .iter()
            .map(|a| a.name())
            .chain([OTHER_ALGORITHM])
            .map(|name| (name, ShardedHistogram::new(HIST_SHARDS)))
            .collect();
        Self {
            journal: EventJournal::new(journal_capacity),
            lane_queue: lane_histograms(),
            lane_exec: lane_histograms(),
            lane_wall: lane_histograms(),
            cached_wall: ShardedHistogram::new(HIST_SHARDS),
            algo_exec,
            update_incremental: ShardedHistogram::new(HIST_SHARDS),
            update_recomputed: ShardedHistogram::new(HIST_SHARDS),
            slow_threshold_ns,
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// The label a submission records its algorithm histogram under:
    /// the engine algorithm's name when it matches a catalog
    /// [`AlgorithmId`], `"other"` for custom algorithms (bounded label
    /// set — Prometheus series must not grow with tenant creativity).
    pub(crate) fn algo_label(engine_name: &str) -> &'static str {
        AlgorithmId::ALL
            .iter()
            .map(|a| a.name())
            .find(|n| *n == engine_name)
            .unwrap_or(OTHER_ALGORITHM)
    }

    /// The lifecycle event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The configured slow-job threshold, nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    // ---- lifecycle hooks (called by the service/dispatchers) ----

    /// Records a job entering the in-flight table at admission.
    pub(crate) fn on_admitted(&self, trace: TraceId, lane: u8, algorithm: &'static str) {
        let entry = InflightJob {
            trace,
            lane,
            algorithm,
            stage: "queued",
            team: None,
            submitted_t_ns: self.journal.now_ns(),
        };
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(trace.as_u64(), entry);
        self.journal
            .record_now(trace, JobEventKind::Admitted, Some(lane), None, None);
    }

    /// Marks an in-flight job as running on `team` and journals the
    /// start.
    pub(crate) fn on_started(&self, trace: TraceId, lane: u8, team: u32) {
        if let Some(job) = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&trace.as_u64())
        {
            job.stage = "running";
            job.team = Some(team);
        }
        self.journal
            .record_now(trace, JobEventKind::Started, Some(lane), Some(team), None);
    }

    /// Journals the job's end, removes it from the in-flight table,
    /// and — for completed executions — records the latency histograms
    /// and, past the threshold, the slow-job report. The team a job ran
    /// on is the one [`on_started`](Self::on_started) recorded in its
    /// in-flight entry; the outcome name follows from `result`.
    pub(crate) fn on_finished(
        &self,
        trace: TraceId,
        lane: u8,
        algorithm: &'static str,
        queue_ns: u64,
        exec_ns: u64,
        result: &Result<SpanningForest, JobError>,
    ) {
        let team = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&trace.as_u64())
            .and_then(|job| job.team);
        let outcome = match result {
            Err(err) => err.name(),
            Ok(forest) => {
                let lane_i = (lane as usize).min(QUEUE_LANES - 1);
                self.lane_queue[lane_i].record(queue_ns);
                self.lane_exec[lane_i].record(exec_ns);
                self.lane_wall[lane_i].record(queue_ns + exec_ns);
                if let Some((_, h)) = self.algo_exec.iter().find(|(n, _)| *n == algorithm) {
                    h.record(exec_ns);
                }
                let m = &forest.stats.metrics;
                // A hybrid run that executed any bottom-up round switched
                // direction at least once — worth a discrete event, since
                // switch behavior is exactly what distribution-level
                // telemetry exists to expose.
                let bu = m.get(st_obs::Counter::RoundsBottomUp);
                if bu > 0 {
                    let td = m.get(st_obs::Counter::RoundsTopDown);
                    self.journal.record_now(
                        trace,
                        JobEventKind::DirectionSwitched,
                        Some(lane),
                        team,
                        Some(format!("rounds_top_down={td},rounds_bottom_up={bu}")),
                    );
                }
                let wall_ns = queue_ns + exec_ns;
                if wall_ns >= self.slow_threshold_ns {
                    let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
                    if slow.len() >= SLOW_LOG_CAPACITY {
                        slow.pop_front();
                    }
                    slow.push_back(SlowJob {
                        trace,
                        wall_ns,
                        metrics_json: m.to_json(),
                    });
                }
                "completed"
            }
        };
        self.journal.record_now(
            trace,
            JobEventKind::Finished,
            Some(lane),
            team,
            Some(outcome.to_owned()),
        );
    }

    /// Records a submission resolved from the result cache (its wall
    /// latency goes to the dedicated cached series, not the execution
    /// histograms).
    pub(crate) fn on_cached(&self, trace: TraceId, lane: u8, wall_ns: u64) {
        self.cached_wall.record(wall_ns);
        self.journal.record_now(
            trace,
            JobEventKind::Finished,
            Some(lane),
            None,
            Some("cache_hit".to_owned()),
        );
    }

    /// Records one applied batch update's wall latency under the
    /// maintenance path that ran.
    pub(crate) fn on_update(&self, incremental: bool, wall_ns: u64) {
        if incremental {
            self.update_incremental.record(wall_ns);
        } else {
            self.update_recomputed.record(wall_ns);
        }
    }

    // ---- read side (HTTP observability plane, tests, bench) ----

    /// p50/p99 of completed-job wall latency across all lanes,
    /// nanoseconds (0 when nothing completed) — the server-side numbers
    /// the bench report pairs with its client-side stopwatch.
    pub fn wall_quantiles(&self) -> (u64, u64) {
        let mut merged = self.lane_wall[0].snapshot();
        for lane in &self.lane_wall[1..] {
            merged.merge(&lane.snapshot());
        }
        (merged.quantile(0.50), merged.quantile(0.99))
    }

    /// The latency histogram families for the Prometheus page.
    pub fn histogram_families(&self) -> Vec<HistogramFamily> {
        let lane_series = |hists: &[ShardedHistogram; QUEUE_LANES]| -> Vec<HistogramSeries> {
            hists
                .iter()
                .zip(LANE_NAMES)
                .map(|(h, name)| HistogramSeries {
                    labels: vec![("lane", name.to_owned())],
                    snapshot: h.snapshot(),
                })
                .collect()
        };
        vec![
            HistogramFamily {
                name: "st_service_job_queue_seconds",
                help: "Queue wait of completed jobs, by priority lane.",
                series: lane_series(&self.lane_queue),
            },
            HistogramFamily {
                name: "st_service_job_exec_seconds",
                help: "Execution time of completed jobs, by priority lane.",
                series: lane_series(&self.lane_exec),
            },
            HistogramFamily {
                name: "st_service_job_wall_seconds",
                help: "End-to-end latency (queue + exec) of completed jobs, by priority lane.",
                series: lane_series(&self.lane_wall),
            },
            HistogramFamily {
                name: "st_service_update_seconds",
                help: "Wall latency of applied batch updates, by maintenance mode.",
                series: vec![
                    HistogramSeries {
                        labels: vec![("mode", "incremental".to_owned())],
                        snapshot: self.update_incremental.snapshot(),
                    },
                    HistogramSeries {
                        labels: vec![("mode", "recomputed".to_owned())],
                        snapshot: self.update_recomputed.snapshot(),
                    },
                ],
            },
            HistogramFamily {
                name: "st_service_cached_wall_seconds",
                help: "End-to-end latency of submissions served from the result cache.",
                series: vec![HistogramSeries {
                    labels: Vec::new(),
                    snapshot: self.cached_wall.snapshot(),
                }],
            },
            HistogramFamily {
                name: "st_service_algo_exec_seconds",
                help: "Execution time of completed jobs, by algorithm.",
                series: self
                    .algo_exec
                    .iter()
                    .map(|(name, h)| HistogramSeries {
                        labels: vec![("algorithm", (*name).to_owned())],
                        snapshot: h.snapshot(),
                    })
                    .collect(),
            },
        ]
    }

    /// The in-flight table as a JSON array (sorted by trace id so the
    /// output is stable).
    pub fn inflight_json(&self) -> String {
        let mut jobs: Vec<InflightJob> = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        jobs.sort_by_key(|j| j.trace);
        let mut out = String::with_capacity(64 + jobs.len() * 128);
        out.push('[');
        for (i, j) in jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":\"{}\",\"lane\":{},\"algorithm\":\"{}\",\"stage\":\"{}\",",
                j.trace, j.lane, j.algorithm, j.stage
            ));
            match j.team {
                Some(t) => out.push_str(&format!("\"team\":{t},")),
                None => out.push_str("\"team\":null,"),
            }
            out.push_str(&format!("\"submitted_t_ns\":{}}}", j.submitted_t_ns));
        }
        out.push(']');
        out
    }

    /// Jobs currently admitted but unresolved.
    pub fn inflight_len(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Recent slow-job reports, oldest first.
    pub fn slow_jobs(&self) -> Vec<SlowJob> {
        self.slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The slow-job log as a JSON array (each entry embeds the job's
    /// full pre-rendered metrics report).
    pub fn slow_jobs_json(&self) -> String {
        let slow = self.slow_jobs();
        let mut out = String::with_capacity(64 + slow.len() * 256);
        out.push('[');
        for (i, s) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":\"{}\",\"wall_ns\":{},\"metrics\":",
                s.trace, s.wall_ns
            ));
            out.push_str(&s.metrics_json);
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Escapes `s` as a JSON string body (re-exported convenience for the
/// HTTP layer's error payloads).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    escape_json_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::AlgoStats;
    use st_obs::JobMetrics;

    fn completed(metrics: JobMetrics) -> Result<SpanningForest, JobError> {
        Ok(SpanningForest {
            parents: Vec::new(),
            roots: Vec::new(),
            stats: AlgoStats {
                metrics,
                ..AlgoStats::default()
            },
        })
    }

    #[test]
    fn algo_labels_are_bounded() {
        assert_eq!(Telemetry::algo_label("bader-cong"), "bader-cong");
        assert_eq!(Telemetry::algo_label("sv"), "sv");
        assert_eq!(Telemetry::algo_label("my-custom-algo"), "other");
        assert_eq!(Telemetry::algo_label(""), "other");
    }

    #[test]
    fn completed_jobs_feed_histograms_and_inflight_drains() {
        let t = Telemetry::new(64, u64::MAX);
        let id = TraceId::mint();
        t.on_admitted(id, 0, "bader-cong");
        assert_eq!(t.inflight_len(), 1);
        t.on_started(id, 0, 2);
        t.on_finished(
            id,
            0,
            "bader-cong",
            1_000_000,
            4_000_000,
            &completed(JobMetrics::default()),
        );
        assert_eq!(t.inflight_len(), 0);
        let (p50, p99) = t.wall_quantiles();
        assert!(p50 >= 5_000_000, "wall = queue + exec, p50 = {p50}");
        assert!(p99 >= p50);
        let families = t.histogram_families();
        let wall = families
            .iter()
            .find(|f| f.name == "st_service_job_wall_seconds")
            .unwrap();
        let high = &wall.series[0];
        assert_eq!(high.labels, vec![("lane", "high".to_owned())]);
        assert_eq!(high.snapshot.count, 1);
        let algo = families
            .iter()
            .find(|f| f.name == "st_service_algo_exec_seconds")
            .unwrap();
        let bc = algo
            .series
            .iter()
            .find(|s| s.labels[0].1 == "bader-cong")
            .unwrap();
        assert_eq!(bc.snapshot.count, 1);
    }

    #[test]
    fn non_completed_outcomes_skip_latency_histograms() {
        let t = Telemetry::new(64, u64::MAX);
        let id = TraceId::mint();
        t.on_admitted(id, 1, "sv");
        t.on_finished(id, 1, "sv", 500, 0, &Err(JobError::Cancelled));
        assert_eq!(t.wall_quantiles(), (0, 0));
        assert_eq!(t.inflight_len(), 0);
    }

    #[test]
    fn cached_hits_use_their_own_series() {
        let t = Telemetry::new(64, u64::MAX);
        let id = TraceId::mint();
        t.on_cached(id, 1, 2_000);
        assert_eq!(t.wall_quantiles(), (0, 0), "cache hits stay out of wall");
        let families = t.histogram_families();
        let cached = families
            .iter()
            .find(|f| f.name == "st_service_cached_wall_seconds")
            .unwrap();
        assert_eq!(cached.series[0].snapshot.count, 1);
        let events = t.journal().events_for(id);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail.as_deref(), Some("cache_hit"));
    }

    #[test]
    fn slow_jobs_keep_full_metrics() {
        let t = Telemetry::new(64, 1_000_000); // 1ms threshold
        let fast = TraceId::mint();
        let slow = TraceId::mint();
        let m = JobMetrics {
            trace_id: slow.as_u64(),
            p: 2,
            ..JobMetrics::default()
        };
        t.on_finished(fast, 0, "hcs", 100, 100, &completed(m.clone()));
        t.on_finished(slow, 0, "hcs", 1_000_000, 5_000_000, &completed(m));
        let reports = t.slow_jobs();
        assert_eq!(reports.len(), 1, "only the slow job is kept");
        assert_eq!(reports[0].trace, slow);
        assert_eq!(reports[0].wall_ns, 6_000_000);
        assert!(reports[0].metrics_json.contains("\"trace_id\""));
        let json = t.slow_jobs_json();
        assert!(json.starts_with('['));
        serde_json::parse_value(&json).expect("slow-job JSON parses");
    }

    #[test]
    fn inflight_json_is_valid() {
        let t = Telemetry::new(64, u64::MAX);
        let a = TraceId::mint();
        let b = TraceId::mint();
        t.on_admitted(a, 0, "bader-cong");
        t.on_admitted(b, 2, "other");
        t.on_started(b, 2, 1);
        let json = t.inflight_json();
        let v = serde_json::parse_value(&json).expect("inflight JSON parses");
        match v {
            serde::Value::Array(jobs) => assert_eq!(jobs.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        assert!(json.contains("\"stage\":\"queued\""));
        assert!(json.contains("\"stage\":\"running\""));
        assert!(json.contains("\"team\":1"));
    }

    #[test]
    fn direction_switch_is_journaled() {
        let t = Telemetry::new(64, u64::MAX);
        let id = TraceId::mint();
        let mut m = JobMetrics::default();
        // Simulate a hybrid run with both directions exercised.
        let set = st_obs::CounterSet::new(1);
        set.rank(0).add(st_obs::Counter::RoundsTopDown, 3);
        set.rank(0).add(st_obs::Counter::RoundsBottomUp, 2);
        m.totals = set.merged();
        t.on_finished(id, 1, "sv", 10, 10, &completed(m));
        let events = t.journal().events_for(id);
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![JobEventKind::DirectionSwitched, JobEventKind::Finished],
            "switch event precedes the finish"
        );
        assert!(events[0]
            .detail
            .as_deref()
            .unwrap()
            .contains("rounds_bottom_up=2"));
    }
}
