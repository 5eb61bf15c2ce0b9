//! bulk_random: one client submits catalog jobs on one large irregular
//! low-diameter graph, each with a fresh seed so every job misses the
//! result cache. The kernel is nearly all of each job's wall time.

use std::sync::Arc;
use std::time::Instant;

use st_graph::validate::count_components;
use st_service::JobSpec;

use super::{
    check_job, closed_loop, merge, probe_core, probe_resolve, record_pool, record_service_spans,
    record_setup, repeat_setup, secs_since, service, service_job, Ctx, Done, Outcome, SetupParts,
    Tally,
};
use crate::inputs::{self, job_seed};
use crate::report::Metrics;
use crate::stats;
use crate::trace::SpanLog;

/// Runs bulk_random.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut warm = Vec::new();
    let ((svc, id, g), setup_s, parts) = repeat_setup(|| {
        let mut p = SetupParts::default();
        let t = Instant::now();
        let g = Arc::new(inputs::bulk_random(ctx.seed));
        p.gen = secs_since(t);
        let t = Instant::now();
        let svc = service(ctx.width);
        p.start = secs_since(t);
        let t = Instant::now();
        let id = svc.catalog().register(Arc::clone(&g)).id;
        p.register = secs_since(t);
        let t = Instant::now();
        let spec = JobSpec::new(id).seed(job_seed(ctx.seed, 9, warm.len() as u64));
        warm.push(svc.submit_spec(spec).and_then(|s| s.handle.wait()));
        p.warmup = secs_since(t);
        ((svc, id, g), p)
    });
    // The oracle, computed once outside every timed interval.
    let components = count_components(&g);
    for w in &warm {
        tally.record(check_job(&g, w, components));
    }
    drop(warm);

    let before = svc.snapshot();
    let start = Instant::now();
    let client = closed_loop(ctx, 1, start, |j, log| {
        let op = log.open("op", None, j);
        let t = Instant::now();
        let result = service_job(
            &svc,
            JobSpec::new(id).seed(job_seed(ctx.seed, 0, j)),
            log,
            op,
            j,
        );
        let latency = t.elapsed();
        let at = Instant::now();
        log.close(op);
        let c = log.open("bench.check", None, j);
        let check = check_job(&g, &result, components);
        log.close(c);
        Done { at, latency, check }
    });
    let after = svc.snapshot();
    let peak_rss_mb = crate::host::peak_rss_mb();

    let mut layers = Metrics::default();
    let mut log = SpanLog::new(ctx.trace, ctx.origin, 0);
    record_setup(&mut layers, parts);
    record_pool(&mut layers, &before, &after);
    if ctx.trace {
        probe_resolve(&svc, &[id], &mut log, &mut layers);
    }
    drop(svc);
    let job_p50 = stats::p50(&client.ops_ms().collect::<Vec<_>>());
    if ctx.trace {
        probe_core(
            ctx,
            &[(g, components)],
            job_p50,
            &mut log,
            &mut tally,
            &mut layers,
        );
    }
    let mut out = merge(vec![client], setup_s, peak_rss_mb, tally, layers, log);
    record_service_spans(&out.log, &mut out.layers);
    out
}
