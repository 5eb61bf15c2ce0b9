//! update_stream: one client applies 64-edge batches with
//! `Service::apply` and, after every fourth, reads the latest version's
//! forest. Writes beside reads: the dynamic layer does all its work
//! here and none elsewhere, and each read runs the kernel on a freshly
//! materialised CSR.

use std::sync::Arc;
use std::time::Instant;

use st_core::seq;
use st_graph::validate::count_components;
use st_graph::EdgeBatch;
use st_service::{JobSpec, UpdateReport};

use super::{
    check_forest, closed_loop, merge, probe_core, record_pool, record_service_spans, record_setup,
    repeat_setup, secs_since, service, service_job, Ctx, Done, Outcome, SetupParts, Tally,
};
use crate::inputs::{self, job_seed, UpdateStream, BATCH_EDGES, READ_EVERY};
use crate::report::Metrics;
use crate::stats;
use crate::trace::SpanLog;

/// Runs update_stream.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut seeded = Vec::new();
    let ((svc, id, g0), setup_s, parts) = repeat_setup(|| {
        let mut p = SetupParts::default();
        let t = Instant::now();
        let g = Arc::new(inputs::update_graph(ctx.seed));
        p.gen = secs_since(t);
        let t = Instant::now();
        let svc = service(ctx.width);
        p.start = secs_since(t);
        let t = Instant::now();
        let id = svc.catalog().register(Arc::clone(&g)).id;
        p.register = secs_since(t);
        // The first apply seeds the incremental maintainer with a full
        // static run; an empty batch changes no edge.
        let t = Instant::now();
        seeded.push(svc.apply(id, &EdgeBatch::new()));
        p.seed = secs_since(t);
        ((svc, id, g), p)
    });
    let components0 = count_components(&g0);
    for r in seeded.drain(..) {
        tally.record(match r {
            Ok(r) if r.components == components0 => Ok(()),
            Ok(r) => Err(format!(
                "seeded {} components, oracle has {components0}",
                r.components
            )),
            Err(e) => Err(format!("seeding apply failed: {e}")),
        });
    }
    let mut stream = UpdateStream::new(&g0, ctx.seed);
    drop(g0);

    let mut reports: Vec<(f64, UpdateReport)> = Vec::new();
    let mut reads_ms = Vec::new();
    let mut resolve_ms = Vec::new();
    let mut read_tally = Tally::default();
    let before = svc.snapshot();
    let start = Instant::now();
    let client = closed_loop(ctx, 1, start, |j, log| {
        let batch = stream.next_batch();
        let op = log.open("op", None, j);
        let t = Instant::now();
        let a = log.open("service.apply", op, j);
        let result = svc.apply(id, &batch);
        log.close(a);
        let latency = t.elapsed();
        let at = Instant::now();
        log.close(op);
        let check = match result {
            Ok(r) => {
                let ok = r.outcome.edges_added == BATCH_EDGES / 2
                    && r.outcome.edges_removed == BATCH_EDGES / 2;
                let check = if ok {
                    Ok(())
                } else {
                    Err(format!(
                        "batch changed {:?}, expected {} each way",
                        r.outcome,
                        BATCH_EDGES / 2
                    ))
                };
                reports.push((latency.as_secs_f64() * 1e3, r));
                check
            }
            Err(e) => Err(format!("apply failed: {e}")),
        };
        if ctx.trace && j % READ_EVERY == 1 {
            // Traced run only: delta materialisation, on a version no
            // read follows, so the probe's memoised CSR never serves a
            // timed read.
            let s = log.open("catalog.resolve_latest", None, j);
            let t = Instant::now();
            let resolved = svc.catalog().resolve_latest(id);
            resolve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(s);
            assert!(resolved.is_some(), "the update graph stays registered");
        }
        if j % READ_EVERY == READ_EVERY - 1 {
            let k = j / READ_EVERY;
            let read = log.open("read", None, j);
            let t = Instant::now();
            let forest = service_job(
                &svc,
                JobSpec::new(id).seed(job_seed(ctx.seed, 0, k)),
                log,
                read,
                j,
            );
            reads_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(read);
            let c = log.open("bench.check", None, j);
            read_tally.record(check_read(
                &svc,
                id,
                &forest,
                reports.last().map(|(_, r)| r),
            ));
            log.close(c);
        }
        Done { at, latency, check }
    });
    let after = svc.snapshot();
    let peak_rss_mb = crate::host::peak_rss_mb();

    // The maintained component count must match BFS on the materialised
    // last version.
    let (last, _) = svc
        .catalog()
        .resolve_latest(id)
        .expect("the update graph stays registered");
    let bfs_trees = seq::bfs_forest(&last).roots.len();
    tally.record(match reports.last() {
        Some((_, r)) if r.components == bfs_trees => Ok(()),
        Some((_, r)) => Err(format!(
            "maintained {} components, BFS finds {bfs_trees}",
            r.components
        )),
        None => Err("no batch completed".to_owned()),
    });
    tally.absorb(read_tally);

    let mut layers = Metrics::default();
    let mut log = SpanLog::new(ctx.trace, ctx.origin, 0);
    record_setup(&mut layers, parts);
    record_pool(&mut layers, &before, &after);
    record_dynamic(&mut layers, &reports, &reads_ms);
    if let Some(v) = stats::p50(&resolve_ms) {
        layers.set("catalog.resolve_ms.p50", v);
    }
    drop(svc);
    if ctx.trace {
        let components = count_components(&last);
        probe_core(
            ctx,
            &[(last, components)],
            stats::p50(&reads_ms),
            &mut log,
            &mut tally,
            &mut layers,
        );
    }
    let mut out = merge(vec![client], setup_s, peak_rss_mb, tally, layers, log);
    record_service_spans(&out.log, &mut out.layers);
    out
}

/// A read is right when it ran on the version the last batch produced
/// and its forest spans that version with the maintained number of trees,
/// which is also the oracle's.
fn check_read(
    svc: &st_service::Service,
    id: st_service::GraphId,
    forest: &Result<st_core::SpanningForest, st_service::JobError>,
    last: Option<&UpdateReport>,
) -> Result<(), String> {
    let forest = forest.as_ref().map_err(|e| format!("read failed: {e}"))?;
    let last = last.ok_or("read before any batch")?;
    let (g, gref) = svc
        .catalog()
        .resolve_latest(id)
        .ok_or("update graph vanished")?;
    if gref != last.graph {
        return Err(format!(
            "read saw {gref:?}, last batch made {:?}",
            last.graph
        ));
    }
    if forest.roots.len() != last.components {
        return Err(format!(
            "read found {} trees, the maintainer {}",
            forest.roots.len(),
            last.components
        ));
    }
    check_forest(
        &g,
        &forest.parents,
        forest.roots.len(),
        count_components(&g),
    )
}

/// The dynamic layer's figures over the measured phase.
fn record_dynamic(layers: &mut Metrics, reports: &[(f64, UpdateReport)], reads_ms: &[f64]) {
    let batches = reports.len() as f64;
    layers.set("dynamic.batches", batches);
    if reports.is_empty() {
        return;
    }
    let (inc, rec): (Vec<_>, Vec<_>) = reports.iter().partition(|(_, r)| r.incremental);
    let ms = |v: &[&(f64, UpdateReport)]| v.iter().map(|(ms, _)| *ms).collect::<Vec<_>>();
    layers.set("dynamic.incremental_frac", inc.len() as f64 / batches);
    if let Some(v) = stats::p50(&ms(&inc)) {
        layers.set("dynamic.incremental_ms.p50", v);
    }
    if let Some(v) = stats::p50(&ms(&rec)) {
        layers.set("dynamic.recompute_ms.p50", v);
    }
    let per_batch = |f: fn(&UpdateReport) -> usize| {
        reports.iter().map(|(_, r)| f(r)).sum::<usize>() as f64 / batches
    };
    layers.set(
        "dynamic.replacements_per_batch",
        per_batch(|r| r.stats.replacements),
    );
    layers.set(
        "dynamic.tree_splits_per_batch",
        per_batch(|r| r.stats.tree_splits),
    );
    if let Some(v) = stats::p50(reads_ms) {
        layers.set("dynamic.read_ms.p50", v);
    }
}
