//! The wire path, measured as a side probe of the traced small_jobs
//! run: a loopback `net::Client` repeats one (graph, seed) key, so after
//! the first request every job is a result-cache hit and the time is
//! the wire layer's and the cache's. It is not an end-to-end workload:
//! on a two-core host its throughput split into placement-dependent
//! modes (0.030 ms against 0.045 ms p50 between runs of the same code).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use st_graph::CsrGraph;
use st_service::net::{Client, RemoteForest, RemoteGraph, Server, ServerConfig, SubmitRequest};
use st_service::Service;

use super::{check_forest, Tally};
use crate::report::Metrics;
use crate::stats;
use crate::trace::{SpanId, SpanLog};

/// How long the probe repeats its key.
const PROBE: Duration = Duration::from_secs(2);

/// Serves `svc` on a loopback port, registers `g` over the wire and
/// repeats one cached key for [`PROBE`]; checks every reply.
pub fn probe(
    svc: &Arc<Service>,
    g: &CsrGraph,
    components: usize,
    log: &mut SpanLog,
    tally: &mut Tally,
    layers: &mut Metrics,
) {
    let cfg = ServerConfig {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(svc), cfg).expect("binding a loopback port");
    let mut client = Client::connect(server.local_addr()).expect("connecting over loopback");
    let remote = client.register(g).expect("registering over the wire");
    // The first request executes and fills the cache; its forest is the
    // reference every later hit must return.
    let reference = remote_job(&mut client, remote, log, None, 0);
    let checked = match &reference {
        Ok((f, _)) => check_forest(g, &f.parents, f.num_trees(), components),
        Err(e) => Err(e.clone()),
    };
    tally.record(checked);
    let started = Instant::now();
    let (mut request, mut hits) = (1, 0);
    while started.elapsed() < PROBE {
        let op = log.open("net.op", None, request);
        let result = remote_job(&mut client, remote, log, op, request);
        log.close(op);
        hits += u64::from(matches!(result, Ok((_, true))));
        tally.record(match (result, &reference) {
            (Ok((f, true)), Ok((r, _))) if f == *r => Ok(()),
            (Ok((f, _)), _) => check_forest(g, &f.parents, f.num_trees(), components),
            (Err(e), _) => Err(e),
        });
        request += 1;
    }
    drop(client);
    server.shutdown();

    let submit = log.durations_ms("net.submit");
    layers.set("net.jobs", submit.len() as f64);
    layers.set(
        "net.cache_hit_frac",
        hits as f64 / (request - 1).max(1) as f64,
    );
    if let Some(v) = stats::p50(&submit) {
        layers.set("net.submit_us.p50", v * 1e3);
    }
    if let Some(v) = stats::p50(&log.durations_ms("net.wait")) {
        layers.set("net.wait_us.p50", v * 1e3);
    }
}

/// One remote job: SUBMIT then WAIT, with a span around each round
/// trip. Returns the forest and whether the server answered from its
/// cache.
fn remote_job(
    client: &mut Client,
    remote: RemoteGraph,
    log: &mut SpanLog,
    parent: SpanId,
    request: u64,
) -> Result<(RemoteForest, bool), String> {
    let s = log.open("net.submit", parent, request);
    let reply = client.submit(SubmitRequest::new(remote).seed(1));
    log.close(s);
    let reply = reply.map_err(|e| format!("SUBMIT failed: {e}"))?;
    let w = log.open("net.wait", parent, request);
    let forest = client.wait(reply.ticket);
    log.close(w);
    let forest = forest.map_err(|e| format!("WAIT failed: {e}"))?;
    Ok((forest, reply.cached))
}
