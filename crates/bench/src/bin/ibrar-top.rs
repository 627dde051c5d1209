//! `ibrar-top` — live terminal dashboard for a running serve endpoint.
//!
//! Polls the server's admin opcodes (Health + Metrics/Json) over the
//! ordinary binary protocol — no HTTP, no extra dependency — and renders
//! QPS, queue depth, the batch-size distribution, per-stage latency
//! quantiles, and per-status counters in place:
//!
//! ```sh
//! cargo run --release --bin serve -- --listen 127.0.0.1:7878 &
//! cargo run --release --bin ibrar-top -- 127.0.0.1:7878
//! cargo run --release --bin ibrar-top -- 127.0.0.1:7878 --once   # one frame
//! cargo run --release --bin ibrar-top -- 127.0.0.1:7878 --flight # dump ring
//! ```
//!
//! QPS is the protocol-request counter delta between polls; everything else
//! comes straight out of the typed [`Snapshot`] the server serialized.

use ibrar_serve::{Client, HealthReport, MetricsFormat};
use ibrar_telemetry::{HistogramSummary, Snapshot};
use std::time::{Duration, Instant};

type DynResult<T> = Result<T, Box<dyn std::error::Error>>;

fn usage() -> ! {
    eprintln!(
        "usage: ibrar-top ADDR [--interval MS] [--once | --flight]\n\
         \n\
         ADDR           serve endpoint, e.g. 127.0.0.1:7878\n\
         --interval MS  polling period (default 1000)\n\
         --once         print a single frame and exit (no screen clearing)\n\
         --flight       dump the flight recorder (recent + SLO breaches) as JSON and exit"
    );
    std::process::exit(2);
}

/// One poll: health + full metrics snapshot.
struct Frame {
    health: HealthReport,
    snap: Snapshot,
    at: Instant,
}

fn poll(client: &mut Client) -> DynResult<Frame> {
    let health = client.health()?;
    let snap = Snapshot::from_json(&client.metrics(MetricsFormat::Json)?)?;
    Ok(Frame {
        health,
        snap,
        at: Instant::now(),
    })
}

fn fmt_ms(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v >= 100.0 {
        format!("{v:.0}ms")
    } else if v >= 1.0 {
        format!("{v:.2}ms")
    } else {
        format!("{:.0}µs", v * 1e3)
    }
}

fn stage_row(out: &mut String, name: &str, h: Option<&HistogramSummary>) {
    match h {
        Some(h) => out.push_str(&format!(
            "  {name:<10} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
            fmt_ms(h.p50),
            fmt_ms(h.p99),
            fmt_ms(h.p999),
            fmt_ms(h.max),
            h.count
        )),
        None => out.push_str(&format!(
            "  {name:<10} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
            "-", "-", "-", "-", 0
        )),
    }
}

fn render(addr: &str, frame: &Frame, prev: Option<&Frame>) -> String {
    let h = &frame.health;
    let s = &frame.snap;
    let requests = s.counter("serve.proto.requests").unwrap_or(0);
    let qps = prev
        .map(|p| {
            let dt = frame.at.duration_since(p.at).as_secs_f64().max(1e-9);
            let dr = requests.saturating_sub(p.snap.counter("serve.proto.requests").unwrap_or(0));
            dr as f64 / dt
        })
        .unwrap_or(f64::NAN);

    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "ibrar-top — {addr}   up {:.0}s   engines {}   queue depth {}\n",
        h.uptime_ms as f64 / 1e3,
        h.engines,
        h.queue_depth
    ));
    out.push_str(&format!(
        "requests {requests}   qps {}   inference {}   batches {}   slo breaches {}\n",
        if qps.is_nan() {
            "-".into()
        } else {
            format!("{qps:.1}")
        },
        s.counter("serve.requests").unwrap_or(0),
        s.counter("serve.batches").unwrap_or(0),
        s.counter("serve.slo_breaches").unwrap_or(0),
    ));
    out.push_str(&format!(
        "rejected: queue_full {}  deadline {}  proto errors {}\n\n",
        s.counter("serve.rejected.queue_full").unwrap_or(0),
        s.counter("serve.rejected.deadline").unwrap_or(0),
        s.counter("serve.proto.errors").unwrap_or(0),
    ));

    out.push_str(&format!(
        "  {:<10} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
        "stage", "p50", "p99", "p999", "max", "count"
    ));
    for (label, name) in [
        ("queue", "serve.stage.queue_ms"),
        ("batch", "serve.stage.batch_ms"),
        ("forward", "serve.stage.forward_ms"),
        ("encode", "serve.stage.encode_ms"),
        ("request", "serve.request_ms"),
    ] {
        stage_row(&mut out, label, s.histogram(name));
    }

    if let Some(b) = s.histogram("serve.batch_size") {
        out.push_str(&format!(
            "\nbatch size: n={} mean={:.2} p50={:.1} p95={:.1} max={:.0}\n",
            b.count, b.mean, b.p50, b.p95, b.max
        ));
    }
    fleet_section(&mut out, s);
    out
}

/// Replica-fleet panel, present once the server has a
/// [`ReplicaPool`](ibrar_serve::ReplicaPool): replica rows are discovered
/// by scanning the snapshot for the per-replica dispatch counters and
/// queue/in-flight gauges, so the panel tracks fleet size without a
/// protocol change.
fn fleet_section(out: &mut String, s: &Snapshot) {
    let mut ids: Vec<usize> = s
        .counters
        .iter()
        .filter_map(|(name, _)| name.strip_prefix("serve.pool.dispatch.r"))
        .chain(s.gauges.iter().filter_map(|(name, _)| {
            name.strip_prefix("serve.replica.r")
                .and_then(|rest| rest.split('.').next())
        }))
        .filter_map(|id| id.parse().ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return;
    }
    out.push_str(&format!(
        "\nfleet: replicas {}   shed {}   failover {}\n",
        ids.len(),
        s.counter("serve.pool.shed").unwrap_or(0),
        s.counter("serve.pool.failover").unwrap_or(0),
    ));
    out.push_str(&format!(
        "  {:<8} {:>11} {:>7} {:>10}\n",
        "replica", "dispatched", "queue", "in-flight"
    ));
    for id in ids {
        let gauge = |suffix: &str| {
            s.gauge(&format!("serve.replica.r{id}.{suffix}"))
                .map_or("-".into(), |v| format!("{v:.0}"))
        };
        out.push_str(&format!(
            "  r{id:<7} {:>11} {:>7} {:>10}\n",
            s.counter(&format!("serve.pool.dispatch.r{id}"))
                .unwrap_or(0),
            gauge("queue_depth"),
            gauge("in_flight"),
        ));
    }
}

fn main() -> DynResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::new();
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut flight = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => once = true,
            "--flight" => flight = true,
            "--interval" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(ms.max(50));
            }
            a if !a.starts_with('-') && addr.is_empty() => addr = a.to_string(),
            _ => usage(),
        }
        i += 1;
    }
    if addr.is_empty() {
        usage();
    }

    let mut client = Client::connect(&*addr)?;
    client.set_timeout(Some(Duration::from_secs(5)))?;

    if flight {
        println!("{}", client.metrics(MetricsFormat::Flight)?);
        return Ok(());
    }

    let mut prev: Option<Frame> = None;
    loop {
        let frame = poll(&mut client)?;
        let body = render(&addr, &frame, prev.as_ref());
        if once {
            print!("{body}");
            return Ok(());
        }
        // Clear + home, then repaint in place.
        print!("\x1b[2J\x1b[H{body}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        prev = Some(frame);
        std::thread::sleep(interval);
    }
}
