//! Decision-provenance tracing end to end: run a small multi-container
//! scenario, then answer the operator questions — *why does this
//! container see N CPUs?* — straight from the trace ring, and dump the
//! daemon's Prometheus-style exposition.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_telemetry::Tracer;

fn spec(tag: u32) -> ContainerSpec {
    ContainerSpec::new(format!("tenant-{tag}"), 20)
        .cpus(10.0)
        .cpu_shares(1024)
        .memory(Bytes::from_mib(4096))
        .memory_reservation(Bytes::from_mib(1024))
}

fn main() {
    // One trace ring shared by the whole pipeline: the monitor, the
    // watchdog and the serving daemon all emit into it.
    let tracer = Tracer::bounded(4096);
    let mut host = SimHost::paper_testbed();
    host.set_tracer(tracer.clone());

    let ids: Vec<CgroupId> = (0..3).map(|i| host.launch(&spec(i))).collect();

    // Everyone busy: Algorithm 1 walks each view down to the fair share.
    for _ in 0..6 {
        let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
        host.step(&demands);
    }
    // Background load departs: tenant-0 alone grows back to its quota.
    for _ in 0..8 {
        let demands = vec![host.demand(ids[0], 20)];
        host.step(&demands);
    }
    // Memory pressure: tenant-0 charges past 90% of its view, the view
    // grows; then a hog drives host free memory below the watermark and
    // the grown view resets to the soft limit.
    host.charge(ids[0], Bytes::from_mib(980));
    for _ in 0..2 {
        let demands = vec![host.demand(ids[0], 20)];
        host.step(&demands);
    }
    let hog = host.launch(&ContainerSpec::new("hog", 20).cpus(2.0).cpu_shares(512));
    host.charge(hog, Bytes::from_mib(129_000));
    for _ in 0..2 {
        let demands = vec![host.demand(ids[0], 20)];
        host.step(&demands);
    }

    // A few queries against the daemon so the exposition has traffic.
    let client = host.viewd().expect("viewd attached").client();
    for id in &ids {
        client.read(Some(*id), "/proc/cpuinfo").expect("renderable");
        client.read(Some(*id), "/proc/meminfo").expect("renderable");
    }

    println!("== why does tenant-0 see what it sees? ==");
    print!("{}", tracer.render_explain(ids[0]));

    println!("\n== tenant-0 grow-then-reset timeline ==");
    print!("{}", tracer.render_timeline(ids[0]));

    println!("\n== full pipeline trace (all containers) ==");
    print!("{}", tracer.render_full());

    println!("\n== arv-viewd exposition (scrape endpoint body) ==");
    print!(
        "{}",
        host.viewd()
            .expect("viewd attached")
            .prometheus_exposition()
    );
}
