//! Quickstart: build a host, launch containers, and watch the resource
//! view close the semantic gap.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use arv_cgroups::Bytes;
use arv_container::{ContainerSpec, SimHost};
use arv_resview::Sysconf;

fn main() {
    // The paper's testbed: 20 cores, 128 GB of memory.
    let mut host = SimHost::paper_testbed();

    // Five containers, each limited to 10 CPUs with equal shares — the
    // running example of §2.2.
    let ids: Vec<_> = (0..5)
        .map(|i| {
            host.launch(
                &ContainerSpec::new(format!("app-{i}"), 20)
                    .cpus(10.0)
                    .memory(Bytes::from_gib(4))
                    .memory_reservation(Bytes::from_gib(2)),
            )
        })
        .collect();

    println!("== before load ==");
    show(&host, ids[0]);

    // Saturate all five containers for a second of simulated time.
    println!("\n== all five containers saturated ==");
    for _ in 0..50 {
        let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
        host.step(&demands);
    }
    show(&host, ids[0]);
    println!("(5 containers share 20 cores -> 4 effective CPUs each)");

    // Four containers go idle: work conservation lets the survivor expand.
    println!("\n== four containers idle, one saturated ==");
    for _ in 0..50 {
        let demands = vec![host.demand(ids[0], 20)];
        host.step(&demands);
    }
    show(&host, ids[0]);
    println!("(idle neighbours -> the view grows to the 10-CPU quota)");

    // A naive application probing the host would size for 20 CPUs and
    // 32 GB of heap; through the virtual sysfs it sees its real share.
    println!("\n== what resource probing returns ==");
    println!(
        "host process:      {} CPUs, {:5.1} GiB memory",
        host.sysconf(None, Sysconf::NprocessorsOnln),
        Bytes(host.sysconf(None, Sysconf::PhysPages) * arv_resview::PAGE_SIZE).as_gib_f64(),
    );
    println!(
        "inside container:  {} CPUs, {:5.1} GiB memory",
        host.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln),
        Bytes(host.sysconf(Some(ids[0]), Sysconf::PhysPages) * arv_resview::PAGE_SIZE).as_gib_f64(),
    );
    println!(
        "virtual sysfs:     /sys/devices/system/cpu/online = {:?}",
        host.sysfs()
            .read(Some(ids[0]), "/sys/devices/system/cpu/online")
            .unwrap()
            .image
    );
}

fn show(host: &SimHost, id: arv_cgroups::CgroupId) {
    let ns = host.monitor().namespace(id).unwrap();
    println!(
        "container {:?}: effective CPU = {} (bounds {}..={}), effective memory = {}",
        host.container_name(id).unwrap(),
        ns.effective_cpu(),
        ns.cpu_bounds().lower,
        ns.cpu_bounds().upper,
        ns.effective_memory(),
    );
}
