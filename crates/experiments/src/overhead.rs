//! §5.4 overhead: the cost of updating a `sys_namespace` and of querying
//! effective resources from user space.
//!
//! The paper reports ~1 µs per namespace update and 5 µs / 100 µs per
//! effective-CPU / effective-memory `sysconf` query (theirs crosses the
//! kernel; ours is an in-process atomic read, so expect much lower
//! query numbers — the point is that both paths are far below the 24 ms
//! update period). `arv-benchmark` measures the same paths with
//! reference-scaled medians (`core.apply_ns`, `core.snapshot_ns`) and
//! the served path behind them (`server.sysconf_ns`, `wire.rtt_p50_us`);
//! this runner gives a quick wall-clock estimate for the text report.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::effective_cpu::{CpuBounds, CpuSample};
use arv_resview::effective_mem::{EffectiveMemory, EffectiveMemoryConfig, MemSample};
use arv_resview::live::{LiveRegistry, LiveSample};
use arv_resview::EffectiveCpuConfig;
use arv_sim_core::SimDuration;
use std::time::Instant;

use crate::report::{FigReport, Row, Table};

fn sample() -> LiveSample {
    let t = SimDuration::from_millis(24);
    LiveSample {
        cpu: CpuSample {
            usage: t * 4,
            period: t,
            slack: t,
        },
        mem: MemSample {
            free: Bytes::from_gib(64),
            usage: Bytes::from_mib(480),
            reclaiming: false,
        },
    }
}

/// Run this study and produce its report.
pub fn run() -> FigReport {
    let registry = LiveRegistry::new();
    let cell = registry.register(
        CgroupId(0),
        CpuBounds {
            lower: 4,
            upper: 10,
        },
        EffectiveCpuConfig::default(),
        EffectiveMemory::new(
            Bytes::from_mib(500),
            Bytes::from_gib(1),
            Bytes::from_mib(1280),
            Bytes::from_mib(2560),
            EffectiveMemoryConfig::default(),
        ),
    );

    const UPDATES: u32 = 200_000;
    let s = sample();
    let start = Instant::now();
    for _ in 0..UPDATES {
        cell.apply(s);
    }
    let update_ns = start.elapsed().as_nanos() as f64 / f64::from(UPDATES);

    const QUERIES: u32 = 2_000_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..QUERIES {
        acc = acc.wrapping_add(u64::from(cell.effective_cpu()));
        acc = acc.wrapping_add(cell.effective_memory().as_u64());
    }
    std::hint::black_box(acc);
    let query_ns = start.elapsed().as_nanos() as f64 / f64::from(QUERIES);

    let mut table = Table::new("overhead_ns", &["measured_ns", "paper_us"]);
    table.push(Row::full("namespace_update", &[update_ns, 1.0]));
    table.push(Row::full("effective_query_pair", &[query_ns, 5.0]));

    let mut rep = FigReport::new("overhead", "sys_namespace update and query cost (§5.4)");
    rep.tables.push(table);
    rep.note(format!(
        "one update every 24 ms scheduling period costs {:.4}% of one CPU",
        update_ns / 24_000_000.0 * 100.0
    ));
    rep.note("paper queries cross the kernel via sysconf; ours are in-process atomic loads, hence faster");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_query_are_microsecond_scale_or_below() {
        let rep = run();
        let t = &rep.tables[0];
        let update = t.get("namespace_update", "measured_ns").unwrap();
        let query = t.get("effective_query_pair", "measured_ns").unwrap();
        // Generous ceilings (debug builds are slow): the paper's point is
        // that both are negligible against a 24 ms period.
        assert!(update < 50_000.0, "update cost {update} ns");
        assert!(query < 10_000.0, "query cost {query} ns");
    }
}
