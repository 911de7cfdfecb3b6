//! The concurrent resource view: one updater thread applying Algorithms
//! 1–2 to an atomic namespace cell while four application threads query
//! it lock-free — the §5.4 deployment shape with actual OS threads.
//!
//! ```text
//! cargo run --release --example live_view
//! ```

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::effective_cpu::{CpuBounds, CpuSample};
use arv_resview::effective_mem::{EffectiveMemory, EffectiveMemoryConfig, MemSample};
use arv_resview::live::{LiveRegistry, LiveSample};
use arv_resview::EffectiveCpuConfig;
use arv_sim_core::SimDuration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A toy host whose slack oscillates: busy quarter-seconds (no slack)
/// alternate with idle ones — the view should breathe with it.
fn sample(started: Instant) -> LiveSample {
    let t = SimDuration::from_millis(24);
    let busy = started.elapsed().as_millis() / 250 % 2 == 0;
    LiveSample {
        cpu: CpuSample {
            usage: t * 10, // the container is always hungry
            period: t,
            slack: if busy { SimDuration::ZERO } else { t * 4 },
        },
        mem: MemSample {
            free: Bytes::from_gib(64),
            usage: Bytes::from_mib(480),
            reclaiming: false,
        },
    }
}

fn main() {
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
    let started = Instant::now();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // The updater: one sample per 5 ms period.
        let updater = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                cell.apply(sample(started));
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // Application threads hammer the lock-free query path while the
        // updater runs beside them.
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let cell = &cell;
                s.spawn(move || {
                    let mut queries = 0u64;
                    let deadline = Instant::now() + Duration::from_millis(900);
                    let mut min = u32::MAX;
                    let mut max = 0;
                    while Instant::now() < deadline {
                        let v = cell.effective_cpu();
                        min = min.min(v);
                        max = max.max(v);
                        queries += 1;
                    }
                    (r, queries, min, max)
                })
            })
            .collect();

        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(150));
            println!(
                "t={:>4}ms  E_CPU={:>2}  E_MEM={}  (updates so far: {})",
                started.elapsed().as_millis(),
                cell.effective_cpu(),
                cell.effective_memory(),
                cell.update_count(),
            );
        }

        for r in readers {
            let (id, queries, min, max) = r.join().expect("reader thread panicked");
            println!("reader {id}: {queries} lock-free queries, saw E_CPU range {min}..={max}");
        }
        stop.store(true, Ordering::Release);
        updater.join().expect("updater thread panicked");
    });
    println!("updater stopped after {} updates", cell.update_count());
}
