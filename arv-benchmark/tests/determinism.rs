//! Each workload, at a tenth of its population, run twice — once for no
//! longer than the counted segments, once for longer: the counts must
//! repeat exactly and no check may fail. This is also what keeps the
//! harness exercised by `cargo test`.

use arv_benchmark::harness::{Outcome, RunConfig, Scale};
use arv_benchmark::metrics::{PER_LAYER, WORKLOADS};
use arv_benchmark::{run_workload, traced_run};

fn run(name: &str, seed: u64, seconds: f64) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds,
        traced: false,
        scale: Scale::SMALL,
        setups: 1,
    };
    run_workload(name, &cfg).expect("a declared workload")
}

fn repeats_exactly(name: &str) {
    // The second run measures more segments than the first (as a faster
    // machine would); the counts are read after the same ones.
    let (a, b) = (run(name, 7, 0.0), run(name, 7, 0.5));
    assert_eq!(a.failed, 0, "{name}: {:?}", a.failures);
    assert_eq!(b.failed, 0, "{name}: {:?}", b.failures);
    assert!(a.attempted <= b.attempted, "{name}");
    assert_eq!(a.counts, b.counts, "{name}: counts must repeat for a seed");
    assert!(
        a.counts.iter().any(|(_, c)| *c > 0),
        "{name}: {:?}",
        a.counts
    );
    for (metric, s) in a.e2e.values() {
        // The kernel charges CPU time at its own tick: a segment this
        // short may be charged none.
        let floor = if metric == "cpu_us_per_op" { -1.0 } else { 0.0 };
        assert!(
            s.median.is_finite() && s.median > floor,
            "{name}.{metric} = {s:?}"
        );
    }
    let other = run(name, 8, 0.0);
    assert_eq!(other.failed, 0, "{name} seed 8: {:?}", other.failures);
    assert_ne!(
        a.counts, other.counts,
        "{name}: another seed gives other inputs"
    );
}

#[test]
fn read_hot_repeats_exactly() {
    repeats_exactly("read_hot");
}

#[test]
fn read_churn_repeats_exactly() {
    repeats_exactly("read_churn");
}

#[test]
fn host_tick_repeats_exactly() {
    repeats_exactly("host_tick");
}

#[test]
fn fleet_fanin_repeats_exactly() {
    repeats_exactly("fleet_fanin");
}

#[test]
fn a_traced_run_emits_every_per_layer_metric_once() {
    let run = traced_run(7, 1.2, Scale::SMALL);
    assert_eq!(run.failed, 0, "{:?}", run.failures);
    assert_eq!(run.outcomes.len(), WORKLOADS.len());
    for (name, unit, _) in PER_LAYER {
        let values: Vec<f64> = run
            .layers
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(values.len(), 1, "{name} emitted {} times", values.len());
        assert!(values[0].is_finite(), "{name} = {}", values[0]);
        assert!(!unit.is_empty());
    }
    assert_eq!(
        run.layers.len(),
        PER_LAYER.len(),
        "an undeclared metric was emitted"
    );
    for (name, outcome) in &run.outcomes {
        assert!(outcome.spans.spans().count() > 0, "{name} recorded no span");
    }
}
