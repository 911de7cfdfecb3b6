//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§2.2 and §5).
//!
//! Each `figNN` module builds the paper's scenario on the simulated host,
//! runs it, and returns a [`report::FigReport`] with the same rows/series
//! the paper plots. The `experiments` binary renders reports as text and
//! CSV; timed costs are gated by `arv-bench` and tracked by
//! `arv-benchmark`.
//!
//! Absolute numbers differ from the paper (our substrate is a calibrated
//! simulator, not a 20-core Xeon) — what must hold is the *shape*: who
//! wins, by roughly what factor, and where behaviour flips (see
//! EXPERIMENTS.md for the paper-vs-measured record).

#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod chaos;
pub mod driver;
pub mod fig01_dockerhub;
pub mod fig02_motivation;
pub mod fig06_dynamic_parallelism;
pub mod fig07_container_sweep;
pub mod fig08_background_load;
pub mod fig09_hibench;
pub mod fig10_openmp;
pub mod fig11_elastic_dacapo;
pub mod fig12_heap_traces;
pub mod fleet;
pub mod fleetobs;
pub mod json;
pub mod obs;
pub mod overhead;
pub mod recovery;
pub mod report;
pub mod scenarios;
pub mod storm;
pub mod view_accuracy;
pub mod viewd;

pub use report::{FigReport, Row, Table};

/// Run a figure by id ("1", "2a", "2b", "6" … "12", "overhead");
/// `scale` < 1 shrinks workload sizes proportionally for quick runs.
pub fn run_figure(id: &str, scale: f64) -> Option<FigReport> {
    run_figure_seeded(id, scale, 0)
}

/// [`run_figure`] with a seed offset: the six campaigns on the
/// [`campaign`] harness (`chaos`, `obs`, `recovery`, `fleet`,
/// `fleetobs`, `storm`) all rotate their seeds by `seed_offset`, by one
/// rule, so CI can prove the invariants hold on more than the canonical
/// seeds. The paper-figure runners have no seeds and ignore it.
pub fn run_figure_seeded(id: &str, scale: f64, seed_offset: u64) -> Option<FigReport> {
    let report = match id {
        "1" => fig01_dockerhub::run(),
        "2a" => fig02_motivation::run_gc_threads(scale),
        "2b" => fig02_motivation::run_heap_size(scale),
        "6" => fig06_dynamic_parallelism::run(scale),
        "7" => fig07_container_sweep::run(scale),
        "8" => fig08_background_load::run(scale),
        "9" => fig09_hibench::run(scale),
        "10" => fig10_openmp::run(scale),
        "11" => fig11_elastic_dacapo::run(scale),
        "12" => fig12_heap_traces::run(scale),
        "overhead" => overhead::run(),
        "ablations" => ablation::run(scale),
        "accuracy" => view_accuracy::run(scale),
        "viewd" => viewd::run(scale),
        "chaos" => chaos::run(scale, seed_offset),
        "obs" => obs::run(scale, seed_offset),
        "recovery" => recovery::run(scale, seed_offset),
        "fleet" => fleet::run(scale, seed_offset),
        "fleetobs" => fleetobs::run(scale, seed_offset),
        "storm" => storm::run(scale, seed_offset),
        _ => return None,
    };
    Some(report)
}

/// Every figure id, in paper order.
pub const ALL_FIGURES: [&str; 20] = [
    "1",
    "2a",
    "2b",
    "6",
    "7",
    "8",
    "9",
    "10",
    "11",
    "12",
    "overhead",
    "ablations",
    "accuracy",
    "viewd",
    "chaos",
    "obs",
    "recovery",
    "fleet",
    "fleetobs",
    "storm",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("99", 1.0).is_none());
        assert!(run_figure("", 1.0).is_none());
    }

    #[test]
    fn every_listed_figure_dispatches() {
        // Quick smoke at tiny scale: each id must resolve and produce at
        // least one table (full-value checks live in each module).
        for id in ["1", "overhead"] {
            let rep = run_figure(id, 0.05).expect("known figure");
            assert_eq!(rep.id, id);
            assert!(!rep.tables.is_empty(), "{id} produced no tables");
        }
        assert_eq!(ALL_FIGURES.len(), 20);
    }
}
