//! The one harness behind the gated benches in `benches/`: best-of and
//! median timing, the server every viewd bench reads from, and a
//! [`Report`] of named values and `at_most` / `at_least` gates that is
//! written to `<workspace>/BENCH_<name>.json`, printed, then judged.
//!
//! A value that is not finite fails the report whether it is gated or
//! not: every comparison with NaN is false, so a 0/0 ratio on a coarse
//! clock or the median of no samples would otherwise pass any bound.

#![forbid(unsafe_code)]

use arv_cgroups::{Bytes, CgroupId};
use arv_experiments::json::Json;
use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig};
use arv_viewd::{HostSpec, ViewServer};
use std::path::Path;
use std::time::Instant;

/// The fastest of `trials` measurements (noise only ever adds); NaN if
/// any of them is NaN.
pub fn best_of(trials: u32, mut measure: impl FnMut() -> f64) -> f64 {
    (0..trials)
        .map(|_| measure())
        .fold(
            f64::INFINITY,
            |best, v| {
                if v < best || v.is_nan() {
                    v
                } else {
                    best
                }
            },
        )
}

/// The middle sample (the upper one of an even count); NaN if there
/// are none.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Nanoseconds per call of `f`, timed over one block of `calls` calls.
pub fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
}

/// A paper-testbed `ViewServer` with `containers` registered, each
/// bounded to 4–10 CPUs and a 500 MiB – 1 GiB memory view.
pub fn paper_server(containers: u32) -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for i in 0..containers {
        server.register(
            CgroupId(i),
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
    }
    server
}

/// One bench's measurements and the gates on them.
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    values: Vec<(String, f64)>,
    thresholds: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report that will be written as `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Report {
        Report {
            name,
            values: Vec::new(),
            thresholds: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Record `v` under `key`, ungated; it still fails the report if it
    /// is not finite.
    pub fn value(&mut self, key: &str, v: f64) -> &mut Report {
        if !v.is_finite() {
            self.failures
                .push(format!("{key} is {v}: not a measurement"));
        }
        self.values.push((key.to_string(), v));
        self
    }

    /// Record `v` under `key` and fail the report if it exceeds `max`;
    /// `why` names the regression that would put it there.
    pub fn at_most(&mut self, key: &str, v: f64, max: f64, why: &str) -> &mut Report {
        self.gate(key, v, "max", max, v <= max, why)
    }

    /// Record `v` under `key` and fail the report if it is under `min`;
    /// `why` names the regression that would put it there.
    pub fn at_least(&mut self, key: &str, v: f64, min: f64, why: &str) -> &mut Report {
        self.gate(key, v, "min", min, v >= min, why)
    }

    fn gate(
        &mut self,
        key: &str,
        v: f64,
        side: &str,
        bound: f64,
        holds: bool,
        why: &str,
    ) -> &mut Report {
        self.value(key, v);
        self.thresholds.push((format!("{side}_{key}"), bound));
        if v.is_finite() && !holds {
            self.failures
                .push(format!("{key} = {v} against {side} {bound}: {why}"));
        }
        self
    }

    /// The report as written: `bench`, every value in the order
    /// recorded, then `thresholds`.
    fn to_json(&self) -> Json {
        let num = |(k, v): &(String, f64)| (k.clone(), Json::Num(*v));
        let mut fields = vec![("bench".to_string(), Json::Str(self.name.to_string()))];
        fields.extend(self.values.iter().map(num));
        fields.push((
            "thresholds".to_string(),
            Json::Obj(self.thresholds.iter().map(num).collect()),
        ));
        Json::Obj(fields)
    }

    /// Write `BENCH_<name>.json` into `dir` and print it, then judge:
    /// `Err` lists every failed gate and non-finite value. The file is
    /// written whatever the verdict, so a failing run leaves its numbers
    /// behind.
    fn conclude(&self, dir: &Path) -> Result<(), &[String]> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let text = self.to_json().pretty() + "\n";
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        print!("{text}");
        if self.failures.is_empty() {
            Ok(())
        } else {
            Err(&self.failures)
        }
    }

    /// Write `BENCH_<name>.json` at the workspace root, where `ci.sh`
    /// looks for it, and print it; then exit nonzero, naming each
    /// failure, if any gate failed or any value is not finite.
    pub fn finish(&self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if let Err(failures) = self.conclude(&root) {
            for failure in failures {
                eprintln!("FAIL: {failure}");
            }
            std::process::exit(1);
        }
        println!("{} bench: all thresholds met", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_exactly_at_the_bound_passes() {
        let mut r = Report::new("t");
        r.at_most("ceiling", 3.0, 3.0, "")
            .at_least("floor", 10.0, 10.0, "");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn a_value_past_the_bound_fails() {
        let mut r = Report::new("t");
        r.at_most("ceiling", 3.000_001, 3.0, "too slow");
        assert!(!r.failures.is_empty());
        assert!(r.failures[0].contains("too slow"));
        let mut r = Report::new("t");
        r.at_least("floor", 9.999_999, 10.0, "");
        assert!(!r.failures.is_empty());
    }

    #[test]
    fn nan_and_infinities_fail_in_both_directions() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = Report::new("t");
            r.at_most("ceiling", v, 3.0, "");
            assert!(!r.failures.is_empty(), "at_most passed {v}");
            let mut r = Report::new("t");
            r.at_least("floor", v, 10.0, "");
            assert!(!r.failures.is_empty(), "at_least passed {v}");
            let mut r = Report::new("t");
            r.value("ungated", v);
            assert!(!r.failures.is_empty(), "value passed {v}");
            assert_eq!(r.failures.len(), 1);
        }
        // The timing helpers hand NaN on instead of hiding it.
        assert!(median(Vec::new()).is_nan());
        assert!(best_of(3, {
            let mut v = [1.0, f64::NAN, 2.0].into_iter();
            move || v.next().unwrap()
        })
        .is_nan());
        assert_eq!(best_of(3, || 2.0), 2.0);
    }

    #[test]
    fn the_report_is_written_before_the_verdict() {
        let dir = std::env::temp_dir().join(format!("arv-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = Report::new("unit");
        r.value("n", 7.0).at_most("ratio", 5.0, 3.0, "broken");
        let failures = r.conclude(&dir).unwrap_err();
        assert!(failures[0].contains("broken"));
        let text = std::fs::read_to_string(dir.join("BENCH_unit.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("unit"));
        assert_eq!(json.get("ratio").and_then(Json::as_f64), Some(5.0));
        let thresholds = json.get("thresholds").unwrap();
        assert_eq!(
            thresholds.get("max_ratio").and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
