//! What a run prints and writes: `name value unit` lines, the one-line
//! JSON result of the benchmark contract, the fuller JSON report, and the
//! comparison of two reports against the bounds.

use arv_experiments::json::Json;

use crate::harness::Outcome;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Spread;
use crate::sysinfo::Fingerprint;

/// One workload's part of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: Vec<(String, Spread)>,
    /// Exact counts by name.
    pub counts: Vec<(String, u64)>,
    /// The medians as the clocks read them, before scaling by the
    /// reference load.
    pub raw: Vec<(String, f64)>,
    /// Median slowdown of the reference load during the run.
    pub slowdown: f64,
}

impl WorkloadResult {
    /// The end-to-end part of an untraced run.
    pub fn of(outcome: &Outcome) -> WorkloadResult {
        WorkloadResult {
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: outcome
                .e2e
                .values()
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect(),
            counts: outcome
                .counts
                .iter()
                .map(|(n, c)| (n.to_string(), *c))
                .collect(),
            raw: outcome
                .raw
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            slowdown: outcome.slowdown,
        }
    }

    /// Failed over attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Machine fingerprint, when gathered.
    pub fingerprint: Option<Fingerprint>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Untraced results by workload.
    pub workloads: Vec<(String, WorkloadResult)>,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<(String, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or("")
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric exactly `value` and `unit`, every
/// digit of the value kept.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

impl Report {
    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut top = vec![("schema", num(1.0))];
        if let Some(f) = &self.fingerprint {
            top.push((
                "fingerprint",
                obj(vec![
                    ("nproc", num(f.nproc as f64)),
                    ("rustc", Json::Str(f.rustc.clone())),
                    ("profile", Json::Str(f.profile.clone())),
                    ("kernel", Json::Str(f.kernel.clone())),
                    ("commit", Json::Str(f.commit.clone())),
                ]),
            ));
        }
        top.push(("seed", Json::Str(self.seed.to_string())));
        top.push(("seconds", num(self.seconds)));
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|(n, s)| {
                        let fields = vec![
                            ("value", num(s.median)),
                            ("unit", Json::Str(unit_of(n).to_string())),
                            ("min", num(s.min)),
                            ("max", num(s.max)),
                            ("q1", num(s.q1)),
                            ("q3", num(s.q3)),
                            ("samples", num(s.samples as f64)),
                        ];
                        (n.clone(), obj(fields))
                    })
                    .collect();
                // Operation counts are part of the fingerprint of a run:
                // they say how much work the numbers rest on.
                let counts = w
                    .counts
                    .iter()
                    .map(|(n, c)| (n.clone(), num(*c as f64)))
                    .collect();
                let raw = w.raw.iter().map(|(n, v)| (n.clone(), num(*v))).collect();
                let fields = vec![
                    ("correct", Json::Bool(w.failed == 0)),
                    ("attempted", num(w.attempted as f64)),
                    ("failed", num(w.failed as f64)),
                    ("metrics", Json::Obj(metrics)),
                    ("unscaled", Json::Obj(raw)),
                    ("reference_slowdown", num(w.slowdown)),
                    ("op_counts", Json::Obj(counts)),
                ];
                (name.clone(), obj(fields))
            })
            .collect();
        top.push(("workloads", Json::Obj(workloads)));
        let layers = self
            .layers
            .iter()
            .map(|(n, v)| {
                let fields = vec![
                    ("value", num(*v)),
                    ("unit", Json::Str(unit_of(n).to_string())),
                ];
                (n.clone(), obj(fields))
            })
            .collect();
        top.push(("per_layer", Json::Obj(layers)));
        obj(top).pretty()
    }

    /// Parse a report written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let f64_of = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let fields = |j: Option<&Json>| -> Vec<(String, Json)> {
            match j {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => Vec::new(),
            }
        };
        let fingerprint = match doc.get("fingerprint") {
            Some(f) => Some(Fingerprint {
                nproc: f64_of(f, "nproc")? as usize,
                rustc: str_of(f, "rustc")?,
                profile: str_of(f, "profile")?,
                kernel: str_of(f, "kernel")?,
                commit: str_of(f, "commit")?,
            }),
            None => None,
        };
        let mut workloads = Vec::new();
        for (name, w) in fields(doc.get("workloads")) {
            let mut metrics = Vec::new();
            for (n, m) in fields(w.get("metrics")) {
                let spread = Spread {
                    median: f64_of(&m, "value")?,
                    min: f64_of(&m, "min")?,
                    max: f64_of(&m, "max")?,
                    q1: f64_of(&m, "q1")?,
                    q3: f64_of(&m, "q3")?,
                    samples: f64_of(&m, "samples")? as u64,
                };
                metrics.push((n, spread));
            }
            let counts = fields(w.get("op_counts"))
                .into_iter()
                .filter_map(|(n, c)| Some((n, c.as_f64()? as u64)))
                .collect();
            let raw = fields(w.get("unscaled"))
                .into_iter()
                .filter_map(|(n, v)| Some((n, v.as_f64()?)))
                .collect();
            workloads.push((
                name,
                WorkloadResult {
                    attempted: f64_of(&w, "attempted")? as u64,
                    failed: f64_of(&w, "failed")? as u64,
                    metrics,
                    counts,
                    raw,
                    slowdown: f64_of(&w, "reference_slowdown")?,
                },
            ));
        }
        let mut layers = Vec::new();
        for (n, m) in fields(doc.get("per_layer")) {
            layers.push((n, f64_of(&m, "value")?));
        }
        Ok(Report {
            fingerprint,
            seed: str_of(&doc, "seed")?
                .parse()
                .map_err(|e| format!("seed: {e}"))?,
            seconds: f64_of(&doc, "seconds")?,
            workloads,
            layers,
        })
    }

    /// Every metric as `name value unit` lines; end-to-end numbers carry
    /// their segment spread and sample count.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, w) in &self.workloads {
            out.push_str(&format!(
                "{name}.failed_ratio {} ratio  ({} of {})\n",
                w.failed_ratio(),
                w.failed,
                w.attempted
            ));
            for (metric, s) in &w.metrics {
                out.push_str(&format!(
                    "{name}.{metric} {} {}  (segments {}..{}, {} samples)\n",
                    s.median,
                    unit_of(metric),
                    s.min,
                    s.max,
                    s.samples
                ));
            }
            let raw: Vec<String> = w.raw.iter().map(|(n, v)| format!("{n} {v}")).collect();
            out.push_str(&format!(
                "# {name}: the reference load took {:.3} of its defined time; unscaled: {}\n",
                w.slowdown,
                raw.join(", ")
            ));
        }
        for (metric, v) in &self.layers {
            out.push_str(&format!("{metric} {v} {}\n", unit_of(metric)));
        }
        out
    }
}

/// How one metric of one workload moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is better than the base.
    Better,
    /// Worse, by no more than the metric's bound.
    WithinBound,
    /// Worse by more than the bound, yet the two runs' segment quartiles
    /// overlap: more runs are needed to tell.
    Unresolved,
    /// Worse by more than the bound, with quartiles apart.
    Worse,
}

/// Judge `new` against `base` for a metric with this direction and bound.
pub fn verdict(base: &Spread, new: &Spread, better: Better, bound: f64) -> Verdict {
    let (worse_by, apart) = match better {
        Better::Lower => ((new.median - base.median) / base.median, new.q1 > base.q3),
        Better::Higher => ((base.median - new.median) / base.median, new.q3 < base.q1),
    };
    if worse_by <= 0.0 {
        Verdict::Better
    } else if worse_by <= bound {
        Verdict::WithinBound
    } else if apart {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// One row per workload × end-to-end metric: base, new, the ratio with
/// its base, the verdict. The flag is false when any row is `Worse` or a
/// workload's failed ratio rose.
pub fn compare(base: &Report, new: &Report) -> (String, bool) {
    let mut ok = true;
    let mut out = format!(
        "{:<12} {:<15} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "new/base"
    );
    for (name, b) in &base.workloads {
        let Some((_, n)) = new.workloads.iter().find(|(w, _)| w == name) else {
            out.push_str(&format!("{name:<12} missing from the new report\n"));
            ok = false;
            continue;
        };
        let (fb, fn_) = (b.failed_ratio(), n.failed_ratio());
        let failed_verdict = if fn_ > fb { "worse" } else { "within bound" };
        ok &= fn_ <= fb;
        out.push_str(&format!(
            "{name:<12} {:<15} {fb:>14.6} {fn_:>14.6} {:>8}  {failed_verdict}\n",
            "failed_ratio", "-"
        ));
        for (metric, _, better, bound) in END_TO_END {
            let find =
                |w: &WorkloadResult| w.metrics.iter().find(|(m, _)| m == metric).map(|(_, s)| *s);
            let (Some(bs), Some(ns)) = (find(b), find(n)) else {
                continue;
            };
            let v = verdict(&bs, &ns, better, bound);
            ok &= v != Verdict::Worse;
            let word = match v {
                Verdict::Better => "better",
                Verdict::WithinBound => "within bound",
                Verdict::Unresolved => "unresolved",
                Verdict::Worse => "worse",
            };
            out.push_str(&format!(
                "{name:<12} {metric:<15} {:>14.4} {:>14.4} {:>8.3}  {word} (bound {bound})\n",
                bs.median,
                ns.median,
                ns.median / bs.median
            ));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(median: f64, q1: f64, q3: f64) -> Spread {
        Spread {
            median,
            min: q1,
            max: q3,
            q1,
            q3,
            samples: 10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_overlap() {
        let base = spread(100.0, 95.0, 105.0);
        assert_eq!(
            verdict(&base, &spread(90.0, 85.0, 95.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &spread(108.0, 104.0, 112.0), Better::Lower, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &spread(115.0, 104.0, 126.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &spread(130.0, 120.0, 140.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &spread(130.0, 120.0, 140.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &spread(70.0, 60.0, 80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn report_round_trips_and_compare_flags_a_regression() {
        let result = |ops: f64, failed: u64| WorkloadResult {
            attempted: 1000,
            failed,
            metrics: vec![
                ("ops_per_s".to_string(), spread(ops, ops * 0.98, ops * 1.02)),
                ("setup_s".to_string(), spread(1.0, 0.9, 1.1)),
            ],
            counts: vec![("wire.requests".to_string(), 1000)],
            raw: vec![("ops_per_s".to_string(), ops * 0.9)],
            slowdown: 1.1,
        };
        let base = Report {
            fingerprint: Some(Fingerprint {
                nproc: 2,
                rustc: "rustc 1.0".to_string(),
                profile: "release".to_string(),
                kernel: "k".to_string(),
                commit: "c".to_string(),
            }),
            seed: u64::MAX,
            seconds: 15.0,
            workloads: vec![("read_hot".to_string(), result(1000.0, 0))],
            layers: vec![("wire.rtt_p50_us".to_string(), 5.25)],
        };
        assert_eq!(Report::from_json(&base.to_json()).unwrap(), base);

        let mut slower = base.clone();
        slower.workloads[0].1 = result(700.0, 0);
        let (table, ok) = compare(&base, &slower);
        assert!(!ok && table.contains("worse"), "{table}");
        let (_, ok) = compare(&base, &base);
        assert!(ok);
        let mut failing = base.clone();
        failing.workloads[0].1 = result(1000.0, 3);
        assert!(!compare(&base, &failing).1);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(10, 0, &[("setup_s", 0.5), ("ops_per_s", 1234.5678)]);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let m = doc.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/ref_s"));
        assert!(!line.contains('\n'));
    }
}
