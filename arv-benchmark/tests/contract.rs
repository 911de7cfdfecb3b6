//! `BENCHMARK.json` at the root of the repository declares what the
//! benchmark prints. This holds the file to the harness's own table, so
//! that neither can change without the other.

use arv_benchmark::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use arv_experiments::json::Json;

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key:?}"))
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    field(j, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
}

#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        field(&doc, "run_seconds").as_f64(),
        Some(RUN_SECONDS as f64)
    );
    let paths: Vec<&str> = field(&doc, "paths")
        .as_arr()
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["arv-benchmark"]);

    let workloads: Vec<(&str, &str)> = field(&doc, "workloads")
        .as_arr()
        .expect("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(workloads
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let end_to_end: Vec<(&str, &str, &str, f64)> = field(&doc, "end_to_end")
        .as_arr()
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let bound = field(m, "bound").as_f64().expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let declared: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| (*n, *u, b.as_str(), *bound))
        .collect();
    assert_eq!(end_to_end, declared);
    assert!(end_to_end.iter().all(|(_, _, _, bound)| *bound <= 0.25));
    assert!(end_to_end.contains(&("setup_s", "s", "lower", 0.25)));

    let per_layer: Vec<(&str, &str, &str)> = field(&doc, "per_layer")
        .as_arr()
        .expect("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let declared: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (*n, *u, b.as_str()))
        .collect();
    assert_eq!(per_layer, declared);
    assert!(per_layer.len() <= 128);
}
