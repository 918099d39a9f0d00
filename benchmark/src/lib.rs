//! The repository's benchmark: four workloads (`offline_frames`,
//! `serve_trickle`, `serve_open`, `train_steps`), each run either with
//! tracing off for the end-to-end metrics or traced for the per-layer
//! ledger. It calls only `pub` items of the crates under `crates/`; see
//! `benchmark/README.md` for what each number means.

pub mod fixture;
pub mod layers;
pub mod ledger;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;

use fixture::Res;

/// Writes a recorder's spans to `benchmark/out/trace.<workload>.json`.
pub fn write_trace(workload: &str, rec: &trace::Recorder) -> Res<()> {
    let dir = fixture::out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace.{workload}.json")),
        rec.to_json().pretty(),
    )?;
    Ok(())
}

/// Runs one workload for about `seconds`; `traced` selects the per-layer
/// pass.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Res<report::Outcome> {
    use workloads::{offline, open, train, trickle};
    match (workload, traced) {
        ("offline_frames", false) => offline::run(seed, seconds),
        ("offline_frames", true) => offline::run_traced(seed, seconds),
        ("serve_trickle", false) => trickle::run(seed, seconds),
        ("serve_trickle", true) => trickle::run_traced(seed, seconds),
        ("serve_open", false) => open::run(seed, seconds),
        ("serve_open", true) => open::run_traced(seed, seconds),
        ("train_steps", false) => train::run(seed, seconds),
        ("train_steps", true) => train::run_traced(seed, seconds),
        _ => Err(format!("unknown workload `{workload}`").into()),
    }
}
