//! Observability smoke: one quick erase-heavy TPC-C run with the
//! recorder on, exporting both observability documents and validating
//! them against their schemas:
//!
//! * `obs_out/trace_tpcc.json` — Chrome trace-event JSON of the
//!   measured phase (load it in `chrome://tracing` or Perfetto);
//! * `obs_out/metrics_tpcc.json` — the unified `pdl-metrics-v1`
//!   registry snapshot: serial flash time, GC erases, integrity gauges,
//!   and every latency histogram the recorder sampled.
//!
//! Exits nonzero (panics) if either export fails validation, if the
//! recorder captured nothing, or if the run garbage-collected nothing.

use pdl_bench::tpcc_exp::run_tpcc_gc_point;
use pdl_obs::json;
use pdl_workload::{obs, Scale};

fn main() {
    let scale = Scale::Quick;
    let (point, capture) = run_tpcc_gc_point(scale, 0x0B5).expect("tpcc point");

    std::fs::create_dir_all("obs_out").expect("create obs_out");
    std::fs::write("obs_out/trace_tpcc.json", &capture.trace_json).expect("write trace");
    let trace = json::parse(&capture.trace_json).expect("trace is valid JSON");
    json::validate_trace(&trace).expect("trace-event shape");

    let mut reg = obs::bench_registry("obs_smoke", scale.label());
    reg.set_u64("serial_us", point.serial_us);
    reg.set_u64("gc_erases", point.gc_erases);
    reg.set_f64("write_amp", point.write_amp);
    obs::put_integrity_counts(&mut reg, "integrity", &point.integrity);
    obs::put_recorder_snapshot(&mut reg, "", &capture.snapshot);
    let doc = reg.to_json();
    let metrics = json::parse(&doc).expect("metrics are valid JSON");
    json::validate_metrics(&metrics).expect("pdl-metrics-v1 shape");
    std::fs::write("obs_out/metrics_tpcc.json", &doc).expect("write metrics");

    let spans = capture.snapshot.spans.len();
    assert!(spans > 0, "the recorder must capture spans on a measured TPC-C run");
    assert!(point.gc_erases > 0, "the erase-heavy point must garbage-collect");
    let reads = capture.snapshot.hist(pdl_obs::LatencyClass::ReadUser).count();
    let programs = capture.snapshot.hist(pdl_obs::LatencyClass::ProgramUser).count();
    assert!(reads > 0 && programs > 0, "user reads and programs must both be sampled");

    println!(
        "obs_smoke: ok — {spans} spans ({} dropped), {reads} user reads, {programs} user \
         programs; wrote obs_out/trace_tpcc.json + obs_out/metrics_tpcc.json",
        capture.snapshot.dropped_spans
    );
}
