//! Determinism of the observability exports: the recorder runs on the
//! *simulated* clock, so two identical seeded single-threaded runs must
//! export byte-identical documents — any divergence means wall-clock or
//! iteration-order nondeterminism leaked into the recorded schedule.
//! (Threaded workloads interleave nondeterministically by design, so
//! the witness is the single-threaded TPC-C driver.)

use pdl_bench::tpcc_exp::{run_tpcc_gc_point, GcObs, GcPoint};
use pdl_workload::{obs, Scale};

fn traced_run() -> (GcPoint, GcObs) {
    run_tpcc_gc_point(Scale::Quick, 0xD00D).expect("tpcc point")
}

fn metrics_doc(point: &GcPoint, capture: &GcObs) -> String {
    let mut reg = obs::bench_registry("obs_determinism", "quick");
    reg.set_u64("serial_us", point.serial_us);
    reg.set_u64("gc_erases", point.gc_erases);
    reg.set_f64("write_amp", point.write_amp);
    obs::put_integrity_counts(&mut reg, "integrity", &point.integrity);
    obs::put_recorder_snapshot(&mut reg, "", &capture.snapshot);
    reg.to_json()
}

#[test]
fn identical_seeded_runs_export_byte_identical_documents() {
    let (p1, o1) = traced_run();
    let (p2, o2) = traced_run();
    assert_eq!(o1.trace_json, o2.trace_json, "trace exports diverged");
    assert_eq!(metrics_doc(&p1, &o1), metrics_doc(&p2, &o2), "metrics exports diverged");
    assert_eq!(o1.snapshot.spans.len(), o2.snapshot.spans.len());
    assert!(!o1.snapshot.spans.is_empty(), "the runs must actually record");
    // The erase-heavy point's serial flash time, GC erases and write
    // amplification at this seed, pinned: a change to what PDL programs,
    // reads or erases under GC pressure moves one of them.
    assert_eq!(p1.serial_us, 2_367_310);
    assert_eq!(p1.gc_erases, 19);
    assert!((p1.write_amp - 1.122_745_782_431_646_2).abs() < 1e-12, "write_amp {}", p1.write_amp);
    assert_eq!(p1.integrity, pdl_flash::IntegrityCounts::default());
}

#[test]
fn different_seeds_actually_change_the_trace() {
    // The determinism witness above would pass vacuously if the capture
    // ignored the run; a different seed must produce a different trace.
    let (_, a) = traced_run();
    let (_, b) = run_tpcc_gc_point(Scale::Quick, 0xBEEF).expect("tpcc point");
    assert_ne!(a.trace_json, b.trace_json, "trace is insensitive to the workload");
}
