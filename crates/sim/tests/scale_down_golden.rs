//! One scale-down victim order behind both entry points: the scalar
//! `scale_to(n)` and the classed `scale_to_classed` with a single
//! class pick the same victims in the same order — cold replicas
//! first, then idle ones, each by ascending id, then busy ones marked
//! retiring. The end-to-end goldens pin this through whole runs; this
//! pins it step by step.

use faro_core::types::{ClassAlloc, JobSpec};
use faro_sim::runtime::JobRuntime;

fn scalar(j: &mut JobRuntime, n: u32) -> Vec<u64> {
    j.scale_to(n)
}

fn classed(j: &mut JobRuntime, n: u32) -> Vec<u64> {
    let started = j.scale_to_classed(ClassAlloc::single(0, n, 1));
    assert!(started.iter().all(|&(_, class)| class == 0));
    started.into_iter().map(|(id, _)| id).collect()
}

/// Drives one runtime through scale-up, then three scale-downs that
/// each reach one tier deeper. Returns the busy ids followed by the
/// live ids after each scale-down, and whether each busy replica
/// survived its completion.
fn script(scale: fn(&mut JobRuntime, u32) -> Vec<u64>) -> (Vec<Vec<u64>>, Vec<bool>) {
    let mut j = JobRuntime::new(JobSpec::resnet34("t"), 3);
    j.on_arrival(0, 0.9);
    j.on_arrival(0, 0.9);
    let busy: Vec<u64> = j.dispatch(0).iter().map(|d| d.replica).collect();
    assert_eq!(busy.len(), 2);
    let mut seen = vec![busy.clone()];

    let cold = scale(&mut j, 5);
    assert_eq!(cold, vec![3, 4]);
    // One over: the older cold replica goes, the idle one stays.
    assert!(scale(&mut j, 4).is_empty());
    seen.push(j.live_replica_ids());
    assert!(!j.on_replica_ready(3), "cancelled cold replica");
    // Two more over: the other cold one, then the idle one.
    scale(&mut j, 2);
    seen.push(j.live_replica_ids());
    assert!(!j.on_replica_ready(4), "cancelled cold replica");
    // Only busy ones left: the first is marked retiring and vanishes
    // at its completion.
    scale(&mut j, 1);
    seen.push(j.live_replica_ids());
    assert_eq!(j.live_replicas(), 1);
    let alive = busy
        .iter()
        .map(|&id| j.on_completion(180_000, id, 0.18))
        .collect();
    (seen, alive)
}

#[test]
fn scalar_and_single_class_scale_down_pick_the_same_victims() {
    let (seen, alive) = script(scalar);
    let idle = (0..3u64)
        .find(|id| !seen[0].contains(id))
        .expect("one idle");
    let mut after_first = vec![0, 1, 2, 4];
    assert_eq!(
        seen[1], after_first,
        "cold 3 before cold 4 and the idle one"
    );
    after_first.retain(|&id| id != 4 && id != idle);
    assert_eq!(seen[2], after_first, "cold 4, then the idle one; busy stay");
    assert_eq!(seen[3], after_first[1..], "the first busy one retires");
    assert_eq!(alive, [false, true], "the retiring one dies at completion");
    assert_eq!(script(classed), (seen, alive));
}
