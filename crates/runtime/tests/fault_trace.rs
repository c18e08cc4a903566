//! Fault plans are values: a plan's injection trace is a pure function
//! of its seed and the cells its wrapped bodies ran, whatever else the
//! process is doing — including another plan, differently seeded,
//! driving another executor at the same time. (The plans this replaced
//! were one process-global slot; two of them could not coexist, and a
//! test that injected nothing ran under whichever plan a sibling test
//! had installed.)

use polymix_runtime::fault_inject::{FaultPlan, TraceEvent};
use polymix_runtime::{pipeline_2d, taskgraph_2d, GridSweep};
use std::sync::Barrier;

fn grid(ni: i64, nj: i64) -> GridSweep {
    GridSweep {
        i_lo: 0,
        i_hi: ni,
        j_lo: 0,
        j_hi: nj,
    }
}

fn adversarial_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        delay_us_max: 30,
        yield_pct: 20,
        ..FaultPlan::default()
    }
}

fn pipeline_trace(seed: u64) -> Vec<TraceEvent> {
    let plan = adversarial_plan(seed);
    pipeline_2d(grid(13, 11), 3, plan.wrap(|_, _| {})).expect("sweep under faults");
    plan.take_trace()
}

fn taskgraph_trace(seed: u64) -> Vec<TraceEvent> {
    let plan = adversarial_plan(seed);
    taskgraph_2d(grid(9, 10), 3, &[(1, 0), (0, 1)], plan.wrap(|_, _| {}))
        .expect("taskgraph under faults");
    plan.take_trace()
}

#[test]
fn concurrent_plans_replay_their_own_solo_traces() {
    let solo_pipeline = pipeline_trace(0xDECAF);
    let solo_taskgraph = taskgraph_trace(0x7A5C);
    assert_eq!(solo_pipeline.len(), 13 * 11, "one decision per cell");
    assert_eq!(solo_taskgraph.len(), 9 * 10, "one decision per tile");
    // A different seed really changes the schedule (the comparisons
    // below are not vacuous).
    assert_ne!(solo_pipeline, pipeline_trace(0xBEEF));

    // The barrier makes the two runs overlap instead of happening to
    // run one after the other.
    let start = Barrier::new(2);
    let (pipeline, taskgraph) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            pipeline_trace(0xDECAF)
        });
        let b = s.spawn(|| {
            start.wait();
            taskgraph_trace(0x7A5C)
        });
        (
            a.join().expect("pipeline thread"),
            b.join().expect("taskgraph thread"),
        )
    });
    assert_eq!(pipeline, solo_pipeline);
    assert_eq!(taskgraph, solo_taskgraph);
}
