//! The wall-clock ledger of a traced campaign: where the workers' time
//! (`n_workers x campaign_s`) went, read from the recorder's side channel
//! and from the probes.

use std::collections::BTreeMap;

use dphpo_obs::metrics::fsum;
use dphpo_obs::{names, TelemetrySnapshot};

/// Per-training timeline reconstructed from the wall-stamped step events.
#[derive(Clone, Copy, Debug)]
struct Training {
    first_us: u64,
    last_us: u64,
}

/// Worker occupancy over a campaign.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Occupancy {
    /// Worker-seconds with a training in flight.
    pub busy_s: f64,
    /// Worker-seconds with fewer trainings in flight than workers.
    pub idle_s: f64,
    /// Trainings seen in the trace.
    pub trainings: usize,
}

/// Worker occupancy from the `train.step` events' wall stamps. A training
/// is in flight from `head_s` (its set-up and workflow overhead) plus one
/// step before its first step event, to one validation pass after its
/// last; `origin_us` is the campaign start on the recorder's clock.
pub fn occupancy(
    snap: &TelemetrySnapshot,
    n_workers: usize,
    campaign_s: f64,
    origin_us: f64,
    head_s: f64,
    step_s: f64,
    val_s: f64,
) -> Occupancy {
    let mut trainings: BTreeMap<(u32, u32, u32, u32), Training> = BTreeMap::new();
    for (event, wall) in snap.events.iter().zip(&snap.wall_us) {
        let (true, Some(us)) = (event.name == names::TRAIN_STEP, *wall) else {
            continue;
        };
        let c = event.ctx;
        let t = trainings
            .entry((c.run, c.gen, c.task, c.attempt))
            .or_insert(Training {
                first_us: us,
                last_us: us,
            });
        t.first_us = t.first_us.min(us);
        t.last_us = t.last_us.max(us);
    }
    let mut edges: Vec<(f64, i32)> = Vec::with_capacity(2 * trainings.len());
    for t in trainings.values() {
        let start = (t.first_us as f64 - origin_us) * 1e-6 - step_s - head_s;
        let end = (t.last_us as f64 - origin_us) * 1e-6 + val_s;
        edges.push((start.clamp(0.0, campaign_s), 1));
        edges.push((end.clamp(0.0, campaign_s), -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut busy = Vec::with_capacity(edges.len());
    let (mut active, mut at) = (0i32, 0.0f64);
    for (t, delta) in edges {
        busy.push((active.min(n_workers as i32) as f64) * (t - at));
        active += delta;
        at = t;
    }
    let busy_s = fsum(busy);
    Occupancy {
        busy_s,
        idle_s: n_workers as f64 * campaign_s - busy_s,
        trainings: trainings.len(),
    }
}

/// Sum (seconds) of a side-channel nanosecond histogram.
pub fn hist_sum_s(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.sum * 1e-9)
}

/// Observation count of a histogram.
pub fn hist_count(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, h)| h.count)
}

/// High-water mark of a gauge.
pub fn gauge_max(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, g)| g.max)
}

/// One ledger line: worker-seconds attributed to a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// Layer line name.
    pub name: &'static str,
    /// Worker-seconds.
    pub seconds: f64,
    /// How the line was obtained.
    pub source: &'static str,
}

/// The ledger: lines plus the explicit `unattributed` residual, which
/// together sum (fsum) exactly to `total_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// `n_workers x campaign_s` of the traced campaign.
    pub total_s: f64,
    /// Attributed lines, then `unattributed` last.
    pub lines: Vec<Line>,
}

/// Name of the residual line.
pub const UNATTRIBUTED: &str = "unattributed";

impl Ledger {
    /// Close `lines` against `total_s` with an explicit residual line.
    pub fn close(total_s: f64, mut lines: Vec<Line>) -> Ledger {
        let attributed = fsum(lines.iter().map(|l| l.seconds));
        lines.push(Line {
            name: UNATTRIBUTED,
            seconds: total_s - attributed,
            source: "total minus every line above",
        });
        let mut ledger = Ledger { total_s, lines };
        // The subtraction rounds; nudge the residual until the fsum of all
        // lines reads back the total exactly (one or two ulps at most).
        for _ in 0..4 {
            let miss = total_s - ledger.sum();
            if miss == 0.0 {
                break;
            }
            ledger.lines.last_mut().expect("residual line").seconds += miss;
        }
        ledger
    }

    /// The residual's share of the total.
    pub fn unattributed_frac(&self) -> f64 {
        self.line(UNATTRIBUTED) / self.total_s
    }

    /// Seconds of the named line (0 when absent).
    pub fn line(&self, name: &str) -> f64 {
        self.lines
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.seconds)
    }

    /// The fsum of every line; equals `total_s` exactly.
    pub fn sum(&self) -> f64 {
        fsum(self.lines.iter().map(|l| l.seconds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_obs::{Event, MemoryRecorder, Recorder, SpanCtx, When};

    #[test]
    fn ledger_closes_exactly_with_a_residual() {
        let lines = vec![
            Line {
                name: "a",
                seconds: 0.1,
                source: "",
            },
            Line {
                name: "b",
                seconds: 0.7,
                source: "",
            },
        ];
        let ledger = Ledger::close(1.0, lines);
        assert_eq!(ledger.lines.last().unwrap().name, UNATTRIBUTED);
        assert_eq!(ledger.sum(), 1.0);
        assert!((ledger.unattributed_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn occupancy_counts_gaps_and_caps_at_the_worker_count() {
        let rec = MemoryRecorder::with_wall_clock();
        let step = |task: u32| Event {
            name: names::TRAIN_STEP,
            cat: "train",
            ctx: SpanCtx::root(1, 0).with_task(task, 1),
            step: Some(0),
            when: When::InTask(0.0),
            dur_min: 0.0,
            worker: None,
            args: Vec::new(),
        };
        rec.record(step(0));
        rec.record(step(1));
        let snap = rec.snapshot();
        // Two trainings, each in flight for 1 s around its (near-zero)
        // stamp, on 3 workers over a 4 s campaign: 2 busy, 10 idle.
        let occ = occupancy(&snap, 3, 4.0, -1e6, 0.5, 0.5, 0.0);
        assert_eq!(occ.trainings, 2);
        assert!((occ.busy_s - 2.0).abs() < 1e-3, "{occ:?}");
        assert!((occ.busy_s + occ.idle_s - 12.0).abs() < 1e-12);
    }
}
