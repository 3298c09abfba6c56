//! The traced run: installs the program's own JSONL telemetry sink,
//! marks phase boundaries with metric snapshots, and derives the
//! per-layer metrics from the recorded spans and metric deltas.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover, as `hwpr-report tree` computes it.

use crate::search::SearchOutcome;
use crate::serve::ServeOutcome;
use crate::stats::{median, percentile};
use crate::{Args, Fail, Metric, Plan};
use hw_pr_nas::obs::config::TelemetrySpec;
use hw_pr_nas::obs::Event;
use std::collections::HashMap;

/// Program metrics at one instant: counters and histogram (count, sum)
/// summed over instances by name, gauges by name.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    counters: HashMap<String, u64>,
    hists: HashMap<String, (u64, f64)>,
    gauges: HashMap<String, f64>,
}

impl Snap {
    /// Reads the program's metric registry (no metric is created).
    pub fn take() -> Self {
        let snapshot = hw_pr_nas::obs::metrics::registry().snapshot();
        let mut snap = Snap {
            counters: snapshot.counters.into_iter().collect(),
            gauges: snapshot.gauges.into_iter().collect(),
            ..Snap::default()
        };
        for event in snapshot.histograms {
            if let Event::Hist {
                name, count, sum, ..
            } = event
            {
                let slot = snap.hists.entry(name).or_default();
                slot.0 += count;
                slot.1 += sum;
            }
        }
        snap
    }

    /// What happened between `earlier` and `self` (gauges keep `self`'s
    /// value). Per-instance metrics dropped in between read as 0.
    pub fn since(&self, earlier: &Snap) -> Snap {
        Snap {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, &(c, s))| {
                    let (c0, s0) = earlier.hists.get(k).copied().unwrap_or_default();
                    (k.clone(), (c.saturating_sub(c0), s - s0))
                })
                .collect(),
            gauges: self.gauges.clone(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1)
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        ratio(self.hist_sum(name), self.hist_count(name) as f64)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named phase boundaries of a traced run: telemetry time + snapshot.
/// An untraced run carries one that records nothing.
pub struct Recorder {
    marks: Option<Vec<(&'static str, u64, Snap)>>,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder { marks: None }
    }

    fn on() -> Self {
        Recorder {
            marks: Some(Vec::new()),
        }
    }

    pub fn mark(&mut self, name: &'static str) {
        if let Some(marks) = &mut self.marks {
            marks.push((name, hw_pr_nas::obs::now_us(), Snap::take()));
        }
    }

    /// The first `begin` mark and the first `end` mark after it:
    /// telemetry-clock bounds plus the metric delta between them.
    fn window(&self, begin: &str, end: &str) -> Result<Window, Fail> {
        let marks = self.marks.as_deref().unwrap_or_default();
        let b = marks
            .iter()
            .position(|m| m.0 == begin)
            .ok_or_else(|| Fail::new(format!("no {begin} mark")))?;
        let e = marks[b..]
            .iter()
            .find(|m| m.0 == end)
            .ok_or_else(|| Fail::new(format!("no {end} mark")))?;
        Ok(Window {
            begin_us: marks[b].1,
            end_us: e.1,
            delta: e.2.since(&marks[b].2),
        })
    }
}

/// A stretch of the traced run: telemetry-clock bounds (µs) and the
/// program-metric delta over it.
#[derive(Debug, Clone)]
pub struct Window {
    pub begin_us: u64,
    pub end_us: u64,
    pub delta: Snap,
}

/// One closed span as recorded by the sink.
struct SpanRec {
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    end_us: u64,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// The recorded spans, indexed by parent.
struct Spans {
    all: Vec<SpanRec>,
    children: HashMap<u64, Vec<usize>>,
    by_id: HashMap<u64, usize>,
}

impl Spans {
    fn from_events(events: &[Event]) -> Self {
        let all: Vec<SpanRec> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd {
                    id,
                    parent,
                    name,
                    t_us,
                    dur_us,
                    ..
                } => Some(SpanRec {
                    id: *id,
                    parent: *parent,
                    name: name.clone(),
                    start_us: t_us.saturating_sub(*dur_us),
                    end_us: *t_us,
                }),
                _ => None,
            })
            .collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut by_id = HashMap::new();
        for (i, s) in all.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
            by_id.insert(s.id, i);
        }
        Spans {
            all,
            children,
            by_id,
        }
    }

    fn within<'a>(&'a self, w: &'a Window) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.all
            .iter()
            .filter(move |s| s.start_us >= w.begin_us && s.end_us <= w.end_us)
    }

    /// Total duration (µs) of the outermost `name` spans inside `w`
    /// (a `name` span nested in another `name` span is not counted twice).
    fn total_us(&self, w: &Window, name: &str) -> f64 {
        self.within(w)
            .filter(|s| s.name == name)
            .filter(|s| {
                self.by_id
                    .get(&s.parent)
                    .is_none_or(|&p| self.all[p].name != name)
            })
            .map(|s| s.dur() as f64)
            .sum()
    }

    /// Σ over `name` spans in `w` of duration minus the union of the
    /// intervals covered by children whose name passes `child`.
    fn self_us(&self, w: &Window, name: &str, child: impl Fn(&str) -> bool) -> f64 {
        self.within(w)
            .filter(|s| s.name == name)
            .map(|s| {
                let mut intervals: Vec<(u64, u64)> = self
                    .children
                    .get(&s.id)
                    .into_iter()
                    .flatten()
                    .map(|&c| &self.all[c])
                    .filter(|c| child(&c.name))
                    .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
                    .collect();
                (s.dur() - covered(&mut intervals)) as f64
            })
            .sum()
    }

    /// Mean time from each `serve.request` span's end (admission) to the
    /// start of the first `serve.batch` span after it (dispatch), µs.
    fn queue_wait_us(&self, w: &Window) -> f64 {
        let mut batches: Vec<u64> = self
            .within(w)
            .filter(|s| s.name == "serve.batch")
            .map(|s| s.start_us)
            .collect();
        batches.sort_unstable();
        let waits: Vec<f64> = self
            .within(w)
            .filter(|s| s.name == "serve.request")
            .filter_map(|s| {
                let next = batches.partition_point(|&b| b < s.end_us);
                batches.get(next).map(|&b| (b - s.end_us) as f64)
            })
            .collect();
        ratio(waits.iter().sum(), waits.len() as f64)
    }
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The per-layer metric names, units and order of `--trace 1` output.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("search.evaluate_us", "us"),
    ("search.evaluations", "count"),
    ("search.cache_hit_ratio", "ratio"),
    ("search.generation_self_us", "us"),
    ("search.barrier_us", "us"),
    ("moo.sort_us", "us"),
    ("moo.hv_us", "us"),
    ("moo.hv_incremental_ratio", "ratio"),
    ("core.forward_us", "us"),
    ("core.forward_archs", "count"),
    ("core.forward_rows_per_call", "rows"),
    ("core.encode_us", "us"),
    ("core.fit_s", "s"),
    ("core.freeze_us", "us"),
    ("nn.lstm_us", "us"),
    ("nn.gcn_us", "us"),
    ("nn.mlp_us", "us"),
    ("tensor.gemm_calls_per_arch", "count"),
    ("tensor.gemm_flops_per_arch", "flop"),
    ("tensor.pack_calls_per_arch", "count"),
    ("tensor.panel_bytes_per_arch_computed", "B"),
    ("autograd.backward_us", "us"),
    ("autograd.tape_nodes", "count"),
    ("hwmodel.simbench_s", "s"),
    ("serve.request_us", "us"),
    ("serve.client_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.max_rps", "req/s"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_us", "us"),
    ("serve.batch_rows_nominal", "rows"),
    ("serve.batch_rows_top", "rows"),
    ("serve.queue_depth_max", "count"),
    ("serve.overloaded", "count"),
    ("serve.publish_us", "us"),
    ("serve.publishes", "count"),
    ("serve.generator_late_p99_us", "us"),
    ("serve.generator_late_max_us", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// One untraced primary pass (the overhead reference), then the traced
/// run: a single search rep plus the full serving schedule.
pub fn traced_run(args: &Args, plan: &Plan, lanes: usize) -> Result<bool, Fail> {
    let mut plan = plan.clone();
    plan.min_reps = 1;
    plan.max_reps = 1;
    plan.search_budget_s = 0.0;
    plan.serve_setups = 1;

    // untraced reference of the primary phase's headline number
    println!("untraced reference pass:");
    let reference = primary_headline(&plan, args.seed, lanes)?;

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| Fail::new(format!("{}: {e}", args.out_dir.display())))?;
    let path = args
        .out_dir
        .join(format!("trace-{}.jsonl", args.workload.name()));
    let spec = TelemetrySpec::parse(&format!("jsonl:{}", path.display())).map_err(Fail::new)?;
    if !spec.install_or_warn() {
        return Err(Fail::new("could not install the telemetry sink"));
    }
    println!("traced pass (recording {}):", path.display());
    let mut rec = Recorder::on();
    let (search, serve) = crate::run_phases(&plan, args.seed, lanes, &mut rec)?;
    hw_pr_nas::obs::metrics::registry().emit();
    hw_pr_nas::obs::shutdown();

    let traced = if plan.primary_is_search {
        search.reps[0].wall_s
    } else {
        serve.outcome.nominal.p50_us()
    };
    let overhead_pct = 100.0 * (traced / reference - 1.0);
    println!(
        "tracing overhead: {} {traced:.6} traced vs {reference:.6} untraced ({overhead_pct:+.1} %)",
        if plan.primary_is_search {
            "search wall s"
        } else {
            "nominal p50 us"
        }
    );

    let text = std::fs::read_to_string(&path)
        .map_err(|e| Fail::new(format!("{}: {e}", path.display())))?;
    let events = hw_pr_nas::obs::report::parse_jsonl(&text).map_err(Fail::new)?;
    let spans = Spans::from_events(&events);
    let values = derive(
        &rec,
        &spans,
        &plan,
        &search.reps[0],
        &serve.outcome,
        search.params,
        overhead_pct,
    )?;
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(crate::finish(&search, &serve.outcome, &metrics))
}

/// Search wall time (search primary) or nominal p50 (serve primary) of
/// one untraced pass, the number the tracing overhead is quoted on. The
/// search runs twice and the second counts: the first search of a
/// process also pays for its page faults and allocator growth.
fn primary_headline(plan: &Plan, seed: u64, lanes: usize) -> Result<f64, Fail> {
    if plan.primary_is_search {
        let config = crate::search::config(plan.space, plan.generations, lanes, seed);
        let mut wall_s = 0.0;
        for _ in 0..2 {
            let trained = crate::setup::train(plan.space, crate::WORLD_SEED, plan.setup)?;
            wall_s = crate::search::timed_search(&trained, &config)?.wall_s;
        }
        Ok(wall_s)
    } else {
        let mut nominal_only = plan.clone();
        nominal_only.serve.max_steps = 0;
        Ok(
            crate::serve_phase(&nominal_only, seed, &mut Recorder::off())?
                .outcome
                .nominal
                .p50_us(),
        )
    }
}

fn derive(
    rec: &Recorder,
    spans: &Spans,
    plan: &Plan,
    search: &SearchOutcome,
    serve: &ServeOutcome,
    params: usize,
    overhead_pct: f64,
) -> Result<HashMap<&'static str, f64>, Fail> {
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    let setup = rec.window("setup.begin", "setup.end")?;
    let search_w = rec.window("search.begin", "search.end")?;
    let serve_w = rec.window("serve.begin", "serve.end")?;
    // forward-path layers are attributed to the primary phase
    let primary = if plan.primary_is_search {
        &search_w
    } else {
        &serve_w
    };

    v.insert("search.evaluate_us", search.evaluate_s * 1e6);
    v.insert("search.evaluations", search.evaluations as f64);
    v.insert(
        "search.cache_hit_ratio",
        ratio(
            search.cache_hits as f64,
            (search.cache_hits + search.cache_misses) as f64,
        ),
    );
    v.insert(
        "search.generation_self_us",
        spans.self_us(&search_w, "search.island", |_| true),
    );
    v.insert(
        "search.barrier_us",
        spans.self_us(&search_w, "search.islands", |c| {
            c == "search.island" || c == "bench.search.evaluate"
        }),
    );
    let d = &search_w.delta;
    v.insert("moo.sort_us", d.hist_sum("moo.sort.us"));
    v.insert("moo.hv_us", d.hist_sum("moo.hv.us"));
    let incremental = d.counter("moo.hv.incremental") as f64;
    v.insert(
        "moo.hv_incremental_ratio",
        ratio(incremental, incremental + d.counter("moo.hv.full") as f64),
    );

    let d = &primary.delta;
    let archs = d.hist_sum("infer.batch.size");
    let rows_per_call = d.hist_mean("infer.batch.size");
    v.insert("core.forward_us", spans.total_us(primary, "infer.frozen"));
    v.insert("core.forward_archs", archs);
    v.insert("core.forward_rows_per_call", rows_per_call);
    v.insert("core.encode_us", spans.total_us(primary, "infer.encode"));
    v.insert("nn.lstm_us", spans.total_us(primary, "infer.lstm"));
    v.insert("nn.gcn_us", spans.total_us(primary, "infer.gcn"));
    v.insert("nn.mlp_us", spans.total_us(primary, "infer.mlp"));
    v.insert(
        "tensor.gemm_calls_per_arch",
        ratio(
            (d.counter("tensor.gemm.calls") + d.counter("tensor.gemm.static_calls")) as f64,
            archs,
        ),
    );
    v.insert(
        "tensor.gemm_flops_per_arch",
        ratio(d.counter("tensor.gemm.flops") as f64, archs),
    );
    v.insert(
        "tensor.pack_calls_per_arch",
        ratio(
            (d.counter("tensor.pack.calls") + d.counter("tensor.pack.static")) as f64,
            archs,
        ),
    );
    // every chunk streams each f32 weight panel once: parameter bytes
    // over rows per chunk (computed, not measured)
    v.insert(
        "tensor.panel_bytes_per_arch_computed",
        ratio(4.0 * params as f64, rows_per_call),
    );

    v.insert("core.fit_s", spans.total_us(&setup, "bench.fit") * 1e-6);
    v.insert("core.freeze_us", spans.total_us(&setup, "bench.freeze"));
    v.insert(
        "hwmodel.simbench_s",
        spans.total_us(&setup, "bench.simbench") * 1e-6,
    );
    v.insert(
        "autograd.backward_us",
        setup.delta.hist_sum("autograd.backward.us"),
    );
    v.insert(
        "autograd.tape_nodes",
        setup.delta.gauge("autograd.tape.nodes"),
    );

    let nominal = &serve.nominal;
    if let Some(w) = &nominal.telemetry {
        let d = &w.delta;
        v.insert("serve.request_us", d.hist_mean("serve.request.us"));
        v.insert("serve.batch_us", d.hist_mean("serve.batch.us"));
        v.insert("serve.batch_rows_nominal", d.hist_mean("serve.batch.rows"));
        v.insert("serve.queue_wait_us", spans.queue_wait_us(w));
    }
    let top = serve
        .top_step
        .map_or(serve.ladder.last(), |i| serve.ladder.get(i));
    if let Some(w) = top.and_then(|p| p.telemetry.as_ref()) {
        v.insert(
            "serve.batch_rows_top",
            w.delta.hist_mean("serve.batch.rows"),
        );
    }
    v.insert(
        "serve.client_us",
        hw_pr_nas::metrics::mean(&nominal.latencies_us),
    );
    v.insert("serve.p99_us", nominal.p99_us());
    v.insert("serve.max_rps", serve.max_rps);
    v.insert("serve.queue_depth_max", serve.queue_depth_max);
    v.insert(
        "serve.overloaded",
        serve_w.delta.counter("serve.overloaded") as f64,
    );
    v.insert("serve.publish_us", median(&serve.publish_us));
    v.insert("serve.publishes", serve.publish_us.len() as f64);
    v.insert(
        "serve.generator_late_p99_us",
        percentile(&nominal.late_us, 99.0),
    );
    v.insert(
        "serve.generator_late_max_us",
        percentile(&nominal.late_us, 100.0),
    );
    v.insert("obs.trace_overhead_pct", overhead_pct);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn union_of_intervals() {
        assert_eq!(covered(&mut []), 0);
        assert_eq!(covered(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(&mut [(3, 4), (0, 10)]), 10);
    }
}
