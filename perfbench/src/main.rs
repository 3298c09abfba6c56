//! End-to-end benchmark of the hw-pr-nas search and serving stacks.
//!
//! ```text
//! perfbench --workload <search-nb201|search-fbnet|serve-openloop>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir DIR]
//! ```
//!
//! Every workload runs a search phase (island search on freshly trained
//! surrogates, scored on true objectives) and a serving phase (open-loop
//! load on an in-process `Server` with hot-swaps). The workload decides
//! which phase is the primary one and gets the time budget; the other
//! runs at a fixed small size so that every end-to-end metric is
//! reported on every workload. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` records a JSONL trace through the program's own
//! sink and prints the per-layer metrics derived from it. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any output-check failure exits with code 1, a set-up or
//! usage problem with code 2.

mod layers;
mod search;
mod serve;
mod setup;
mod stats;

use hw_pr_nas::nasbench::SearchSpaceId;
use layers::Recorder;
use search::SearchOutcome;
use serve::{ServeOutcome, ServePlan};
use setup::SetupSize;
use stats::median;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// Seed of the benchmark tables and surrogate training: the "world" the
/// benchmark runs in is fixed, and `--seed` picks the search trajectory
/// and the request stream within it.
const WORLD_SEED: u64 = 7;

/// A benchmark failure: the run cannot produce trustworthy numbers.
#[derive(Debug)]
pub struct Fail(String);

impl Fail {
    pub fn new(message: impl Into<String>) -> Self {
        Fail(message.into())
    }
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SearchNb201,
    SearchFbnet,
    ServeOpenloop,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "search-nb201" => Some(Self::SearchNb201),
            "search-fbnet" => Some(Self::SearchFbnet),
            "serve-openloop" => Some(Self::ServeOpenloop),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::SearchNb201 => "search-nb201",
            Self::SearchFbnet => "search-fbnet",
            Self::ServeOpenloop => "serve-openloop",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, Fail> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| Fail::new(format!("{flag} needs a value")))?;
        let bad = |what: &str| Fail::new(format!("{flag} {value:?}: expected {what}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("search-nb201, search-fbnet or serve-openloop"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(Fail::new(format!("unknown flag {flag}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| Fail::new("--workload is required"))?,
        seed: seed.ok_or_else(|| Fail::new("--seed is required"))?,
        seconds: seconds.ok_or_else(|| Fail::new("--seconds is required"))?,
        trace,
        smoke,
        out_dir,
    })
}

/// Sizes of one run: derived from the workload and `--seconds` only.
#[derive(Clone)]
struct Plan {
    primary_is_search: bool,
    space: SearchSpaceId,
    generations: usize,
    /// The primary search phase repeats set-up + search until this
    /// budget is spent (at least `min_reps` times).
    search_budget_s: f64,
    min_reps: usize,
    max_reps: usize,
    setup: SetupSize,
    /// Pair set-ups of the serving phase (the last pair serves).
    serve_setups: usize,
    serve: ServePlan,
}

fn plan(workload: Workload, seconds: f64, smoke: bool) -> Plan {
    let full = SetupSize {
        rows: 400,
        full_training: true,
    };
    let serve_full = ServePlan {
        warmup_s: 0.3,
        nominal_s: 0.4 * seconds,
        max_steps: 24,
        step_s: 0.3,
    };
    // the companion serves the nominal phase only: the ladder's top is
    // too host-dependent to bound (see README), so only the primary
    // serving phase climbs it
    let serve_companion = ServePlan {
        nominal_s: 0.2 * seconds,
        max_steps: 0,
        ..serve_full.clone()
    };
    let mut plan = match workload {
        Workload::SearchNb201 => Plan {
            primary_is_search: true,
            space: SearchSpaceId::NasBench201,
            generations: 3000,
            search_budget_s: seconds,
            min_reps: 3,
            max_reps: 12,
            setup: full,
            serve_setups: 1,
            serve: serve_companion,
        },
        Workload::SearchFbnet => Plan {
            primary_is_search: true,
            space: SearchSpaceId::FBNet,
            generations: 100,
            search_budget_s: seconds,
            min_reps: 3,
            max_reps: 12,
            setup: full,
            serve_setups: 1,
            serve: serve_companion,
        },
        Workload::ServeOpenloop => Plan {
            primary_is_search: false,
            space: SearchSpaceId::NasBench201,
            generations: 3000,
            search_budget_s: 0.0,
            min_reps: 5,
            max_reps: 5,
            setup: full,
            serve_setups: 3,
            serve: serve_full,
        },
    };
    if smoke {
        plan.generations = 20;
        plan.search_budget_s = 0.0;
        plan.min_reps = 1;
        plan.max_reps = 1;
        plan.serve_setups = 1;
        plan.setup = SetupSize {
            rows: 64,
            full_training: false,
        };
        plan.serve.warmup_s = 0.05;
        plan.serve.nominal_s = 0.3;
        plan.serve.max_steps = plan.serve.max_steps.min(2);
        plan.serve.step_s = 0.1;
    }
    plan
}

/// Search-phase results: every timed rep plus the 1-lane check search.
struct SearchPhase {
    reps: Vec<SearchOutcome>,
    /// Set-up wall time of each rep (models are dropped after their rep).
    setup_s: Vec<f64>,
    /// Trainable scalars of the surrogate.
    params: usize,
    lanes: usize,
    lanes_agree: bool,
    reps_agree: bool,
}

fn search_phase(
    plan: &Plan,
    seed: u64,
    lanes: usize,
    rec: &mut Recorder,
) -> Result<SearchPhase, Fail> {
    let config = search::config(plan.space, plan.generations, lanes, seed);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut setup_s = Vec::new();
    let mut params = 0;
    while reps.len() < plan.min_reps
        || (reps.len() < plan.max_reps && started.elapsed().as_secs_f64() < plan.search_budget_s)
    {
        rec.mark("setup.begin");
        let trained = setup::train(plan.space, WORLD_SEED, plan.setup)?;
        rec.mark("setup.end");
        rec.mark("search.begin");
        let outcome = search::timed_search(&trained, &config)?;
        rec.mark("search.end");
        println!(
            "  search rep {}: set-up {:.3} s, search {:.3} s, {} evaluations, {:.0} archs/s, \
             cache hit ratio {:.4}, true hv {:.6}",
            reps.len(),
            trained.setup_s(),
            outcome.wall_s,
            outcome.evaluations,
            outcome.evals_per_s(),
            outcome.cache_hits as f64 / (outcome.cache_hits + outcome.cache_misses) as f64,
            outcome.true_hv
        );
        reps.push(outcome);
        setup_s.push(trained.setup_s());
        params = trained.model.parameter_count();
    }
    let reps_agree = reps.iter().all(|r| r.fingerprint == reps[0].fingerprint);

    // the same seeded search on one lane, from a cold model of its own
    let check = setup::train(plan.space, WORLD_SEED, plan.setup)?;
    let single = search::timed_search(
        &check,
        &search::config(plan.space, plan.generations, 1, seed),
    )?;
    let lanes_agree = single.fingerprint == reps[0].fingerprint;
    println!(
        "  check: {} reps agree on archive bits + true hv: {reps_agree}; \
         1 lane vs {lanes} lanes agree: {lanes_agree}",
        reps.len()
    );
    Ok(SearchPhase {
        reps,
        setup_s,
        params,
        lanes,
        lanes_agree,
        reps_agree,
    })
}

/// Runs the primary phase, then the companion phase.
fn run_phases(
    plan: &Plan,
    seed: u64,
    lanes: usize,
    rec: &mut Recorder,
) -> Result<(SearchPhase, ServePhase), Fail> {
    if plan.primary_is_search {
        println!("search phase (primary):");
        let search = search_phase(plan, seed, lanes, rec)?;
        println!("serving phase (companion):");
        Ok((search, serve_phase(plan, seed, rec)?))
    } else {
        println!("serving phase (primary):");
        let serve = serve_phase(plan, seed, rec)?;
        println!("search phase (companion):");
        Ok((search_phase(plan, seed, lanes, rec)?, serve))
    }
}

struct ServePhase {
    outcome: ServeOutcome,
    setup_s: Vec<f64>,
}

fn serve_phase(plan: &Plan, seed: u64, rec: &mut Recorder) -> Result<ServePhase, Fail> {
    let mut setup_s = Vec::new();
    let mut pair = None;
    for _ in 0..plan.serve_setups {
        rec.mark("setup.begin");
        let a = setup::train(SearchSpaceId::NasBench201, WORLD_SEED, plan.setup)?;
        let b = setup::train(SearchSpaceId::NasBench201, WORLD_SEED + 1, plan.setup)?;
        rec.mark("setup.end");
        setup_s.push(a.setup_s() + b.setup_s());
        pair = Some([a, b]);
    }
    let pair = pair.expect("at least one serving set-up");
    let pool = serve::request_pool(seed);
    rec.mark("serve.begin");
    let outcome = serve::run([&pair[0], &pair[1]], &pool, &plan.serve)?;
    rec.mark("serve.end");
    print_serve(&outcome);
    Ok(ServePhase { outcome, setup_s })
}

fn print_serve(outcome: &ServeOutcome) {
    let line = |name: &str, p: &serve::PhaseReport| {
        println!(
            "  {name:<14} rate {:>7.0} req/s: attempted {}, ok {}, failed {} \
             (overloaded {}, error {}, lost {}, mismatch {}), p50 {:.1} us, p99 {:.1} us \
             ({} samples, {} beyond p99), generator late p99 {:.1} us / max {:.1} us, \
             offered {:.0} req/s{}",
            p.rate,
            p.sent,
            p.ok,
            p.failed(),
            p.overloaded,
            p.errors,
            p.lost,
            p.mismatches,
            p.p50_us(),
            p.p99_us(),
            p.latencies_us.len(),
            p.beyond_p99(),
            stats::percentile(&p.late_us, 99.0),
            stats::percentile(&p.late_us, 100.0),
            p.offered_rate,
            if p.aborted {
                " [aborted: backlog ran away]"
            } else if p.valid() {
                ""
            } else {
                " [INVALID: sender fell behind its schedule]"
            }
        );
    };
    line("nominal", &outcome.nominal);
    for (k, p) in outcome.ladder.iter().enumerate() {
        let verdict = if p.passes() { "pass" } else { "miss" };
        line(&format!("ladder {k} {verdict}"), p);
    }
    println!(
        "  hot-swap: {} publishes; replies answered by model A {}, by model B {}",
        outcome.publish_us.len(),
        outcome.answered_by[0],
        outcome.answered_by[1]
    );
}

/// One metric of the final JSON line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Refuses to measure a program whose `HWPR_*` knobs would silently
/// change what is measured.
fn check_environment() -> Result<(), Fail> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HWPR_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(Fail::new(format!(
            "refusing to run with {} set: these knobs change the measured program",
            set.join(", ")
        )))
    }
}

fn run(args: &Args) -> Result<bool, Fail> {
    check_environment()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = nproc.min(search::ISLANDS);
    let plan = plan(args.workload, args.seconds, args.smoke);
    let serve_config = hw_pr_nas::serve::ServeConfig::default();
    println!(
        "perfbench {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke scale)" } else { "" }
    );
    println!(
        "config: nproc {nproc}; precision {:?}, infer batch {}; search {:?}: {} islands x {} \
         per island, {} generations, {lanes} lanes x {} evaluator thread(s); server: {} \
         worker(s), max_batch {}, deadline {} us, queue cap {}; load: 1 connection, \
         1 sender + 1 receiver thread",
        setup::PRECISION,
        setup::INFER_BATCH,
        plan.space,
        search::ISLANDS,
        search::POPULATION,
        plan.generations,
        search::EVALUATOR_THREADS,
        serve_config.worker_count(),
        serve_config.max_batch,
        serve_config.batch_deadline.as_micros(),
        serve_config.queue_cap,
    );
    if lanes * search::EVALUATOR_THREADS > nproc {
        return Err(Fail::new("search lanes x evaluator threads exceed nproc"));
    }
    if args.trace {
        return layers::traced_run(args, &plan, lanes);
    }

    let (search, serve) = run_phases(&plan, args.seed, lanes, &mut Recorder::off())?;
    let setup_s = if plan.primary_is_search {
        median(&search.setup_s)
    } else {
        median(&serve.setup_s)
    };
    let evals_per_s = median(
        &search
            .reps
            .iter()
            .map(SearchOutcome::evals_per_s)
            .collect::<Vec<_>>(),
    );
    let metrics = [
        ("search_evals_per_s", evals_per_s, "archs/s"),
        ("search_true_hv", search.reps[0].true_hv, "hv"),
        ("serve_p50_us", serve.outcome.nominal.p50_us(), "us"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", stats::peak_rss_mib().unwrap_or(0.0), "MiB"),
    ];
    if plan.serve.max_steps > 0 {
        println!(
            "serve max rps (not a bounded metric): {:.1} req/s",
            serve.outcome.max_rps
        );
    }
    Ok(finish(&search, &serve.outcome, &metrics))
}

/// Runs the output checks, prints the operation accounting and the
/// metrics, and ends with the JSON result line. Returns whether every
/// check passed.
fn finish(search: &SearchPhase, serve: &ServeOutcome, metrics: &[Metric]) -> bool {
    let evaluations: u64 = search.reps.iter().map(|r| r.evaluations).sum();
    let requests: u64 = serve.phases().map(|p| p.sent).sum();
    let failed: u64 = serve.phases().map(|p| p.failed()).sum();
    let correct = check_outputs(search, serve);
    println!(
        "operations: attempted {} ({evaluations} search evaluations + {requests} requests), \
         succeeded {}, failed {failed}",
        evaluations + requests,
        evaluations + requests - failed,
    );
    for (name, value, unit) in metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        evaluations + requests,
        body.join(", ")
    );
    correct
}

/// The output checks: determinism of the search, bit-exact serving.
fn check_outputs(search: &SearchPhase, serve: &ServeOutcome) -> bool {
    let mismatches: u64 = serve.phases().map(|p| p.mismatches).sum();
    let errors: u64 = serve.phases().map(|p| p.errors).sum();
    let mut ok = true;
    if !search.reps_agree {
        println!("CHECK FAILED: repeated seeded searches disagree");
        ok = false;
    }
    if !search.lanes_agree {
        println!(
            "CHECK FAILED: the 1-lane search disagrees with the {}-lane search",
            search.lanes
        );
        ok = false;
    }
    if mismatches > 0 {
        println!("CHECK FAILED: {mismatches} served scores match neither model bit for bit");
        ok = false;
    }
    if errors > 0 {
        println!("CHECK FAILED: {errors} requests answered with ERROR");
        ok = false;
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
