//! The serving phase: an in-process `Server` with the default config,
//! driven open-loop over one loopback connection by one sender thread on
//! a fixed schedule and one receiver thread, while the benchmark
//! hot-swaps between two models at a fixed cadence.
//!
//! Every request is timed from the moment it was *due*, so a stall in
//! the server or the generator is charged to every request it delayed.

use crate::layers::{Snap, Window};
use crate::setup::{Trained, PLATFORM};
use crate::stats::{median, percentile};
use crate::Fail;
use hw_pr_nas::core::HwPrNas;
use hw_pr_nas::nasbench::{Architecture, SearchSpaceId};
use hw_pr_nas::serve::protocol::{self, PredictKind, MAX_FRAME, STATUS_OK, STATUS_OVERLOADED};
use hw_pr_nas::serve::{ModelRegistry, ServeConfig, Server};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Registry name every request targets.
const MODEL: &str = "default";
/// Distinct architectures the requests cycle through.
pub const POOL: usize = 4096;
/// Requests per p99 window: at least ten samples lie beyond each p99.
pub const WINDOW: usize = 1000;

/// Offered rate of the warm-up and nominal phases (req/s): batch rows
/// stay near 1, so coalescing barely engages.
pub const NOMINAL_RATE: f64 = 5000.0;
/// p99 latency limit of a ladder step (µs).
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// Hot-swap cadence.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);

/// The load schedule of one serving phase.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub warmup_s: f64,
    pub nominal_s: f64,
    /// Most ladder steps to climb (0: nominal phase only).
    pub max_steps: usize,
    pub step_s: f64,
}

/// One phase of the schedule as measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseReport {
    pub rate: f64,
    pub sent: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub errors: u64,
    /// Sent but never answered (timeouts and dropped connections).
    pub lost: u64,
    pub mismatches: u64,
    /// Latency of every OK reply from its due time, µs, in arrival order.
    pub latencies_us: Vec<f64>,
    /// Sender lateness against the schedule, µs, one per request.
    pub late_us: Vec<f64>,
    /// Whether the sender stopped early because the backlog ran away.
    pub aborted: bool,
    /// Rate the sender actually offered (req/s).
    pub offered_rate: f64,
    /// OK replies per second from phase start to the last reply.
    pub achieved_rate: f64,
    /// Telemetry-clock bounds of the phase and what the program's metrics
    /// recorded in it (traced runs only).
    pub telemetry: Option<Window>,
}

impl PhaseReport {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.errors + self.lost + self.mismatches
    }

    /// The sender kept within 5 % of the rate it was asked to offer.
    pub fn valid(&self) -> bool {
        !self.aborted && self.offered_rate >= 0.95 * self.rate
    }

    pub fn p50_us(&self) -> f64 {
        median(&self.latencies_us)
    }

    /// Median over consecutive [`WINDOW`]-request windows of each
    /// window's p99 (the whole phase's p99 when shorter than a window).
    pub fn p99_us(&self) -> f64 {
        let windows: Vec<f64> = self
            .latencies_us
            .chunks_exact(WINDOW)
            .map(|w| percentile(w, 99.0))
            .collect();
        if windows.is_empty() {
            percentile(&self.latencies_us, 99.0)
        } else {
            median(&windows)
        }
    }

    /// Samples strictly beyond the phase's overall p99.
    pub fn beyond_p99(&self) -> usize {
        let p99 = percentile(&self.latencies_us, 99.0);
        self.latencies_us.iter().filter(|&&l| l > p99).count()
    }

    /// Meets the latency limit with zero failures and no backlog growth.
    pub fn passes(&self) -> bool {
        self.valid()
            && self.failed() == 0
            && self.ok == self.sent
            && self.p99_us() <= LATENCY_LIMIT_US
            && self.final_p50_us() <= LATENCY_LIMIT_US
    }

    /// p50 of the last [`WINDOW`] replies: a backlog that grew during the
    /// phase shows here, a brief stall does not.
    fn final_p50_us(&self) -> f64 {
        let tail = self.latencies_us.len().saturating_sub(WINDOW);
        median(&self.latencies_us[tail..])
    }
}

/// Everything one serving phase measured.
pub struct ServeOutcome {
    /// Unreported warm-up; its replies are still checked and counted.
    pub warmup: PhaseReport,
    pub nominal: PhaseReport,
    pub ladder: Vec<PhaseReport>,
    /// Achieved rate of the highest ladder step that passed (0 if none).
    pub max_rps: f64,
    /// Index into `ladder` of that step.
    pub top_step: Option<usize>,
    pub publish_us: Vec<f64>,
    /// OK replies answered by model A and by model B.
    pub answered_by: [u64; 2],
    /// Highest `serve.queue.depth` gauge value the sender observed
    /// (sampled only while telemetry is on; the gauge is inert otherwise).
    pub queue_depth_max: f64,
}

impl ServeOutcome {
    /// Every phase, warm-up included.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseReport> {
        [&self.warmup, &self.nominal]
            .into_iter()
            .chain(&self.ladder)
    }
}

/// Seeded NAS-Bench-201 request architectures.
pub fn request_pool(seed: u64) -> Vec<Architecture> {
    let mut rng = hw_pr_nas::search::SplitMix64::stream(seed, 0x5e7e);
    (0..POOL)
        .map(|_| Architecture::random(SearchSpaceId::NasBench201, &mut rng))
        .collect()
}

/// Direct f32 `FrozenModel::predict_scores` of `model` over `pool`, as
/// bit patterns: what the server must answer, bit for bit.
pub fn direct_scores(model: &HwPrNas, pool: &[Architecture]) -> Result<Vec<u64>, Fail> {
    let slot = model
        .platforms()
        .iter()
        .position(|&p| p == PLATFORM)
        .ok_or_else(|| Fail::new("model has no Edge GPU head"))?;
    let scores = model
        .frozen()
        .predict_scores(model.encoding_cache(), pool, slot)
        .map_err(|e| Fail::new(format!("direct prediction: {e}")))?;
    Ok(scores.iter().map(|s| s.to_bits()).collect())
}

fn arch_slot(phase: usize, i: u64) -> usize {
    ((phase as u64 * 7919 + i) % POOL as u64) as usize
}

/// Most phases one serving run holds: warm-up, nominal, ladder steps
/// and their retries.
const MAX_PHASES: usize = 64;
/// Ladder growth per step until the first miss, then between the last
/// pass and that miss.
const COARSE: f64 = 1.25;
const FINE: f64 = 1.05;
/// The sender spins (yielding) through the last this-many nanoseconds
/// before a request is due.
const SPIN_NS: u64 = 150_000;
/// Attempts a ladder step gets before it counts as missed: a stall of
/// the shared host must not end the ladder, saturation misses every time.
const ATTEMPTS: usize = 3;

/// State the sender publishes and the receiver reads.
struct Shared {
    t0: Instant,
    /// Nanoseconds after `t0` at which each phase's request 0 was due.
    phase_start_ns: Vec<AtomicU64>,
    /// Each phase's rate (f64 bits), stored before its first request.
    rate_bits: Vec<AtomicU64>,
    sent: AtomicU64,
    received: AtomicU64,
    sender_done: AtomicBool,
    /// Per-phase accounting: the sender appends a phase before sending
    /// into it, the receiver fills in the replies.
    phases: Mutex<Vec<PhaseReport>>,
    answered_by: [AtomicU64; 2],
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn due_ns(&self, phase: usize, i: u64) -> u64 {
        let rate = f64::from_bits(self.rate_bits[phase].load(Ordering::Acquire));
        self.phase_start_ns[phase].load(Ordering::Acquire) + (i as f64 * 1e9 / rate) as u64
    }

    fn outstanding(&self) -> u64 {
        self.sent.load(Ordering::Acquire) - self.received.load(Ordering::Acquire)
    }

    /// Waits until every sent request is answered (or `limit` passes).
    fn drain(&self, limit: Duration) {
        let started = Instant::now();
        while self.outstanding() > 0 && started.elapsed() < limit {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Runs warm-up, the nominal phase and the ladder against a fresh
/// server, hot-swapping between `models` throughout.
pub fn run(
    models: [&Trained; 2],
    pool: &[Architecture],
    plan: &ServePlan,
) -> Result<ServeOutcome, Fail> {
    let expected: Arc<[Vec<u64>; 2]> = Arc::new([
        direct_scores(&models[0].model, pool)?,
        direct_scores(&models[1].model, pool)?,
    ]);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(MODEL, Arc::clone(&models[0].model));
    let mut server = Server::start(Arc::clone(&registry), ServeConfig::default())
        .map_err(|e| Fail::new(format!("server start: {e}")))?;

    let stream =
        TcpStream::connect(server.addr()).map_err(|e| Fail::new(format!("connect: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| Fail::new(e.to_string()))?;
    let reader = stream.try_clone().map_err(|e| Fail::new(e.to_string()))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| Fail::new(e.to_string()))?;

    let shared = Arc::new(Shared {
        t0: Instant::now(),
        phase_start_ns: (0..MAX_PHASES).map(|_| AtomicU64::new(0)).collect(),
        rate_bits: (0..MAX_PHASES).map(|_| AtomicU64::new(0)).collect(),
        phases: Mutex::new(Vec::new()),
        sent: AtomicU64::new(0),
        received: AtomicU64::new(0),
        sender_done: AtomicBool::new(false),
        answered_by: [AtomicU64::new(0), AtomicU64::new(0)],
    });

    let receiver = {
        let shared = Arc::clone(&shared);
        let expected = Arc::clone(&expected);
        std::thread::spawn(move || receive(reader, &shared, &expected))
    };
    let mut sender = Sender {
        stream,
        shared: &shared,
        registry: &registry,
        models,
        pool,
        plan,
        payload: Vec::new(),
        frame: Vec::new(),
        publish_us: Vec::new(),
        live: 0,
        next_publish: Instant::now() + PUBLISH_EVERY,
        queue_depth_max: 0.0,
    };
    let sender_result = sender.schedule();
    shared.sender_done.store(true, Ordering::Release);
    // closing our half tells the server we are done once it has replied
    let _ = sender.stream.shutdown(Shutdown::Write);
    let receiver_result = receiver
        .join()
        .map_err(|_| Fail::new("receiver thread panicked"))?;
    server.stop();
    let top_phase = sender_result?;
    receiver_result?;

    let mut phases = std::mem::take(&mut *shared.phases.lock().expect("phase lock poisoned"));
    // whatever is still unanswered was lost (timeout or dropped connection)
    for p in &mut phases {
        p.lost = p.sent - (p.ok + p.overloaded + p.errors + p.mismatches).min(p.sent);
    }
    let ladder = phases.split_off(2.min(phases.len()));
    let (Some(nominal), Some(warmup)) = (phases.pop(), phases.pop()) else {
        return Err(Fail::new("the nominal phase never ran"));
    };
    let top_step = top_phase.map(|p| p - 2);
    Ok(ServeOutcome {
        max_rps: top_step.map_or(0.0, |i| ladder[i].achieved_rate),
        warmup,
        nominal,
        ladder,
        top_step,
        publish_us: sender.publish_us,
        answered_by: [
            shared.answered_by[0].load(Ordering::Relaxed),
            shared.answered_by[1].load(Ordering::Relaxed),
        ],
        queue_depth_max: sender.queue_depth_max,
    })
}

/// The sending half of the load generator (runs on the caller's thread).
struct Sender<'a> {
    stream: TcpStream,
    shared: &'a Shared,
    registry: &'a ModelRegistry,
    models: [&'a Trained; 2],
    pool: &'a [Architecture],
    plan: &'a ServePlan,
    payload: Vec<u8>,
    frame: Vec<u8>,
    publish_us: Vec<f64>,
    /// Which of `models` is published.
    live: usize,
    next_publish: Instant,
    queue_depth_max: f64,
}

impl Sender<'_> {
    /// Warm-up, nominal phase, then the ladder: steps grow by [`COARSE`]
    /// until one misses, then by [`FINE`] from the last pass up to that
    /// miss. A step misses only after [`ATTEMPTS`] failed attempts.
    /// Returns the phase index of the highest step that passed.
    fn schedule(&mut self) -> Result<Option<usize>, Fail> {
        let plan = self.plan;
        self.phase(NOMINAL_RATE, plan.warmup_s)?;
        self.phase(NOMINAL_RATE, plan.nominal_s)?;
        let mut top = None;
        let mut passed_rate = NOMINAL_RATE;
        let mut ceiling = f64::INFINITY;
        let mut growth = COARSE;
        let mut rate = passed_rate * growth;
        for _ in 0..plan.max_steps {
            if rate >= ceiling || self.phases_used() + ATTEMPTS > MAX_PHASES {
                break;
            }
            // long enough for five p99 windows
            let seconds = plan.step_s.max(5.0 * WINDOW as f64 / rate);
            let (mut phase, mut ok) = self.phase(rate, seconds)?;
            for _ in 1..ATTEMPTS {
                if ok {
                    break;
                }
                (phase, ok) = self.phase(rate, seconds)?;
            }
            if ok {
                top = Some(phase);
                passed_rate = rate;
            } else if growth == COARSE {
                ceiling = rate;
                growth = FINE;
            } else {
                break;
            }
            rate = (passed_rate * growth).round();
        }
        Ok(top)
    }

    fn phases_used(&self) -> usize {
        self.shared
            .phases
            .lock()
            .expect("phase lock poisoned")
            .len()
    }

    /// Offers `rate` req/s for `seconds`, waits for the replies, and
    /// returns the phase index and whether it met the limit.
    fn phase(&mut self, rate: f64, seconds: f64) -> Result<(usize, bool), Fail> {
        let shared = self.shared;
        let n = (rate * seconds).ceil() as u64;
        // a step may hold at most this many unanswered requests before
        // the sender gives up on it: below the server's queue cap, so the
        // ladder never drives the server into shedding
        let max_outstanding = ((rate * LATENCY_LIMIT_US * 1e-6) as u64 * 4).clamp(64, 900);
        shared.drain(Duration::from_secs(5));
        let traced = hw_pr_nas::obs::enabled();
        let before = traced.then(|| (hw_pr_nas::obs::now_us(), Snap::take()));
        let phase = {
            let mut reports = shared.phases.lock().expect("phase lock poisoned");
            reports.push(PhaseReport {
                rate,
                ..PhaseReport::default()
            });
            reports.len() - 1
        };
        let start = shared.now_ns() + 100_000;
        shared.rate_bits[phase].store(rate.to_bits(), Ordering::Release);
        shared.phase_start_ns[phase].store(start, Ordering::Release);
        let queue_depth = hw_pr_nas::obs::metrics::registry().gauge("serve.queue.depth");
        let mut late_us = Vec::with_capacity(n as usize);
        let mut aborted = false;
        let mut i = 0;
        while i < n {
            let due = shared.due_ns(phase, i);
            let now = shared.now_ns();
            if now < due {
                // sleep through long gaps but yield-spin the last stretch
                // of the warm-up and nominal phases: a sleeping thread on
                // a virtual CPU wakes up late, and generator lateness is
                // charged to the request as latency. Ladder steps only
                // sleep, leaving the cores to the server at high rates.
                let gap = due - now;
                if phase >= 2 {
                    std::thread::sleep(Duration::from_nanos(gap));
                } else if gap > SPIN_NS {
                    std::thread::sleep(Duration::from_nanos(gap - SPIN_NS));
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            self.send_one(phase, i)?;
            late_us.push((now - due) as f64 * 1e-3);
            i += 1;
            if traced {
                self.queue_depth_max = self.queue_depth_max.max(queue_depth.get());
            }
            if Instant::now() >= self.next_publish {
                self.publish();
            }
            // only ladder steps give up: warm-up and nominal phases
            // always offer their whole schedule
            if phase >= 2 && shared.outstanding() > max_outstanding {
                aborted = true;
                break;
            }
        }
        let offered_s = shared.now_ns().saturating_sub(start) as f64 * 1e-9;
        shared.drain(Duration::from_secs(2));
        let mut reports = shared.phases.lock().expect("phase lock poisoned");
        let report = &mut reports[phase];
        report.sent = i;
        report.late_us = late_us;
        report.aborted = aborted;
        report.offered_rate = i as f64 / offered_s.max(1e-9);
        report.telemetry = before.map(|(begin_us, snap)| Window {
            begin_us,
            end_us: hw_pr_nas::obs::now_us(),
            delta: Snap::take().since(&snap),
        });
        Ok((phase, report.passes()))
    }

    /// Encodes request `i` of `phase` and writes it as one frame.
    fn send_one(&mut self, phase: usize, i: u64) -> Result<(), Fail> {
        let arch = &self.pool[arch_slot(phase, i)];
        protocol::encode_predict(
            &mut self.payload,
            PredictKind::Scores,
            ((phase as u64) << 32) | i,
            MODEL,
            PLATFORM.name(),
            std::slice::from_ref(arch),
        );
        self.frame.clear();
        self.frame
            .extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&self.payload);
        self.shared.sent.fetch_add(1, Ordering::AcqRel);
        self.stream.write_all(&self.frame).map_err(|e| {
            self.shared.sent.fetch_sub(1, Ordering::AcqRel);
            Fail::new(format!("send: {e}"))
        })
    }

    /// Hot-swaps to the other model, timing `ModelRegistry::publish`.
    fn publish(&mut self) {
        self.live = 1 - self.live;
        let started = Instant::now();
        {
            let _span = hw_pr_nas::obs::span("bench.serve.publish");
            self.registry
                .publish(MODEL, Arc::clone(&self.models[self.live].model));
        }
        self.publish_us.push(started.elapsed().as_secs_f64() * 1e6);
        self.next_publish += PUBLISH_EVERY;
    }
}

/// The receiver: reads every reply, checks its bits against the direct
/// prediction of model A or B, and charges its latency from its due time.
fn receive(mut stream: TcpStream, shared: &Shared, expected: &[Vec<u64>; 2]) -> Result<(), Fail> {
    let mut buf = Vec::new();
    let mut scores = Vec::new();
    let mut idle_since: Option<Instant> = None;
    loop {
        match protocol::read_frame(&mut stream, &mut buf, MAX_FRAME) {
            Ok(true) => idle_since = None,
            Ok(false) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.sender_done.load(Ordering::Acquire) && shared.outstanding() == 0 {
                    break;
                }
                // ten idle seconds with requests outstanding: they are lost
                let idle = *idle_since.get_or_insert_with(Instant::now);
                if shared.outstanding() > 0 && idle.elapsed() > Duration::from_secs(10) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let now = shared.now_ns();
        let head =
            protocol::decode_response_head(&buf).map_err(|e| Fail::new(format!("reply: {e}")))?;
        let phase = (head.request_id >> 32) as usize;
        let i = head.request_id & 0xffff_ffff;
        let mut reports = shared.phases.lock().expect("phase lock poisoned");
        let report = reports
            .get_mut(phase)
            .ok_or_else(|| Fail::new(format!("reply to unknown request {}", head.request_id)))?;
        match head.status {
            STATUS_OK => {
                scores.clear();
                protocol::decode_scores(head.body, &mut scores)
                    .map_err(|e| Fail::new(format!("reply body: {e}")))?;
                let slot = arch_slot(phase, i);
                let bits = scores.first().map(|s| s.to_bits());
                let version = if scores.len() != 1 {
                    None
                } else if bits == Some(expected[0][slot]) {
                    Some(0)
                } else if bits == Some(expected[1][slot]) {
                    Some(1)
                } else {
                    None
                };
                match version {
                    Some(v) => {
                        shared.answered_by[v].fetch_add(1, Ordering::Relaxed);
                        report.ok += 1;
                        let due = shared.due_ns(phase, i);
                        let latency_us = now.saturating_sub(due) as f64 * 1e-3;
                        report.latencies_us.push(latency_us);
                        let since_start =
                            (now - shared.phase_start_ns[phase].load(Ordering::Acquire)) as f64;
                        report.achieved_rate = report.ok as f64 / (since_start * 1e-9);
                    }
                    None => report.mismatches += 1,
                }
            }
            STATUS_OVERLOADED => report.overloaded += 1,
            _ => report.errors += 1,
        }
        drop(reports);
        shared.received.fetch_add(1, Ordering::AcqRel);
    }
    Ok(())
}
