//! Shared fixtures for the criterion benchmarks (one bench target per
//! experiment kernel; see `benches/`).

#![warn(missing_docs)]
use hwpr_core::{HwPrNas, ModelConfig, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small benchmark table reused across bench targets.
pub fn fixture_bench(n: usize) -> SimBench {
    SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(n),
        seed: 1234,
    })
}

/// A training dataset on CIFAR-10 / Edge GPU.
pub fn fixture_dataset(n: usize) -> SurrogateDataset {
    SurrogateDataset::from_simbench(&fixture_bench(n), Dataset::Cifar10, Platform::EdgeGpu)
        .expect("bench is non-empty")
}

/// A quickly trained HW-PR-NAS model for inference benchmarks.
pub fn fixture_model(n: usize) -> HwPrNas {
    let data = fixture_dataset(n);
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny())
        .expect("training fixture failed");
    model
}

/// A quickly trained FBNet surrogate (22-token LSTM sequences) for the
/// sequence-encoder benchmarks and allocation tests, where the shapes
/// matter and the fit does not; [`ModelConfig::fast`] is the production
/// shape (2-layer, 64-wide LSTM).
pub fn fixture_fbnet_model(n: usize, config: &ModelConfig) -> HwPrNas {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::FBNet,
        sample_size: Some(n),
        seed: 1234,
    });
    let data = SurrogateDataset::from_simbench(&bench, Dataset::Cifar100, Platform::EdgeGpu)
        .expect("bench is non-empty");
    let (model, _) =
        HwPrNas::fit(&data, config, &TrainConfig::tiny()).expect("training fixture failed");
    model
}

/// One single-position mutation of each parent (seeded): offspring that
/// share a token prefix of random length with their parent, as a search
/// generation's mutants do.
pub fn fixture_offspring(parents: &[Architecture], seed: u64) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    parents.iter().map(|p| p.mutate(&mut rng)).collect()
}

/// Deterministic random architectures.
pub fn fixture_archs(space: SearchSpaceId, n: usize) -> Vec<Architecture> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    (0..n)
        .map(|_| Architecture::random(space, &mut rng))
        .collect()
}

/// Deterministic random objective vectors for MOO kernels.
pub fn fixture_objectives(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut state = 0x1234_5678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64
    };
    (0..n)
        .map(|_| (0..dim).map(|_| next() * 100.0).collect())
        .collect()
}

/// Training-step fixtures for the LSTM latency surrogate (Table II
/// hyperparameters), used by the `train_step` bench and the
/// allocation-count regression test.
pub mod train_step {
    use hwpr_autograd::{Tape, Var};
    use hwpr_nn::layers::{Embedding, LayerRng, Lstm, Mlp, MlpConfig};
    use hwpr_nn::optim::{AdamW, Optimizer};
    use hwpr_nn::{Binder, ParamId, Params};
    use hwpr_tensor::{Init, Matrix};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use std::mem;

    /// Shapes and hyperparameters of one surrogate training step.
    #[derive(Debug, Clone)]
    pub struct StepConfig {
        /// Mini-batch size.
        pub batch: usize,
        /// Token sequence length.
        pub seq_len: usize,
        /// Token vocabulary size.
        pub vocab: usize,
        /// Embedding width.
        pub embed: usize,
        /// LSTM hidden width.
        pub hidden: usize,
        /// Stacked LSTM layers.
        pub layers: usize,
        /// Regression-head hidden widths.
        pub head: Vec<usize>,
        /// Dropout ratio after each hidden head layer.
        pub dropout: f32,
        /// Weight-initialisation / data seed.
        pub seed: u64,
    }

    impl StepConfig {
        /// Table II of the paper: batch 128 over 6-token NAS-Bench-201
        /// sequences, 48-wide embedding, a 2-layer 225-unit LSTM, a
        /// `[256, 128]` regression head and dropout 0.02.
        pub fn paper() -> Self {
            Self {
                batch: 128,
                seq_len: 6,
                vocab: 32,
                embed: 48,
                hidden: 225,
                layers: 2,
                head: vec![256, 128],
                dropout: 0.02,
                seed: 17,
            }
        }

        /// A small instance for functional tests — allocation behaviour
        /// and fused/unfused agreement are shape-independent.
        pub fn tiny() -> Self {
            Self {
                batch: 16,
                seq_len: 6,
                vocab: 32,
                embed: 16,
                hidden: 32,
                layers: 2,
                head: vec![32, 16],
                dropout: 0.02,
                seed: 17,
            }
        }
    }

    /// One fixed batch of synthetic supervision: token sequences, a valid
    /// best-first permutation for the listwise loss and normalised
    /// regression targets.
    #[derive(Debug, Clone)]
    pub struct StepData {
        /// `[seq_len][batch]` token ids.
        pub tokens: Vec<Vec<usize>>,
        /// Permutation of the batch consumed by ListMLE.
        pub order: Vec<usize>,
        /// `[batch]` regression targets in `[0, 1]`.
        pub targets: Vec<f32>,
    }

    /// Deterministic synthetic batch for `config` (plain LCG, so repeated
    /// runs and both trainers see identical data).
    pub fn step_data(config: &StepConfig) -> StepData {
        let mut state = config.seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let tokens = (0..config.seq_len)
            .map(|_| (0..config.batch).map(|_| next() % config.vocab).collect())
            .collect();
        let mut order: Vec<usize> = (0..config.batch).collect();
        for i in (1..config.batch).rev() {
            order.swap(i, next() % (i + 1));
        }
        let targets = (0..config.batch)
            .map(|_| (next() % 1000) as f32 / 1000.0)
            .collect();
        StepData {
            tokens,
            order,
            targets,
        }
    }

    /// The PR-2 hot path: fused LSTM-step/linear/loss kernels recorded on
    /// one persistent tape that is `reset` (not dropped) between steps,
    /// with gradient and binding buffers reused through
    /// [`Binder::rebind`] / [`Binder::finish_into`]. After warm-up a step
    /// performs no heap allocation.
    pub struct FusedTrainer {
        config: StepConfig,
        params: Params,
        embedding: Embedding,
        lstm: Lstm,
        head: Mlp,
        opt: AdamW,
        rng: LayerRng,
        tape: Tape,
        bound: Vec<Option<Var>>,
        grads: Vec<Option<Matrix>>,
    }

    impl FusedTrainer {
        /// Builds the surrogate and its training arena.
        pub fn new(config: &StepConfig) -> Self {
            let mut params = Params::new();
            let embedding = Embedding::new(
                &mut params,
                "embed",
                config.vocab,
                config.embed,
                config.seed,
            );
            let lstm = Lstm::new(
                &mut params,
                "lstm",
                config.embed,
                config.hidden,
                config.layers,
                config.seed.wrapping_add(1),
            );
            let head = Mlp::new(
                &mut params,
                "head",
                &MlpConfig {
                    input_dim: config.hidden,
                    hidden: config.head.clone(),
                    output_dim: 1,
                    activation: Default::default(),
                    dropout: config.dropout,
                    seed: config.seed.wrapping_add(2),
                },
            )
            .expect("head dimensions are nonzero");
            Self {
                config: config.clone(),
                params,
                embedding,
                lstm,
                head,
                opt: AdamW::new(3e-4).with_weight_decay(3e-4),
                rng: LayerRng::seed_from_u64(config.seed),
                tape: Tape::new(),
                bound: Vec::new(),
                grads: Vec::new(),
            }
        }

        /// Runs one training step (forward, backward, AdamW update) and
        /// returns the loss value.
        pub fn step(&mut self, data: &StepData) -> f32 {
            self.tape.reset();
            let mut binder = Binder::rebind(
                &mut self.tape,
                &self.params,
                mem::take(&mut self.bound),
                true,
            );
            let mut steps = binder.tape().scratch_vars();
            for ids in &data.tokens {
                steps.push(
                    self.embedding
                        .forward(&mut binder, ids)
                        .expect("ids are in vocabulary"),
                );
            }
            let h = self
                .lstm
                .forward(&mut binder, &steps)
                .expect("step shapes are fixed");
            binder.tape().recycle_vars(steps);
            let score = self
                .head
                .forward(&mut binder, h, &mut self.rng)
                .expect("head shapes are fixed");
            let tape = binder.tape();
            let rank = tape
                .list_mle(score, &data.order)
                .expect("order is a permutation");
            let rank = tape.scale(rank, 1.0 / data.order.len() as f32);
            let mut targets = tape.alloc(self.config.batch, 1);
            targets.as_mut_slice().copy_from_slice(&data.targets);
            let mse = tape
                .mse_loss(score, &targets)
                .expect("target shape matches the score");
            tape.recycle(targets);
            let rmse = tape.sqrt(mse, 1e-9);
            let loss = tape.add(rank, rmse).expect("loss terms are scalar");
            let value = tape.value(loss)[(0, 0)];
            self.bound = binder
                .finish_into(loss, &mut self.grads)
                .expect("backward succeeds on a valid graph");
            self.opt.step(&mut self.params, &self.grads);
            value
        }
    }

    /// The PR-1 shape of the same step, kept as the bench baseline: a
    /// fresh tape every step, the per-gate LSTM graph and per-op linear
    /// layers the fused kernels replaced, and cloned gradient extraction.
    ///
    /// Parameter registration order and init seeds mirror [`FusedTrainer`]
    /// exactly, so both trainers start from identical weights and their
    /// losses stay in lockstep — the differential test below pins the
    /// fused path to this graph.
    pub struct BaselineTrainer {
        config: StepConfig,
        params: Params,
        embed: ParamId,
        cells: Vec<(ParamId, ParamId, ParamId)>,
        head: Vec<(ParamId, ParamId)>,
        opt: AdamW,
        rng: LayerRng,
    }

    impl BaselineTrainer {
        /// Builds the surrogate with the same initial weights as
        /// [`FusedTrainer::new`].
        pub fn new(config: &StepConfig) -> Self {
            let mut params = Params::new();
            let embed = params.add(
                "embed.table",
                config.vocab,
                config.embed,
                Init::Normal(0.1),
                config.seed,
            );
            let lstm_seed = config.seed.wrapping_add(1);
            let mut cells = Vec::new();
            for l in 0..config.layers {
                let in_dim = if l == 0 { config.embed } else { config.hidden };
                let w_ih = params.add(
                    &format!("lstm.l{l}.w_ih"),
                    in_dim,
                    4 * config.hidden,
                    Init::Xavier,
                    lstm_seed.wrapping_add(3 * l as u64),
                );
                let w_hh = params.add(
                    &format!("lstm.l{l}.w_hh"),
                    config.hidden,
                    4 * config.hidden,
                    Init::Xavier,
                    lstm_seed.wrapping_add(3 * l as u64 + 1),
                );
                let mut b = Matrix::zeros(1, 4 * config.hidden);
                for c in config.hidden..2 * config.hidden {
                    b.set(0, c, 1.0);
                }
                let bias = params.add_matrix(&format!("lstm.l{l}.bias"), b);
                cells.push((w_ih, w_hh, bias));
            }
            let head_seed = config.seed.wrapping_add(2);
            let mut dims = vec![config.hidden];
            dims.extend(&config.head);
            dims.push(1);
            let head = dims
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    let wid = params.add(
                        &format!("head.fc{i}.weight"),
                        w[0],
                        w[1],
                        Init::He,
                        head_seed.wrapping_add(i as u64),
                    );
                    let bid = params.add(
                        &format!("head.fc{i}.bias"),
                        1,
                        w[1],
                        Init::Zeros,
                        head_seed.wrapping_add(i as u64),
                    );
                    (wid, bid)
                })
                .collect();
            Self {
                config: config.clone(),
                params,
                embed,
                cells,
                head,
                opt: AdamW::new(3e-4).with_weight_decay(3e-4),
                rng: LayerRng::seed_from_u64(config.seed),
            }
        }

        /// Runs one training step through the pre-fusion graph and
        /// returns the loss value.
        pub fn step(&mut self, data: &StepData) -> f32 {
            let h = self.config.hidden;
            let batch = self.config.batch;
            let mut tape = Tape::new();
            let mut binder = Binder::for_training(&mut tape, &self.params);
            let table = binder.param(self.embed);
            let mut layer_inputs: Vec<Var> = data
                .tokens
                .iter()
                .map(|ids| {
                    binder
                        .tape()
                        .gather_rows(table, ids)
                        .expect("ids are in vocabulary")
                })
                .collect();
            for &(w_ih, w_hh, bias) in &self.cells {
                let w_ih = binder.param(w_ih);
                let w_hh = binder.param(w_hh);
                let bias = binder.param(bias);
                let mut hidden = binder.input(Matrix::zeros(batch, h));
                let mut carry = binder.input(Matrix::zeros(batch, h));
                let mut next_inputs = Vec::with_capacity(layer_inputs.len());
                for &x in &layer_inputs {
                    let tape = binder.tape();
                    let xi = tape.matmul(x, w_ih).expect("lstm input width");
                    let hh = tape.matmul(hidden, w_hh).expect("lstm hidden width");
                    let pre = tape.add(xi, hh).expect("gate shapes match");
                    let gates = tape.add_bias(pre, bias).expect("bias width matches");
                    let i_gate = tape.slice_cols(gates, 0, h).expect("gate block");
                    let f_gate = tape.slice_cols(gates, h, 2 * h).expect("gate block");
                    let g_gate = tape.slice_cols(gates, 2 * h, 3 * h).expect("gate block");
                    let o_gate = tape.slice_cols(gates, 3 * h, 4 * h).expect("gate block");
                    let i_act = tape.sigmoid(i_gate);
                    let f_act = tape.sigmoid(f_gate);
                    let g_act = tape.tanh(g_gate);
                    let o_act = tape.sigmoid(o_gate);
                    let keep = tape.mul(f_act, carry).expect("state shapes match");
                    let write = tape.mul(i_act, g_act).expect("state shapes match");
                    carry = tape.add(keep, write).expect("state shapes match");
                    let c_act = tape.tanh(carry);
                    hidden = tape.mul(o_act, c_act).expect("state shapes match");
                    next_inputs.push(hidden);
                }
                layer_inputs = next_inputs;
            }
            let mut hcur = *layer_inputs.last().expect("sequence is nonempty");
            let last = self.head.len() - 1;
            for (i, &(wid, bid)) in self.head.iter().enumerate() {
                let w = binder.param(wid);
                let b = binder.param(bid);
                let tape = binder.tape();
                let z = tape.matmul(hcur, w).expect("head input width");
                hcur = tape.add_bias(z, b).expect("bias width matches");
                if i < last {
                    hcur = binder.tape().relu(hcur);
                    if self.config.dropout > 0.0 {
                        let keep = 1.0 - self.config.dropout;
                        let cols = binder.tape().value(hcur).cols();
                        let mut mask = Matrix::zeros(batch, cols);
                        for v in mask.as_mut_slice() {
                            *v = if self.rng.gen::<f32>() < keep {
                                1.0 / keep
                            } else {
                                0.0
                            };
                        }
                        hcur = binder
                            .tape()
                            .dropout(hcur, mask)
                            .expect("mask shape matches");
                    }
                }
            }
            let score = hcur;
            let tape = binder.tape();
            let rank = tape
                .list_mle(score, &data.order)
                .expect("order is a permutation");
            let rank = tape.scale(rank, 1.0 / data.order.len() as f32);
            let targets = Matrix::col_vector(&data.targets);
            let mse = tape
                .mse_loss(score, &targets)
                .expect("target shape matches the score");
            let rmse = tape.sqrt(mse, 1e-9);
            let loss = tape.add(rank, rmse).expect("loss terms are scalar");
            let value = tape.value(loss)[(0, 0)];
            let grads = binder
                .finish(loss)
                .expect("backward succeeds on a valid graph");
            self.opt.step(&mut self.params, &grads);
            value
        }
    }
}

/// A counting [`std::alloc::GlobalAlloc`] wrapper around the system
/// allocator, compiled only with the `alloc-count` feature. The
/// `alloc_free` integration test installs it to prove that a steady-state
/// training step performs zero heap allocations.
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-initialised and drop-free, so touching it from inside the
        // allocator never allocates itself
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts every `alloc`/`realloc` of the calling thread before
    /// delegating to [`System`].
    pub struct CountingAllocator;

    // SAFETY: delegates verbatim to the system allocator; the counter is
    // a thread-local cell with no other side effects.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }
    }

    fn count() {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }

    /// Number of heap allocations the calling thread has made. Counted
    /// per thread because the tests of one binary run concurrently: a
    /// process-wide count would include the other tests' allocations.
    pub fn thread_allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::train_step::*;

    #[test]
    fn fused_step_matches_baseline_graph() {
        // identical weights, data and dropout stream: the fused arena
        // path and the PR-1 per-gate graph must produce the same losses
        // step for step (through the optimizer updates too)
        let cfg = StepConfig::tiny();
        let data = step_data(&cfg);
        let mut fused = FusedTrainer::new(&cfg);
        let mut baseline = BaselineTrainer::new(&cfg);
        for step in 0..4 {
            let a = fused.step(&data);
            let b = baseline.step(&data);
            assert!(
                (a - b).abs() < 1e-3,
                "step {step}: fused loss {a} vs baseline {b}"
            );
        }
    }

    #[test]
    fn fused_training_reduces_loss() {
        let cfg = StepConfig::tiny();
        let data = step_data(&cfg);
        let mut fused = FusedTrainer::new(&cfg);
        let first = fused.step(&data);
        let mut last = first;
        for _ in 0..30 {
            last = fused.step(&data);
        }
        assert!(first.is_finite() && last.is_finite());
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }
}
