//! The Adam kernel against the textbook update, bit for bit.
//!
//! Every optimiser path in the workspace bottoms out in one row kernel, so
//! these properties pin its drivers to an independently written scalar
//! reference: Kingma & Ba's update (<https://arxiv.org/abs/1412.6980>) for
//! one parameter, with its own learning-rate lookup and its own
//! `1 − β^t` per element.  Raw `f32` bits are compared, so a `-0.0`/`+0.0`
//! or NaN discrepancy cannot hide behind `==`.
//!
//! The inputs go where a vectorised or run-cached kernel could slip:
//! `±0.0`, NaN and `±inf` gradients, subnormal and `-0.0` moments, step
//! counts of 1 and 10⁶, and groups whose step counts interleave — rows
//! appended by densification (step 0) between aged rows — so the drivers'
//! reuse of the bias corrections across a run of equal step counts is
//! exercised at every run boundary.
//!
//! The drivers skip *cold* rows — no gradient, moments all `+0.0` bitwise —
//! because stepping one is the identity.  The cold-row properties feed rows
//! that are cold or one column short of it (`-0.0`, a subnormal or a
//! normal value in `m` or `v`), with and without a received gradient, over
//! `±0`, `±inf` and NaN parameters, and configurations that break each
//! precondition of the skip.

use gs_core::gaussian::{Gaussian, GaussianModel, SH_FLOATS};
use gs_core::math::Vec3;
use gs_core::PARAMS_PER_GAUSSIAN;
use gs_optim::{
    compute_packed, AdamConfig, AdamRowState, AdamWorkItem, GaussianAdam, GradientBuffer, ParamRow,
};
use gs_render::GaussianGradients;
use proptest::prelude::*;

/// Learning rate of parameter `k` of the flat row, read off the row layout
/// `position ‖ log_scale ‖ rotation ‖ sh ‖ opacity`.
fn textbook_lr(config: &AdamConfig, k: usize) -> f32 {
    if k < 3 {
        config.lr_position
    } else if k < 6 {
        config.lr_scale
    } else if k < 10 {
        config.lr_rotation
    } else if k < 10 + SH_FLOATS {
        config.lr_sh
    } else {
        config.lr_opacity
    }
}

/// One Adam step of one parameter at step count `t`.
fn textbook_step(
    config: &AdamConfig,
    k: usize,
    t: u64,
    p: &mut f32,
    g: f32,
    m: &mut f32,
    v: &mut f32,
) {
    let (beta1, beta2) = (config.beta1, config.beta2);
    *m = beta1 * *m + (1.0 - beta1) * g;
    *v = beta2 * *v + (1.0 - beta2) * g * g;
    let m_hat = *m / (1.0 - beta1.powf(t as f32));
    let v_hat = *v / (1.0 - beta2.powf(t as f32));
    *p -= textbook_lr(config, k) * m_hat / (v_hat.sqrt() + config.eps);
}

/// A deterministic stream of test values (SplitMix64).
struct Values(u64);

impl Values {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-scale, scale)`.
    fn uniform(&mut self, scale: f32) -> f32 {
        ((self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
    }

    /// One of `special` a quarter of the time, else a finite value whose
    /// magnitude spans several decades.
    fn float(&mut self, special: &[f32]) -> f32 {
        let pick = self.next() as usize % (4 * special.len().max(1));
        match special.get(pick) {
            Some(&x) => x,
            None => {
                let decade = (self.next() % 7) as i32 - 4;
                self.uniform(10f32.powi(decade))
            }
        }
    }

    fn row(&mut self, special: &[f32], non_negative: bool) -> ParamRow {
        std::array::from_fn(|_| {
            let x = self.float(special);
            if non_negative {
                x.abs()
            } else {
                x
            }
        })
    }

    /// A step count: 10⁶ or a small one, repeating the previous count half
    /// the time so runs of equal counts form.
    fn step(&mut self, previous: u64, small: u64) -> u64 {
        match self.next() % 6 {
            0..=2 => previous,
            3 => 1_000_000,
            _ => 1 + self.next() % small,
        }
    }
}

/// Gradient values the kernel must pass through unchanged in meaning.
const GRAD_SPECIALS: [f32; 7] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,
    -1.0e-40,
];
/// Moment values: `-0.0` and subnormals on both sides of zero.
const MOMENT_SPECIALS: [f32; 4] = [0.0, -0.0, 1.0e-40, -1.0e-40];
/// What the one warm column of an otherwise cold moment row holds: `-0.0`,
/// which a value test (`== 0.0`) would take for cold, subnormals on both
/// sides of zero and a normal value.
const WARM_SPECIALS: [f32; 4] = [-0.0, 1.0e-40, -1.0e-40, 0.25];
/// Parameter values an identity step must hand back bit for bit.
const PARAM_SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

fn assert_bits(label: &str, actual: &ParamRow, expected: &ParamRow) {
    for k in 0..PARAMS_PER_GAUSSIAN {
        assert_eq!(
            actual[k].to_bits(),
            expected[k].to_bits(),
            "{label}, column {k}: {} vs {}",
            actual[k],
            expected[k]
        );
    }
}

/// `GaussianGradients` holding the flat row `g`.
fn gradients_of(g: &ParamRow) -> GaussianGradients {
    let mut d_sh = [0.0; SH_FLOATS];
    d_sh.copy_from_slice(&g[10..10 + SH_FLOATS]);
    GaussianGradients {
        d_position: Vec3::new(g[0], g[1], g[2]),
        d_log_scale: Vec3::new(g[3], g[4], g[5]),
        d_rotation: [g[6], g[7], g[8], g[9]],
        d_sh,
        d_opacity_logit: g[PARAMS_PER_GAUSSIAN - 1],
    }
}

/// A model whose row `i` is `params[i]`.
fn model_with_rows(params: &[ParamRow]) -> GaussianModel {
    let mut model: GaussianModel = (0..params.len())
        .map(|i| Gaussian::isotropic(Vec3::new(i as f32, 0.0, 5.0), 0.3, [0.5; 3], 0.7))
        .collect();
    for (i, row) in params.iter().enumerate() {
        model.set_param_row(i, row);
    }
    model
}

/// Whether every column of `row` holds the bits of `+0.0`.
fn all_positive_zero(row: &ParamRow) -> bool {
    row.iter().all(|x| x.to_bits() == 0)
}

/// One row of a cold-row case: parameters, optimiser state and the gradient
/// it received, if any.
struct Row {
    params: ParamRow,
    state: AdamRowState,
    grad: Option<ParamRow>,
}

impl Row {
    /// Cold: no gradient and every moment bit zero.
    fn is_cold(&self) -> bool {
        self.grad.is_none() && all_positive_zero(&self.state.m) && all_positive_zero(&self.state.v)
    }
}

impl Values {
    /// A cold row, or one whose `m` or `v` has one warm column; a third of
    /// the rows receive a gradient (half of those the all-`+0.0` one).
    fn cold_row(&mut self) -> Row {
        let (mut m, mut v) = ([0.0; PARAMS_PER_GAUSSIAN], [0.0; PARAMS_PER_GAUSSIAN]);
        let column = self.next() as usize % PARAMS_PER_GAUSSIAN;
        let warm = WARM_SPECIALS[self.next() as usize % WARM_SPECIALS.len()];
        match self.next() % 3 {
            0 => {}
            1 => m[column] = warm,
            _ => v[column] = warm,
        }
        let step = [0, 1, 1_000_000][self.next() as usize % 3];
        let grad = match self.next() % 6 {
            0 => Some(self.row(&GRAD_SPECIALS, false)),
            1 => Some([0.0; PARAMS_PER_GAUSSIAN]),
            _ => None,
        };
        Row {
            params: self.row(&PARAM_SPECIALS, false),
            state: AdamRowState { m, v, step },
            grad,
        }
    }
}

/// Steps every row of `rows` through `step_subset` and through
/// `step_detached` — committed, and as a suppressed retry — and checks
/// parameters, moments, step counters and the skip count against the
/// textbook update, bit for bit.  The detached step's back model holds the
/// model's rows at the cold rows and poison everywhere else: the caller's
/// side of the skip.  `skips` says whether `config` lets the drivers skip.
fn check_cold_rows(config: &AdamConfig, rows: &[Row], threads: usize, skips: bool) {
    let n = rows.len();
    let params: Vec<ParamRow> = rows.iter().map(|r| r.params).collect();
    let state: Vec<AdamRowState> = rows.iter().map(|r| r.state.clone()).collect();
    let mut grads = GradientBuffer::new(n);
    for (i, row) in rows.iter().enumerate() {
        if let Some(g) = &row.grad {
            grads.add(i as u32, &gradients_of(g));
        }
    }
    let expected: Vec<(ParamRow, AdamRowState)> = rows
        .iter()
        .map(|row| {
            let (mut p, mut m, mut v) = (row.params, row.state.m, row.state.v);
            let step = row.state.step + 1;
            // Accumulated onto the buffer's +0.0.
            let g = row
                .grad
                .map_or([0.0; PARAMS_PER_GAUSSIAN], |g| g.map(|x| 0.0 + x));
            for k in 0..PARAMS_PER_GAUSSIAN {
                textbook_step(config, k, step, &mut p[k], g[k], &mut m[k], &mut v[k]);
            }
            (p, AdamRowState { m, v, step })
        })
        .collect();
    let cold = rows.iter().filter(|r| r.is_cold()).count();
    let skipped = if skips { cold } else { 0 };
    let check_state = |label: &str, after: &[AdamRowState], want: &[AdamRowState]| {
        for (i, (after, want)) in after.iter().zip(want).enumerate() {
            assert_eq!(after.step, want.step, "{label}: row {i} step");
            assert_bits(&format!("{label}: row {i} m"), &after.m, &want.m);
            assert_bits(&format!("{label}: row {i} v"), &after.v, &want.v);
        }
    };
    let want: Vec<AdamRowState> = expected.iter().map(|(_, s)| s.clone()).collect();
    let indices: Vec<u32> = (0..n as u32).collect();

    let mut model = model_with_rows(&params);
    let mut opt = GaussianAdam::from_rows(config.clone(), state.clone());
    opt.step_subset(&mut model, &grads, &indices);
    for (i, (p, _)) in expected.iter().enumerate() {
        assert_bits(&format!("in place: row {i} params"), &model.param_row(i), p);
    }
    check_state("in place", &opt.export_rows(), &want);
    assert_eq!(opt.take_rows_skipped(), skipped, "in place: rows skipped");

    let model = model_with_rows(&params);
    let mut grad_rows = Vec::new();
    grads.pack_received_into(&indices, &mut grad_rows);
    for commit in [false, true] {
        let label = format!("detached, commit {commit}, threads {threads}");
        let mut back = model.clone();
        for (i, _) in rows.iter().enumerate().filter(|(_, r)| !r.is_cold()) {
            back.set_param_row(i, &[f32::from_bits(0x7fc0_0bad); PARAMS_PER_GAUSSIAN]);
        }
        let mut opt = GaussianAdam::from_rows(config.clone(), state.clone());
        opt.step_detached(&model, &indices, &grad_rows, &mut back, threads, commit);
        for (i, (p, _)) in expected.iter().enumerate() {
            assert_bits(&format!("{label}: row {i} params"), &back.param_row(i), p);
        }
        let (want, skipped) = if commit {
            (&want, skipped)
        } else {
            (&state, 0)
        };
        check_state(&label, &opt.export_rows(), want);
        assert_eq!(opt.take_rows_skipped(), skipped, "{label}: rows skipped");
    }
}

#[test]
fn a_failed_precondition_steps_cold_rows_as_the_textbook_does() {
    // Each configuration breaks one precondition of the skip, so stepping a
    // cold row is no longer the identity — a NaN update, or `-0.0`
    // parameters turned into `+0.0` — and every driver must step it.
    // `β1 = −2` breaks only at even step counts, where `bias1 < 0`.
    let base = AdamConfig::default();
    let failing = [
        AdamConfig {
            eps: 0.0,
            ..base.clone()
        },
        AdamConfig {
            eps: f32::NAN,
            ..base.clone()
        },
        AdamConfig {
            lr_sh: -1.0e-3,
            ..base.clone()
        },
        AdamConfig {
            lr_opacity: -0.0,
            ..base.clone()
        },
        AdamConfig {
            lr_position: f32::INFINITY,
            ..base.clone()
        },
        AdamConfig {
            beta1: 1.0,
            ..base.clone()
        },
        AdamConfig {
            beta1: -2.0,
            ..base.clone()
        },
        AdamConfig {
            beta2: f32::NAN,
            ..base.clone()
        },
    ];
    let rows = |step: u64| -> Vec<Row> {
        [[-0.0; PARAMS_PER_GAUSSIAN], [0.5; PARAMS_PER_GAUSSIAN]]
            .into_iter()
            .map(|params| Row {
                params,
                state: AdamRowState {
                    m: [0.0; PARAMS_PER_GAUSSIAN],
                    v: [0.0; PARAMS_PER_GAUSSIAN],
                    step,
                },
                grad: None,
            })
            .collect()
    };
    for config in &failing {
        for step in [0, 1, 1_000_000] {
            check_cold_rows(config, &rows(step), 1, false);
        }
    }
    // The same rows under the default configuration are skipped.
    check_cold_rows(&base, &rows(1), 1, true);
}

proptest! {
    #[test]
    fn compute_packed_matches_the_textbook_update(
        seed in 0u64..u64::MAX,
        len in 1usize..24,
        uniform_lr in 0u8..2,
    ) {
        let config = if uniform_lr == 1 { AdamConfig::uniform(1e-2) } else { AdamConfig::default() };
        let mut values = Values(seed);
        let mut step = 1;
        let items: Vec<AdamWorkItem> = (0..len)
            .map(|i| {
                step = values.step(step, 5);
                AdamWorkItem {
                    index: i as u32,
                    step,
                    params: values.row(&[0.0, -0.0], false),
                    grad: values.row(&GRAD_SPECIALS, false),
                    m: values.row(&MOMENT_SPECIALS, false),
                    v: values.row(&MOMENT_SPECIALS, true),
                }
            })
            .collect();

        let mut packed = items.clone();
        compute_packed(&config, &mut packed);
        for (i, (item, out)) in items.iter().zip(&packed).enumerate() {
            let (mut p, mut m, mut v) = (item.params, item.m, item.v);
            for k in 0..PARAMS_PER_GAUSSIAN {
                textbook_step(&config, k, item.step, &mut p[k], item.grad[k], &mut m[k], &mut v[k]);
            }
            prop_assert_eq!((out.index, out.step), (item.index, item.step));
            assert_bits(&format!("item {i} params"), &out.params, &p);
            assert_bits(&format!("item {i} m"), &out.m, &m);
            assert_bits(&format!("item {i} v"), &out.v, &v);
        }
    }

    #[test]
    fn step_subset_matches_the_textbook_update_across_interleaved_ages(
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        state_rows in 0usize..40,
        stride in 1usize..4,
    ) {
        let config = AdamConfig::default();
        let mut values = Values(seed);
        // Aged rows share a few step counts; rows appended by densification
        // sit at step 0 between them, and rows past the optimiser's state
        // are grown lazily at step 0 too.
        let state_rows = state_rows.min(n);
        let mut step = 7;
        let rows: Vec<AdamRowState> = (0..state_rows)
            .map(|_| {
                if values.next().is_multiple_of(4) {
                    return AdamRowState {
                        m: [0.0; PARAMS_PER_GAUSSIAN],
                        v: [0.0; PARAMS_PER_GAUSSIAN],
                        step: 0,
                    };
                }
                step = values.step(step, 9);
                AdamRowState {
                    m: values.row(&MOMENT_SPECIALS, false),
                    v: values.row(&MOMENT_SPECIALS, true),
                    step,
                }
            })
            .collect();
        let params: Vec<ParamRow> = (0..n).map(|_| values.row(&[0.0, -0.0], false)).collect();
        let mut model = model_with_rows(&params);
        // Some rows receive gradient (accumulated onto the buffer's +0.0),
        // the rest step with the zero row.
        let mut grads = GradientBuffer::new(n);
        let mut received = vec![None; n];
        for (i, slot) in received.iter_mut().enumerate() {
            if !values.next().is_multiple_of(3) {
                let g = values.row(&GRAD_SPECIALS, false);
                grads.add(i as u32, &gradients_of(&g));
                *slot = Some(g.map(|x| 0.0 + x));
            }
        }
        let indices: Vec<u32> = (0..n as u32).step_by(stride).collect();

        let mut opt = GaussianAdam::from_rows(config.clone(), rows.clone());
        let before = model.clone();
        opt.step_subset(&mut model, &grads, &indices);

        let after = opt.export_rows();
        prop_assert_eq!(after.len(), n);
        for i in 0..n {
            let old = rows.get(i).cloned().unwrap_or(AdamRowState {
                m: [0.0; PARAMS_PER_GAUSSIAN],
                v: [0.0; PARAMS_PER_GAUSSIAN],
                step: 0,
            });
            let mut p = before.param_row(i);
            let (mut m, mut v, mut step) = (old.m, old.v, old.step);
            if indices.contains(&(i as u32)) {
                step += 1;
                let g = received[i].unwrap_or([0.0; PARAMS_PER_GAUSSIAN]);
                for k in 0..PARAMS_PER_GAUSSIAN {
                    textbook_step(&config, k, step, &mut p[k], g[k], &mut m[k], &mut v[k]);
                }
            }
            prop_assert_eq!(after[i].step, step, "row {}", i);
            assert_bits(&format!("row {i} params"), &model.param_row(i), &p);
            assert_bits(&format!("row {i} m"), &after[i].m, &m);
            assert_bits(&format!("row {i} v"), &after[i].v, &v);
        }
    }

    #[test]
    fn cold_rows_match_the_textbook_update(
        seed in 0u64..u64::MAX,
        n in 1usize..24,
        uniform_lr in 0u8..2,
        threads in 1usize..4,
    ) {
        let config = if uniform_lr == 1 { AdamConfig::uniform(1e-2) } else { AdamConfig::default() };
        let mut values = Values(seed);
        let rows: Vec<Row> = (0..n).map(|_| values.cold_row()).collect();
        check_cold_rows(&config, &rows, threads, true);
    }
}
