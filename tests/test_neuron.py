"""Spiking dynamics: hand traces, surrogate shape, and the fused multi-step
primitive against the forward oracle and the hand-derived BPTT reference."""

import copy

import numpy as np
import pytest
from scipy.integrate import trapezoid

from dtasnn import gradcheck, neuron
from dtasnn import tensor as tz
from dtasnn.gradcheck import lif_input_grad_oracle
from dtasnn.network import BatchNorm2dLayer, _spike_layer
from dtasnn.neuron import (LifParams, batch_norm_lif, lif_forward, lif_unroll,
                           surrogate_values)
from dtasnn.ops import BatchNormState, MissingStatisticsError, batch_norm_2d
from dtasnn.tensor import ComputationRecord, ShapeError, Tensor, backward, zero_grads

from oracles import batch_norm_lif_ref, lif_bptt_ref, lif_forward_ref
from tapes import closure_values, owner


@pytest.fixture
def params():
    return LifParams(tau=0.5, v_th=1.0, alpha=1.0)


def f64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def input_grad(x: Tensor, p: LifParams, upstream=None) -> np.ndarray:
    """Gradient of ``sum(upstream * spikes)`` w.r.t. the stacked currents."""
    zero_grads([x])
    with ComputationRecord():
        spikes = lif_unroll(x, p)
        loss = tz.tsum(spikes if upstream is None else spikes * Tensor(upstream))
        backward(loss)
    return np.zeros_like(x.values) if x.grad is None else x.grad


class TestLifStep:
    """Hand traces of the membrane update, one step after another."""

    def test_constant_drive_hand_trace(self, params):
        # tau=0.5, v_th=1.0, c=0.6 each step: u = [0.6, 0.9, 1.05, 0.6],
        # spikes = [0, 0, 1, 0]
        c = np.full((4, 1), 0.6)
        u, _ = lif_forward(c, params)
        np.testing.assert_allclose(u[:, 0], [0.6, 0.9, 1.05, 0.6], rtol=1e-12)
        assert lif_unroll(f64(c), params).values[:, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_silent_without_input(self, params):
        u, spikes = lif_forward(np.zeros((5, 3), dtype=np.float32), params)
        assert u.max() == 0.0 and spikes.max() == 0.0
        assert lif_unroll(Tensor(np.zeros((5, 3), dtype=np.float32)), params).values.max() == 0.0

    def test_threshold_boundary_fires_and_resets(self, params):
        u, spikes = lif_forward(np.array([[params.v_th], [0.3]], dtype=np.float32), params)
        assert spikes[:, 0].tolist() == [1.0, 0.0]
        # the reset factor zeroes the carried potential at the next step
        assert u[1, 0] == pytest.approx(0.3)

    def test_shape_mismatch_rejected(self, params):
        # a tensor without a leading time axis is not a stacked current
        with pytest.raises(ShapeError):
            lif_unroll(Tensor(np.float32(0.5)), params)

    @pytest.mark.parametrize("rows,steps", [(5, 2), (1, 2), (4, 0)])
    def test_leading_axis_must_split_into_steps(self, params, rows, steps):
        with pytest.raises(ShapeError):
            lif_unroll(Tensor(np.zeros((rows, 3), dtype=np.float32)), params, steps)

    def test_spikes_exactly_binary(self, params, rng):
        c = Tensor(rng.standard_normal((6, 4, 4)).astype(np.float32))
        assert set(np.unique(lif_unroll(c, params).values)) <= {0.0, 1.0}


class TestSurrogate:
    def test_peak_at_threshold(self):
        p = LifParams(alpha=1.0)
        assert surrogate_values(np.array([1.0]), p)[0] == pytest.approx(1.0)

    def test_halfway_point(self):
        p = LifParams(alpha=1.0, v_th=1.0)
        assert surrogate_values(np.array([1.5]), p)[0] == pytest.approx(0.5)

    def test_outside_support(self):
        p = LifParams(alpha=1.0, v_th=1.0)
        assert surrogate_values(np.array([2.5]), p)[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_symmetric_with_unit_area(self, alpha):
        p = LifParams(alpha=alpha)
        us = np.linspace(p.v_th - 3.0, p.v_th + 3.0, 60001)
        vals = surrogate_values(us, p)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)
        area = trapezoid(vals, us)
        assert area == pytest.approx(1.0, abs=1e-6)
        assert vals.max() == pytest.approx(alpha)
        support = (vals > 0).sum() * (us[1] - us[0])
        assert support == pytest.approx(2.0 / alpha, abs=1e-3)

    def test_keeps_dtype(self):
        assert surrogate_values(np.ones(3, dtype=np.float32), LifParams()).dtype == np.float32

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LifParams(tau=0.0)
        with pytest.raises(ValueError):
            LifParams(v_th=-1.0)
        with pytest.raises(ValueError):
            LifParams(alpha=0.0)


class TestUnroll:
    def test_single_step_reduces_to_lif_step(self, params, rng):
        # T=1: one firing decision, and the gradient is the surrogate alone
        cv = rng.standard_normal((1, 3, 3)) * 0.6 + 1.0
        c = f64(cv, requires_grad=True)
        np.testing.assert_array_equal(lif_unroll(c, params).values, cv >= params.v_th)
        np.testing.assert_array_equal(input_grad(c, params), surrogate_values(cv, params))

    def test_empty_sequence_rejected(self, params):
        with pytest.raises(ShapeError):
            lif_unroll(Tensor(np.zeros((0, 3), dtype=np.float32)), params)

    def test_subthreshold_linearity(self, rng):
        # with no spikes, u(t) = sum_k tau^(t-k) c(k) exactly
        p = LifParams(tau=0.5, v_th=100.0)
        cs = rng.random((5, 4)) * 0.1
        u, spikes = lif_forward(cs, p)
        assert spikes.max() == 0.0
        for t in range(5):
            want = sum(p.tau ** (t - k) * cs[k] for k in range(t + 1))
            np.testing.assert_allclose(u[t], want, rtol=1e-12)

    @pytest.mark.parametrize("detached", [False, True])
    def test_bptt_matches_hand_oracle(self, rng, detached):
        # T=3, 4 neurons: the fused backward equals the manually
        # differentiated recurrence to 1e-6
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        cvals = rng.standard_normal((3, 4)) * 0.4 + 0.8
        got = input_grad(f64(cvals, requires_grad=True), p)
        np.testing.assert_allclose(got, lif_input_grad_oracle(cvals, p), atol=1e-6)

    def test_scalar_current_fanout_gradient(self):
        # one scalar current feeds every step; its grad is the sum over steps
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0)
        base = 0.7
        c = f64([base], requires_grad=True)
        zero_grads([c])
        with ComputationRecord():
            stacked = tz.mul(Tensor(np.ones((3, 1)), dtype=np.float64), c)
            backward(tz.tsum(lif_unroll(stacked, p)))
        oracle = lif_input_grad_oracle(np.full((3, 1), base), p)
        np.testing.assert_allclose(c.grad, oracle.sum(axis=0), atol=1e-9)

    def test_reset_modes_agree_subthreshold(self, rng):
        # without spikes the reset factor is constant 1, so both gradient
        # treatments coincide
        cvals = rng.random((4, 3)) * 0.2
        grads = [input_grad(f64(cvals, requires_grad=True),
                            LifParams(tau=0.5, v_th=10.0, alpha=1.0, reset_detached=d))
                 for d in (False, True)]
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_forward_matches_reference(self, params, rng):
        cvals = rng.standard_normal((5, 2, 3)) * 0.8
        spikes = lif_unroll(f64(cvals), params)
        _, ss = lif_forward_ref(list(cvals), params.tau, params.v_th)
        np.testing.assert_array_equal(spikes.values, np.stack(ss))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("detached", [False, True])
@pytest.mark.parametrize("steps", [1, 6])
class TestFusedPrimitive:
    """The one-node multi-step primitive the network's spiking layers run."""

    @staticmethod
    def currents(rng, steps, dtype):
        # centered near the threshold so that spikes and resets both occur
        return (rng.standard_normal((steps, 3, 2, 4, 4)) * 0.6 + 0.7).astype(dtype)

    def test_spikes_bit_equal_to_forward_oracle(self, rng, steps, detached, dtype):
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        cvals = self.currents(rng, steps, dtype)
        spikes = lif_unroll(Tensor(cvals), p).values
        _, ss = lif_forward_ref(list(cvals), p.tau, p.v_th)
        assert spikes.dtype == dtype
        np.testing.assert_array_equal(spikes, np.stack(ss))
        if steps > 1:
            assert 0.0 < spikes.mean() < 1.0

    def test_gradient_matches_bptt_oracle(self, rng, steps, detached, dtype):
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        cvals = self.currents(rng, steps, dtype)
        upstream = rng.standard_normal(cvals.shape).astype(dtype)
        got = input_grad(Tensor(cvals, requires_grad=True), p, upstream)
        want = lif_input_grad_oracle(cvals, p, upstream)
        assert got.dtype == dtype
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-6 if dtype == np.float64 else 1e-4)

    def test_folded_input_gives_the_same_bits(self, rng, steps, detached, dtype):
        # the backbone's (T*B, ...) layout, split into steps inside the node
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        cvals = self.currents(rng, steps, dtype)
        upstream = rng.standard_normal(cvals.shape).astype(dtype)
        folded = (steps * cvals.shape[1],) + cvals.shape[2:]
        runs = []
        for shape, t in ((cvals.shape, None), (folded, steps)):
            x = Tensor(cvals.reshape(shape), requires_grad=True)
            with ComputationRecord():
                spikes = lif_unroll(x, p, t)
                backward(tz.tsum(spikes * Tensor(upstream.reshape(shape))))
            assert spikes.shape == x.grad.shape == shape
            runs.append((spikes.values.reshape(cvals.shape), x.grad.reshape(cvals.shape)))
        (s_stacked, g_stacked), (s_folded, g_folded) = runs
        np.testing.assert_array_equal(s_folded, s_stacked)
        np.testing.assert_array_equal(g_folded, g_stacked)
        assert np.abs(g_stacked).max() > 0.0

    def test_spike_layer_records_one_tape_node(self, rng, steps, detached, dtype):
        p = LifParams(reset_detached=detached)
        x = Tensor(self.currents(rng, steps, dtype), requires_grad=True)
        with ComputationRecord() as rec:
            out = _spike_layer(x, p, steps)
        # one node, routed from out's slot to x; its closure holds no Tensor
        # and neither the input's memory nor the spikes'
        assert len(rec.nodes) == 1
        (node,) = rec.nodes
        assert node.slot is out.slot and node.inputs == (x,)
        held = closure_values(node.backward_fn)
        assert not any(isinstance(v, Tensor) for v in held)
        kept = [owner(v) for v in held if isinstance(v, np.ndarray)]
        assert kept and not any(a is owner(x.values) or a is owner(out.values) for a in kept)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("detached", [False, True])
@pytest.mark.parametrize("steps", [1, 4, 6])
@pytest.mark.parametrize("tau,v_th,alpha", [(0.5, 1.0, 1.0), (0.3, 0.8, 0.7)])
def test_backward_bits_equal_whole_array_reference(rng, dtype, detached, steps,
                                                   tau, v_th, alpha):
    # the step-at-a-time backward keeps the float ops of the whole-array one;
    # alpha != 1 makes every product in the surrogate inexact, so a changed
    # operand order shows in the bits
    p = LifParams(tau=tau, v_th=v_th, alpha=alpha, reset_detached=detached)
    cvals = (rng.standard_normal((steps, 3, 2, 4, 4)) * 0.6 + 0.7).astype(dtype)
    upstream = rng.standard_normal(cvals.shape).astype(dtype)
    got = input_grad(Tensor(cvals, requires_grad=True), p, upstream)
    us, _ = lif_forward_ref(list(cvals), tau, v_th)
    want = lif_bptt_ref(np.stack(us), upstream, p)
    assert got.dtype == want.dtype == dtype
    assert np.abs(want).max() > 0.0
    np.testing.assert_array_equal(got, want)


def test_gradcheck_entry_runs_fused_primitive(monkeypatch):
    calls = []

    def spy(x, p):
        calls.append(x.shape)
        return lif_unroll(x, p)

    monkeypatch.setattr(neuron, "lif_unroll", spy)
    results = {r.name: r for r in gradcheck.run_suite()}
    assert calls and all(shape == (3, 4) for shape in calls)
    assert results["lif_unroll"].passed
    broken = {r.name: r for r in gradcheck.run_suite(break_op="lif_unroll")}
    assert not broken["lif_unroll"].passed


class TestBatchNormLif:
    """Batch norm and the spiking layer after it as one node: the bits of the
    two-node composition, from a tape that keeps no potentials."""

    STEPS = 3

    @classmethod
    def inputs(cls, rng, dtype, training):
        # (T*B, C, H, W) with T = 3, B = 2; gamma and beta put the normalized
        # currents near the threshold, so spikes, resets and surrogate
        # gradients all occur
        x = (rng.standard_normal((cls.STEPS * 2, 3, 4, 5)) * 1.5 + 0.4).astype(dtype)
        gamma = (0.6 + 0.2 * rng.standard_normal(3)).astype(dtype)
        beta = (0.8 + 0.1 * rng.standard_normal(3)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        st = BatchNormState(3, dtype=dtype)
        if not training:  # stored statistics unlike the batch's
            st.running_mean[:] = (0.3, 0.5, 0.2)
            st.running_var[:] = (2.0, 1.7, 2.5)
            st.batches_tracked = 1
        return x, gamma, beta, g, st

    @staticmethod
    def run(fn, x, gamma, beta, g):
        """Output and the (x, gamma, beta) gradients of ``sum(g * fn(...))``."""
        params = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with ComputationRecord():
            out = fn(*params)
            backward(tz.tsum(out * Tensor(g)))
        return out.values, [p.grad for p in params]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("detached", [False, True])
    def test_bits_equal_two_node_composition(self, rng, dtype, training, detached):
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        x, gamma, beta, g, st = self.inputs(rng, dtype, training)
        st2 = copy.deepcopy(st)
        fused, fused_grads = self.run(
            lambda *a: batch_norm_lif(*a, st, training, p, self.STEPS), x, gamma, beta, g)
        two, two_grads = self.run(
            lambda *a: lif_unroll(batch_norm_2d(*a, st2, training), p, self.STEPS),
            x, gamma, beta, g)
        assert fused.dtype == dtype and 0.0 < fused.mean() < 1.0
        assert fused.tobytes() == two.tobytes()
        for a, b in zip(fused_grads, two_grads):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()
        assert np.abs(fused_grads[0]).max() > 0.0
        for a, b in ((st.running_mean, st2.running_mean), (st.running_var, st2.running_var)):
            assert a.tobytes() == b.tobytes()
        assert st.batches_tracked == st2.batches_tracked == 1  # one update per training call

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("detached", [False, True])
    def test_matches_float64_oracle(self, rng, training, detached):
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        x, gamma, beta, g, st = self.inputs(rng, np.float64, training)
        want, want_mean, want_var, want_grads = batch_norm_lif_ref(
            x, gamma, beta, st.running_mean, st.running_var, training, p, self.STEPS, g)
        got, grads = self.run(
            lambda *a: batch_norm_lif(*a, st, training, p, self.STEPS), x, gamma, beta, g)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(st.running_mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(st.running_var, want_var, rtol=1e-12)
        for a, b in zip(grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_node_keeps_one_full_size_array_and_no_potentials(self, rng, training):
        x, gamma, beta, _, st = self.inputs(rng, np.float32, training)
        xt = Tensor(x, requires_grad=True)
        gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        with ComputationRecord() as rec:
            out = batch_norm_lif(xt, gt, bt, st, training, LifParams(), self.STEPS)
            (node,) = rec.nodes
        assert node.inputs == (xt, gt, bt)
        held = closure_values(node.backward_fn)
        assert not any(isinstance(v, Tensor) for v in held)
        floats = [v for v in held if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
        full = [v for v in floats if v.size == x.size]
        # the deviation d alone: not the input, not the spikes, no (T, ...)
        # potentials
        assert len(full) == 1 and full[0].shape == x.shape
        assert owner(full[0]) is not owner(x) and owner(full[0]) is not owner(out.values)
        assert not any(v.ndim and v.shape[0] == self.STEPS and v.size >= x.size // 2
                       for v in floats)
        assert sum(v.size for v in floats if v.size != x.size) <= 3 * 3

    def test_eval_before_statistics_raises_batch_norms_error(self):
        x = Tensor(np.zeros((2, 2, 2, 2), dtype=np.float32))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        with pytest.raises(MissingStatisticsError) as bn_err:
            batch_norm_2d(x, gamma, beta, BatchNormState(2), training=False)
        with pytest.raises(MissingStatisticsError) as fused_err:
            batch_norm_lif(x, gamma, beta, BatchNormState(2), False, LifParams(), 2)
        assert str(fused_err.value) == str(bn_err.value)

    @pytest.mark.parametrize("rows,steps", [(5, 2), (2, 3), (4, 0)])
    def test_leading_axis_must_split_into_steps(self, rows, steps):
        x = Tensor(np.zeros((rows, 2, 2, 2), dtype=np.float32))
        st = BatchNormState(2)
        with pytest.raises(ShapeError):
            batch_norm_lif(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), st, True,
                           LifParams(), steps)
        assert st.batches_tracked == 0  # refused before the statistics move

    def test_spike_layer_with_batch_norm_records_the_fused_node(self, rng):
        x, gamma, beta, _, st = self.inputs(rng, np.float32, True)
        bn = BatchNorm2dLayer(Tensor(gamma, requires_grad=True),
                              Tensor(beta, requires_grad=True), st)
        xt = Tensor(x, requires_grad=True)
        with ComputationRecord() as rec:
            out = _spike_layer(xt, LifParams(), self.STEPS, bn=bn, training=True)
            (node,) = rec.nodes
        assert node.slot is out.slot and node.inputs == (xt, bn.gamma, bn.beta)
        assert st.batches_tracked == 1
