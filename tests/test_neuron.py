"""Spiking dynamics: hand traces, surrogate shape, and the fused multi-step
primitive against the forward oracle and the hand-derived BPTT reference."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from dtasnn import gradcheck, neuron
from dtasnn import tensor as tz
from dtasnn.gradcheck import lif_input_grad_oracle
from dtasnn.network import _spike_layer
from dtasnn.neuron import LifParams, lif_forward, lif_unroll, surrogate_values
from dtasnn.tensor import ComputationRecord, ShapeError, Tensor, backward, zero_grads

from oracles import lif_bptt_ref, lif_forward_ref
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
