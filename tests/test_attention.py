"""Attention branches against literal composition oracles and identity laws."""

import numpy as np
import pytest

from dtasnn import tensor as tz
from dtasnn.attention import (TnaParams, TxaParams, dta, dta_gate, gtca, local_attention,
                              ltca, smp, t_na, t_xa, tna_product)
from dtasnn.network import named_leaves
from dtasnn.tensor import ComputationRecord, ShapeError, Tensor, backward, zero_grads

import oracles
import tapes


def f64_params(time_steps, channels, rng, scale=0.3):
    """(T-XA, T-NA) parameters in float64, redrawn from a normal of std *scale*."""
    txa = TxaParams.init(time_steps, channels, rng, dtype=np.float64)
    tna = TnaParams.init(time_steps, channels, rng, dtype=np.float64)
    for _, t in [*named_leaves(txa), *named_leaves(tna)]:
        t.values[...] = rng.standard_normal(t.shape) * scale
    return txa, tna


def binary_spikes(rng, shape, density=0.5, dtype=np.float64):
    return Tensor((rng.random(shape) < density).astype(dtype))


class TestSmp:
    def test_constant_input(self):
        x = Tensor(np.full((2, 1, 3, 4, 4), 1.5))
        np.testing.assert_allclose(smp(x).values, 1.5)

    def test_four_value_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 1, 2, 2))
        assert smp(x).item() == pytest.approx(2.5)

    def test_matches_loop_oracle(self, rng):
        xv = rng.standard_normal((2, 1, 3, 4, 4))
        got = smp(Tensor(xv, dtype=np.float64)).values
        np.testing.assert_array_equal(got, oracles.smp_loop(xv))


class TestLocalAttention:
    def test_zero_kernel_adds_half_scale(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 3, 4, 4)), dtype=np.float64)
        kernel = Tensor(np.zeros((3, 3, 3), dtype=np.float64))
        scale = Tensor(np.array([0.8]), dtype=np.float64)
        out = local_attention(smp(x), kernel, scale, "t")
        assert out.shape == (2, 1, 3)
        np.testing.assert_allclose(out.values, 0.4, rtol=1e-12)

    def test_zero_scale_is_identity(self, rng):
        # the map T-XA adds to the spikes is exactly zero
        x = Tensor(rng.standard_normal((2, 2, 2, 3, 3)), dtype=np.float64)
        kernel = Tensor(rng.standard_normal((2, 2, 3)), dtype=np.float64)
        out = local_attention(smp(x), kernel, Tensor(np.zeros(1), dtype=np.float64), "t")
        np.testing.assert_array_equal(out.values, 0.0)

    @pytest.mark.parametrize("target", ["t", "c"])
    def test_matches_composition_oracle(self, rng, target):
        xv = rng.standard_normal((2, 1, 2, 3, 3))
        T, _, C = 2, 1, 2
        kdim = C if target == "t" else T
        kernel = rng.standard_normal((kdim, kdim, 3))
        scale = np.array([0.6])
        x = Tensor(xv, dtype=np.float64)
        got = local_attention(smp(x), Tensor(kernel, dtype=np.float64),
                              Tensor(scale, dtype=np.float64), target).values
        want = oracles.local_attention_ref(xv, kernel, scale, target)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_bad_target_dim(self, rng):
        x = binary_spikes(rng, (2, 1, 2, 3, 3))
        with pytest.raises(ValueError):
            local_attention(smp(x), Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(1)), "x")

    def test_pooled_layout_mismatch_rejected(self, rng):
        # the spikes themselves, not their (T, B, C) spatial mean
        x = binary_spikes(rng, (2, 1, 2, 3, 3))
        with pytest.raises(Exception, match="pooled"):
            local_attention(x, Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(1)), "t")


def txa_of(x, p):
    """T-XA in full from the engine's two maps, as the gate forms it on binary x."""
    a, b = t_xa(x, p)
    return oracles.t_xa_ref(x.values, a.values, b.values)


class TestTxa:
    def test_zero_params_on_binary_input_is_identity(self, rng):
        # zero kernels and zero scales reduce both branches to the input, and
        # binary values are idempotent under squaring
        p = TxaParams.init(2, 3, rng, dtype=np.float64)
        for t in (p.tla_kernel, p.cla_kernel):
            t.values[...] = 0.0
        x = binary_spikes(rng, (2, 2, 3, 4, 4))
        np.testing.assert_array_equal(txa_of(x, p), x.values)
        gate = dta_gate(x, *t_xa(x, p), None).values
        np.testing.assert_array_equal(gate, oracles.sigmoid_ref(x.values) * x.values)

    def test_zero_input_gives_quarter_scale_product(self, rng):
        p = TxaParams.init(2, 2, rng, dtype=np.float64)
        p.tla_kernel.values[...] = 0.0
        p.cla_kernel.values[...] = 0.0
        p.p_t.values[...] = 0.8
        p.p_c.values[...] = 0.5
        a, b = t_xa(Tensor(np.zeros((2, 1, 2, 3, 3), dtype=np.float64)), p)
        np.testing.assert_allclose(a.values * b.values, 0.25 * 0.8 * 0.5, rtol=1e-12)

    def test_shape_preserved(self, rng):
        p = TxaParams.init(4, 8, rng)
        x = binary_spikes(rng, (4, 2, 8, 6, 6), dtype=np.float32)
        assert [m.shape for m in t_xa(x, p)] == [(4, 2, 8)] * 2
        assert dta_gate(x, *t_xa(x, p), None).shape == (4, 2, 8, 6, 6)

    def test_matches_composition_oracle(self, rng):
        p, _ = f64_params(2, 2, rng)
        xv = rng.standard_normal((2, 1, 2, 3, 3))
        got = txa_of(Tensor(xv, dtype=np.float64), p)
        want = oracles.t_xa_ref(xv, *oracles.t_xa_maps_ref(
            xv, p.tla_kernel.values, p.cla_kernel.values, p.p_t.values, p.p_c.values))
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestTna:
    def test_ltca_impulse_identity(self, rng):
        tc = 4
        p = TnaParams.init(2, 2, rng, dtype=np.float64)
        p.dw.values[...] = 0.0
        p.dw.values[:, 0, 2, 2] = 1.0      # center tap of the 5x5
        p.ddw.values[...] = 0.0
        p.ddw.values[:, 0, 3, 3] = 1.0     # center tap of the 7x7
        p.pw.values[...] = np.eye(tc)[:, :, None, None]
        f = Tensor(rng.standard_normal((1, tc, 8, 8)), dtype=np.float64)
        np.testing.assert_allclose(ltca(f, p).values, f.values, rtol=1e-12)

    def test_ltca_zero_pointwise_gives_zero(self, rng):
        p = TnaParams.init(2, 2, rng, dtype=np.float64)
        p.pw.values[...] = 0.0
        f = Tensor(rng.standard_normal((1, 4, 8, 8)), dtype=np.float64)
        np.testing.assert_array_equal(ltca(f, p).values, 0.0)

    def test_ltca_matches_loop_oracle(self, rng):
        _, p = f64_params(2, 2, rng)
        fv = rng.standard_normal((1, 4, 8, 8))
        got = ltca(Tensor(fv, dtype=np.float64), p).values
        np.testing.assert_allclose(got, oracles.ltca_ref(fv, p), atol=1e-5)

    def test_gtca_zero_bottleneck_gives_zero(self, rng):
        p = TnaParams.init(2, 2, rng, dtype=np.float64)
        for t in (p.mb_squeeze_w, p.mb_squeeze_b, p.mb_expand_w, p.mb_expand_b):
            t.values[...] = 0.0
        f = Tensor(np.full((2, 4, 3, 3), 1.3), dtype=np.float64)
        np.testing.assert_array_equal(gtca(f, p).values, 0.0)

    def test_gtca_identity_bottleneck_passes_constant(self, rng):
        # T*C = 5 is divisible by none of 4, 3, 2, so the bottleneck is 5 wide
        p = TnaParams.init(1, 5, rng, dtype=np.float64)
        p.mb_squeeze_w.values[...] = np.eye(5)
        p.mb_squeeze_b.values[...] = 0.0
        p.mb_expand_w.values[...] = np.eye(5)
        p.mb_expand_b.values[...] = 0.0
        f = Tensor(np.full((2, 5, 3, 3), 2.0), dtype=np.float64)
        np.testing.assert_allclose(gtca(f, p).values, 2.0, rtol=1e-12)

    def test_gtca_matches_matmul_oracle(self, rng):
        _, p = f64_params(2, 2, rng)
        fv = rng.standard_normal((3, 4, 5, 5))
        got = gtca(Tensor(fv, dtype=np.float64), p).values
        np.testing.assert_allclose(got, oracles.gtca_ref(fv, p), atol=1e-7)

    @pytest.mark.parametrize("time_steps,channels,hidden",
                             [(6, 8, 12), (4, 16, 16), (3, 2, 2), (1, 5, 5)])
    def test_bottleneck_ratio_is_largest_divisor_up_to_four(self, rng, time_steps,
                                                             channels, hidden):
        p = TnaParams.init(time_steps, channels, rng)
        tc = time_steps * channels
        assert p.mb_squeeze_w.shape == (hidden, tc)
        assert p.mb_squeeze_b.shape == (hidden,)
        assert p.mb_expand_w.shape == (tc, hidden)

    def test_zero_decode_is_identity(self, rng):
        _, p = f64_params(2, 2, rng)
        p.decode.values[...] = 0.0
        xv = rng.standard_normal((2, 2, 2, 4, 4))
        np.testing.assert_array_equal(t_na(Tensor(xv, dtype=np.float64), p).values, xv)

    def test_zero_input_bias_free_gives_zero(self, rng):
        _, p = f64_params(2, 2, rng)
        p.mb_squeeze_b.values[...] = 0.0
        p.mb_expand_b.values[...] = 0.0
        out = t_na(Tensor(np.zeros((2, 1, 2, 4, 4), dtype=np.float64)), p)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_matches_composition_oracle(self, rng):
        _, p = f64_params(2, 2, rng)
        xv = rng.standard_normal((2, 1, 2, 4, 4))
        got = t_na(Tensor(xv, dtype=np.float64), p).values
        np.testing.assert_allclose(got, oracles.t_na_ref(xv, p), atol=1e-5)


class TestDta:
    def test_no_branch_parameters_is_identity(self, rng):
        x = binary_spikes(rng, (2, 1, 2, 3, 3))
        assert dta(x, None, None) is x

    def test_no_branch_parameters_still_rejects_non_binary_input(self, rng):
        with pytest.raises(ValueError, match="binary"):
            dta(Tensor(rng.standard_normal((2, 1, 2, 3, 3))), None, None)

    def test_zero_spikes_give_zero_output(self, rng):
        txa, tna = f64_params(2, 2, rng)
        out = dta(Tensor(np.zeros((2, 1, 2, 4, 4), dtype=np.float64)), txa, tna)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_gate_bounds_on_random_probes(self, rng):
        # 10^4 elements: zero where spikes are zero, strictly below 1 elsewhere
        txa, tna = f64_params(4, 5, rng)
        spikes = binary_spikes(rng, (4, 5, 5, 10, 10))
        out = dta(spikes, txa, tna).values
        assert out.size == 10_000
        assert np.all(out[spikes.values == 0.0] == 0.0)
        assert np.abs(out).max() < 1.0

    def test_non_binary_input_rejected(self, rng):
        txa, tna = f64_params(2, 2, rng)
        with pytest.raises(ValueError, match="binary"):
            dta(Tensor(rng.standard_normal((2, 1, 2, 3, 3))), txa, tna)

    @pytest.mark.parametrize("en_txa,en_tna", [(True, False), (False, True)])
    def test_single_branch_uses_plain_sigmoid_gate(self, rng, en_txa, en_tna):
        txa, tna = f64_params(2, 2, rng)
        spikes = binary_spikes(rng, (2, 1, 2, 4, 4))
        out = dta(spikes, txa if en_txa else None, tna if en_tna else None).values
        branch = txa_of(spikes, txa) if en_txa else t_na(spikes, tna).values
        want = oracles.sigmoid_ref(branch) * spikes.values
        np.testing.assert_allclose(out, want, rtol=1e-10)

    def test_matches_full_composition_oracle(self, rng):
        txa, tna = f64_params(2, 2, rng)
        spikes = binary_spikes(rng, (2, 1, 2, 4, 4))
        got = dta(spikes, txa, tna).values
        np.testing.assert_allclose(got, oracles.dta_ref(spikes.values, txa, tna),
                                   atol=1e-6)

    def test_components_share_shape(self, rng):
        txa, tna = f64_params(2, 2, rng)
        spikes = binary_spikes(rng, (2, 1, 2, 4, 4))
        o_txa = txa_of(spikes, txa)
        o_tna = t_na(spikes, tna)
        o_dta = dta(spikes, txa, tna)
        assert o_txa.shape == o_tna.shape == o_dta.shape == spikes.shape

    def test_every_parameter_receives_nonzero_grad(self, rng):
        txa, tna = f64_params(4, 2, rng)
        tna.mb_squeeze_b.values += 0.5  # keep the bottleneck ReLU partly live
        spikes = binary_spikes(rng, (4, 2, 2, 5, 5))
        neg_target = Tensor(-rng.standard_normal(spikes.shape), dtype=np.float64)
        named = [*named_leaves(txa), *named_leaves(tna)]
        params = [t for _, t in named]
        zero_grads(params)
        with ComputationRecord():
            out = dta(spikes, txa, tna)
            err = out + neg_target
            backward(tz.mean(err * err))
        assert len(params) == 13
        for name, t in named:
            assert t.grad is not None, f"{name} missing grad"
            assert np.abs(t.grad).max() > 0.0, f"{name} has all-zero grad"


def gate_inputs(rng, shape, dtype=np.float64):
    """Binary spikes that track gradients, T-XA's two (T, B, C) maps and a T-NA output."""
    spikes = Tensor((rng.random(shape) < 0.5).astype(dtype), requires_grad=True)
    a, b = (Tensor(rng.standard_normal(shape[:3]) * 0.5, requires_grad=True, dtype=dtype)
            for _ in range(2))
    tna = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
    return spikes, a, b, tna


# which branches run: both, T-XA only, T-NA only
GATE_MODES = {"both": (True, True), "txa": (True, False), "tna": (False, True)}


class TestDtaGate:
    @pytest.mark.parametrize("mode", GATE_MODES)
    def test_matches_oracle_values_and_gradients(self, rng, mode):
        # the oracle is defined for real-valued spikes, so its central
        # differences give the spikes' gradient at the binary point too
        with_txa, with_tna = GATE_MODES[mode]
        spikes, a, b, tna = gate_inputs(rng, (2, 2, 3, 2, 2))
        a, b = (a, b) if with_txa else (None, None)
        tna = tna if with_tna else None
        probe = rng.standard_normal(spikes.shape)
        inputs = [t for t in (spikes, a, b, tna) if t is not None]
        zero_grads(inputs)
        with ComputationRecord():
            out = dta_gate(spikes, a, b, tna)
            backward(tz.tsum(out * Tensor(probe)))
        values = {id(t): t.values for t in inputs}

        def loss(t, v):
            def at(u):
                return None if u is None else (v if u is t else values[id(u)])
            return float((probe * oracles.dta_gate_ref(at(spikes), at(a), at(b),
                                                       at(tna))).sum())

        want = oracles.dta_gate_ref(spikes.values, None if a is None else a.values,
                                    None if b is None else b.values,
                                    None if tna is None else tna.values)
        np.testing.assert_allclose(out.values, want, rtol=1e-12, atol=1e-15)
        for t in inputs:
            np.testing.assert_allclose(t.grad, oracles.fd_grad(lambda v: loss(t, v), t.values),
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("mode", GATE_MODES)
    def test_forward_bits_equal_the_unfused_composition(self, rng, mode):
        with_txa, with_tna = GATE_MODES[mode]
        spikes, a, b, tna = gate_inputs(rng, (4, 2, 3, 5, 5), dtype=np.float32)
        gate = None
        if with_txa:
            shape = a.shape + (1, 1)
            gate = (spikes + tz.reshape(a, shape)) * (spikes + tz.reshape(b, shape))
        if with_tna:
            gate = tna if gate is None else gate * tna
        want = tz.sigmoid(gate) * spikes
        got = dta_gate(spikes, a if with_txa else None, b if with_txa else None,
                       tna if with_tna else None)
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 256.0, -0.0])
    def test_non_binary_spikes_rejected(self, rng, value):
        spikes, a, b, tna = gate_inputs(rng, (2, 1, 2, 3, 3))
        spikes.values[1, 0, 1, 2, 0] = value
        for args in [(a, b, tna), (None, None, None)]:
            with pytest.raises(ValueError, match="binary"):
                dta_gate(spikes, *args)

    def test_branch_shapes_checked(self, rng):
        spikes, a, b, tna = gate_inputs(rng, (2, 1, 2, 3, 3))
        with pytest.raises(ShapeError, match="T-XA"):
            dta_gate(spikes, a, Tensor(np.zeros((2, 1, 3))), None)
        with pytest.raises(ShapeError, match="T-NA"):
            dta_gate(spikes, None, None, Tensor(np.zeros((2, 1, 2, 3, 4))))

    def test_node_keeps_bytes_for_spikes_and_no_full_size_txa(self, rng):
        spikes, a, b, tna = gate_inputs(rng, (2, 2, 3, 4, 4), dtype=np.float32)
        with ComputationRecord() as rec:
            dta_gate(spikes, a, b, tna)
            (node,) = rec.nodes
        held = [v for v in tapes.closure_values(node.backward_fn) if isinstance(v, np.ndarray)]
        assert not any(isinstance(v, Tensor) for v in tapes.closure_values(node.backward_fn))
        full = [v for v in held if v.size == spikes.size]
        assert sorted(v.dtype.name for v in full) == ["float32", "float32", "uint8"]
        assert any(v is tna.values for v in full)
        assert sum(v.nbytes for v in held) == 9 * spikes.size + 2 * a.values.nbytes


class TestTnaProduct:
    SHAPES = ((2, 3, 4, 5), (2, 3, 1, 1), (2, 3, 4, 5))

    def test_matches_oracle_values_and_gradients(self, rng):
        local, glob, feat = (Tensor(rng.standard_normal(s), requires_grad=True,
                                    dtype=np.float64) for s in self.SHAPES)
        probe = rng.standard_normal(feat.shape)
        args = [local, glob, feat]
        zero_grads(args)
        with ComputationRecord():
            out = tna_product(local, glob, feat)
            backward(tz.tsum(out * Tensor(probe)))
        values = [t.values.copy() for t in args]
        np.testing.assert_allclose(out.values, oracles.tna_product_ref(*values), rtol=1e-12)
        for i, t in enumerate(args):
            def loss(v, i=i):
                return float((probe * oracles.tna_product_ref(
                    *(v if j == i else values[j] for j in range(3)))).sum())
            np.testing.assert_allclose(t.grad, oracles.fd_grad(loss, values[i]),
                                       rtol=1e-6, atol=1e-8)

    def test_bits_equal_two_mul_nodes_and_node_keeps_only_its_operands(self, rng):
        local, glob, feat = (Tensor(rng.standard_normal(s).astype(np.float32),
                                    requires_grad=True) for s in self.SHAPES)
        probe = Tensor(rng.standard_normal(feat.shape).astype(np.float32))
        args = [local, glob, feat]
        results = []
        for fused in (True, False):
            zero_grads(args)
            with ComputationRecord() as rec:
                out = tna_product(*args) if fused else local * glob * feat
                if fused:
                    held = [v for v in tapes.closure_values(rec.nodes[-1].backward_fn)
                            if isinstance(v, np.ndarray)]
                backward(tz.tsum(out * probe))
            results.append([out.values.tobytes()] + [t.grad.tobytes() for t in args])
        assert results[0] == results[1]
        assert sorted(map(id, held)) == sorted(id(t.values) for t in args)

    def test_shapes_checked(self, rng):
        local, glob, feat = (Tensor(rng.standard_normal(s)) for s in self.SHAPES)
        with pytest.raises(ShapeError, match="tna_product"):
            tna_product(local, feat, feat)


def test_dta_spike_gradient_matches_oracle(rng):
    # the full block's gradient with respect to binary spikes, against
    # central differences of the float64 composition oracle
    txa, tna = f64_params(2, 2, rng)
    spikes = Tensor((rng.random((2, 1, 2, 3, 3)) < 0.5).astype(np.float64), requires_grad=True)
    probe = rng.standard_normal(spikes.shape)
    zero_grads([spikes])
    with ComputationRecord():
        backward(tz.tsum(dta(spikes, txa, tna) * Tensor(probe)))
    want = oracles.fd_grad(lambda v: float((probe * oracles.dta_ref(v, txa, tna)).sum()),
                           spikes.values)
    np.testing.assert_allclose(spikes.grad, want, rtol=1e-6, atol=1e-8)
