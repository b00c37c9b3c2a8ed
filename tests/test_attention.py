"""Attention branches against literal composition oracles and identity laws."""

import numpy as np
import pytest

from dtasnn import tensor as tz
from dtasnn.attention import (TnaParams, TxaParams, dta, gtca, local_attention, ltca,
                              smp, t_na, t_xa)
from dtasnn.network import named_leaves
from dtasnn.tensor import ComputationRecord, Tensor, backward, zero_grads

import oracles


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
        xv = rng.standard_normal((2, 1, 3, 4, 4))
        x = Tensor(xv, dtype=np.float64)
        kernel = Tensor(np.zeros((3, 3, 3), dtype=np.float64))
        scale = Tensor(np.array([0.8]), dtype=np.float64)
        out = local_attention(x, smp(x), kernel, scale, "t")
        np.testing.assert_allclose(out.values, xv + 0.4, rtol=1e-12)

    def test_zero_scale_is_identity(self, rng):
        xv = rng.standard_normal((2, 2, 2, 3, 3))
        x = Tensor(xv, dtype=np.float64)
        kernel = Tensor(rng.standard_normal((2, 2, 3)), dtype=np.float64)
        out = local_attention(x, smp(x), kernel, Tensor(np.zeros(1), dtype=np.float64), "t")
        np.testing.assert_array_equal(out.values, xv)

    @pytest.mark.parametrize("target", ["t", "c"])
    def test_matches_composition_oracle(self, rng, target):
        xv = rng.standard_normal((2, 1, 2, 3, 3))
        T, _, C = 2, 1, 2
        kdim = C if target == "t" else T
        kernel = rng.standard_normal((kdim, kdim, 3))
        scale = np.array([0.6])
        x = Tensor(xv, dtype=np.float64)
        got = local_attention(x, smp(x), Tensor(kernel, dtype=np.float64),
                              Tensor(scale, dtype=np.float64), target).values
        want = oracles.local_attention_ref(xv, kernel, scale, target)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_bad_target_dim(self, rng):
        x = binary_spikes(rng, (2, 1, 2, 3, 3))
        with pytest.raises(ValueError):
            local_attention(x, smp(x), Tensor(np.zeros((2, 2, 3))),
                            Tensor(np.zeros(1)), "x")

    def test_pooled_layout_mismatch_rejected(self, rng):
        x = binary_spikes(rng, (2, 1, 2, 3, 3))
        bad_pool = Tensor(np.zeros((2, 1, 3)))
        with pytest.raises(Exception, match="pooled"):
            local_attention(x, bad_pool, Tensor(np.zeros((2, 2, 3))),
                            Tensor(np.zeros(1)), "t")


class TestTxa:
    def test_zero_params_on_binary_input_is_identity(self, rng):
        # zero kernels and zero scales reduce both branches to the input, and
        # binary values are idempotent under squaring
        p = TxaParams.init(2, 3, rng, dtype=np.float64)
        for t in (p.tla_kernel, p.cla_kernel):
            t.values[...] = 0.0
        x = binary_spikes(rng, (2, 2, 3, 4, 4))
        np.testing.assert_array_equal(t_xa(x, p).values, x.values)

    def test_zero_input_gives_quarter_scale_product(self, rng):
        p = TxaParams.init(2, 2, rng, dtype=np.float64)
        p.tla_kernel.values[...] = 0.0
        p.cla_kernel.values[...] = 0.0
        p.p_t.values[...] = 0.8
        p.p_c.values[...] = 0.5
        out = t_xa(Tensor(np.zeros((2, 1, 2, 3, 3), dtype=np.float64)), p)
        np.testing.assert_allclose(out.values, 0.25 * 0.8 * 0.5, rtol=1e-12)

    def test_shape_preserved(self, rng):
        p = TxaParams.init(4, 8, rng)
        x = binary_spikes(rng, (4, 2, 8, 6, 6), dtype=np.float32)
        assert t_xa(x, p).shape == (4, 2, 8, 6, 6)

    def test_matches_composition_oracle(self, rng):
        p, _ = f64_params(2, 2, rng)
        xv = rng.standard_normal((2, 1, 2, 3, 3))
        got = t_xa(Tensor(xv, dtype=np.float64), p).values
        want = oracles.t_xa_ref(xv, p.tla_kernel.values, p.cla_kernel.values,
                                p.p_t.values, p.p_c.values)
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
        branch = t_xa(spikes, txa) if en_txa else t_na(spikes, tna)
        want = oracles.sigmoid_ref(branch.values) * spikes.values
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
        o_txa = t_xa(spikes, txa)
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
