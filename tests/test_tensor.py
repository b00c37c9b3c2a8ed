"""Core tensor and tape semantics: broadcasting, backward rules, determinism."""

import gc
import json
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
from scipy.special import erf

from dtasnn import tensor as tz
from dtasnn.tensor import ComputationRecord, RecordError, ShapeError, Tensor, backward

from oracles import fd_grad, gelu_reference
from tapes import tape_arrays

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def leaf(values, dtype=np.float64):
    return Tensor(np.asarray(values), requires_grad=True, dtype=dtype)


class TestElementwise:
    def test_mul_spike_masking(self):
        out = tz.mul(Tensor([1.0, 0.0, 1.0]), Tensor([0.5, 0.5, 0.5]))
        np.testing.assert_array_equal(out.values, [0.5, 0.0, 0.5])

    def test_add_zero_identity(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        out = tz.add(Tensor(x), Tensor(np.zeros((3, 4), dtype=np.float32)))
        np.testing.assert_array_equal(out.values, x)

    def test_incompatible_shapes_named_in_error(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
            tz.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


class TestBroadcastBackward:
    def test_mul_broadcast_grad_is_column_sums(self, rng):
        # (2,3) x (1,3): the (1,3) operand's grad of the sum equals the
        # column sums of the (2,3) operand, and matches finite differences.
        a_vals = rng.standard_normal((2, 3))
        b_vals = rng.standard_normal((1, 3))
        a, b = leaf(a_vals), leaf(b_vals)
        with ComputationRecord():
            backward(tz.tsum(a * b))
        np.testing.assert_allclose(b.grad, a_vals.sum(axis=0, keepdims=True), rtol=1e-12)

        num = fd_grad(lambda bv: float((a_vals * bv).sum()), b_vals, h=1e-3)
        np.testing.assert_allclose(b.grad, num, atol=1e-7)

    @pytest.mark.parametrize("sa,sb", [((2, 3), (3,)), ((4, 1, 5), (2, 5)),
                                       ((3, 1), (1, 4)), ((2, 2), (2, 2))])
    def test_grad_shape_matches_operand(self, rng, sa, sb):
        a, b = leaf(rng.standard_normal(sa)), leaf(rng.standard_normal(sb))
        with ComputationRecord():
            backward(tz.tsum(a * b))
        assert a.grad.shape == sa
        assert b.grad.shape == sb


class TestBackwardSemantics:
    def test_constant_never_receives_grad(self, rng):
        w = leaf(rng.standard_normal(4))
        x = Tensor(rng.standard_normal(4))  # constant
        with ComputationRecord():
            backward(tz.tsum(w * x))
        np.testing.assert_array_equal(w.grad, x.values)
        assert x.grad is None

    def test_diamond_fanout_accumulates(self):
        a = leaf([2.0, 3.0])
        x = Tensor(np.array([1.0, 4.0]), dtype=np.float64)
        with ComputationRecord():
            backward(tz.tsum(a * x + a * x))
        np.testing.assert_array_equal(a.grad, 2 * x.values)

    def test_backward_twice_raises(self):
        a = leaf([1.0])
        with ComputationRecord():
            loss = tz.tsum(a * a)
            backward(loss)
            with pytest.raises(RecordError):
                backward(loss)

    def test_non_scalar_loss_rejected(self):
        a = leaf([1.0, 2.0])
        with ComputationRecord():
            y = a * a
            with pytest.raises(ShapeError):
                backward(y)

    def test_scalar_loss_seed_defaults_to_ones(self, rng):
        xv = rng.standard_normal(5)
        grads = []
        for explicit in (False, True):
            a = leaf(xv)
            with ComputationRecord():
                loss = tz.tsum(tz.sigmoid(a) * a)
                backward(loss, np.ones_like(loss.values) if explicit else None)
            grads.append(a.grad.tobytes())
        assert grads[0] == grads[1]

    def test_non_scalar_output_takes_a_seed(self, rng):
        a = leaf(rng.standard_normal(3))
        g = rng.standard_normal(3)
        with ComputationRecord():
            backward(a * a, g)
        np.testing.assert_array_equal(a.grad, g * a.values + g * a.values)

    @pytest.mark.parametrize("seed", [np.ones(2), np.ones(3, dtype=np.float32),
                                      np.ones((3, 1))], ids=["shape", "dtype", "rank"])
    def test_seed_must_match_the_output(self, seed):
        a = leaf([1.0, 2.0, 3.0])
        with ComputationRecord():
            y = a * a
            with pytest.raises(ShapeError, match="grad"):
                backward(y, seed)
            backward(y, np.ones(3))  # a refused seed leaves the record usable
        np.testing.assert_array_equal(a.grad, 2 * a.values)

    def test_loss_without_record_rejected(self):
        with pytest.raises(RecordError):
            backward(Tensor([1.0]))

    def test_unreachable_grads_untouched(self, rng):
        used, unused = leaf(rng.standard_normal(3)), leaf(rng.standard_normal(3))
        with ComputationRecord():
            backward(tz.tsum(used * used))
        assert used.grad is not None
        assert unused.grad is None

    def test_only_leaves_keep_gradients(self):
        a = leaf([2.0, -3.0])
        x = Tensor(np.array([0.5, 4.0]), dtype=np.float64)
        with ComputationRecord():
            y = a * x
            z = y * y
            loss = tz.tsum(z)
            backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        # d/da sum((a x)^2) = 2 a x^2
        np.testing.assert_array_equal(a.grad, 2.0 * a.values * x.values ** 2)

    def test_params_reusable_across_records(self):
        a = leaf([3.0])
        for _ in range(3):
            tz.zero_grads([a])
            with ComputationRecord():
                backward(tz.tsum(a * a))
            np.testing.assert_array_equal(a.grad, [6.0])

    def test_cross_record_tensor_rejected(self):
        a = leaf([1.0])
        two = Tensor([2.0], dtype=np.float64)
        with ComputationRecord():
            y = a * two
        with ComputationRecord():
            with pytest.raises(RecordError):
                y * two

    def test_tape_freed_when_its_own_backward_returns(self):
        # with the cyclic GC off, only the engine can free a finished tape
        a = leaf([0.5, -1.0])
        two = Tensor([2.0], dtype=np.float64)
        gc.disable()
        try:
            with ComputationRecord() as rec:
                y = a * two
                s = tz.sigmoid(y)
                loss = tz.tsum(s)
                # every output but the loss, and every array the closures
                # name but the leaf's and the constant's, which this frame holds
                taped = [weakref.ref(v) for v in [y.values, s.values] + tape_arrays(rec)
                         if v is not a.values and v is not two.values]
                del y, s
                backward(loss)
                alive = [r for r in taped if r() is not None]
        finally:
            gc.enable()
        assert len(taped) == 3 and not alive and rec.nodes == []
        assert a.grad is not None

    def test_node_released_before_earlier_nodes_run(self):
        # a node's output and closure die before the nodes recorded
        # before it run, so their backward can reuse that memory
        a = leaf([0.5, -1.0])
        seen = []

        def bwd(g):
            seen.append((len(rec.nodes), later()))
            return (g,)

        gc.disable()
        try:
            with ComputationRecord() as rec:
                y = tz.sigmoid(tz.apply_primitive((a,), a.values.copy(), bwd))
                later = weakref.ref(y.values)
                loss = tz.tsum(y)
                del y
                recorded = len(rec.nodes)
                backward(loss)
        finally:
            gc.enable()
        assert recorded == 3 and seen == [(0, None)]

    def test_block_that_raises_drops_its_tape(self):
        a = leaf([0.5, -1.0])
        gc.disable()
        try:
            with pytest.raises(ZeroDivisionError):
                with ComputationRecord() as rec:
                    y = a * a
                    s = tz.sigmoid(y)
                    loss = tz.tsum(s)
                    taped = [weakref.ref(v) for v in [y.values, s.values] + tape_arrays(rec)
                             if v is not a.values]
                    del y, s
                    1 / 0
            alive = [r for r in taped if r() is not None]
        finally:
            gc.enable()
        assert len(taped) == 3 and not alive and rec.nodes == []
        with pytest.raises(RecordError):
            backward(loss)
        assert a.grad is None

    def test_tape_cleared_when_a_node_backward_raises(self):
        a = leaf([0.5, -1.0])

        def bwd(g):
            raise FloatingPointError("bad partial")

        with ComputationRecord() as rec:
            loss = tz.tsum(tz.sigmoid(tz.apply_primitive((a,), a.values.copy(), bwd)))
            with pytest.raises(FloatingPointError):
                backward(loss)
        assert rec.nodes == []
        with pytest.raises(RecordError):
            backward(loss)


class TestAllocatorThresholds:
    def test_thresholds_set_through_mallopt(self):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        tz._keep_freed_pages(lambda name: libc)
        # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 1 GiB
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_library_without_mallopt_skipped(self):
        def unloadable(name):
            raise OSError("no C library")

        tz._keep_freed_pages(lambda name: types.SimpleNamespace())
        tz._keep_freed_pages(unloadable)


class TestBlasThreads:
    def test_every_loaded_openblas_runs_one_thread(self):
        # a fresh interpreter asked for two threads: after the import, every
        # OpenBLAS in its memory map is pinned and reports one thread
        probe = ("import ctypes, json\n"
                 "from dtasnn import tensor\n"
                 "maps = {l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l}\n"
                 "print(json.dumps([sorted(maps), sorted(p for p, _ in tensor.BLAS_PINNED),\n"
                 "    [getattr(ctypes.CDLL(p), g)() for p, g in tensor.BLAS_PINNED]]))\n")
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env["OPENBLAS_NUM_THREADS"] = "2"
        env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        loaded, pinned, threads = json.loads(run.stdout)
        # numpy's and scipy's wheels each bring their own build
        assert loaded and pinned == loaded
        assert threads == [1] * len(loaded)

    def test_symbols_tried_per_library(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text("7f00 r-xp 0 08:01 1 /lib/a-openblas.so\n"
                        "7f01 r-xp 0 08:01 2 /lib/libc.so\n"
                        "7f02 r-xp 0 08:01 3 /lib/b-openblas.so\n"
                        "7f03 r-xp 0 08:01 4 /lib/c-openblas.so\n")
        calls = []

        def setter(name):
            def set_num_threads(n):
                calls.append((name, n))
            return set_num_threads

        libs = {"/lib/a-openblas.so": types.SimpleNamespace(
                    scipy_openblas_set_num_threads=setter("a")),
                "/lib/b-openblas.so": types.SimpleNamespace(
                    openblas_set_num_threads64_=setter("b"))}

        def open_lib(path):
            if path not in libs:
                raise OSError(path)
            return libs[path]

        pinned = tz._pin_blas_threads(str(maps), open_lib)
        assert calls == [("a", 1), ("b", 1)]
        assert pinned == [("/lib/a-openblas.so", "scipy_openblas_get_num_threads"),
                          ("/lib/b-openblas.so", "openblas_get_num_threads64_")]
        assert tz._pin_blas_threads(str(tmp_path / "missing"), open_lib) == []


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert tz.sigmoid(Tensor([0.0])).item() == pytest.approx(0.5)

    def test_gelu_against_independent_erf(self):
        # x * Phi(x) with Phi evaluated through math.erf
        got = tz.gelu(Tensor([1.0], dtype=np.float64)).item()
        assert got == pytest.approx(0.841345, abs=1e-6)
        xs = np.linspace(-3, 3, 31)
        out = tz.gelu(Tensor(xs, dtype=np.float64))
        np.testing.assert_allclose(out.values, gelu_reference(xs), atol=1e-12)

    @pytest.mark.parametrize("op", [tz.sigmoid, tz.gelu, tz.relu])
    def test_activation_grads_match_fd(self, rng, op):
        x_vals = rng.standard_normal(7) + 0.1
        x = leaf(x_vals)
        probe = Tensor(rng.standard_normal(7), dtype=np.float64)
        with ComputationRecord():
            backward(tz.tsum(op(x) * probe))
        num = fd_grad(lambda v: float((op(Tensor(v, dtype=np.float64)).values
                                       * probe.values).sum()), x_vals)
        np.testing.assert_allclose(x.grad, num, atol=1e-6)


class TestGeluSlope:
    """GELU's node keeps the slope Phi(x) + x * phi(x), formed in the forward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_array_and_the_old_gradient_bytes(self, rng, dtype):
        av = (2 * rng.standard_normal((4, 5))).astype(dtype)
        g = rng.standard_normal((4, 5)).astype(dtype)
        x = Tensor(av, requires_grad=True)
        with ComputationRecord() as rec:
            out = tz.gelu(x)
            held = tape_arrays(rec)
            backward(out, g)
        assert [(a.dtype, a.shape) for a in held] == [(np.dtype(dtype), av.shape)]
        # the node used to keep the input and its CDF, and form this in its backward
        cdf = 0.5 * (1.0 + erf(av * tz._INV_SQRT2))
        pdf = tz._INV_SQRT2PI * np.exp(-0.5 * av * av)
        assert x.grad.tobytes() == (g * (cdf + av * pdf)).tobytes()
        untaped = tz.gelu(Tensor(av)).values
        assert untaped.tobytes() == out.values.tobytes() == (av * cdf).astype(dtype).tobytes()


class TestRecompute:
    """``recompute(fn, *inputs)``: one node that keeps its inputs' arrays and
    rebuilds *fn* in its backward."""

    @staticmethod
    def run_region(dtype, recomputed):
        # x feeds the region and the loss beside it, v is an intermediate,
        # w is read by closure and the constant c gets no partial
        rng = np.random.default_rng(7)
        x, b, w = (Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=dtype)
                   for _ in range(3))
        c, probe = (Tensor(rng.standard_normal((3, 4)), dtype=dtype) for _ in range(2))

        def region(x, v, c):
            return tz.gelu(x * c + v) * w

        with ComputationRecord() as rec:
            v = tz.sigmoid(b)
            y = tz.recompute(region, x, v, c) if recomputed else region(x, v, c)
            nodes = len(rec.nodes)
            loss = tz.tsum((y + x) * probe)
            backward(loss)
        assert c.grad is None
        return nodes, [y.values.tobytes(), loss.values.tobytes()] + [
            t.grad.tobytes() for t in (x, b, w)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_plain_region(self, dtype):
        nodes, got = self.run_region(dtype, True)
        plain_nodes, want = self.run_region(dtype, False)
        assert got == want
        assert (nodes, plain_nodes) == (2, 5)

    def test_node_keeps_only_its_inputs(self, rng):
        # as they are: a binary input is not packed either
        x = leaf(rng.standard_normal((2, 3)))
        s = Tensor((rng.random((2, 3)) < 0.5).astype(np.float64))
        with ComputationRecord() as rec:
            y = tz.recompute(lambda x, s: tz.gelu(x) * s, x, s)
            held = tape_arrays(rec)
            backward(y, np.ones_like(y.values))
        assert sorted(map(id, held)) == sorted([id(x.values), id(s.values)])

    @pytest.mark.parametrize("beside", [False, True], ids=["only", "beside"])
    def test_untraced_inputs_still_give_closure_read_parameters_gradients(self, rng, beside):
        # every input is a constant, so the region is taped as a plain call;
        # the loss runs only through it, or also through another leaf u
        w, u = leaf(rng.standard_normal(3)), leaf(rng.standard_normal(3))
        c = Tensor(rng.standard_normal(3), dtype=np.float64)

        def region(c):
            return tz.gelu(c * w)

        def grad_of_w(recomputed):
            w.grad = None
            with ComputationRecord():
                y = tz.recompute(region, c) if recomputed else region(c)
                backward(tz.tsum(y + u if beside else y))
            return w.grad.tobytes()

        assert grad_of_w(True) == grad_of_w(False)

    def test_without_a_record_it_is_a_plain_call(self, rng):
        x = leaf(rng.standard_normal(3))
        seen = []

        def fn(x):
            seen.append(tz._ACTIVE)
            return tz.gelu(x)

        y = tz.recompute(fn, x)
        assert seen == [None] and y.rec is None and y.slot is None
        assert y.values.tobytes() == tz.gelu(x).values.tobytes()

    @pytest.mark.parametrize("fail", [False, True])
    def test_outer_record_active_after_the_backward(self, rng, fail):
        x = leaf(rng.standard_normal(3))
        seen = []

        def fn(x):
            seen.append(tz._ACTIVE)
            if fail and len(seen) == 2:
                raise FloatingPointError("in the rebuild")
            return tz.gelu(x)

        with ComputationRecord() as rec:
            loss = tz.tsum(tz.recompute(fn, x))
            if fail:
                with pytest.raises(FloatingPointError):
                    backward(loss)
            else:
                backward(loss)
            assert tz._ACTIVE is rec
        assert seen[0] is None and isinstance(seen[1], ComputationRecord)
        assert seen[1] is not rec and len(seen) == 2
        assert rec.nodes == [] and (x.grad is None) == fail


class TestReductions:
    def test_mean_of_constant(self):
        x = Tensor(np.full((2, 1, 3, 4, 4), 2.5))
        assert tz.mean(x, axes=(3, 4)).values.max() == pytest.approx(2.5)

    def test_mean_four_values(self):
        assert tz.mean(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == pytest.approx(2.5)

    def test_mean_backward_distributes_uniformly(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        with ComputationRecord():
            backward(tz.mean(x))
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            tz.mean(Tensor(np.zeros((2, 2))), axes=(5,))


class TestLayout:
    def test_reshape_round_trip(self, rng):
        x_vals = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        back = tz.reshape(tz.reshape(Tensor(x_vals), (6, 4, 4)), (2, 3, 4, 4))
        np.testing.assert_array_equal(back.values, x_vals)

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            tz.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_transpose_2d(self):
        out = tz.transpose(Tensor([[1.0, 2.0], [3.0, 4.0]]), (1, 0))
        np.testing.assert_array_equal(out.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_relayout_grads_round_trip_to_ones(self, rng):
        x = leaf(rng.standard_normal((2, 3, 4)))
        with ComputationRecord():
            y = tz.transpose(tz.reshape(x, (6, 4)), (1, 0))
            backward(tz.tsum(y))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def test_forward_determinism(rng):
    x_vals = rng.standard_normal((4, 5)).astype(np.float32)

    def run():
        x = Tensor(x_vals)
        scale = Tensor(np.float32(0.7))
        shift = Tensor(np.float32(0.1))
        return tz.tsum(tz.sigmoid(x * scale + shift) * x).item()

    assert run() == run()
