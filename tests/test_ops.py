"""Convolution, affine, and batch-norm kernels against naive loop oracles."""

import tracemalloc

import numpy as np
import pytest

from dtasnn import ops, tensor as tz
from dtasnn.ops import (BatchNormState, MissingStatisticsError, batch_norm_2d, conv1d,
                        conv2d, linear)
from dtasnn.tensor import (ComputationRecord, GeometryError, ShapeError, Tensor,
                           backward, zero_grads)

from oracles import (batch_norm_grads_ref, batch_norm_ref, conv1d_loop, conv2d_loop,
                     conv2d_loop_grads, fd_grad)


def leaf(values):
    return Tensor(np.asarray(values), requires_grad=True, dtype=np.float64)


def engine_grads(f, params):
    zero_grads(params)
    with ComputationRecord():
        backward(f())
    return [p.grad for p in params]


def taped_conv2d(xv, wv, g, kwargs, track_x=True):
    """Forward values and (gx, gw) of conv2d for upstream gradient g.

    With ``track_x=False`` the input is a constant, as the data batch under the
    stem is, and gx is None.
    """
    x, w = Tensor(xv, requires_grad=track_x), Tensor(wv, requires_grad=True)
    with ComputationRecord():
        out = conv2d(x, w, **kwargs)
        backward(tz.tsum(out * Tensor(g)))
    return out.values, [x.grad, w.grad]


def check_against_loop_grads(xv, wv, g, full, dtype, track_x, out, want, grads):
    """Compare conv2d's output and (gx, gw) with the loop oracle; an untracked
    input gets no gradient."""
    want_gx, want_gw = conv2d_loop_grads(xv, wv, g, **full)
    tol = dict(rtol=1e-12, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-5, atol=1e-5)
    gx, gw = grads
    assert out.dtype == dtype and gw.dtype == dtype
    np.testing.assert_allclose(out, want, **tol)
    np.testing.assert_allclose(gw, want_gw, **tol)
    if track_x:
        assert gx.dtype == dtype
        np.testing.assert_allclose(gx, want_gx, **tol)
    else:
        assert gx is None


class TestConv2dForward:
    def test_1x1_unit_kernel_is_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 5, 5)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(conv2d(x, w).values, x.values)

    def test_impulse_response_of_ones_kernel(self):
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 2, 2] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(Tensor(x), w, padding=1)
        expected = np.zeros((5, 5), dtype=np.float32)
        expected[1:4, 1:4] = 1.0
        np.testing.assert_array_equal(out.values[0, 0], expected)

    # geometry grid covers all three kernel paths: point-wise, depth-wise, general
    @pytest.mark.parametrize("shape,wshape,kwargs", [
        ((2, 3, 6, 6), (4, 3, 1, 1), {}),                                # point-wise
        ((2, 3, 6, 6), (4, 3, 1, 1), dict(stride=2)),                    # strided point-wise
        ((2, 4, 5, 5), (4, 1, 3, 3), dict(padding=1)),                   # depth-wise
        ((1, 4, 8, 8), (4, 1, 3, 3), dict(padding=3, dilation=3)),
        ((2, 3, 7, 7), (5, 3, 3, 3), dict(stride=2, padding=1)),         # general
        ((2, 4, 6, 6), (6, 4, 1, 1), dict(padding=1)),                   # padded 1x1: general
        ((1, 2, 9, 9), (3, 2, 3, 3), dict(padding=2, dilation=2)),       # dilated general
    ])
    def test_matches_loop_oracle(self, rng, shape, wshape, kwargs):
        x = rng.standard_normal(shape)
        w = rng.standard_normal(wshape)
        got = conv2d(Tensor(x), Tensor(w), **kwargs)
        want = conv2d_loop(x, w, **{"stride": 1, "padding": 0, "dilation": 1, **kwargs})
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-12)


class TestConv2dGradients:
    def test_depthwise_grads_vs_oracle(self, rng):
        # random 2x2x4x4 input with a 3x3 depth-wise kernel: forward and all
        # gradients against the six-nested-loop oracle
        xv = rng.standard_normal((2, 2, 4, 4))
        wv = rng.standard_normal((2, 1, 3, 3))
        probe = rng.standard_normal((2, 2, 4, 4))
        kwargs = dict(stride=1, padding=1, dilation=1)

        x, w = leaf(xv), leaf(wv)
        gx, gw = engine_grads(
            lambda: tz.tsum(conv2d(x, w, padding=1) * Tensor(probe, dtype=np.float64)),
            [x, w])

        fwd = conv2d(Tensor(xv), Tensor(wv), padding=1).values
        np.testing.assert_allclose(fwd, conv2d_loop(xv, wv, **kwargs), rtol=1e-5)

        def oracle_loss_x(v):
            return float((conv2d_loop(v, wv, **kwargs) * probe).sum())

        def oracle_loss_w(v):
            return float((conv2d_loop(xv, v, **kwargs) * probe).sum())

        np.testing.assert_allclose(gx, fd_grad(oracle_loss_x, xv), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(gw, fd_grad(oracle_loss_w, wv), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("wshape,kwargs", [
        ((3, 2, 1, 1), {}),
        ((2, 1, 3, 3), dict(padding=1)),
        ((3, 2, 3, 3), dict(stride=2, padding=1)),
    ])
    def test_grads_vs_fd_on_oracle(self, rng, wshape, kwargs):
        xv = rng.standard_normal((2, 2, 5, 5))
        wv = rng.standard_normal(wshape) * 0.5
        probe = rng.standard_normal()
        full = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}

        x, w = leaf(xv), leaf(wv)
        weights = np.asarray(np.cos(np.arange(400.0)))  # fixed probe field

        def loss():
            out = conv2d(x, w, **kwargs)
            pr = Tensor(weights[:out.size].reshape(out.shape), dtype=np.float64)
            return tz.tsum(out * pr)

        gx, gw = engine_grads(loss, [x, w])

        def oracle(xx, ww):
            out = conv2d_loop(xx, ww, **full)
            return float((out * weights[:out.size].reshape(out.shape)).sum())

        np.testing.assert_allclose(gx, fd_grad(lambda v: oracle(v, wv), xv),
                                   rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gw, fd_grad(lambda v: oracle(xv, v), wv),
                                   rtol=1e-5, atol=1e-8)


def kernel_id(value):
    """Parametrize id of a (kh, kw) kernel size: one number when square."""
    if isinstance(value, tuple) and len(value) == 2:
        kh, kw = value
        return str(kh) if kh == kw else f"{kh}x{kw}"
    return None


class TestDepthwise:
    # (input shape, (kh, kw), geometry); one kernel per channel throughout
    GEOMETRIES = [
        ((2, 3, 7, 6), (3, 3), dict(stride=2, padding=1)),
        # the desk T-NA dilated conv: 24 of the 49 taps read padding only
        ((2, 3, 8, 8), (7, 7), dict(padding=9, dilation=3)),
        # padding >= input extent: only the centre tap reads the image
        ((2, 3, 3, 2), (7, 7), dict(padding=9, dilation=3)),
        ((1, 2, 4, 5), (3, 3), dict(stride=2, padding=3, dilation=3)),
        # every tap reads padding only: the output is zero
        ((2, 2, 1, 1), (1, 1), dict(stride=2, padding=1)),
        # kh != kw and H != W: the band runs along W, the row loop along H
        ((2, 3, 7, 5), (3, 5), dict(stride=2, padding=3, dilation=2)),
    ]

    @staticmethod
    def inputs(rng, shape, k, dtype):
        kh, kw = k
        xv = rng.standard_normal(shape).astype(dtype)
        wv = rng.standard_normal((shape[1], 1, kh, kw)).astype(dtype)
        return xv, wv

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("track_x", [False, True])
    @pytest.mark.parametrize("shape,k,kwargs", GEOMETRIES, ids=kernel_id)
    def test_matches_loop_oracle(self, rng, shape, k, kwargs, dtype, track_x):
        xv, wv = self.inputs(rng, shape, k, dtype)
        full = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}
        want = conv2d_loop(xv, wv, **full)
        g = rng.standard_normal(want.shape).astype(dtype)
        out, grads = taped_conv2d(xv, wv, g, kwargs, track_x)
        check_against_loop_grads(xv, wv, g, full, dtype, track_x, out, want, grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,k,kwargs", GEOMETRIES, ids=kernel_id)
    def test_weight_grad_bits_do_not_depend_on_input_tracking(self, rng, shape, k, kwargs,
                                                              dtype):
        xv, wv = self.inputs(rng, shape, k, dtype)
        g = rng.standard_normal(conv2d(Tensor(xv), Tensor(wv), **kwargs).shape).astype(dtype)
        _, untracked = taped_conv2d(xv, wv, g, kwargs, track_x=False)
        _, tracked = taped_conv2d(xv, wv, g, kwargs)
        assert untracked[0] is None
        assert untracked[1].tobytes() == tracked[1].tobytes()

    @pytest.mark.parametrize("shape,k,kwargs", GEOMETRIES, ids=kernel_id)
    def test_node_keeps_input_weights_and_bands_only(self, rng, shape, k, kwargs):
        # of those, only the input and the weights: the backward re-lays the
        # input and rebuilds the bands from the weights, so it holds no band
        # matrix and no second copy of the input
        xv, wv = self.inputs(rng, shape, k, np.float64)
        x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        with ComputationRecord() as rec:
            conv2d(x, w, **kwargs)
            (node,) = rec.nodes
        held = [c.cell_contents for c in node.backward_fn.__closure__]
        floats = [a for a in held if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
        assert any(a is x.values for a in floats)
        assert any(a is w.values for a in floats)
        assert [a.shape for a in floats if a is not x.values and a is not w.values] == []


class TestGeneral:
    """The implicit-GEMM path: every conv2d that is neither point-wise nor
    depth-wise."""

    # (input shape, weight shape, geometry)
    GEOMETRIES = [
        # padded extent 9: the stride-2 phases have 5 and 4 rows
        ((2, 3, 7, 7), (4, 3, 3, 3), dict(stride=2, padding=1)),
        ((2, 3, 8, 7), (2, 3, 3, 3), dict(stride=3, padding=1)),
        # every tap lands in phase (0, 0), shifted by whole phase rows
        ((1, 2, 9, 8), (3, 2, 3, 3), dict(stride=2, padding=2, dilation=2)),
        # padding larger than the kernel extent: border outputs read zeros only
        ((2, 2, 3, 4), (3, 2, 3, 3), dict(padding=4)),
        ((2, 3, 5, 9), (2, 3, 3, 2), dict(padding=1)),
        ((2, 4, 7, 6), (6, 4, 3, 3), dict(stride=2, padding=1)),
        # a padded 1x1 runs this path, not the point-wise one
        ((2, 4, 5, 5), (4, 4, 1, 1), dict(stride=2, padding=1)),
        # a 1x1 output
        ((2, 3, 3, 3), (2, 3, 3, 3), {}),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("track_x", [False, True])
    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES)
    def test_matches_loop_oracle(self, rng, shape, wshape, kwargs, dtype, track_x):
        xv = rng.standard_normal(shape).astype(dtype)
        wv = rng.standard_normal(wshape).astype(dtype)
        full = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}
        want = conv2d_loop(xv, wv, **full)
        g = rng.standard_normal(want.shape).astype(dtype)
        out, grads = taped_conv2d(xv, wv, g, kwargs, track_x)
        check_against_loop_grads(xv, wv, g, full, dtype, track_x, out, want, grads)

    # the last geometry's columns are the unpadded image itself, the same size
    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES[:-1])
    def test_node_keeps_no_column_matrix(self, rng, shape, wshape, kwargs):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal(wshape), requires_grad=True)
        with ComputationRecord() as rec:
            out = conv2d(x, w, **kwargs)
            (node,) = rec.nodes
        B, C = shape[:2]
        kh, kw = wshape[2:]
        columns = B * out.shape[2] * out.shape[3] * C * kh * kw
        held = [c.cell_contents for c in node.backward_fn.__closure__]
        sizes = [a.size for a in held if isinstance(a, np.ndarray)]
        assert sizes and columns not in sizes

    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES)
    def test_constant_input_gets_no_partial(self, rng, shape, wshape, kwargs):
        xv = rng.standard_normal(shape)
        wv = rng.standard_normal(wshape)
        out_shape = conv2d(Tensor(xv), Tensor(wv), **kwargs).shape
        g = rng.standard_normal(out_shape)
        _, tracked = taped_conv2d(xv, wv, g, kwargs)
        w = Tensor(wv, requires_grad=True)
        with ComputationRecord() as rec:
            conv2d(Tensor(xv), w, **kwargs)
            partials = rec.nodes[0].backward_fn(g)
        assert partials[0] is None
        assert partials[1].tobytes() == tracked[1].tobytes()


def image_bytes(shape, wshape, kwargs, dtype):
    """Bytes one image's padded input and output grids take in the general
    path: what ``ops.BLOCK_BYTES`` is measured in."""
    _, C, H, W = shape
    stride, padding = kwargs.get("stride", 1), kwargs.get("padding", 0)
    Hq, Wq = -(-(H + 2 * padding) // stride), -(-(W + 2 * padding) // stride)
    return (Hq * Wq * stride * stride * C + Hq * Wq * wshape[0]) * np.dtype(dtype).itemsize


class TestImageBlocks:
    """The general path in blocks of whole images: any split gives the loop
    oracle's results, and only the weight gradient's summation order
    depends on it."""

    # (input shape, weight shape, geometry), five images each
    GEOMETRIES = [
        ((5, 3, 7, 7), (4, 3, 3, 3), dict(stride=2, padding=1)),
        ((5, 2, 9, 8), (3, 2, 3, 3), dict(stride=2, padding=2, dilation=2)),
        ((5, 3, 6, 6), (4, 3, 3, 3), dict(padding=1)),
        ((5, 2, 9, 9), (3, 2, 3, 3), dict(padding=2, dilation=2)),
    ]

    @staticmethod
    def inputs(rng, shape, wshape, kind, dtype):
        if kind == "real":
            xv = rng.standard_normal(shape)
        else:
            xv = (rng.random(shape) < 0.5).astype(np.float64)
            if kind == "binary-then-real":
                xv[-1, 0, 1, 1] = 0.5  # only the last block is not binary
        return xv.astype(dtype), rng.standard_normal(wshape).astype(dtype)

    @staticmethod
    def blocks_run(monkeypatch, xv, wv, kwargs):
        """How many blocks an untaped forward runs: one _addmm per tap per
        block."""
        calls = []
        addmm = ops._addmm
        monkeypatch.setattr(ops, "_addmm", lambda c, a, b: (calls.append(1), addmm(c, a, b)))
        conv2d(Tensor(xv), Tensor(wv), **kwargs)
        monkeypatch.setattr(ops, "_addmm", addmm)
        return len(calls) // (wv.shape[2] * wv.shape[3])

    # one image per block, or two with a short last block of one
    @pytest.mark.parametrize("images,blocks", [(1, 5), (2, 3)])
    @pytest.mark.parametrize("kind", ["real", "binary", "binary-then-real"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("track_x", [False, True])
    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES)
    def test_matches_loop_oracle(self, monkeypatch, rng, shape, wshape, kwargs, track_x,
                                 dtype, kind, images, blocks):
        monkeypatch.setattr(ops, "BLOCK_BYTES", images * image_bytes(shape, wshape, kwargs, dtype))
        xv, wv = self.inputs(rng, shape, wshape, kind, dtype)
        assert self.blocks_run(monkeypatch, xv, wv, kwargs) == blocks
        full = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}
        want = conv2d_loop(xv, wv, **full)
        g = rng.standard_normal(want.shape).astype(dtype)
        out, grads = taped_conv2d(xv, wv, g, kwargs, track_x)
        check_against_loop_grads(xv, wv, g, full, dtype, track_x, out, want, grads)

    @pytest.mark.parametrize("kind", ["real", "binary"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES)
    def test_only_the_weight_gradient_depends_on_the_split(self, monkeypatch, rng, shape,
                                                           wshape, kwargs, dtype, kind):
        xv, wv = self.inputs(rng, shape, wshape, kind, dtype)
        g = rng.standard_normal(conv2d(Tensor(xv), Tensor(wv), **kwargs).shape).astype(dtype)
        fit = shape[0] * image_bytes(shape, wshape, kwargs, dtype)
        runs = {}
        # the whole batch as one block, exactly fitting it, and one image each
        for budget, blocks in ((1 << 40, 1), (fit, 1), (fit - 1, 2), (1, shape[0])):
            monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
            assert self.blocks_run(monkeypatch, xv, wv, kwargs) == blocks
            out, (gx, gw) = taped_conv2d(xv, wv, g, kwargs)
            runs[budget] = [out.tobytes(), gx.tobytes(), gw]
        whole = runs.pop(1 << 40)
        assert runs[fit][2].tobytes() == whole[2].tobytes()
        for out, gx, gw in runs.values():
            assert out == whole[0] and gx == whole[1]
            tol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(gw, whole[2], rtol=tol, atol=tol)

    def test_backward_allocates_the_input_gradient_and_a_few_blocks(self, rng):
        # cifar-train's block-0 conv2 on spikes: past its inputs, the backward
        # allocates gx and one block's grids (a whole-batch grid is ~9 MiB)
        x = Tensor((rng.random((64, 32, 32, 32)) < 0.2).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        g = rng.standard_normal((64, 32, 32, 32)).astype(np.float32)
        with ComputationRecord() as rec:
            conv2d(x, w, padding=1)
            bwd = rec.nodes[0].backward_fn
            tracemalloc.start()
            try:
                gx, _ = bwd(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= gx.nbytes + 3 * ops.BLOCK_BYTES


class TestPointwise:
    """The dense 1x1 path without padding: one batched matmul per image."""

    # (input shape, output channels, stride)
    GEOMETRIES = [
        ((2, 3, 6, 6), 4, 1),
        # odd H and W: the stride-2 input gradient scatter ends on the last
        # row and column
        ((2, 3, 5, 7), 4, 2),
        ((3, 2, 6, 4), 5, 2),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("track_x", [False, True])
    @pytest.mark.parametrize("shape,cout,stride", GEOMETRIES)
    def test_matches_loop_oracle(self, rng, shape, cout, stride, dtype, track_x):
        xv = rng.standard_normal(shape).astype(dtype)
        wv = rng.standard_normal((cout, shape[1], 1, 1)).astype(dtype)
        full = dict(stride=stride, padding=0, dilation=1)
        want = conv2d_loop(xv, wv, **full)
        g = rng.standard_normal(want.shape).astype(dtype)
        out, grads = taped_conv2d(xv, wv, g, dict(stride=stride), track_x)
        check_against_loop_grads(xv, wv, g, full, dtype, track_x, out, want, grads)

    @pytest.mark.parametrize("shape,cout,stride", GEOMETRIES)
    def test_node_keeps_strided_input_and_weights_only(self, rng, shape, cout, stride):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, shape[1], 1, 1)), requires_grad=True)
        with ComputationRecord() as rec:
            out = conv2d(x, w, stride=stride)
            (node,) = rec.nodes
        held = [c.cell_contents for c in node.backward_fn.__closure__]
        floats = [a.shape for a in held if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
        B, C = shape[:2]
        assert sorted(floats) == sorted([(B, C, out.shape[2] * out.shape[3]), (cout, C)])


class TestBinaryPacking:
    """What the node keeps of its input: the general path keeps a binary
    input as its zero-padded channels-last grid in uint8 and any other input
    as the input array itself, with no copy; the point-wise path keeps its
    strided copy, as uint8 when binary. Either way the results are the loop
    oracle's."""

    # (input shape, weight shape, geometry): the general path at stride 1 and
    # 2, and the point-wise path
    GEOMETRIES = [
        ((2, 3, 6, 6), (4, 3, 3, 3), dict(padding=1)),
        ((2, 3, 7, 7), (4, 3, 3, 3), dict(stride=2, padding=1)),
        ((2, 3, 5, 7), (4, 3, 1, 1), dict(stride=2)),
    ]

    @pytest.mark.parametrize("odd", [None, 0.5, 2.0, -1.0, 256.0])
    @pytest.mark.parametrize("shape,wshape,kwargs", GEOMETRIES)
    def test_packing_is_lossless(self, rng, shape, wshape, kwargs, odd):
        xv = (rng.random(shape) < 0.5).astype(np.float64)
        if odd is not None:
            xv[1, 2, 2, 4] = odd  # a position the stride-2 copy keeps
        wv = rng.standard_normal(wshape)
        full = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}
        want = conv2d_loop(xv, wv, **full)
        g = rng.standard_normal(want.shape)
        x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        with ComputationRecord() as rec:
            out = conv2d(x, w, **kwargs)
            (node,) = rec.nodes
            held = [c.cell_contents for c in node.backward_fn.__closure__]
            (kept,) = [a for a in held if isinstance(a, np.ndarray) and a.size != wv.size]
            backward(tz.tsum(out * Tensor(g)))
        assert kept.dtype == (np.uint8 if odd is None else np.float64)
        if wshape[2:] != (1, 1):
            # the general path: the padded grid's bytes, or the input itself
            B, C, H, W = shape
            stride, padding = kwargs.get("stride", 1), kwargs["padding"]
            Hp, Wp = (-(-(n + 2 * padding) // stride) * stride for n in (H, W))
            if odd is None:
                assert kept.shape == (B, Hp, Wp, C)
            else:
                assert kept is x.values
        check_against_loop_grads(xv, wv, g, full, np.float64, True, out.values, want,
                                 [x.grad, w.grad])

    def test_nothing_packed_outside_a_record(self, rng):
        x = Tensor((rng.random((2, 3, 6, 6)) < 0.5).astype(np.float32))
        assert tz.pack(x.values) is x.values


class TestConv2dErrors:
    def test_negative_output_extent_reported(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(GeometryError, match="-2"):
            conv2d(x, w)

    @pytest.mark.parametrize("wshape", [
        (4, 2, 3, 3),   # grouped: 1 < Cg < C
        (8, 1, 3, 3),   # depth multiplier 2: Cg == 1, Cout == 2C
    ], ids=["grouped", "depth_multiplier"])
    def test_weight_neither_dense_nor_depthwise(self, wshape):
        with pytest.raises(ShapeError, match=r"dense \(Cout, 4, kh, kw\).*depth-wise \(4, 1"):
            conv2d(Tensor(np.zeros((1, 4, 5, 5))), Tensor(np.zeros(wshape)), padding=1)


class TestConv1d:
    def test_k1_identity_weight(self, rng):
        x = rng.standard_normal((2, 3, 7)).astype(np.float32)
        w = np.eye(3, dtype=np.float32)[:, :, None]
        np.testing.assert_allclose(conv1d(Tensor(x), Tensor(w)).values, x, rtol=1e-6)

    def test_hand_cross_correlation(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = Tensor(np.ones((1, 1, 3), dtype=np.float32))
        np.testing.assert_allclose(conv1d(x, w).values[0, 0], [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))

    def test_grad_vs_fd(self, rng):
        xv = rng.standard_normal((1, 2, 5))
        wv = rng.standard_normal((2, 2, 3)) * 0.5
        probe = rng.standard_normal((1, 2, 5))
        x, w = leaf(xv), leaf(wv)
        gx, gw = engine_grads(
            lambda: tz.tsum(conv1d(x, w) * Tensor(probe, dtype=np.float64)), [x, w])

        def oracle(xx, ww):
            return float((conv1d_loop(xx, ww, padding=1) * probe).sum())

        np.testing.assert_allclose(gx, fd_grad(lambda v: oracle(v, wv), xv), atol=1e-4)
        np.testing.assert_allclose(gw, fd_grad(lambda v: oracle(xv, v), wv), atol=1e-4)

    def test_forward_matches_loop(self, rng):
        xv = rng.standard_normal((2, 3, 6))
        wv = rng.standard_normal((4, 3, 5))
        got = conv1d(Tensor(xv), Tensor(wv)).values
        np.testing.assert_allclose(got, conv1d_loop(xv, wv, padding=2), rtol=1e-10)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(linear(x, w, b).values, x.values)

    def test_hand_product(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
        b = Tensor(np.array([0.0, 1.0]))
        np.testing.assert_allclose(linear(x, w, b).values, [[3.0, 3.0]])

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))

    def test_grads_vs_fd(self, rng):
        xv, wv, bv = (rng.standard_normal((3, 4)), rng.standard_normal((2, 4)),
                      rng.standard_normal(2))
        probe = rng.standard_normal((3, 2))
        x, w, b = leaf(xv), leaf(wv), leaf(bv)
        gx, gw, gb = engine_grads(
            lambda: tz.tsum(linear(x, w, b) * Tensor(probe, dtype=np.float64)),
            [x, w, b])

        def oracle(xx, ww, bb):
            return float(((xx @ ww.T + bb) * probe).sum())

        np.testing.assert_allclose(gx, fd_grad(lambda v: oracle(v, wv, bv), xv), atol=1e-4)
        np.testing.assert_allclose(gw, fd_grad(lambda v: oracle(xv, v, bv), wv), atol=1e-4)
        np.testing.assert_allclose(gb, fd_grad(lambda v: oracle(xv, wv, v), bv), atol=1e-4)


class TestBatchNorm:
    def test_prenormalized_input_passes_through(self, rng):
        x = rng.standard_normal((8, 2, 4, 4)).astype(np.float32)
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        st = BatchNormState(2)
        gamma, beta = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
        out = batch_norm_2d(Tensor(x), gamma, beta, st, training=True)
        assert np.abs(out.values - x).max() <= 1e-4

    def test_zero_variance_gives_beta(self):
        x = Tensor(np.full((3, 2, 2, 2), 7.0, dtype=np.float32))
        beta = Tensor(np.full(2, 5.0, dtype=np.float32))
        st = BatchNormState(2)
        gamma = Tensor(np.ones(2, dtype=np.float32))
        out = batch_norm_2d(x, gamma, beta, st, training=True)
        np.testing.assert_allclose(out.values, 5.0, atol=1e-3)

    def test_eval_before_stats_rejected(self):
        st = BatchNormState(2)
        gamma, beta = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(MissingStatisticsError, match="statistics"):
            batch_norm_2d(Tensor(np.zeros((1, 2, 2, 2))), gamma, beta, st, training=False)

    def test_running_stats_momentum(self, rng):
        x = rng.standard_normal((16, 2, 3, 3))
        st = BatchNormState(2, dtype=np.float64)
        gamma, beta = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
        batch_norm_2d(Tensor(x), gamma, beta, st, training=True)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(st.running_mean, 0.1 * mu, rtol=1e-6)
        np.testing.assert_allclose(st.running_var, 0.9 + 0.1 * var, rtol=1e-6)
        assert st.batches_tracked == 1

    def test_train_mode_grads_vs_fd(self, rng):
        xv = rng.standard_normal((4, 2, 3, 3))
        gv = rng.standard_normal(2) * 0.3 + 1.0
        bv = rng.standard_normal(2) * 0.2
        probe = rng.standard_normal((4, 2, 3, 3))
        x, gamma, beta = leaf(xv), leaf(gv), leaf(bv)

        def loss():
            st = BatchNormState(2, dtype=np.float64)
            out = batch_norm_2d(x, gamma, beta, st, training=True)
            return tz.tsum(out * Tensor(probe, dtype=np.float64))

        gx, gg, gb = engine_grads(loss, [x, gamma, beta])

        def oracle(xx, ggv, bbv):
            mu = xx.mean(axis=(0, 2, 3), keepdims=True)
            var = xx.var(axis=(0, 2, 3), keepdims=True)
            xhat = (xx - mu) / np.sqrt(var + 1e-5)
            out = ggv[None, :, None, None] * xhat + bbv[None, :, None, None]
            return float((out * probe).sum())

        np.testing.assert_allclose(gx, fd_grad(lambda v: oracle(v, gv, bv), xv),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(gg, fd_grad(lambda v: oracle(xv, v, bv), gv),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(gb, fd_grad(lambda v: oracle(xv, gv, v), bv),
                                   rtol=1e-3, atol=1e-6)

    def test_eval_uses_stored_stats(self, rng):
        st = BatchNormState(2, dtype=np.float64)
        gamma, beta = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
        batch_norm_2d(Tensor(rng.standard_normal((8, 2, 3, 3))), gamma, beta, st,
                      training=True)
        x = rng.standard_normal((4, 2, 3, 3))
        out = batch_norm_2d(Tensor(x), gamma, beta, st, training=False)
        want = (x - st.running_mean[None, :, None, None]) / np.sqrt(
            st.running_var[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out.values, want, rtol=1e-5)


class TestBatchNormOracle:
    """Both modes against the per-channel float64 loop of ``batch_norm_ref``
    and the textbook backward of ``batch_norm_grads_ref``."""

    @staticmethod
    def case(rng):
        x = rng.standard_normal((5, 3, 4, 3)) * 2.0 + 0.5
        gamma = rng.standard_normal(3) * 0.3 + 1.0
        beta = rng.standard_normal(3) * 0.2
        st = BatchNormState(3, dtype=np.float64)
        # stored statistics unlike the batch's, so the modes differ
        st.running_mean = rng.standard_normal(3)
        st.running_var = rng.uniform(0.5, 2.0, 3)
        st.batches_tracked = 1
        return x, gamma, beta, st

    @pytest.mark.parametrize("training", [True, False])
    def test_forward(self, rng, training):
        x, gamma, beta, st = self.case(rng)
        want, _, _ = batch_norm_ref(x, gamma, beta, st.running_mean, st.running_var,
                                    training)
        out = batch_norm_2d(Tensor(x, dtype=np.float64), leaf(gamma), leaf(beta), st,
                            training)
        np.testing.assert_allclose(out.values, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_grads(self, rng, training):
        x, gamma, beta, st = self.case(rng)
        g = rng.standard_normal(x.shape)
        want = batch_norm_grads_ref(x, gamma, g, st.running_mean, st.running_var,
                                    training)
        params = [leaf(x), leaf(gamma), leaf(beta)]
        got = engine_grads(lambda: tz.tsum(batch_norm_2d(*params, st, training)
                                           * Tensor(g, dtype=np.float64)), params)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_running_statistics_update(self, rng):
        x, gamma, beta, st = self.case(rng)
        _, mean, var = batch_norm_ref(x, gamma, beta, st.running_mean, st.running_var,
                                      training=True)
        batch_norm_2d(Tensor(x, dtype=np.float64), leaf(gamma), leaf(beta), st,
                      training=True)
        np.testing.assert_allclose(st.running_mean, mean, rtol=1e-12)
        np.testing.assert_allclose(st.running_var, var, rtol=1e-12)
        assert st.batches_tracked == 2


def test_gradcheck_entry_checks_both_modes(monkeypatch):
    from dtasnn import gradcheck, ops
    modes = []

    def spy(x, gamma, beta, state, training):
        modes.append(training)
        return batch_norm_2d(x, gamma, beta, state, training)

    monkeypatch.setattr(ops, "batch_norm_2d", spy)
    results = {r.name: r for r in gradcheck.run_suite()}
    assert set(modes) == {True, False}
    assert results["batch_norm_2d"].passed


class TestBatchNormFloat32:
    """float32 at backbone shapes and offsets against the float64 oracles,
    every error relative to the largest magnitude of the oracle's value. The
    2e-5 bound leaves room for float32 sums over 65 536 values per channel
    but not for a variance taken as E[x^2] - mean^2, which cancels at a mean
    of 20."""

    TOL = 2e-5

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,offset", [((64, 16, 32, 32), 3.0),
                                              ((64, 64, 16, 16), 20.0)])
    def test_matches_float64_oracle(self, rng, shape, offset, training):
        C = shape[1]
        x = (rng.standard_normal(shape) + offset).astype(np.float32)
        gamma = (rng.standard_normal(C) * 0.3 + 1.0).astype(np.float32)
        beta = (rng.standard_normal(C) * 0.2).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        st = BatchNormState(C)
        st.running_mean[:] = offset + rng.standard_normal(C) * 0.1
        st.running_var[:] = rng.uniform(0.5, 2.0, C)
        st.batches_tracked = 1
        mean0, var0 = st.running_mean.copy(), st.running_var.copy()

        want, want_mean, want_var = batch_norm_ref(x, gamma, beta, mean0, var0, training)
        want_grads = batch_norm_grads_ref(x, gamma, g, mean0, var0, training)
        params = [Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                  Tensor(beta, requires_grad=True)]
        outs = []

        def loss():
            outs.append(batch_norm_2d(*params, st, training))
            return tz.tsum(outs[0] * Tensor(g))

        got = engine_grads(loss, params)

        def rel(a, b):
            return np.abs(a.astype(np.float64) - b).max() / np.abs(b).max()

        assert outs[0].values.dtype == np.float32
        assert rel(outs[0].values, want) <= self.TOL
        for a, b in zip(got, want_grads):
            assert a.dtype == np.float32
            assert rel(a, b) <= self.TOL
        assert rel(st.running_mean, want_mean) <= self.TOL
        assert rel(st.running_var, want_var) <= self.TOL
