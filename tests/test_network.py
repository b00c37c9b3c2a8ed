"""Backbone assembly, forward dataflow, time folding, checkpoint container."""

import hashlib
import json
import os
import stat
import struct
import zlib
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from dtasnn import container
from dtasnn.container import MAGIC as CHECKPOINT_MAGIC
from dtasnn.neuron import LifParams
from dtasnn.network import (CheckpointError, NetworkSpec, build, load_checkpoint,
                            named_leaves, save_checkpoint, spec_mismatch)
from dtasnn.ops import BatchNormState, conv2d
from dtasnn.tensor import ComputationRecord, ShapeError, Tensor, backward
from dtasnn.training import cross_entropy

import oracles

MINI = NetworkSpec(time_steps=4, in_channels=3, stem_channels=16,
                   stages=((16, 1, 1), (32, 1, 2)), num_classes=10)
TINY = NetworkSpec(time_steps=2, in_channels=1, stem_channels=2, stages=((2, 1, 1),),
                   num_classes=2)


def save_tiny_checkpoint(path):
    save_checkpoint(path, build(TINY, seed=0))


def mini_parameter_count():
    """Closed-form count for MINI, written out as independent arithmetic."""
    stem = 3 * 16 * 9 + 2 * 16
    txa = 16 * 16 * 3 + 4 * 4 * 3 + 1 + 1
    tc, hidden = 4 * 16, (4 * 16) // 4
    tna = (tc * tc          # encode
           + tc * 25        # depth-wise 5x5
           + tc * 49        # dilated depth-wise 7x7
           + tc * tc        # point-wise
           + hidden * tc + hidden
           + tc * hidden + tc
           + tc * tc)       # decode
    block0 = 16 * 16 * 9 + 2 * 16 + 16 * 16 * 9 + 2 * 16
    block1 = 16 * 32 * 9 + 2 * 32 + 32 * 32 * 9 + 2 * 32 + 16 * 32
    head = 32 * 10 + 10
    return stem + txa + tna + block0 + block1 + head


class TestBuild:
    def test_parameter_count_closed_form(self):
        assert build(MINI, seed=0).parameter_count() == mini_parameter_count()

    def test_same_seed_same_bits(self):
        a, b = build(MINI, seed=7), build(MINI, seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_different_seed_differs(self):
        a, b = build(MINI, seed=1), build(MINI, seed=2)
        assert any(not np.array_equal(pa.values, pb.values)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_disabled_attention_removes_exactly_its_parameters(self):
        from dataclasses import replace
        bare = build(replace(MINI, dta_enabled=(False, False)), seed=0)
        full = build(MINI, seed=0)
        txa = 16 * 16 * 3 + 4 * 4 * 3 + 2
        tc, hidden = 64, 16
        tna = 3 * tc * tc + tc * 25 + tc * 49 + hidden * tc + hidden + tc * hidden + tc
        assert full.parameter_count() - bare.parameter_count() == txa + tna

    def test_parameter_names_follow_dataclass_fields(self):
        net = build(MINI, seed=0)
        named = net.named_parameters()
        assert len({n for n, _ in named}) == len(named)
        attention = [(n, t) for n, t in named if n.startswith(("txa.", "tna."))]
        assert [n for n, _ in attention] == [
            "txa.tla_kernel", "txa.cla_kernel", "txa.p_t", "txa.p_c",
            "tna.encode", "tna.dw", "tna.ddw", "tna.pw", "tna.mb_squeeze_w",
            "tna.mb_squeeze_b", "tna.mb_expand_w", "tna.mb_expand_b", "tna.decode"]
        for name, t in attention:
            branch, field = name.split(".")
            assert t is getattr(getattr(net, branch), field)

    def test_parameter_names_and_order(self):
        # the order is the order of the checkpoint's runs and of the RNG draws
        assert [n for n, _ in build(MINI, seed=0).named_parameters()] == [
            "stem_conv.weight", "stem_bn.gamma", "stem_bn.beta",
            "txa.tla_kernel", "txa.cla_kernel", "txa.p_t", "txa.p_c",
            "tna.encode", "tna.dw", "tna.ddw", "tna.pw", "tna.mb_squeeze_w",
            "tna.mb_squeeze_b", "tna.mb_expand_w", "tna.mb_expand_b", "tna.decode",
            "block0.conv1.weight", "block0.bn1.gamma", "block0.bn1.beta",
            "block0.conv2.weight", "block0.bn2.gamma", "block0.bn2.beta",
            "block1.conv1.weight", "block1.bn1.gamma", "block1.bn1.beta",
            "block1.conv2.weight", "block1.bn2.gamma", "block1.bn2.beta",
            "block1.downsample.weight", "head.weight", "head.bias"]

    def test_walk_sees_through_delegating_layer_proxies(self, rng):
        # a proxy that forwards calls and attribute reads to the layer it
        # wraps, as a tracer's does, hides none of the layer's state
        class Delegating:
            def __init__(self, inner):
                self._inner = inner

            def __call__(self, *args, **kwargs):
                return self._inner(*args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        net = build(MINI, seed=0)
        net.forward(Tensor(rng.standard_normal((4, 2, 3, 8, 8)).astype(np.float32)),
                    training=True)
        params, arrays = net.parameters(), net.state_arrays()
        net.stem_conv = Delegating(net.stem_conv)
        net.stem_bn = Delegating(net.stem_bn)
        net.blocks = [Delegating(b) for b in net.blocks]
        net.head = Delegating(net.head)
        assert len(net.parameters()) == len(params)
        assert all(a is b for a, b in zip(net.parameters(), params))
        assert [a.tobytes() for a in net.state_arrays()] == [a.tobytes() for a in arrays]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(time_steps=0)
        with pytest.raises(ValueError):
            NetworkSpec(stages=())
        with pytest.raises(ValueError):
            NetworkSpec(stages=((16, 1, 3),))

    def test_full_scale_geometry_constructible(self):
        # residual-18-style stage plan at 32x32 scale stays buildable and
        # lands at the expected dozen-million parameters
        spec = NetworkSpec(time_steps=4, in_channels=3, stem_channels=64,
                           stages=((128, 3, 1), (256, 3, 2), (512, 2, 2)),
                           num_classes=10)
        assert build(spec, seed=0).parameter_count() == 12_761_276

    def test_parameters_and_buffers_are_float32(self):
        net = build(MINI, seed=0)
        states = [(n, st) for n, st in named_leaves(net) if isinstance(st, BatchNormState)]
        assert [n for n, _ in states] == ["stem_bn.state", "block0.bn1.state",
                                          "block0.bn2.state", "block1.bn1.state",
                                          "block1.bn2.state"]
        for name, p in net.named_parameters():
            assert p.dtype == np.float32, name
        for name, st in states:
            assert st.running_mean.dtype == np.float32, name
            assert st.running_var.dtype == np.float32, name


class TestForward:
    def test_output_shape(self, rng):
        net = build(MINI, seed=0)
        x = Tensor(rng.standard_normal((4, 2, 3, 8, 8)).astype(np.float32))
        assert net.forward(x, training=True).shape == (2, 10)

    def test_input_shape_validated(self, rng):
        net = build(MINI, seed=0)
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((3, 2, 3, 8, 8), dtype=np.float32)), True)
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((4, 2, 1, 8, 8), dtype=np.float32)), True)

    def test_zeroed_head_gives_bias_logits(self, rng):
        net = build(MINI, seed=0)
        net.head.weight.values[...] = 0.0
        net.head.bias.values[...] = np.arange(10.0)
        x = Tensor(rng.standard_normal((4, 3, 3, 8, 8)).astype(np.float32))
        logits = net.forward(x, training=True)
        np.testing.assert_allclose(logits.values, np.tile(np.arange(10.0), (3, 1)),
                                   rtol=1e-6)

    def test_eval_forward_deterministic_and_stateless(self, rng):
        net = build(MINI, seed=0)
        x = Tensor(rng.standard_normal((4, 2, 3, 8, 8)).astype(np.float32))
        net.forward(x, training=True)  # record batch-norm statistics
        a = net.forward(x, training=False).values
        b = net.forward(x, training=False).values
        np.testing.assert_array_equal(a, b)

    def test_spiking_paths_feed_convs_binary_values(self, rng):
        # membrane-shortcut audit: every residual-block convolution on the
        # spiking path consumes exactly binary inputs; only the downsample
        # (identity) path sees real values
        from dataclasses import replace
        net = build(replace(MINI, dta_enabled=(False, False)), seed=0)
        seen = []

        class Recorder:
            def __init__(self, conv):
                self.conv = conv

            def __call__(self, x):
                seen.append(x.values)
                return self.conv(x)

        for block in net.blocks:
            block.conv1 = Recorder(block.conv1)
            block.conv2 = Recorder(block.conv2)
        x = Tensor(rng.standard_normal((4, 2, 3, 8, 8)).astype(np.float32))
        net.forward(x, training=True)
        assert len(seen) == 2 * len(net.blocks)
        for vals in seen:
            assert set(np.unique(vals)) <= {0.0, 1.0}


class TestTapeNodes:
    """Nodes one training step records (forward and loss), per bench spec.

    Activations stay folded over T*B from stem to head, so only the attention
    block's input and output and the per-step logits are reshaped on the tape,
    and the loss is one node. The stem's batch norm and each block's first
    run fused with the spiking layer after them, one node per pair.
    """

    DESK = dict(time_steps=6, in_channels=2, stem_channels=8,
                stages=((8, 1, 1), (16, 1, 2)), num_classes=2)

    @pytest.mark.parametrize("spec,nodes", [
        (NetworkSpec(**DESK), 52),
        (NetworkSpec(**DESK, dta_enabled=(False, False)), 23),
        (NetworkSpec(time_steps=4, in_channels=3, stem_channels=16,
                     stages=((32, 1, 1), (64, 1, 2)), num_classes=10), 53),
    ], ids=["desk", "desk-nodta", "cifar"])
    def test_training_step_records(self, rng, spec, nodes):
        net = build(spec, seed=0)
        x = Tensor((rng.random((spec.time_steps, 2, spec.in_channels, 8, 8)) < 0.5)
                   .astype(np.float32))
        with ComputationRecord() as rec:
            loss = cross_entropy(net.forward(x, training=True), [0, 1])
            recorded = len(rec.nodes)
            backward(loss)
        assert recorded == nodes
        assert all(p.grad is not None for p in net.parameters())


class TestTimeFolding:
    def test_conv_fold_equals_per_step_loop(self, rng):
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        x = rng.standard_normal((5, 2, 3, 6, 6)).astype(np.float32)
        folded = conv2d(Tensor(x.reshape(10, 3, 6, 6)), w, padding=1)
        unfolded = folded.values.reshape(5, 2, 4, 6, 6)
        for t in range(5):
            step = conv2d(Tensor(x[t]), w, padding=1).values
            np.testing.assert_array_equal(unfolded[t], step)

    def test_bn_eval_fold_equals_per_step_loop(self, rng):
        from dtasnn.ops import batch_norm_2d
        st = BatchNormState(3)
        st.running_mean = rng.standard_normal(3).astype(np.float32)
        st.running_var = (rng.random(3).astype(np.float32) + 0.5)
        st.batches_tracked = 1
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        x = rng.standard_normal((5, 2, 3, 4, 4)).astype(np.float32)
        folded = batch_norm_2d(Tensor(x.reshape(10, 3, 4, 4)), gamma, beta, st,
                               training=False).values.reshape(5, 2, 3, 4, 4)
        for t in range(5):
            step = batch_norm_2d(Tensor(x[t]), gamma, beta, st, training=False).values
            np.testing.assert_array_equal(folded[t], step)


class TestSingleStepEquivalence:
    def test_t1_forward_matches_composed_pipeline(self, rng):
        # with one time step the network is an ordinary CNN with one firing
        # decision per spiking layer; rebuild that pipeline from loop oracles
        spec = NetworkSpec(time_steps=1, in_channels=2, stem_channels=8,
                           stages=((8, 1, 1),), num_classes=3,
                           lif=LifParams(tau=0.5, v_th=1.0))
        net = build(spec, seed=3)
        for _, st in named_leaves(net):
            if isinstance(st, BatchNormState):
                st.running_mean = rng.standard_normal(st.num_features).astype(np.float32) * 0.1
                st.running_var = rng.random(st.num_features).astype(np.float32) + 0.5
                st.batches_tracked = 1

        def bn_eval(h, bn):
            st = bn.state
            return (bn.gamma.values[None, :, None, None]
                    * (h - st.running_mean[None, :, None, None])
                    / np.sqrt(st.running_var[None, :, None, None] + 1e-5)
                    + bn.beta.values[None, :, None, None])

        xv = rng.standard_normal((1, 2, 2, 6, 6)).astype(np.float32)
        got = net.forward(Tensor(xv), training=False).values

        h = oracles.conv2d_loop(xv[0].astype(np.float64),
                                net.stem_conv.weight.values, 1, 1, 1)
        h = bn_eval(h, net.stem_bn)
        spikes = (h >= spec.lif.v_th).astype(np.float64)
        gated = oracles.dta_ref(spikes[None], net.txa, net.tna)[0]
        block = net.blocks[0]
        s1 = (gated >= spec.lif.v_th).astype(np.float64)
        y = bn_eval(oracles.conv2d_loop(s1, block.conv1.weight.values, 1, 1, 1),
                    block.bn1)
        s2 = (y >= spec.lif.v_th).astype(np.float64)
        y = bn_eval(oracles.conv2d_loop(s2, block.conv2.weight.values, 1, 1, 1),
                    block.bn2)
        a = y + gated
        s_out = (a >= spec.lif.v_th).astype(np.float64)
        pooled = s_out.mean(axis=(2, 3))
        want = pooled @ net.head.weight.values.T + net.head.bias.values
        np.testing.assert_allclose(got, want, atol=1e-4)


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        net = build(MINI, seed=0)
        x = Tensor(rng.standard_normal((4, 2, 3, 8, 8)).astype(np.float32))
        net.forward(x, training=True)
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        assert spec_mismatch(loaded.spec, net.spec) is None
        for a, b in zip(net.state_arrays(), loaded.state_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, build(MINI, seed=0))
        before = path.read_bytes()
        net = build(MINI, seed=1)
        arrays = net.state_arrays()

        def fail_partway():
            yield from arrays[:3]
            raise OSError("disk full")

        monkeypatch.setattr(net, "state_arrays", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["net.dtasnn"]
        loaded = load_checkpoint(path)
        for a, b in zip(build(MINI, seed=0).state_arrays(), loaded.state_arrays()):
            assert a.tobytes() == b.tobytes()

    def test_write_fsyncs_file_before_replace_and_directory_after(self, tmp_path,
                                                                  monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_tiny_checkpoint(tmp_path / "net.dtasnn")
        assert events == ["fsync file", "replace", "fsync dir"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, build(MINI, seed=0))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "net.dtasnn"
        save_tiny_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_at_every_offset_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, build(TINY, seed=0))
        blob = path.read_bytes()
        cut = tmp_path / "cut.dtasnn"
        escaped = {}
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            try:
                load_checkpoint(cut)
            except CheckpointError:
                continue
            except Exception as exc:
                escaped[n] = type(exc).__name__
            else:
                escaped[n] = "no error"
        assert not escaped, (f"{len(escaped)} of {len(blob)} offsets escaped: "
                             f"{Counter(escaped.values())}")

    def test_spec_missing_field_names_it(self, tmp_path):
        spec = asdict(TINY)
        del spec["stages"]
        payload = json.dumps(spec).encode("utf-8")
        path = tmp_path / "net.dtasnn"
        blob = CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(CheckpointError, match="stages"):
            load_checkpoint(path)

    def test_every_single_bit_flip_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "net.dtasnn"
        save_tiny_checkpoint(path)
        blob = path.read_bytes()
        assert blob[:8] == CHECKPOINT_MAGIC
        flipped = tmp_path / "flip.dtasnn"
        escaped = {}
        for n in range(len(blob)):
            for bit in (0, 7):
                bad = bytearray(blob)
                bad[n] ^= 1 << bit
                flipped.write_bytes(bytes(bad))
                try:
                    load_checkpoint(flipped)
                except CheckpointError:
                    continue
                except Exception as exc:
                    escaped[(n, bit)] = type(exc).__name__
                else:
                    escaped[(n, bit)] = "no error"
        assert not escaped, (f"{len(escaped)} of {2 * len(blob)} flips escaped: "
                             f"{Counter(escaped.values())}")

    def test_v1_container_refused(self, tmp_path):
        # DTASNN01 had the same layout without the CRC trailer; it is refused,
        # not read unchecked
        path = tmp_path / "v1.dtasnn"
        save_tiny_checkpoint(path)
        path.write_bytes(b"DTASNN01" + path.read_bytes()[8:-4])
        with pytest.raises(CheckpointError, match="bad container magic b'DTASNN01'"):
            load_checkpoint(path)

    def test_seed_zero_checkpoint_bytes(self, tmp_path):
        # pins the RNG draw order, the run order and the header together
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, build(MINI, seed=0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8c31719b611cbdb382f08e8e89c7461291a6b0d43b3842664f261594b56335aa")

    def test_v2_layout_is_byte_exact(self, tmp_path):
        net = build(TINY, seed=0)
        payload = (b'{"dta_enabled": [true, true], "in_channels": 1, "lif": {"alpha": 1.0, '
                   b'"reset_detached": false, "tau": 0.5, "v_th": 1.0}, "num_classes": 2, '
                   b'"stages": [[2, 1, 1]], "stem_channels": 2, "time_steps": 2}')
        parts = [b"DTASNN02", struct.pack("<I", len(payload)), payload]
        for arr in net.state_arrays():
            flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
            parts += [struct.pack("<I", flat.size), flat.tobytes()]
        want = b"".join(parts)
        want += struct.pack("<I", zlib.crc32(want))
        path = tmp_path / "net.dtasnn"
        save_checkpoint(path, net)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("override, field", [
        ({"time_steps": 2.7}, "time_steps"),
        ({"time_steps": 2.0}, "time_steps"),
        ({"num_classes": True}, "num_classes"),
        ({"stages": [[2, 1.0, 1]]}, "stages"),
    ])
    def test_non_integer_spec_rejected(self, tmp_path, override, field):
        # a CRC-valid header whose geometry would truncate to a valid network
        path = tmp_path / "net.dtasnn"
        container.write(path, {**asdict(TINY), **override},
                        build(TINY, seed=0).state_arrays())
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("override, field", [
        ({"dta_enabled": [1, "yes"]}, "dta_enabled"),
        ({"dta_enabled": [True, "false"]}, "dta_enabled"),
        ({"lif": {**asdict(LifParams()), "reset_detached": "false"}}, "reset_detached"),
        ({"lif": {**asdict(LifParams()), "reset_detached": 0}}, "reset_detached"),
        ({"lif": {**asdict(LifParams()), "tau": "0.5"}}, "tau"),
        ({"lif": {**asdict(LifParams()), "v_th": True}}, "v_th"),
        ({"lif": {**asdict(LifParams()), "alpha": None}}, "alpha"),
    ])
    def test_coercible_flags_and_constants_rejected(self, tmp_path, override, field):
        # a CRC-valid header whose values bool() or float() would accept
        path = tmp_path / "net.dtasnn"
        container.write(path, {**asdict(TINY), **override},
                        build(TINY, seed=0).state_arrays())
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_integer_lif_constant_loads(self, tmp_path):
        path = tmp_path / "net.dtasnn"
        header = {**asdict(TINY), "lif": {**asdict(TINY.lif), "v_th": 1}}
        container.write(path, header, build(TINY, seed=0).state_arrays())
        assert spec_mismatch(load_checkpoint(path).spec, TINY) is None

    def test_other_kind_names_missing_field(self, tmp_path):
        # a CRC-valid container whose header is some other spec's
        path = tmp_path / "file.dtasnn"
        container.write(path, {"classes": 2, "time_steps": 2}, [np.zeros(3)])
        with pytest.raises(CheckpointError, match="in_channels"):
            load_checkpoint(path)

    def test_spec_mismatch_names_field(self):
        from dataclasses import replace
        other = replace(MINI, stem_channels=8)
        assert spec_mismatch(MINI, other) == "stem_channels"
        tweaked = replace(MINI, lif=LifParams(tau=0.25))
        assert spec_mismatch(MINI, tweaked) == "lif.tau"
        assert spec_mismatch(MINI, MINI) is None
