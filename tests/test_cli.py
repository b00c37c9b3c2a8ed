"""CLI exit-code contract and command wiring, run in-process, plus one run of
the module entry point in a fresh interpreter."""

import json
import os
import resource
import struct
import subprocess
import sys

import numpy as np
import pytest

from dtasnn import cli, container
from dtasnn.cli import main
from dtasnn.data import load_synthetic
from dtasnn.gradcheck import CHECK_NAMES
from dtasnn.network import CheckpointError, load_checkpoint
from dtasnn.tensor import Tensor

FAST = ["--batch_size", "16", "--epochs", "2", "--time_steps", "4",
        "--stem_channels", "4", "--stages", "4:1:1", "--num_classes", "2",
        "--in_channels", "2", "--train_samples", "32", "--test_samples", "16",
        "--synth_height", "6", "--synth_width", "6", "--lr0", "0.05"]


# a 2-class network for the 1-channel 6x6 images of write_idx
IDX_NET = ["--in_channels", "1", "--num_classes", "2", "--time_steps", "2",
           "--stem_channels", "4", "--stages", "4:1:1", "--batch_size", "8",
           "--seed", "1"]


def write_idx(tmp_path, classes):
    """A 6x6 IDX training split of 24 images and test split of 12, with
    labels drawn from [0, classes), in tmp_path/idx."""
    data = tmp_path / "idx"
    data.mkdir()
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 24), ("t10k", 12)):
        labels = rng.integers(0, classes, n)
        with open(data / f"{prefix}-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, 6, 6))
            fh.write(rng.integers(0, 256, (n, 6, 6), dtype=np.uint8).tobytes())
        with open(data / f"{prefix}-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, n))
            fh.write(labels.astype(np.uint8).tobytes())
    return data


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def child_env():
    """The environment for a ``python -m dtasnn.cli`` child: this checkout's
    src first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)}


def run_fast_train(tmp_path, extra=None):
    out = str(tmp_path / "run")
    code = main(["train", "--out", out, "--seed", "1"] + FAST + (extra or []))
    return code, out


class TestTrainCommand:
    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", "cifar10", "--out", str(tmp_path)])
        assert code == 2
        assert "data_dir" in capsys.readouterr().err

    def test_unknown_override_exit_2(self, tmp_path, capsys):
        code = main(["train", "--nonsense", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_invalid_domain_value_exit_2(self, tmp_path, capsys):
        code = main(["train", "--batch_size", "-5", "--out", str(tmp_path)])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    def test_zero_time_steps_exit_2(self, tmp_path, capsys):
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic.cfg")
        code = main(["train", "--config", cfg, "--time_steps", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "time_steps" in capsys.readouterr().err

    def test_negative_epochs_exit_2_writing_nothing(self, tmp_path, capsys):
        code, out = run_fast_train(tmp_path, ["--epochs", "-2"])
        assert code == 2
        assert "epochs" in capsys.readouterr().err
        for name in ("checkpoint.dtasnn", "metrics.jsonl"):
            assert not os.path.exists(os.path.join(out, name))

    @pytest.mark.parametrize("command,extra,key", [
        ("train", ["--augment", "true", "--augment_flip", "7"], "augment_flip"),
        ("train", ["--augment", "true", "--augment_flip", "-3"], "augment_flip"),
        ("train", ["--augment_pad", "-1"], "augment_pad"),
        ("train", ["--test_samples", "-5"], "test_samples"),
        ("train", ["--train_samples", "0"], "train_samples"),
        ("train", ["--train_samples", "-3"], "train_samples"),
        ("train", ["--momentum", "-2"], "momentum"),
        ("train", ["--momentum", "1"], "momentum"),
        ("train", ["--weight_decay", "-1"], "weight_decay"),
        ("train", ["--clip", "-1"], "clip"),
        ("synth-data", ["--train_samples", "0"], "train_samples"),
        ("synth-data", ["--dataset", "cifar10", "--train_samples", "0"], "train_samples"),
        ("train", ["--stages", "8:1:3"], "stages"),
        ("train", ["--tau", "2.0"], "tau"),
        ("train", ["--stem_channels", "0"], "stem_channels"),
        ("train", ["--seed", "-1"], "seed"),
    ])
    def test_out_of_range_value_exit_2_before_any_output(self, tmp_path, capsys,
                                                         command, extra, key):
        out = str(tmp_path / "run")
        assert main([command, "--out", out] + FAST + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_zero_log_every_exit_2(self, tmp_path, capsys):
        code, _ = run_fast_train(tmp_path, ["--log_every", "0"])
        assert code == 2
        assert "log_every" in capsys.readouterr().err

    def test_oversized_idx_header_exit_2(self, tmp_path, capsys):
        data = tmp_path / "idx"
        data.mkdir()
        (data / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, 60000, 60000, 60000) + bytes(100))
        code = main(["train", "--dataset", "idx", "--data_dir", str(data),
                     "--in_channels", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "train-images-idx3-ubyte: truncated pixel data" in capsys.readouterr().err

    def test_missing_idx_files_exit_2(self, tmp_path, capsys):
        data = tmp_path / "idx"
        data.mkdir()
        code = main(["train", "--dataset", "idx", "--data_dir", str(data),
                     "--in_channels", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "synth-data"])
    def test_output_directory_under_a_file_exit_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([command, "--out", str(blocker / "x")] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert str(blocker / "x") in err
        assert "Traceback" not in err

    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        code, out = run_fast_train(tmp_path, ["--epochs", "0"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "checkpoint.dtasnn"))

    def test_short_run_emits_metrics_lines(self, tmp_path, capsys):
        code, out = run_fast_train(tmp_path)
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        assert {rec["split"] for rec in lines} == {"train", "val"}
        with open(os.path.join(out, "metrics.jsonl")) as fh:
            file_lines = [json.loads(l) for l in fh]
        assert len(file_lines) == 4  # 2 epochs x 2 splits
        for rec in file_lines:
            assert set(rec) == {"epoch", "split", "loss", "acc", "lr", "sec"}

    def test_seeded_determinism(self, tmp_path):
        _, out_a = run_fast_train(tmp_path / "a")
        _, out_b = run_fast_train(tmp_path / "b")

        def stream(out):
            with open(os.path.join(out, "metrics.jsonl")) as fh:
                return [{k: v for k, v in json.loads(l).items() if k != "sec"}
                        for l in fh]

        assert stream(out_a) == stream(out_b)


class TestOverrides:
    def test_seed_and_clip_are_generic_overrides(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda cfg: seen.append(cfg) or 0)
        assert main(["train", "--seed", "7", "--clip", "0.5"]) == 0
        assert (seen[0].seed, seen[0].clip) == (7, 0.5)

    @pytest.mark.parametrize("key", ["seed", "clip"])
    def test_bad_value_exit_2(self, tmp_path, capsys, key):
        assert main(["train", f"--{key}", "abc", "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_reproduces_best_val_accuracy(self, tmp_path, capsys):
        code, out = run_fast_train(tmp_path)
        assert code == 0
        with open(os.path.join(out, "metrics.jsonl")) as fh:
            best = max(json.loads(l)["acc"] for l in fh if json.loads(l)["split"] == "val")
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        code = main(["eval", "--checkpoint", ckpt, "--seed", "1"] + FAST)
        assert code == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["acc"] == best

    def test_eval_reads_only_the_test_split(self, tmp_path, capsys):
        data = write_idx(tmp_path, classes=2)
        args = ["--dataset", "idx", "--data_dir", str(data)] + IDX_NET
        out = str(tmp_path / "run")
        assert main(["train", "--out", out, "--epochs", "1"] + args) == 0
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        capsys.readouterr()

        def accuracy():
            assert main(["eval", "--checkpoint", ckpt] + args) == 0
            return json.loads(capsys.readouterr().out.strip())["acc"]

        both = accuracy()
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            os.remove(data / name)
        assert accuracy() == both

    def test_label_past_num_classes_exit_2_before_any_output(self, tmp_path, capsys):
        # a checkpoint of the same 2-class network, trained on synthetic data
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--epochs", "1", "--train_samples", "16",
                     "--test_samples", "8", "--synth_height", "6",
                     "--synth_width", "6"] + IDX_NET) == 0
        ckpt = out / "checkpoint.dtasnn"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        args = ["--dataset", "idx", "--data_dir", str(write_idx(tmp_path, classes=10))]
        for command in (["train", "--out", str(out)], ["eval", "--checkpoint", str(ckpt)]):
            assert main(command + args + IDX_NET) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "num_classes" in err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_corrupted_magic_exit_2(self, tmp_path, capsys):
        _, out = run_fast_train(tmp_path, ["--epochs", "0"])
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        blob = bytearray(open(ckpt, "rb").read())
        blob[0] ^= 0xFF
        open(ckpt, "wb").write(bytes(blob))
        assert main(["eval", "--checkpoint", ckpt] + FAST) == 2
        assert "magic" in capsys.readouterr().err

    def test_checkpoint_before_first_epoch_exit_2(self, tmp_path, capsys):
        # the initial checkpoint has no batch-norm statistics to evaluate with
        _, out = run_fast_train(tmp_path, ["--epochs", "0"])
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        assert main(["eval", "--checkpoint", ckpt, "--seed", "1"] + FAST) == 2
        assert "statistics" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2_at_every_offset(self, tmp_path):
        tiny = ["--time_steps", "2", "--stem_channels", "2", "--stages", "2:1:1",
                "--num_classes", "2", "--in_channels", "1", "--train_samples", "8",
                "--test_samples", "8", "--synth_height", "4", "--synth_width", "4",
                "--batch_size", "8"]
        out = str(tmp_path / "run")
        assert main(["train", "--out", out, "--epochs", "1"] + tiny) == 0
        blob = open(os.path.join(out, "checkpoint.dtasnn"), "rb").read()
        cut = str(tmp_path / "cut.dtasnn")
        codes = set()
        for n in range(len(blob)):
            with open(cut, "wb") as fh:
                fh.write(blob[:n])
            codes.add(main(["eval", "--checkpoint", cut] + tiny))
        assert codes == {2}

    def test_non_integer_time_steps_exit_2(self, tmp_path, capsys):
        # 4.7 would truncate to the configured T=4 and evaluate as that network
        _, out = run_fast_train(tmp_path, ["--epochs", "1"])
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        header, runs = container.read(ckpt, CheckpointError)
        container.write(ckpt, {**header, "time_steps": 4.7}, runs)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--seed", "1"] + FAST) == 2
        assert "time_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("batch_size", ["-1", "0"])
    def test_non_positive_batch_size_exit_2(self, tmp_path, capsys, batch_size):
        _, out = run_fast_train(tmp_path, ["--epochs", "1"])
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        code = main(["eval", "--checkpoint", ckpt, "--seed", "1"] + FAST
                    + ["--batch_size", batch_size])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"batch_size must be >= 1, got {batch_size}" in captured.err

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "none.dtasnn")
        assert main(["eval", "--checkpoint", missing] + FAST) == 2
        assert "none.dtasnn" in capsys.readouterr().err

    def test_fixture_as_checkpoint_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "fixtures")
        assert main(["synth-data", "--out", out] + FAST) == 0
        fixture = os.path.join(out, "synthetic.dtasnn")
        assert main(["eval", "--checkpoint", fixture] + FAST) == 2
        assert "in_channels" in capsys.readouterr().err

    def test_spec_mismatch_names_field(self, tmp_path, capsys):
        _, out = run_fast_train(tmp_path, ["--epochs", "0"])
        ckpt = os.path.join(out, "checkpoint.dtasnn")
        args = [a if a != "4:1:1" else "8:1:1" for a in FAST]
        assert main(["eval", "--checkpoint", ckpt, "--seed", "1"] + args) == 2
        err = capsys.readouterr().err
        assert "stages" in err


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "FAIL" not in out

    def test_fault_injection_fails(self, capsys):
        for op in ("conv2d", "conv2d_depthwise", "conv2d_pointwise", "lif_unroll",
                   "cross_entropy", "batch_norm_2d", "tsum"):
            assert main(["gradcheck", "--break", op]) == 1
            failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                      if line.endswith("FAIL")]
            assert failed == [op]

    def test_forward_error_mirrored_by_backward_fails(self, capsys, monkeypatch):
        # doubling the weight through the tape keeps every gradient consistent
        # with the wrong forward, so only the loop oracle can catch it
        from dtasnn import ops
        conv2d = ops.conv2d
        monkeypatch.setattr(ops, "conv2d",
                            lambda x, w, **kw: conv2d(x, w * Tensor(2.0, dtype=w.dtype), **kw))
        assert main(["gradcheck"]) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.endswith("FAIL")]
        assert failed == ["conv2d", "conv2d_depthwise", "conv2d_pointwise"]

    def test_unknown_break_name_exit_2(self, capsys):
        assert main(["gradcheck", "--break", "conv2dd"]) == 2
        captured = capsys.readouterr()
        assert "max_rel_err" not in captured.out
        assert "conv2dd" in captured.err
        assert "conv2d_depthwise" in captured.err and "lif_unroll" in captured.err

    def test_unknown_break_name_rejected_before_any_check(self, capsys, monkeypatch):
        from dtasnn import gradcheck
        calls = []
        check = gradcheck.gradcheck
        monkeypatch.setattr(gradcheck, "gradcheck",
                            lambda *a, **kw: calls.append(a) or check(*a, **kw))
        assert main(["gradcheck", "--break", "nope"]) == 2
        assert calls == []
        assert "nope" in capsys.readouterr().err

    def test_each_operation_listed_once(self, capsys):
        main(["gradcheck"])
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                 if "max_rel_err" in line]
        assert len(names) == len(set(names))
        for expected in ("add", "mul", "sigmoid", "gelu", "relu", "mean", "tsum",
                         "reshape", "transpose", "conv2d", "conv2d_depthwise",
                         "conv2d_pointwise", "conv1d", "linear",
                         "batch_norm_2d", "cross_entropy", "lif_unroll", "dta_block"):
            assert expected in names
        # the names --break is checked against are the suite's, in its order
        assert names == list(CHECK_NAMES)


class TestSynthDataCommand:
    def test_writes_loadable_fixture(self, tmp_path, capsys):
        out = str(tmp_path / "fixtures")
        code = main(["synth-data", "--out", out, "--train_samples", "10",
                     "--num_classes", "2", "--in_channels", "2",
                     "--time_steps", "4", "--synth_height", "5", "--synth_width", "5"])
        assert code == 0
        spec, samples = load_synthetic(os.path.join(out, "synthetic.dtasnn"))
        assert len(samples) == 10
        assert samples[0].input.shape == (4, 2, 5, 5)

    def test_fixture_carries_the_current_magic(self, tmp_path, capsys):
        out = str(tmp_path / "fixtures")
        assert main(["synth-data", "--out", out, "--train_samples", "4"]) == 0
        with open(os.path.join(out, "synthetic.dtasnn"), "rb") as fh:
            assert fh.read(8) == b"DTASNN02"


class TestAblateCommand:
    def test_structure_of_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "ablate")
        code = main(["ablate", "--out", out, "--seed", "0", "--ablate_seeds", "1",
                     "--epochs", "1"] + FAST[:-2] + ["--lr0", "0.05"])
        assert code == 0
        with open(os.path.join(out, "ablation.json")) as fh:
            rows = json.load(fh)
        assert [r["name"] for r in rows] == ["baseline", "txa", "tna", "dta"]
        assert [(r["enable_txa"], r["enable_tna"]) for r in rows] == [
            (False, False), (True, False), (False, True), (True, True)]
        assert all(len(r["accuracies"]) == 1 for r in rows)
        table = capsys.readouterr().out
        assert "baseline" in table and "dta" in table

    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "ablate")
        assert main(["ablate", "--out", out, "--ablate_seeds", "0"] + FAST) == 2
        assert "ablate_seeds" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "ablation.json"))


    @pytest.mark.parametrize("key", ["epochs", "test_samples"])
    def test_nothing_to_score_exit_2(self, tmp_path, capsys, key):
        out = str(tmp_path / "ablate")
        assert main(["ablate", "--out", out, "--ablate_seeds", "1"] + FAST
                    + [f"--{key}", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err and "Traceback" not in err
        assert not os.path.exists(out)


def test_checkpoint_loadable_via_library(tmp_path):
    _, out = run_fast_train(tmp_path)
    net = load_checkpoint(os.path.join(out, "checkpoint.dtasnn"))
    assert net.spec.stem_channels == 4
    assert all(np.isfinite(p.values).all() for p in net.parameters())


def test_module_entry_point_in_a_fresh_interpreter(tmp_path):
    # every other test calls main() after the suite has imported numpy, so a
    # fault in what the entry point does before numpy loads shows only here
    common = ["--config", os.path.join(ROOT, "configs", "synthetic.cfg"),
              "--train_samples", "64", "--test_samples", "32"]

    def dtasnn(*args):
        return subprocess.run([sys.executable, "-m", "dtasnn.cli", *args, *common],
                              cwd=tmp_path, env=child_env(), capture_output=True,
                              text=True, timeout=120)

    run = dtasnn("train", "--epochs", "1", "--out", str(tmp_path / "run"))
    assert run.returncode == 0, run.stderr
    ckpt = tmp_path / "run" / "checkpoint.dtasnn"
    run = dtasnn("eval", "--checkpoint", str(ckpt))
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    assert json.loads(line)["split"] == "val"
    v1 = tmp_path / "v1.dtasnn"
    v1.write_bytes(b"DTASNN01" + ckpt.read_bytes()[8:-4])
    run = dtasnn("eval", "--checkpoint", str(v1))
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "bad container magic b'DTASNN01'" in run.stderr


def test_full_disk_keeps_the_previous_checkpoint(tmp_path):
    # the child's own RLIMIT_FSIZE stops the first checkpoint write partway;
    # CPython ignores SIGXFSZ, so the write fails with EFBIG
    args = ["train", "--config", os.path.join(ROOT, "configs", "synthetic.cfg"),
            "--train_samples", "64", "--test_samples", "32", "--out", str(tmp_path / "run")]
    assert main(args + ["--epochs", "0"]) == 0
    ckpt = tmp_path / "run" / "checkpoint.dtasnn"
    previous = ckpt.read_bytes()
    limit = len(previous) // 2

    def cap_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    run = subprocess.run([sys.executable, "-m", "dtasnn.cli", *args, "--epochs", "1"],
                         cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                         timeout=120, preexec_fn=cap_file_size)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "File too large" in run.stderr and str(ckpt) in run.stderr
    assert ckpt.read_bytes() == previous
    assert not os.path.exists(str(ckpt) + ".tmp")
