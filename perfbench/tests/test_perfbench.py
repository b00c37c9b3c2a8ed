"""Tests of the training benchmark's tracer, gates and command line.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import bench
import spans
from bench import Outcome, Workload, layer_metric_units, make_inputs, run_round
from dtasnn import attention, network, training
from spans import LAYERS, RecordCounter, Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

TINY = Workload(name="tiny", classes=2, channels=2, size=6, time_steps=3, stem=4,
                stages=((4, 1, 1), (8, 1, 2)), dta=True, batch=8,
                train_samples=24, test_samples=8, rounds=2, eval_passes=1)


def traced_round(w, tmp_path, seed=3):
    outcome = Outcome()
    tracer = Tracer()
    with tracer:
        r = run_round(w, seed, make_inputs(w, seed), str(tmp_path / "t.dtasnn"), outcome,
                      tracer)
    return r, tracer, outcome


def state_bits(net):
    return [a.tobytes() for a in net.state_arrays()]


def test_self_times_of_one_step_add_up_to_the_step_time(tmp_path):
    _, tracer, outcome = traced_round(TINY, tmp_path)
    assert not outcome.errors
    steps = tracer.per_step()
    assert len(steps) == TINY.steps_per_round()
    for agg in steps.values():
        assert set(agg["self"]) <= set(LAYERS)
        assert min(agg["self"].values()) > -1e-6
        assert sum(agg["self"].values()) == pytest.approx(agg["step_ms"], rel=1e-9)
    # the step spans lie inside the train() call
    wall_ms = sum(agg["step_ms"] for agg in steps.values())
    train_span = tracer.durations_ms("training.train")[0]
    assert 0 < wall_ms < train_span


def test_tracing_leaves_parameters_and_losses_bit_identical(tmp_path):
    inputs = make_inputs(TINY, 3)
    plain = run_round(TINY, 3, inputs, str(tmp_path / "p.dtasnn"), Outcome())
    traced, tracer, outcome = traced_round(TINY, tmp_path)
    assert not outcome.errors
    assert tracer.nodes and tracer.spans
    assert repr(plain.losses) == repr(traced.losses)
    assert state_bits(plain.net) == state_bits(traced.net)
    # leaving the tracer restores every wrapped function
    assert training.train.__module__ == "dtasnn.training"
    assert not hasattr(training.train, "__wrapped__")
    assert network.conv2d.__name__ == "conv2d"


@pytest.mark.parametrize("offset", [-2, "first weight"])
def test_gate_fails_when_the_checkpoint_is_corrupted(tmp_path, monkeypatch, offset):
    save = training.save_checkpoint

    def save_then_flip(path, net):
        save(path, net)
        with open(path, "r+b") as fh:
            if offset == "first weight":  # magic, u32 spec length, spec, u32 count
                fh.seek(8)
                pos = 8 + 4 + int.from_bytes(fh.read(4), "little") + 4 + 2
            else:  # the high bytes of the last batch-norm counter
                pos = os.path.getsize(path) + offset
            fh.seek(pos)
            byte = fh.read(1)
            fh.seek(pos)
            fh.write(bytes([byte[0] ^ 0x40]))

    monkeypatch.setattr(training, "save_checkpoint", save_then_flip)
    outcome = Outcome()
    run_round(TINY, 3, make_inputs(TINY, 3), str(tmp_path / "c.dtasnn"), outcome)
    assert outcome.failed == 1
    assert any("state or logits differ" in e for e in outcome.errors)


def test_gate_fails_when_the_checkpoint_is_truncated(tmp_path, monkeypatch):
    save = training.save_checkpoint

    def save_then_truncate(path, net):
        save(path, net)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)

    monkeypatch.setattr(training, "save_checkpoint", save_then_truncate)
    outcome = Outcome()
    run_round(TINY, 3, make_inputs(TINY, 3), str(tmp_path / "c.dtasnn"), outcome)
    assert outcome.failed == 1
    assert any("round trip raised" in e for e in outcome.errors)


def test_record_counter_counts_only_records_still_reachable():
    counter = RecordCounter()
    with counter:
        kept = training.ComputationRecord()
        training.ComputationRecord()  # no cycle, so freed at once
    counter.count()
    with counter:
        training.ComputationRecord()
    counter.count()
    assert counter.alive == [1, 0] and kept.nodes == []
    assert training.ComputationRecord is bench.ComputationRecord


def test_traced_run_reports_every_layer_metric(tmp_path):
    outcome = Outcome()
    values, _ = bench.run_traced(TINY, 3, 0.1, make_inputs(TINY, 3),
                                 str(tmp_path / "t.dtasnn"), outcome)
    assert not outcome.errors
    assert set(values) == set(layer_metric_units())
    assert values["neuron.lif_unroll.tape_nodes"] > 0
    assert values["attention.t_na.fwd_ms"] > 0
    assert values["tensor.records_alive"] >= 0


def test_attention_metrics_are_na_with_dta_off(tmp_path):
    w = replace(TINY, dta=False)
    outcome = Outcome()
    values, _ = bench.run_traced(w, 3, 0.1, make_inputs(w, 3), str(tmp_path / "t.dtasnn"),
                                 outcome)
    assert not outcome.errors
    # dta still runs its binary-input check with both branches off
    assert values["attention.dta.fwd_ms"] > 0 and values["attention.self_ms"] > 0
    assert {n for n, v in values.items() if v is None} == bench.not_run(w)
    assert values["ops.conv2d.calls"] > 0


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.end_to_end_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def run_main(monkeypatch, tmp_path, w, capsys):
    """Run the command line in this process on workload *w*; return its exit
    code, the JSON line and the standard error."""
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # so importing run does not re-exec
    import run
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setitem(bench.WORKLOADS, w.name, w)
    code = run.main(["--workload", w.name, "--seed", "3", "--seconds", "0.1",
                     "--trace", "1"])
    out, err = capsys.readouterr()
    return code, json.loads(out.splitlines()[-1]), err


@pytest.mark.parametrize("dta", [True, False])
def test_traced_run_passes_with_only_skipped_layers_na(tmp_path, monkeypatch, capsys, dta):
    w = replace(TINY, name=f"tiny-dta-{dta}", dta=dta)
    code, result, _ = run_main(monkeypatch, tmp_path, w, capsys)
    assert code == 0 and result["correct"]


def test_traced_run_fails_when_an_installed_hook_never_fires(tmp_path, monkeypatch, capsys):
    # the conv1d hook goes where no caller looks it up, as if attention had
    # stopped calling attention.conv1d
    hooks = tuple((name, attr, (SimpleNamespace(conv1d=attention.conv1d),)
                   if name == "ops.conv1d" else modules)
                  for name, attr, modules in spans._FUNCTIONS)
    monkeypatch.setattr(spans, "_FUNCTIONS", hooks)
    code, result, err = run_main(monkeypatch, tmp_path, TINY, capsys)
    assert code == 1 and not result["correct"]
    assert "no value for ['ops.conv1d.calls'" in err


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_same_seed_gives_the_same_final_loss_in_two_processes():
    args = ("--workload", "desk-nodta", "--seed", "7", "--seconds", "1", "--trace", "0")
    results = [json.loads(run_cli(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2)]
    assert all(r["correct"] for r in results)
    assert (results[0]["metrics"]["train_loss_end"]["value"]
            == results[1]["metrics"]["train_loss_end"]["value"])


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path, "--workload", "desk-train", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_missing_hook_point_leaves_nothing_patched(monkeypatch):
    monkeypatch.delattr(attention, "gtca")
    with pytest.raises(AttributeError):
        with Tracer():
            pass
    assert not hasattr(network.conv2d, "__wrapped__")
    assert not hasattr(training.train, "__wrapped__")
