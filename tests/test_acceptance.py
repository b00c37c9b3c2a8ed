"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The ablation criterion is soft: a violated ordering prints the
table and warns instead of failing, since toy-task orderings are noisy.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from dtasnn import tensor as tz
from dtasnn.attention import TnaParams, TxaParams, dta, dta_gate, t_na, t_xa
from dtasnn.cli import ABLATION_ROWS, ablation_warnings, format_ablation_table, run_ablation
from dtasnn.config import RunConfig
from dtasnn.data import SynthSpec, gen_synthetic, load_idx, parse_cifar_records
from dtasnn.gradcheck import lif_input_grad_oracle, run_suite
from dtasnn.network import NetworkSpec, build, load_checkpoint, named_leaves, save_checkpoint
from dtasnn.neuron import LifParams, lif_unroll, surrogate_values
from dtasnn.tensor import ComputationRecord, Tensor, backward, zero_grads
from dtasnn.training import TrainConfig, evaluate, train

import oracles
from test_data import write_idx_pair


def report(name, ok, detail, seconds):
    status = "PASS" if ok else "FAIL"
    print(f"{name} {status}: {detail} [{seconds:.1f}s]")
    assert ok, f"{name}: {detail}"


MINI_TASK = SynthSpec(classes=2, time_steps=6, channels=2, height=8, width=8,
                      rate_on=0.9, rate_off=0.05, seed=0)
MINI_NET = NetworkSpec(time_steps=6, in_channels=2, stem_channels=8,
                       stages=((8, 1, 1), (16, 1, 2)), num_classes=2,
                       dta_enabled=(True, True), lif=LifParams())


def test_ac1_oracle_equivalence(rng):
    t0 = time.perf_counter()
    # LIF unroll vs the hand-differentiated recurrence, T=3, 4 neurons
    worst_lif = 0.0
    for detached in (False, True):
        p = LifParams(tau=0.5, v_th=1.0, alpha=1.0, reset_detached=detached)
        cvals = rng.standard_normal((3, 4)) * 0.4 + 0.8
        cs = Tensor(cvals, requires_grad=True, dtype=np.float64)
        zero_grads([cs])
        with ComputationRecord():
            backward(tz.tsum(lif_unroll(cs, p)))
        want = lif_input_grad_oracle(cvals, p)
        got = cs.grad if cs.grad is not None else np.zeros_like(want)
        worst_lif = max(worst_lif, float(np.abs(got - want).max()))

    # attention forwards vs literal composition oracles on random instances
    worst_txa = worst_tna = 0.0
    for seed in range(3):
        r = np.random.default_rng(seed)
        txa = TxaParams.init(2, 2, r, dtype=np.float64)
        tna = TnaParams.init(2, 2, r, dtype=np.float64)
        for _, t in [*named_leaves(txa), *named_leaves(tna)]:
            t.values[...] = r.standard_normal(t.shape) * 0.4
        xv = r.standard_normal((2, 1, 2, 4, 4))
        x = Tensor(xv, dtype=np.float64)
        # T-XA's maps on real input; the fused gate forms T-XA from them on
        # binary spikes
        maps = t_xa(x, txa)
        maps_want = oracles.t_xa_maps_ref(xv, txa.tla_kernel.values, txa.cla_kernel.values,
                                          txa.p_t.values, txa.p_c.values)
        spikes = (xv > 0.5).astype(np.float64)
        gate_got = dta_gate(Tensor(spikes), *maps, None).values
        gate_want = oracles.dta_gate_ref(spikes, *maps_want, None)
        worst_txa = max(worst_txa, float(np.abs(gate_got - gate_want).max()),
                        *(float(np.abs(m.values - w).max()) for m, w in zip(maps, maps_want)))
        tna_got = t_na(x, tna).values
        worst_tna = max(worst_tna, float(np.abs(tna_got - oracles.t_na_ref(xv, tna)).max()))

    dt = time.perf_counter() - t0
    ok = worst_lif <= 1e-6 and worst_txa <= 1e-5 and worst_tna <= 1e-5 and dt < 10.0
    report("AC-1", ok,
           f"lif bptt err {worst_lif:.2e} (<=1e-6), t-xa err {worst_txa:.2e}, "
           f"t-na err {worst_tna:.2e} (<=1e-5)", dt)


def test_ac2_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite(seed=0)
    dt = time.perf_counter() - t0
    failures = [f"{r.name}={r.max_error:.2e}" for r in results if not r.passed]
    worst = max(r.max_error for r in results)
    ok = not failures and dt < 60.0
    report("AC-2", ok,
           f"{len(results)} checks, worst rel err {worst:.2e}"
           + (f", failing: {failures}" if failures else ""), dt)


def test_ac3_identity_and_gate_invariants(rng):
    t0 = time.perf_counter()
    # zero-scale cross attention is an exact identity: both maps it adds
    # to the spikes are zero, so T-XA is x * x = x
    txa = TxaParams.init(4, 5, rng, dtype=np.float64)
    tna = TnaParams.init(4, 5, rng, dtype=np.float64)
    x = Tensor((rng.random((4, 5, 5, 10, 10)) < 0.4).astype(np.float64))
    txa.p_t.values[...] = 0.0
    txa.p_c.values[...] = 0.0
    txa_identity = all(not m.values.any() for m in t_xa(x, txa))

    # zero-decode non-identical attention is an exact identity
    tna.decode.values[...] = 0.0
    tna_identity = np.array_equal(t_na(x, tna).values, x.values)

    # neither branch given: the spikes pass through untouched
    disabled_identity = dta(x, None, None) is x

    # gate bounds over 10^4 random probes, parameters from the module's own
    # initializer distribution (scales included)
    txa2 = TxaParams.init(4, 5, rng, dtype=np.float64)
    tna2 = TnaParams.init(4, 5, rng, dtype=np.float64)
    txa2.p_t.values[...] = rng.uniform(-0.5, 0.5)
    txa2.p_c.values[...] = rng.uniform(-0.5, 0.5)
    out = dta(x, txa2, tna2).values
    zero_gate = np.all(out[x.values == 0.0] == 0.0)
    bounded = float(np.abs(out).max()) < 1.0

    dt = time.perf_counter() - t0
    ok = (txa_identity and tna_identity and disabled_identity and zero_gate
          and bounded and out.size >= 10_000 and dt < 10.0)
    report("AC-3", ok,
           f"identities (txa={txa_identity}, tna={tna_identity}, "
           f"disabled={disabled_identity}), gate zero={zero_gate}, "
           f"|out|max={np.abs(out).max():.4f} over {out.size} probes", dt)


def test_ac4_trainability():
    t0 = time.perf_counter()
    train_set = gen_synthetic(MINI_TASK, 512)
    test_set = gen_synthetic(replace(MINI_TASK, seed=1), 256)
    net = build(MINI_NET, seed=0)
    cfg = TrainConfig(batch_size=64, epochs=30, lr0=0.1,
                      weight_decay=5e-5, seed=0)
    metrics = train(net, train_set, test_set, cfg)
    acc = [m.accuracy for m in metrics if m.split == "val"][-1]

    # single-sample overfit: loss below 0.01 within 200 steps
    overfit_net = build(replace(MINI_NET, stages=((8, 1, 1),)), seed=2)
    one = train_set[:1]
    ocfg = TrainConfig(batch_size=1, epochs=200, lr0=0.05,
                       weight_decay=0.0, seed=0)
    olosses = [m.loss for m in train(overfit_net, one, [], ocfg) if m.split == "train"]
    overfit_ok = min(olosses) < 0.01

    # seed determinism spot check on a short prefix of the same run
    def prefix():
        n = build(MINI_NET, seed=0)
        c = replace(cfg, epochs=2)
        return [(m.loss, m.accuracy) for m in train(n, train_set, test_set, c)]

    deterministic = prefix() == prefix()

    dt = time.perf_counter() - t0
    ok = acc >= 0.95 and overfit_ok and deterministic and dt < 300.0
    report("AC-4", ok,
           f"test acc {acc:.3f} (>=0.95), overfit min loss {min(olosses):.4f} "
           f"(<0.01), deterministic={deterministic}", dt)


def test_ac5_ablation_direction(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(dataset="synthetic", num_classes=2, in_channels=2,
                    time_steps=6, synth_height=8, synth_width=8,
                    stem_channels=8, stages=((8, 1, 1), (16, 1, 2)),
                    batch_size=64, epochs=10, lr0=0.1, weight_decay=5e-5,
                    train_samples=256, test_samples=128, seed=0, ablate_seeds=3,
                    out_dir=str(tmp_path))
    rows = run_ablation(cfg)
    dt = time.perf_counter() - t0

    print(format_ablation_table(rows))
    total_runs = sum(len(r["accuracies"]) for r in rows)
    structure_ok = ([r["name"] for r in rows] == [n for n, _, _ in ABLATION_ROWS]
                    and total_runs == 12 and dt < 1200.0)
    soft = ablation_warnings(rows)
    for msg in soft:
        warnings.warn(f"ablation ordering (soft criterion): {msg}")
    report("AC-5", structure_ok,
           f"12 runs over 4 variants, means "
           + ", ".join(f"{r['name']}={r['mean']:.3f}" for r in rows)
           + ("; SOFT WARNINGS: " + "; ".join(soft) if soft else ""), dt)


def test_ac6_surrogate_function():
    t0 = time.perf_counter()
    exact_ok = True
    area_ok = True
    for alpha in (0.5, 1.0, 2.0):
        p = LifParams(tau=0.5, v_th=1.0, alpha=alpha)
        points = [p.v_th, p.v_th + 1 / (2 * alpha), p.v_th - 1 / (2 * alpha),
                  p.v_th + 1 / alpha, p.v_th - 1 / alpha,
                  p.v_th + 2 / alpha, p.v_th - 2 / alpha]
        want = [alpha, alpha / 2, alpha / 2, 0.0, 0.0, 0.0, 0.0]
        got = surrogate_values(np.array(points), p)
        exact_ok = exact_ok and np.array_equal(got, np.array(want))

        def f(u, _p=p):
            return float(surrogate_values(np.array([u]), _p)[0])

        area, _ = quad(f, p.v_th - 2 / alpha, p.v_th + 2 / alpha,
                       points=[p.v_th - 1 / alpha, p.v_th, p.v_th + 1 / alpha])
        area_ok = area_ok and abs(area - 1.0) <= 1e-6

    dt = time.perf_counter() - t0
    report("AC-6", exact_ok and area_ok,
           f"triangle values exact at all probe points={exact_ok}, "
           f"unit area by quadrature={area_ok}", dt)


def test_ac7_formats(tmp_path, rng):
    t0 = time.perf_counter()
    # CIFAR-10 records: byte-exact round trip of a crafted fixture
    payload = bytes([5]) + bytes(range(256)) * 12
    pixels, labels = parse_cifar_records(payload)
    cifar_ok = (labels[0] == 5
                and np.array_equal((pixels * 255).astype(np.uint8).reshape(-1),
                                   np.frombuffer(payload[1:], dtype=np.uint8)))

    # IDX: crafted file pair round-trips exactly
    images = rng.integers(0, 256, size=(3, 6, 5)).astype(np.uint8)
    img_path, lab_path = write_idx_pair(tmp_path, images, [1, 0, 2])
    x, y = load_idx(img_path, lab_path)
    idx_ok = (np.array_equal((x[:, 0] * 255.0).round().astype(np.uint8), images)
              and y.tolist() == [1, 0, 2])

    # checkpoint: save -> load -> eval reproduces accuracy bitwise
    task = replace(MINI_TASK, height=6, width=6)
    train_set = gen_synthetic(task, 48)
    test_set = gen_synthetic(replace(task, seed=1), 32)
    net = build(replace(MINI_NET, stages=((8, 1, 1),), stem_channels=4), seed=0)
    cfg = TrainConfig(batch_size=16, epochs=2, lr0=0.05, seed=0)
    train(net, train_set, test_set, cfg)
    before = evaluate(net, test_set, batch_size=16)
    path = tmp_path / "ac7.dtasnn"
    save_checkpoint(path, net)
    after = evaluate(load_checkpoint(path), test_set, batch_size=16)
    ckpt_ok = (before.accuracy == after.accuracy and before.loss == after.loss)

    dt = time.perf_counter() - t0
    report("AC-7", cifar_ok and idx_ok and ckpt_ok,
           f"cifar records={cifar_ok}, idx={idx_ok}, checkpoint bitwise "
           f"acc {before.accuracy:.4f}=={after.accuracy:.4f}: {ckpt_ok}", dt)
