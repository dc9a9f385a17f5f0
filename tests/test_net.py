import contextlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyscore import ctc, dsp, net


TINY = net.ModelConfig(vocab_size=5, input_bins=24, hidden_units=8, frame_doubling=True, dropout_p=0.1)


def tiny_params(seed=336, dtype=np.float64):
    return net.init_params(TINY, seed=seed, dtype=dtype)


def test_frame_double_examples():
    assert net.frame_double(np.array([[1.0, 2.0, 3.0, 4.0]])).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    out = net.frame_double(np.arange(6.0).reshape(3, 2))
    assert out.shape == (6, 1)
    assert out.ravel().tolist() == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):  # an odd feature dimension cannot be split
        net.frame_double(np.ones((2, 5)))
    with pytest.raises(ValueError):
        net.frame_undouble(np.ones((3, 2)))


def test_frame_double_undouble_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 12))
    assert np.array_equal(net.frame_undouble(net.frame_double(x)), x)


def test_posterior_rows_sum_to_one():
    params = tiny_params()
    x = np.random.default_rng(5).random((9, 24))
    grid = net.forward(params, TINY, [x], mode="eval")[0]
    assert np.all(np.abs(np.exp(grid).sum(axis=1) - 1.0) <= 1e-6)
    assert np.all(grid <= 0)
    assert grid.shape == (18, 5)  # doubling on


def test_frame_doubling_doubles_rows():
    cfg = net.ModelConfig(vocab_size=4, input_bins=24, hidden_units=4, frame_doubling=True, dropout_p=0.0)
    params = net.init_params(cfg, 0, dtype=np.float64)
    x = np.random.default_rng(1).random((10, 24))
    assert net.forward(params, cfg, [x], mode="eval")[0].shape[0] == 20


def test_time_resolution_preserved_without_doubling():
    cfg = net.ModelConfig(vocab_size=4, input_bins=24, hidden_units=4, frame_doubling=False, dropout_p=0.0)
    params = net.init_params(cfg, 0, dtype=np.float64)
    for w in (1, 2, 5, 11):
        x = np.random.default_rng(w).random((w, 24))
        assert net.forward(params, cfg, [x], mode="eval")[0].shape[0] == w


def test_eval_deterministic_and_pure():
    params = tiny_params()
    x = np.random.default_rng(2).random((6, 24))
    a = net.forward(params, TINY, [x], mode="eval")[0]
    b = net.forward(params, TINY, [x], mode="eval")[0]
    assert np.array_equal(a, b)


def test_train_mode_dropout_depends_on_seed():
    params = tiny_params()
    x = np.random.default_rng(2).random((6, 24))
    [g1], _ = net.forward(params, TINY, [x], mode="train", rng_seed=[1])
    [g1b], _ = net.forward(params, TINY, [x], mode="train", rng_seed=[1])
    [g2], _ = net.forward(params, TINY, [x], mode="train", rng_seed=[2])
    assert np.array_equal(g1, g1b)
    assert not np.array_equal(g1, g2)


def test_zero_output_layer_gives_uniform_rows():
    params = tiny_params()
    params["out_w"][:] = 0.0
    params["out_b"][:] = 0.0
    x = np.random.default_rng(3).random((4, 24))
    grid = net.forward(params, TINY, [x], mode="eval")[0]
    assert np.allclose(np.exp(grid), 1.0 / TINY.vocab_size)


def test_shape_mismatch():
    params = tiny_params()
    with pytest.raises(net.ShapeMismatch):
        net.forward(params, TINY, [np.zeros((5, 23))], mode="eval")


def test_forward_takes_only_a_list_of_arrays():
    # neither input may be read as W one-row clips or unwrapped
    params = tiny_params()
    x = np.random.default_rng(2).random((6, 24))
    spec = dsp.Spectrogram(frames=x)
    for bad in (x, [spec]):
        with pytest.raises(net.ShapeMismatch):
            net.forward(params, TINY, bad, mode="eval")
        with pytest.raises(net.ShapeMismatch):
            net.forward(params, TINY, bad, mode="train", rng_seed=[0] * len(bad))


def test_full_model_gradient_subsampled():
    params = tiny_params()
    x = np.random.default_rng(1336).random((6, 24))
    target = [1, 2, 1]

    def loss_fn(p):
        [grid], cache = net.forward(p, TINY, [x], mode="train", rng_seed=[2336])
        loss, upstream = ctc.ctc_loss(grid, target)
        return loss, cache, upstream

    loss, cache, upstream = loss_fn(params)
    grads = net.backward(cache, [upstream])
    rng = np.random.default_rng(9)
    worst = 0.0
    for name in net.trainable(params):
        arr = params[name]
        picks = rng.choice(arr.size, size=min(20, arr.size), replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + 1e-4
            lp, *_ = loss_fn(params)
            arr[idx] = orig - 1e-4
            lm, *_ = loss_fn(params)
            arr[idx] = orig
            fd = (lp - lm) / 2e-4
            worst = max(worst, abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-8))
    assert worst < 1e-3


def test_zero_upstream_gradient_gives_zero_grads():
    params = tiny_params()
    x = np.random.default_rng(4).random((5, 24))
    [grid], cache = net.forward(params, TINY, [x], mode="train", rng_seed=[0])
    grads = net.backward(cache, [np.zeros_like(grid)])
    assert all(np.all(g == 0.0) for g in grads.values())


def test_batch_average_matches_manual_mix():
    params = tiny_params()
    rng = np.random.default_rng(6)
    xa, xb = rng.random((5, 24)), rng.random((7, 24))
    target = [1, 2]

    def grads_for(x):
        [grid], cache = net.forward(params, TINY, [x], mode="train", rng_seed=[1])
        loss, upstream = ctc.ctc_loss(grid, target)
        return net.backward(cache, [upstream])

    ga, gb = grads_for(xa), grads_for(xb)
    mixed = {k: 0.5 * ga[k] + 0.5 * gb[k] for k in ga}
    mixed_rev = {k: 0.5 * gb[k] + 0.5 * ga[k] for k in ga}
    for k in mixed:
        assert np.allclose(mixed[k], mixed_rev[k], rtol=0, atol=0)


def test_stale_cache_rejected():
    params = tiny_params()
    x = np.random.default_rng(4).random((5, 24))
    [grid], cache = net.forward(params, TINY, [x], mode="train", rng_seed=[0])
    net.backward(cache, [np.zeros_like(grid)])
    with pytest.raises(net.StaleCache):
        net.backward(cache, [np.zeros_like(grid)])
    with pytest.raises(net.StaleCache):
        net.backward(None, [np.zeros((5, 5))])


def test_sgd_zero_gradient_is_noop():
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.zeros_like(params[k]) for k in net.trainable(params)}
    net.sgd_nesterov_step(params, grads, velocity, lr=0.1)
    for k, v in before.items():
        assert np.array_equal(params[k], v)


def test_sgd_two_step_closed_form():
    # v1 = g, p1 = p0 - lr*g*(1+mu); v2 = g*(1+mu),
    # p2 = p0 - lr*g*(2 + 2*mu + mu^2)
    cfg = net.ModelConfig(vocab_size=2, input_bins=4, hidden_units=1, dropout_p=0.0, frame_doubling=False)
    params = net.init_params(cfg, 0, dtype=np.float64)
    name = "out_b"
    params[name][:] = 1.0
    velocity = net.zero_velocity(params)
    g = np.full_like(params[name], 0.5)
    lr, mu = 0.1, net.SGD_MOMENTUM
    net.sgd_nesterov_step(params, {name: g}, velocity, lr)
    net.sgd_nesterov_step(params, {name: g}, velocity, lr)
    expected = 1.0 - lr * 0.5 * (2 + 2 * mu + mu * mu)
    assert np.allclose(params[name], expected, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_updates_match_out_of_place_formulas(dtype):
    rng = np.random.default_rng(12)
    p, v, g = (rng.normal(size=(7, 5)).astype(dtype) for _ in range(3))
    lr, mu = 3e-4 / 1.1**7, net.SGD_MOMENTUM
    v_new = (mu * v + g).astype(dtype)
    p_new = (p - lr * (g + mu * v_new)).astype(dtype)
    params = {"w": p.copy()}
    velocity = {"w": v.copy()}
    net.sgd_nesterov_step(params, {"w": g}, velocity, lr)
    assert np.array_equal(velocity["w"], v_new)
    assert np.array_equal(params["w"], p_new)

    # boolean keep masks and one multiplier against the float masks they
    # replaced, on a conv activation (B, C, F, T) with ReLU and an LSTM
    # output (B, T, H) without; every clip leaves padded frames but the second
    drop_p = 0.1
    scale = dtype(1) / dtype(1 - drop_p)
    lengths, seeds = (4, 9, 7), (5, 6, 7)
    for shape, relu in (((3, 4, 6, 9), True), ((3, 9, 6), False)):
        x, dx = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        for a in (x, dx):
            a[a < -1] = -0.0
            a[a > 1.5] = 0.0
        frames = [(b, Ellipsis, slice(t)) if relu else (b, slice(t)) for b, t in enumerate(lengths)]
        drop = np.zeros(shape, dtype=dtype)
        valid = np.zeros(shape, dtype=bool)
        for index, seed in zip(frames, seeds):
            valid[index] = True
            draws = np.random.default_rng(seed).random(drop[index].shape)
            drop[index] = (draws >= drop_p).astype(dtype) / (1 - drop_p)
        float_keep = (x > 0).astype(dtype) * drop if relu else drop
        keep = (x > 0) & valid if relu else valid
        net._drop_units([keep[index] for index in frames], [np.random.default_rng(s) for s in seeds], drop_p)
        # backward meets the conv stages' gradient as a transposed view
        dx_view = np.asfortranarray(dx)
        checks = (
            (x * float_keep, net._apply_keep(x.copy(), keep, scale)),
            (dx * float_keep, net._keep_grad(dx_view, keep, scale)),
        )
        for expected, actual in checks:
            assert actual.dtype == dtype and actual.flags.c_contiguous
            assert np.array_equal(actual, expected)
            assert np.array_equal(np.signbit(actual), np.signbit(expected))
        assert np.signbit(x * float_keep).any() and np.signbit(dx * float_keep).any()


def test_sgd_rejects_non_finite():
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    grads = {k: np.zeros_like(params[k]) for k in net.trainable(params)}
    grads["out_b"][0] = np.nan
    with pytest.raises(net.NonFiniteGradient):
        net.sgd_nesterov_step(params, grads, velocity, lr=0.1)


def test_lr_schedule():
    assert net.lr_at_epoch(0) == pytest.approx(3e-4)
    assert net.lr_at_epoch(1) == pytest.approx(3e-4 / 1.1)
    assert net.lr_at_epoch(49) == pytest.approx(3e-4 / 1.1**49)
    assert net.lr_at_epoch(50) == pytest.approx(3e-4)
    assert net.lr_at_epoch(121) == pytest.approx(3e-4 / 1.1**21)


def test_forget_gate_bias_initialized_to_one():
    params = tiny_params()
    h = TINY.hidden_units
    b = params["rnn0_fwd_b"]
    assert np.all(b[h : 2 * h] == 1.0)
    assert np.all(b[:h] == 0.0)


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    velocity["out_w"] += 0.25
    vocab_hash = b"\x01" * 32
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, TINY, params, velocity, vocab_hash, epoch=7, best_wer=0.5)
    cfg, loaded, vel, state = net.load_checkpoint(path)
    assert cfg == TINY
    assert state == {"epoch": 7, "best_wer": 0.5, "vocab_hash": vocab_hash}
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr), name
    assert np.array_equal(vel["out_w"], velocity["out_w"])


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, TINY, params, net.zero_velocity(params), b"\x01" * 32)
    with pytest.raises(net.VocabularyMismatch):
        net.load_checkpoint(path, expected_vocab_hash=b"\x02" * 32)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(net.CheckpointError):
        net.load_checkpoint(path)
    truncated = tmp_path / "trunc.ckpt"
    params = tiny_params(dtype=np.float32)
    net.save_checkpoint(truncated, TINY, params, net.zero_velocity(params), b"\x00" * 32)
    data = truncated.read_bytes()
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(net.CheckpointError):
        net.load_checkpoint(truncated)
    truncated.write_bytes(data + b"\x00")
    with pytest.raises(net.CheckpointError):
        net.load_checkpoint(truncated)
    truncated.write_bytes(data[:-4])
    with pytest.raises(net.CheckpointError):
        net.load_checkpoint(truncated)
    # version 1 and 2 files are refused by number, whatever follows their headers
    for old in (1, 2):
        truncated.write_bytes(data[:4] + struct.pack("<I", old) + data[8:])
        with pytest.raises(net.CheckpointError, match=f"version {old}; retrain"):
            net.load_checkpoint(truncated)


_LOAD_UNDER_ADDRESS_LIMIT = """
import resource, sys
from polyscore import net
vm_kib = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:"))
limit = vm_kib * 1024 + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    net.load_checkpoint(sys.argv[1])
except net.CheckpointError as exc:
    print("CheckpointError:", exc)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmSize from /proc/self/status")
def test_checkpoint_header_length_past_the_file_is_refused_before_reading(tmp_path):
    # a header length of almost 4 GiB must be refused before a buffer of that
    # size is asked for: under an address-space limit 1 GiB above the loader's
    # own, such a read raises MemoryError
    params = tiny_params(dtype=np.float32)
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, TINY, params, net.zero_velocity(params), b"\x00" * 32)
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<I", 0xFFFFFFF0) + data[12:])
    with pytest.raises(net.CheckpointError, match="header of 4294967280 bytes runs past the end"):
        net.load_checkpoint(path)
    src = str(Path(net.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _LOAD_UNDER_ADDRESS_LIMIT, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("CheckpointError: header of 4294967280 bytes")


@pytest.mark.parametrize("damage", ["missing", "extra", "wrong_shape", "velocity_missing"])
def test_checkpoint_tensors_must_match_config(tmp_path, damage):
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    if damage == "missing":
        del params["out_b"]
    elif damage == "extra":
        params["stray"] = np.zeros(3, dtype=np.float32)
    elif damage == "wrong_shape":
        params["out_w"] = params["out_w"][:, :-1].copy()
    else:
        del velocity["out_b"]
    with pytest.raises(net.CheckpointError):
        net.save_checkpoint(tmp_path / "model.ckpt", TINY, params, velocity, b"\x00" * 32)
    assert list(tmp_path.iterdir()) == []  # refused before anything was written


def test_model_config_validation():
    for field in (
        {"vocab_size": 1},
        {"dropout_p": 1.0},
        {"dropout_p": False},  # a boolean is not a probability
        {"dropout_p": "0.1"},
        {"hidden_units": 0},
        {"hidden_units": 8.5},
        {"input_bins": True},
        {"frame_doubling": 1},
    ):
        with pytest.raises(ValueError):
            net.ModelConfig(**{"vocab_size": 4, **field})


def test_batchnorm_stats_update():
    # a step blends the clip's batch-norm moments into the running statistics
    params = tiny_params(dtype=np.float32)
    x = np.random.default_rng(0).random((6, 24))
    _, cache = net.forward(params, TINY, [x], mode="train", rng_seed=[0])
    mean = cache.bn_moments[0]["bn0"][0]
    before = params["bn0_mean"].copy()
    losses, skipped = net.train_step(params, net.zero_velocity(params), TINY, [x], [[1, 2]], [0], 0.1)
    after = params["bn0_mean"]
    assert len(losses) == 1 and skipped == []
    assert not np.array_equal(before, after)
    assert after.dtype == np.float32
    expected = ((1 - net.BN_MOMENTUM) * before + net.BN_MOMENTUM * mean).astype(np.float32)
    assert np.array_equal(after, expected)


def _state(params, velocity):
    return {("p", n): a.copy() for n, a in params.items()} | {("v", n): a.copy() for n, a in velocity.items()}


def test_train_step_with_every_clip_infeasible_changes_nothing():
    params = tiny_params()
    # a nonzero velocity, so that any update would move the parameters
    velocity = {n: np.full_like(v, 0.5) for n, v in net.zero_velocity(params).items()}
    before = _state(params, velocity)
    rng = np.random.default_rng(3)
    clips = [rng.random((2, 24)), rng.random((3, 24))]  # 4 and 6 frames, doubled
    targets = [[1, 2, 3, 4, 1], [2, 2, 2, 2]]  # need 5 and 7 frames
    losses, skipped = net.train_step(params, velocity, TINY, clips, targets, [1, 2], 0.1)
    assert losses == []
    assert [k for k, _ in skipped] == [0, 1]
    assert all(isinstance(exc, ctc.InfeasibleLength) for _, exc in skipped)
    after = _state(params, velocity)
    assert after.keys() == before.keys()
    for key, array in before.items():
        assert array.dtype == after[key].dtype and array.tobytes() == after[key].tobytes(), key


def test_train_step_mixed_batch_trains_the_feasible_clips():
    # the step against its parts composed by hand: a zero upstream gradient
    # and no batch-norm moments for the infeasible clip, the summed gradient
    # through one Nesterov update, then the running statistics
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    rng = np.random.default_rng(4)
    clips = [rng.random((5, 24)), rng.random((2, 24)), rng.random((7, 24))]
    targets = [[1, 2, 1], [3, 3, 3], [4, 2]]  # the middle clip's 4 frames cannot emit 3 repeats
    seeds = [7, 8, 9]
    expected_params = {n: a.copy() for n, a in params.items()}
    expected_velocity = net.zero_velocity(params)
    grids, cache = net.forward(expected_params, TINY, clips, mode="train", rng_seed=seeds)
    upstream, expected_losses = [], []
    for k, (grid, target) in enumerate(zip(grids, targets)):
        if k == 1:
            upstream.append(np.zeros_like(grid))
            continue
        loss, grad = ctc.ctc_loss(grid, target)
        expected_losses.append(loss)
        upstream.append(grad)
    net.sgd_nesterov_step(expected_params, net.backward(cache, upstream), expected_velocity, 0.1)
    trained = [cache.bn_moments[0], cache.bn_moments[2]]
    for name in trained[0]:
        for i, stat in enumerate(("mean", "var")):
            blend = np.stack([m[name][i] for m in trained]).mean(axis=0)
            running = expected_params[f"{name}_{stat}"]
            expected_params[f"{name}_{stat}"] = ((1 - net.BN_MOMENTUM) * running + net.BN_MOMENTUM * blend).astype(np.float32)

    losses, skipped = net.train_step(params, velocity, TINY, clips, targets, seeds, 0.1)
    assert losses == expected_losses
    assert [k for k, _ in skipped] == [1]
    assert "(need 5)" in str(skipped[0][1])
    for got, expected in ((params, expected_params), (velocity, expected_velocity)):
        assert got.keys() == expected.keys()
        for name in got:
            assert got[name].tobytes() == expected[name].tobytes(), name


def _close(actual, expected, rtol):
    return np.abs(actual - expected).max() <= rtol * max(np.abs(expected).max(), 1e-30)


def _check_batch_against_clips(config, params, clips, seeds, targets, rtol):
    """The packed batch's grids, moments and summed gradients against lone-clip runs.

    A clip without a target gets zero upstream gradient, as an infeasible clip does.
    """
    grids, cache = net.forward(params, config, clips, mode="train", rng_seed=seeds)
    assert len(grids) == len(cache.bn_moments) == len(clips)
    upstream = []
    expected: dict[str, np.ndarray] = {}
    for x, seed, target, grid, moments in zip(clips, seeds, targets, grids, cache.bn_moments):
        [single], single_cache = net.forward(params, config, [x], mode="train", rng_seed=[seed])
        assert grid.shape == single.shape
        assert _close(grid, single, rtol)
        for name, (mean, var) in single_cache.bn_moments[0].items():
            assert _close(moments[name][0], mean, rtol) and _close(moments[name][1], var, rtol)
        if target is None:
            upstream.append(np.zeros_like(grid))
            continue
        loss, single_upstream = ctc.ctc_loss(single, target)
        batch_loss, batch_upstream = ctc.ctc_loss(grid, target)
        assert abs(batch_loss - loss) <= rtol * abs(loss)
        upstream.append(batch_upstream)
        for name, g in net.backward(single_cache, [single_upstream]).items():
            expected[name] = expected.get(name, 0) + g
    grads = net.backward(cache, upstream)
    assert set(grads) == set(expected)
    for name, g in grads.items():
        assert _close(g, expected[name], rtol), name
    for grid, x in zip(net.forward(params, config, clips, mode="eval"), clips):
        assert _close(grid, net.forward(params, config, [x], mode="eval")[0], rtol)


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-10), (np.float32, 1e-4)])
def test_batch_matches_per_clip_runs(dtype, rtol):
    # unequal lengths leave padded tails in both LSTM directions; the last,
    # longest clip gets zero upstream gradient, as an infeasible clip does
    params = tiny_params(dtype=dtype)
    rng = np.random.default_rng(17)
    clips = [rng.random((w, 24)) for w in (7, 4, 9, 11)]
    targets = [[1, 2, 1], [3], [2, 4, 4, 1], None]
    _check_batch_against_clips(TINY, params, clips, [31, 32, 33, 34], targets, rtol)
    # lengths that straddle the conv time tile and the gradient chunk, and a
    # one-frame clip, with frame doubling on and off
    clips = [rng.random((w, 24)) for w in (1, 40, net.CONV_TILE + 1, 300)]
    targets = [[2], [1, 2, 1], [3, 4, 3], [1, 2, 3, 4, 1]]
    for doubling in (True, False):
        config = net.ModelConfig(vocab_size=5, input_bins=24, hidden_units=8, frame_doubling=doubling, dropout_p=0.1)
        params = net.init_params(config, seed=336, dtype=dtype)
        _check_batch_against_clips(config, params, clips, [41, 42, 43, 44], targets, rtol)


def _reference_conv(x, w, b, dy):
    """(y, dx, dw, db) of a 3x3 'same' convolution strided by 2 on F, as direct sums over the nine taps."""
    n, _, f, width = x.shape
    f_out = -(-f // 2)
    pad = max(2 * (f_out - 1) + 3 - f, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (pad // 2, pad - pad // 2), (1, 1)))
    y = np.zeros((n, len(w), f_out, width)) + b[:, None, None]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ki in range(3):
        for kj in range(3):
            window = (slice(None), slice(None), slice(ki, ki + 2 * f_out - 1, 2), slice(kj, kj + width))
            y += np.einsum("oc,ncij->noij", w[:, :, ki, kj], xp[window])
            dw[:, :, ki, kj] = np.einsum("noij,ncij->oc", dy, xp[window])
            dxp[window] += np.einsum("oc,noij->ncij", w[:, :, ki, kj], dy)
    return y, dxp[:, :, pad // 2 : pad // 2 + f, 1:-1], dw, dy.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("c_in, bins", [(1, 9), (1, 10), (16, 9), (16, 10)])
def test_conv_matches_direct_sum(dtype, rtol, c_in, bins):
    # three time tiles, the last one ragged; the second clip is 40 frames
    # shorter, so its last tile ends at its own length, and an odd bin count
    # pads both frequency edges. The reference runs both clips as one batch,
    # right-padded with zeros, with zero dy on the padding.
    rng = np.random.default_rng(c_in * bins)
    width = 2 * net.CONV_TILE + 7
    lengths = [width, width - 40]
    x = rng.normal(size=(2, c_in, bins, width))
    x[1, :, :, lengths[1] :] = 0.0
    w = rng.normal(size=(net.CONV_FILTERS, c_in, 3, 3))
    b = rng.normal(size=net.CONV_FILTERS)
    dy = rng.normal(size=(2, net.CONV_FILTERS, -(-bins // 2), width))
    dy[1, :, :, lengths[1] :] = 0.0
    y_ref, dx_ref, dw_ref, db_ref = _reference_conv(x, w, b, dy)
    dw_sum = db_sum = 0
    for k, length in enumerate(lengths):
        clip = x[k, ..., :length].astype(dtype)
        y, cache = net._conv_forward(clip, w.astype(dtype), b.astype(dtype), 2)
        dx, dw, db = net._conv_backward(dy[k, ..., :length].astype(dtype), w.astype(dtype), cache)
        for actual, expected in ((y, y_ref[k, ..., :length]), (dx, dx_ref[k, ..., :length])):
            assert actual.dtype == dtype and actual.shape == expected.shape
            assert _close(actual, expected, rtol)
        _, dw_only, _ = net._conv_backward(dy[k, ..., :length].astype(dtype), w.astype(dtype), cache, input_grad=False)
        assert np.array_equal(dw_only, dw)
        dw_sum, db_sum = dw_sum + dw, db_sum + db
    for actual, expected in ((dw_sum, dw_ref), (db_sum, db_ref)):
        assert actual.dtype == dtype and actual.shape == expected.shape
        assert _close(actual, expected, rtol)


def test_eval_forward_memory_is_bounded_and_released():
    # a 19 s clip with the default model; a whole-clip 9x im2col and eval-mode
    # stage caches peaked at 58 MB here
    config = net.ModelConfig(vocab_size=64)
    params = net.init_params(config, seed=0)
    x = np.random.default_rng(0).random((823, 240)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [grid] = net.forward(params, config, [x], mode="eval")
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 29 * 2**20
    # nothing survives but the log-probabilities the grid is a view of
    assert after - before <= grid.base.nbytes + 2**16


def test_train_step_memory_is_bounded():
    # the toy model on a padded batch of four clips; float32 ReLU x dropout
    # masks, a separate batch-norm output and full-size temporaries kept
    # 30.8 MB after the forward and peaked at 35.5 MB here
    config = net.ModelConfig(vocab_size=25, hidden_units=64, frame_doubling=False)
    params = net.init_params(config, seed=0)
    rng = np.random.default_rng(0)
    specs = [rng.random((frames, 240)).astype(np.float32) for frames in (165, 150, 120, 90)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grids, cache = net.forward(params, config, specs, mode="train", rng_seed=[1, 2, 3, 4])
        retained = tracemalloc.get_traced_memory()[0] - before
        net.backward(cache, [np.ones_like(grid) for grid in grids])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert retained <= 27 * 2**20
    assert peak <= 31 * 2**20


def _reference_lstm_forward(xp, wh):
    """The step loop over (2, B, T, 4H) projections that the time-major recurrence replaced."""
    _, n, length, four_h = xp.shape
    h_units = four_h // 4
    scale = np.ones(four_h, dtype=xp.dtype)
    scale[: 3 * h_units] = 0.5
    h_all = np.zeros((2, n, length + 1, h_units), dtype=xp.dtype)
    c_all = np.zeros((2, n, length + 1, h_units), dtype=xp.dtype)
    gates = np.empty((2, n, length, four_h), dtype=xp.dtype)
    tanh_c = np.empty((2, n, length, h_units), dtype=xp.dtype)
    h = h_all[:, :, 0]
    c = c_all[:, :, 0]
    for t in range(length):
        a = np.tanh((xp[:, :, t] + h @ wh) * scale, out=gates[:, :, t])
        a[..., : 3 * h_units] += 1.0
        a[..., : 3 * h_units] *= 0.5
        c = a[..., h_units : 2 * h_units] * c + a[..., :h_units] * a[..., 3 * h_units :]
        c_all[:, :, t + 1] = c
        tc = np.tanh(c, out=tanh_c[:, :, t])
        h = np.multiply(a[..., 2 * h_units : 3 * h_units], tc, out=h_all[:, :, t + 1])
    return h_all[:, :, 1:], (h_all, c_all, gates, tanh_c, wh)


def _reference_lstm_backward(dh_out, cache, steps):
    h_all, c_all, gates, tanh_c, wh = cache
    _, n, length, h_units = dh_out.shape
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    i = gates[..., :h_units]
    f = gates[..., h_units : 2 * h_units]
    o = gates[..., 2 * h_units : 3 * h_units]
    g = gates[..., 3 * h_units :]
    factors = np.concatenate(
        [g * i * (1.0 - i), c_all[:, :, :-1] * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g * g)],
        axis=3,
    )
    b_c = o * (1.0 - tanh_c * tanh_c)
    dz_all = np.empty((2, n, length, 4 * h_units), dtype=dh_out.dtype)
    dh_next = np.zeros((2, n, h_units), dtype=dh_out.dtype)
    dc_next = np.zeros((2, n, h_units), dtype=dh_out.dtype)
    for t in range(length - 1, -1, -1):
        dh = dh_out[:, :, t] + dh_next
        dc = dh * b_c[:, :, t] + dc_next
        dz = np.multiply(np.concatenate([dc, dc, dh, dc], axis=2), factors[:, :, t], out=dz_all[:, :, t])
        dc_next = dc * f[:, :, t]
        dh_next = dz @ wh_t
    # each clip's valid steps, in chunks of at most CHUNK_ROWS, clip by clip
    dwh = np.zeros_like(wh)
    for b, s in enumerate(steps):
        for t0 in range(0, s, net.CHUNK_ROWS):
            rows = slice(t0, min(t0 + net.CHUNK_ROWS, s))
            dwh += h_all[:, b, rows].transpose(0, 2, 1) @ dz_all[:, b, rows]
    return dz_all, dwh


@pytest.mark.parametrize(
    "dtype, steps, h",
    [
        (np.float32, [13], 8),
        (np.float64, [13], 8),
        (np.float32, [7, 4, 9, 11], 8),
        (np.float64, [7, 4, 9, 11], 8),
        # the default hidden size, at a transcription-like length and a padded batch
        (np.float32, [400], 64),
        (np.float32, [150, 131, 97, 150], 64),
    ],
    ids=["batch1-float32", "batch1-float64", "padded4-float32", "padded4-float64", "h64-batch1", "h64-padded4"],
)
def test_lstm_matches_reference_loops(dtype, steps, h):
    rng = np.random.default_rng(len(steps))
    n, length = len(steps), max(steps)
    xp = rng.normal(size=(2, n, length, 4 * h)).astype(dtype)
    wh = (rng.normal(size=(2, h, 4 * h)) / np.sqrt(h)).astype(dtype)
    dh_out = rng.normal(size=(2, n, length, h)).astype(dtype)
    for b, s in enumerate(steps):
        dh_out[:, b, s:] = 0.0  # padded tails, in both directions' step order

    def time_major(a):
        return np.ascontiguousarray(a.transpose(2, 0, 1, 3))

    def gate_major(a):
        return np.ascontiguousarray(a.reshape(2, n, length, 4, h).transpose(2, 3, 0, 1, 4))

    h_ref, ref_cache = _reference_lstm_forward(xp, wh)
    dz_ref, dwh_ref = _reference_lstm_backward(dh_out, ref_cache, steps)
    h_out, cache = net._lstm_forward(gate_major(xp), wh)
    dz, dwh = net._lstm_backward(time_major(dh_out), cache, np.array(steps))
    assert np.array_equal(h_out, time_major(h_ref))
    assert np.array_equal(dz, time_major(dz_ref))
    assert np.array_equal(dwh, dwh_ref)


def test_time_major_order_reverses_valid_frames_only():
    steps = np.array([3, 5])
    to_time, to_packed = net._time_major(steps)
    rows = np.arange(8 * 2).reshape(8, 2)  # labels of (packed row, direction)
    pad = -1  # label of the zero row appended after the rows
    steps_major = np.append(rows, pad)[to_time]
    assert steps_major.shape == (5, 2, 2)
    # direction 0 reads each clip's frames in order, then its padding
    assert steps_major[:, 0, 0].tolist() == [0, 2, 4, pad, pad]
    assert steps_major[:, 0, 1].tolist() == rows[3:8, 0].tolist()
    # direction 1 reads clip 0's three frames backwards, then its padding
    assert steps_major[:, 1, 0].tolist() == [5, 3, 1, pad, pad]
    assert steps_major[:, 1, 1].tolist() == rows[[7, 6, 5, 4, 3], 1].tolist()
    assert np.array_equal(steps_major.reshape(-1)[to_packed], rows)


def test_float32_params_give_float32_grads():
    params = tiny_params(dtype=np.float32)
    x = np.random.default_rng(8).random((6, 24))
    [grid], cache = net.forward(params, TINY, [x], mode="train", rng_seed=[4])
    loss, upstream = ctc.ctc_loss(grid, [1, 2])
    assert upstream.dtype == np.float64
    grads = net.backward(cache, [upstream])
    assert set(grads) == set(net.trainable(params))
    for name, g in grads.items():
        assert g.dtype == np.float32, name


def test_float32_logit_gap_beyond_softmax_range_trains():
    # a logit gap of 200 underflows a float32 softmax to exactly 0; the
    # log-softmax output keeps the loss and every gradient finite
    params = tiny_params(dtype=np.float32)
    params["out_b"][0] = 200.0
    x = np.random.default_rng(8).random((6, 24))
    [grid], cache = net.forward(params, TINY, [x], mode="train", rng_seed=[4])
    assert grid.dtype == np.float32 and np.any(np.exp(grid) == 0.0)
    loss, upstream = ctc.ctc_loss(grid, [1, 2])
    assert np.isfinite(loss) and np.all(np.isfinite(upstream))
    velocity = net.zero_velocity(params)
    net.sgd_nesterov_step(params, net.backward(cache, [upstream]), velocity, lr=3e-4)
    assert all(np.all(np.isfinite(params[n])) for n in net.trainable(params))


def test_interrupted_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    params = tiny_params(dtype=np.float32)
    velocity = net.zero_velocity(params)
    path = tmp_path / "last.ckpt"
    net.save_checkpoint(path, TINY, params, velocity, b"\x01" * 32, epoch=1)
    before = path.read_bytes()
    newer = {k: v.copy() for k, v in params.items()}
    for arr in newer.values():
        arr += 1.0

    real_open = net.atomic_open
    writes = []

    @contextlib.contextmanager
    def failing_open(*args, **kwargs):
        # the third write is the second parameter tensor, inside the payload
        with real_open(*args, **kwargs) as fh:
            real_write = fh.write

            def write(data):
                if len(writes) == 2:
                    raise OSError("disk full")
                writes.append(data)
                return real_write(data)

            fh.write = write
            yield fh

    monkeypatch.setattr(net, "atomic_open", failing_open)
    with pytest.raises(OSError):
        net.save_checkpoint(path, TINY, newer, velocity, b"\x01" * 32, epoch=2)
    assert len(writes) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]
    _, loaded, _, state = net.load_checkpoint(path)
    assert state["epoch"] == 1
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr), name
