import itertools

import numpy as np
import pytest

from polyscore import ctc
from polyscore.net import _log_softmax


def brute_force_probability(probs: np.ndarray, target: list[int]) -> float:
    """Sum of path products over every frame labeling that collapses to target.

    Pure enumeration, vectorized over all |V|^L paths; independent of the
    lattice recursion it checks.
    """
    L, V = probs.shape
    paths = np.array(list(itertools.product(range(V), repeat=L)), dtype=np.int64)
    if L == 0:
        return 1.0 if not target else 0.0
    keep = np.ones(paths.shape, dtype=bool)
    keep[:, 1:] = paths[:, 1:] != paths[:, :-1]
    keep &= paths != ctc.BLANK
    order = np.argsort(~keep, axis=1, kind="stable")
    compacted = np.take_along_axis(paths, order, axis=1)
    counts = keep.sum(axis=1)
    u = len(target)
    match = counts == u
    for j, label in enumerate(target):
        match &= compacted[:, j] == label
    path_probs = probs[np.arange(L)[None, :], paths].prod(axis=1)
    return float(path_probs[match].sum())


def random_grid(rng, L, V):
    g = rng.random((L, V)) + 1e-3
    return g / g.sum(axis=1, keepdims=True)


def test_loss_uniform_two_frame_example():
    loss, _ = ctc.ctc_loss(np.log(np.full((2, 2), 0.5)), [1])
    assert loss == pytest.approx(-np.log(0.75), abs=1e-12)


def test_loss_perfect_expansion_is_zero():
    grid = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with np.errstate(divide="ignore"):
        loss, grad = ctc.ctc_loss(np.log(grid), [1, 1])
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(grad == 0.0)


def test_loss_infeasible_repeated_label():
    with pytest.raises(ctc.InfeasibleLength):
        ctc.ctc_loss(np.log(np.full((1, 3), 1 / 3)), [1, 1])
    with pytest.raises(ctc.InfeasibleLength):
        ctc.ctc_loss(np.log(np.full((2, 3), 1 / 3)), [1, 1, 2])


def test_loss_rejects_blank_in_target():
    with pytest.raises(ValueError):
        ctc.ctc_loss(np.log(np.full((3, 3), 1 / 3)), [1, 0, 2])


def test_loss_empty_target():
    grid = np.array([[0.7, 0.3], [0.6, 0.4]])
    loss, _ = ctc.ctc_loss(np.log(grid), [])
    assert loss == pytest.approx(-np.log(0.7 * 0.6), abs=1e-12)


def test_loss_matches_enumeration_random_cases():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 120:
        L = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        u = int(rng.integers(0, 5))
        target = rng.integers(1, V, size=u).tolist()
        if L < ctc.min_frames(np.asarray(target)):
            continue
        grid = random_grid(rng, L, V)
        expected = brute_force_probability(grid, target)
        loss, _ = ctc.ctc_loss(np.log(grid), target)
        assert np.exp(-loss) == pytest.approx(expected, abs=1e-9)
        checked += 1


def test_alpha_beta_total_constant_over_frames():
    rng = np.random.default_rng(7)
    for _ in range(20):
        L = int(rng.integers(3, 9))
        V = int(rng.integers(2, 5))
        target = rng.integers(1, V, size=int(rng.integers(1, 4))).tolist()
        if L < ctc.min_frames(np.asarray(target)):
            continue
        grid = random_grid(rng, L, V)
        loss, grad = ctc.ctc_loss(np.log(grid), target)  # runs the backward lattice
        # occupancy rows sum to 1: alpha*beta mass is constant over frames
        occ = grid - grad
        assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-8)


def test_grad_finite_difference():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(12):
        L = int(rng.integers(2, 7))
        V = int(rng.integers(2, 5))
        u = int(rng.integers(1, 4))
        target = rng.integers(1, V, size=u).tolist()
        if L < ctc.min_frames(np.asarray(target)):
            continue
        logits = rng.normal(size=(L, V))
        loss, grad = ctc.ctc_loss(_log_softmax(logits), target)
        eps = 1e-5
        for idx in np.ndindex(logits.shape):
            orig = logits[idx]
            logits[idx] = orig + eps
            lp, _ = ctc.ctc_loss(_log_softmax(logits), target)
            logits[idx] = orig - eps
            lm, _ = ctc.ctc_loss(_log_softmax(logits), target)
            logits[idx] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8))
    assert worst < 1e-4


def test_grad_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    grid = random_grid(rng, 6, 4)
    target = [1, 2, 3]
    loss, grad = ctc.ctc_loss(np.log(grid), target)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-9)


def test_grad_perfect_grid_is_zero():
    eps = 1e-12
    grid = np.array([[eps, 1 - eps, eps / 2], [1 - eps, eps, eps / 2]])
    grid /= grid.sum(axis=1, keepdims=True)
    target = [1]
    loss, grad = ctc.ctc_loss(np.log(grid), target)
    assert np.max(np.abs(grad)) < 1e-9


def test_loss_monotone_in_target_mass():
    # the loss functional is monotone in the raw mass on target symbols:
    # shrinking those entries (no renormalization) can only shrink every
    # contributing path product
    rng = np.random.default_rng(11)
    for _ in range(20):
        grid = random_grid(rng, 5, 3)
        target = [1, 2]
        base, _ = ctc.ctc_loss(np.log(grid), target)
        perturbed = grid.copy()
        for k in set(target):
            perturbed[:, k] *= rng.uniform(0.3, 0.9)
        worse, _ = ctc.ctc_loss(np.log(perturbed), target)
        assert worse >= base - 1e-12


def test_greedy_decode_one_hot_rows():
    rows = np.eye(3)[[0, 2, 2, 0, 1]]
    with np.errstate(divide="ignore"):
        assert ctc.greedy_decode(np.log(rows)).tolist() == [0, 2, 2, 0, 1]


def test_greedy_decode_uniform_ties_to_lowest_index():
    grid = np.full((4, 5), 0.2)
    assert ctc.greedy_decode(np.log(grid)).tolist() == [0, 0, 0, 0]


def test_greedy_decode_matches_row_scan():
    rng = np.random.default_rng(8)
    grid = random_grid(rng, 50, 6)
    expected = [max(range(6), key=lambda k: grid[t, k]) for t in range(50)]
    assert ctc.greedy_decode(np.log(grid)).tolist() == expected
    assert len(ctc.greedy_decode(np.log(grid))) == 50


def test_collapse_examples():
    assert ctc.collapse([0, 1, 1, 0, 2, 2, 0]) == [1, 2]
    assert ctc.collapse([1, 0, 1]) == [1, 1]
    assert ctc.collapse([]) == []


def test_collapse_idempotent_on_clean_sequences():
    rng = np.random.default_rng(4)
    for _ in range(50):
        seq = []
        prev = None
        for _ in range(rng.integers(0, 10)):
            choices = [s for s in (1, 2, 3) if s != prev]
            prev = int(rng.choice(choices))
            seq.append(prev)
        assert ctc.collapse(seq) == seq


def random_expansion(rng, target, max_len=40):
    """Insert blanks and duplicate symbols; blanks are forced between repeats."""
    out = []
    prev = None
    for label in target:
        if prev == label:
            out.extend([ctc.BLANK] * int(rng.integers(1, 3)))
        out.extend([label] * int(rng.integers(1, 4)))
        if rng.random() < 0.4:
            out.extend([ctc.BLANK] * int(rng.integers(1, 3)))
        prev = label
    if rng.random() < 0.4:
        out = [ctc.BLANK] * int(rng.integers(1, 3)) + out
    return out


def test_collapse_recovers_random_expansions():
    rng = np.random.default_rng(13)
    for _ in range(500):
        u = int(rng.integers(0, 8))
        target = rng.integers(1, 5, size=u).tolist()
        expansion = random_expansion(rng, target)
        assert ctc.collapse(expansion) == target
        assert len(ctc.collapse(expansion)) <= max(len(expansion), 1)
