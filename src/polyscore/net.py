"""Convolutional-recurrent network with hand-written exact gradients.

Stack: two 3x3 convolutions (16 filters, stride 2 on the frequency axis only)
each followed by batch normalization, ReLU and dropout; per-frame features are
flattened frequency-major and optionally frame-doubled; two bidirectional LSTM
layers with batch normalization between them and dropout after the last; a
final linear projection with row log-softmax yields per-frame symbol
log-posteriors.

Batch normalization always normalizes with the stored running statistics (the
desk-scale batches are too small for batch statistics); :func:`train_step`
updates those statistics after each optimizer step, so the forward pass
stays a pure function of (params, input, seed). That also makes a
batch of clips compute what each clip computes alone.

A batch carries no padding outside the LSTM recurrence. The conv stages run
each clip's (C, F, frames) array on its own; from the flattened features on,
the clips' frames are packed rows, one clip after another, and only the
recurrence steps over a padded time-major layout, gathered from and scattered
back to those rows. Every weight gradient is a sum over each clip's frames
in chunks of at most :data:`CHUNK_ROWS`, taken in clip order
(:func:`_chunk_sum`), so trained bits depend neither on the batch's padding
nor on the BLAS thread count.
Everything runs in the parameter dtype: :func:`backward` casts the incoming
loss gradient to it.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import ctc
from .atomic import atomic_open
from .errors import DataError, ModelError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of a step's batch moments in the running statistics
SGD_MOMENTUM = 0.9
CONV_LAYERS = 2
RECURRENT_LAYERS = 2
CONV_FILTERS = 16
CONV_KERNEL = 3
CONV_FREQ_STRIDE = 2
CONV_TILE = 128  # output frames per lowered time tile of a convolution
CHUNK_ROWS = 256  # most frames one weight-gradient product or sum reduces over
CHECKPOINT_MAGIC = b"PSCK"
CHECKPOINT_VERSION = 3


class ShapeMismatch(ModelError):
    """Input does not match the configured geometry."""


class StaleCache(Exception):
    """Backward called without a fresh train-mode forward cache."""


class NonFiniteGradient(ModelError):
    """A gradient tensor contains NaN or infinity."""


class CheckpointError(DataError):
    """Checkpoint file is unreadable or malformed."""


class VocabularyMismatch(CheckpointError):
    """Checkpoint was trained against a different vocabulary."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    input_bins: int = 240
    hidden_units: int = 64
    dropout_p: float = 0.1
    frame_doubling: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "input_bins", "hidden_units"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if type(self.frame_doubling) is not bool:
            raise ValueError("frame_doubling must be true or false")
        if type(self.dropout_p) not in (int, float) or not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be a number in [0, 1), got {self.dropout_p!r}")

    def conv_feature_dims(self) -> list[int]:
        dims = [self.input_bins]
        for _ in range(CONV_LAYERS):
            dims.append(-(-dims[-1] // CONV_FREQ_STRIDE))
        return dims

    def frame_features(self) -> int:
        return self.conv_feature_dims()[-1] * CONV_FILTERS


def _uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor the configuration implies, in checkpoint order.

    LSTM gate blocks are laid out [input, forget, output, candidate] within
    the 4H axis; the checkpoint format fixes this layout.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    c = CONV_FILTERS
    k = CONV_KERNEL
    in_ch = 1
    for i in range(CONV_LAYERS):
        shapes[f"conv{i}_w"] = (c, in_ch, k, k)
        for name in (f"conv{i}_b", f"bn{i}_gamma", f"bn{i}_beta", f"bn{i}_mean", f"bn{i}_var"):
            shapes[name] = (c,)
        in_ch = c
    h = config.hidden_units
    feat = config.frame_features()
    if config.frame_doubling:
        feat //= 2
    for l in range(RECURRENT_LAYERS):
        for direction in ("fwd", "bwd"):
            shapes[f"rnn{l}_{direction}_wx"] = (feat, 4 * h)
            shapes[f"rnn{l}_{direction}_wh"] = (h, 4 * h)
            shapes[f"rnn{l}_{direction}_b"] = (4 * h,)
        if l < RECURRENT_LAYERS - 1:
            for stat in ("gamma", "beta", "mean", "var"):
                shapes[f"rbn{l}_{stat}"] = (2 * h,)
        feat = 2 * h
    shapes["out_w"] = (2 * h, config.vocab_size)
    shapes["out_b"] = (config.vocab_size,)
    return shapes


def trainable(names) -> tuple[str, ...]:
    """The trainable ones of the given tensor names, in order: all but the running BN statistics."""
    return tuple(n for n in names if not (n.endswith("_mean") or n.endswith("_var")))


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Seeded initialization: uniform +-1/sqrt(fan_in), forget-gate bias 1.

    Returns name -> tensor in :func:`param_shapes` order.
    """
    rng = np.random.default_rng(seed)
    h = config.hidden_units
    t: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        kind = name.rsplit("_", 1)[1]
        if kind in ("w", "wx", "wh"):
            # conv kernels are (out, in, k, k); dense weights are (in, out)
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            t[name] = _uniform(rng, shape, fan_in, dtype)
        elif kind in ("gamma", "var"):
            t[name] = np.ones(shape, dtype=dtype)
        else:
            t[name] = np.zeros(shape, dtype=dtype)
            if name.startswith("rnn"):
                t[name][h : 2 * h] = 1.0  # forget-gate block of an LSTM bias
    return t


def _offsets(lengths) -> np.ndarray:
    """First packed row of each clip, then the total."""
    return np.concatenate(([0], np.cumsum(lengths)))


def _clip_rows(lengths) -> list[slice]:
    """Each clip's slice of the packed rows."""
    start = _offsets(lengths)
    return [slice(a, b) for a, b in zip(start[:-1], start[1:])]


def _chunks(lengths) -> list[tuple[int, slice]]:
    """``(clip, frames)`` of each clip's frames in chunks of at most CHUNK_ROWS, in clip order."""
    return [(b, slice(s, min(s + CHUNK_ROWS, n))) for b, n in enumerate(lengths) for s in range(0, n, CHUNK_ROWS)]


def _row_chunks(lengths) -> list[slice]:
    """The chunks of :func:`_chunks` as slices of the packed rows."""
    start = _offsets(lengths)
    return [slice(start[b] + r.start, start[b] + r.stop) for b, r in _chunks(lengths)]


def _time_chunks(frames: int) -> list[tuple]:
    """The chunks of :func:`_chunks` of one clip whose frames lie on the last axis."""
    return [np.s_[..., r] for _, r in _chunks([frames])]


def _chunk_sum(chunks, term):
    """``term(chunk)`` summed over ``chunks`` in their order.

    Each weight gradient is such a sum over chunks of one clip's frames, so
    every product and reduction has the same operands whatever the padding,
    the memory layout of the upstream gradient or the BLAS thread count: a
    product that reduces over many more rows is split differently between
    threads, and rounds differently.
    """
    chunks = iter(chunks)
    total = term(next(chunks))
    for chunk in chunks:
        total += term(chunk)
    return total


def _conv_same_pad(size: int, stride: int, kernel: int) -> tuple[int, int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return out, total // 2, total - total // 2


def _weight_stack(w):
    """The kernel as one GEMM operand: ``(stack, lowered)``.

    ``lowered`` time taps of each (channel, frequency tap) go into the rows of
    the lowered input; the remaining ``CONV_KERNEL // lowered`` time shifts
    become row blocks of ``stack``, shape (shifts * C_out, C_in * 3 * lowered),
    whose products are added with a one-column shift (MEC: Cho & Brand, ICML
    2017, arXiv:1706.06873). With many input channels only the 3 frequency
    taps are lowered; a single input channel would leave that GEMM an inner
    dimension of 3, which measured slower than lowering all 9 taps.
    """
    c_out, c_in = w.shape[:2]
    lowered = CONV_KERNEL if c_in == 1 else 1
    shifts = CONV_KERNEL // lowered
    stack = w.reshape(c_out, c_in, CONV_KERNEL, shifts, lowered).transpose(3, 0, 1, 2, 4)
    return np.ascontiguousarray(stack.reshape(shifts * c_out, -1)), lowered


def _windows(stride_f, f_out, lowered):
    """(lowered row, frequency rows, time offset) of each lowered tap in a padded (C, F, W) clip."""
    for ki in range(CONV_KERNEL):
        rows = slice(ki, ki + stride_f * (f_out - 1) + 1, stride_f)
        for a in range(lowered):
            yield ki * lowered + a, rows, a


def _lower(xp_clip, j0, span, lowered, stride_f, f_out, buf):
    """Lower one time tile of a padded (C, F, W) clip into ``buf``.

    Returns the (C * 3 * lowered, F_out * span) view whose row (c, ki, a) and
    column (i, j) hold ``xp_clip[c, ki + stride_f * i, j0 + a + j]``.
    """
    rows_per_channel = CONV_KERNEL * lowered
    cols = buf[: xp_clip.shape[0] * rows_per_channel * f_out * span].reshape(-1, rows_per_channel, f_out, span)
    for r, rows, a in _windows(stride_f, f_out, lowered):
        cols[:, r] = xp_clip[:, rows, j0 + a : j0 + a + span]
    return cols.reshape(-1, f_out * span)


def _conv_forward(x, w, b, stride_f):
    """3x3 'same' convolution of one clip's (C, F, frames) input, strided on F.

    The padded input is lowered one time tile at a time, the last tile
    ending at the clip's length, into buffers allocated once per call, so
    memory does not grow with the clip. Each tile is one GEMM against
    :func:`_weight_stack`; the cache keeps the padded input for backward to
    lower again.
    """
    _, f, width = x.shape
    c_out = w.shape[0]
    f_out, pf0, pf1 = _conv_same_pad(f, stride_f, CONV_KERNEL)
    xp = np.pad(x, ((0, 0), (pf0, pf1), (1, 1)))
    stack, lowered = _weight_stack(w)
    halo = CONV_KERNEL - lowered
    tile_cols = f_out * (min(CONV_TILE, width) + halo)
    cols_buf = np.empty(stack.shape[1] * tile_cols, dtype=x.dtype)
    z_buf = np.empty(stack.shape[0] * tile_cols, dtype=x.dtype)
    y = np.empty((c_out, f_out, width), dtype=x.dtype)
    bias = b[:, None, None]
    for j0 in range(0, width, CONV_TILE):
        t = min(CONV_TILE, width - j0)
        span = t + halo
        cols = _lower(xp, j0, span, lowered, stride_f, f_out, cols_buf)
        z = np.matmul(stack, cols, out=z_buf[: stack.shape[0] * cols.shape[1]].reshape(len(stack), -1))
        z = z.reshape(-1, c_out, f_out, span)
        out = np.add(z[0, ..., :t], bias, out=y[:, :, j0 : j0 + t])
        for s in range(1, len(z)):
            out += z[s, ..., s * lowered : s * lowered + t]
    return y, (xp, f, pf0, stride_f)


def _conv_backward(dy, w, cache, input_grad=True):
    """Gradients of :func:`_conv_forward`, lowering the cached padded input again per tile.

    The stack's gradient is each tile's ``dy``, copied at every time shift
    into a halo-wide row block, against the tile's lowering, as one product
    per frequency row, so that each product reduces over one tile's frames;
    tiles are added in order. The input gradient is one GEMM of the
    transposed stack against those blocks, scattered over the lowered taps'
    windows.
    """
    xp, f, pf0, stride_f = cache
    c_in = xp.shape[0]
    c_out, f_out, width = dy.shape
    stack, lowered = _weight_stack(w)
    halo = CONV_KERNEL - lowered
    tile_cols = f_out * (min(CONV_TILE, width) + halo)
    cols_buf = np.empty(stack.shape[1] * tile_cols, dtype=xp.dtype)
    dz_buf = np.empty(stack.shape[0] * tile_cols, dtype=xp.dtype)
    dcols_buf = np.empty(stack.shape[1] * tile_cols, dtype=xp.dtype) if input_grad else None
    row_dstacks = np.empty((f_out, *stack.shape), dtype=xp.dtype)
    dstack = np.zeros_like(stack)
    dxp = np.zeros_like(xp) if input_grad else None
    for j0 in range(0, width, CONV_TILE):
        t = min(CONV_TILE, width - j0)
        span = t + halo
        cols = _lower(xp, j0, span, lowered, stride_f, f_out, cols_buf)
        dz = dz_buf[: stack.shape[0] * cols.shape[1]].reshape(-1, c_out, f_out, span)
        for s in range(len(dz)):
            shift = s * lowered
            dz[s, ..., :shift] = 0
            dz[s, ..., shift : shift + t] = dy[:, :, j0 : j0 + t]
            dz[s, ..., shift + t :] = 0
        dz = dz.reshape(len(stack), f_out, span)
        np.matmul(dz.transpose(1, 0, 2), cols.reshape(-1, f_out, span).transpose(1, 2, 0), out=row_dstacks)
        dstack += row_dstacks.sum(axis=0)
        if input_grad:
            dcols = np.matmul(stack.T, dz.reshape(len(stack), -1), out=dcols_buf[: cols.size].reshape(cols.shape))
            dcols = dcols.reshape(c_in, -1, f_out, span)
            for r, rows, a in _windows(stride_f, f_out, lowered):
                dxp[:, rows, j0 + a : j0 + a + span] += dcols[:, r]
    shifts = CONV_KERNEL // lowered
    dw = dstack.reshape(shifts, c_out, c_in, CONV_KERNEL, lowered).transpose(1, 2, 3, 0, 4).reshape(w.shape)
    dx = dxp[:, pf0 : pf0 + f, 1 : 1 + width] if input_grad else None
    db = _chunk_sum(_time_chunks(width), lambda r: dy[r].sum(axis=(1, 2)))
    return dx, dw, db


def _bn_forward(x, gamma, beta, mean, var, channel_axis, train):
    """Normalize with the running statistics, overwriting ``x``.

    ``x`` becomes the normalized input: the train-mode cache, or in eval
    mode the output itself, so eval keeps no cache.
    """
    shape = [1] * x.ndim
    shape[channel_axis] = -1
    inv = 1.0 / np.sqrt(var.reshape(shape) + BN_EPS)
    x -= mean.reshape(shape)
    x *= inv
    y = x * gamma.reshape(shape) if train else np.multiply(x, gamma.reshape(shape), out=x)
    y += beta.reshape(shape)
    if not train:
        return y, None
    reduce_axes = tuple(a for a in range(x.ndim) if a != channel_axis)
    return y, (x, inv, gamma, channel_axis, reduce_axes)


def _bn_backward(dy, cache, chunks):
    """Gradients of a train-mode :func:`_bn_forward`; ``dy`` becomes the input gradient.

    ``chunks`` index the clips' frames in ``dy``, as :func:`_chunk_sum` sums them.
    """
    xhat, inv, gamma, channel_axis, reduce_axes = cache
    shape = [1] * dy.ndim
    shape[channel_axis] = -1
    dgamma = _chunk_sum(chunks, lambda r: (dy[r] * xhat[r]).sum(axis=reduce_axes))
    dbeta = _chunk_sum(chunks, lambda r: dy[r].sum(axis=reduce_axes))
    dy *= gamma.reshape(shape)
    dy *= inv
    return dy, dgamma, dbeta


def _lstm_forward(xp, wh):
    """Both directions at once over time-major, gate-major (T, 4, 2, B, H) input projections.

    The gate axis holds [i, f, o, g]; the direction axis holds the forward
    direction at index 0 and the backward direction at index 1, and ``wh`` is
    the (2, H, 4H) stack of their recurrent weights, gate blocks [i, f, o, g]
    along its last axis.

    ``xp`` becomes the gate cache: step t's projection is overwritten with
    its activated gates. Train and eval share this one recurrence; eval drops
    the cache. The cache is time-major and gate-major, so each step's gates
    are contiguous (2, B, H) blocks, the three sigmoid gates one contiguous
    (3, 2, B, H) block:

    - ``h_all``, ``c_all``: (T + 1, 2, B, H) hidden and cell states, row 0 the
      zero initial state;
    - ``gates``: (T, 4, 2, B, H) activated gates (``xp`` itself);
    - ``tanh_c``: (T, 2, B, H), tanh of each step's cell state;
    - ``wh`` as given.

    Returns the (T, 2, B, H) hidden outputs and the cache.
    """
    length, _, _, n, h_units = xp.shape
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)), so one tanh call serves all four
    # gates; halving is exact, so it is folded into the operands once
    xp[:, :3] *= 0.5
    wh_half = wh.copy()
    wh_half[..., : 3 * h_units] *= 0.5
    h_all = np.zeros((length + 1, 2, n, h_units), dtype=xp.dtype)
    c_all = np.zeros((length + 1, 2, n, h_units), dtype=xp.dtype)
    tanh_c = np.empty((length, 2, n, h_units), dtype=xp.dtype)
    # the recurrent product is one direction-major (2, B, 4H) matmul, since
    # per-gate products would change the BLAS calls and so the bits; its
    # gate-major view is added to the step's gates
    recurrent = np.empty((2, n, 4 * h_units), dtype=xp.dtype)
    recurrent_gates = recurrent.reshape(2, n, 4, h_units).transpose(2, 0, 1, 3)
    input_cand = np.empty((2, n, h_units), dtype=xp.dtype)
    # one zip hands each step its views (the gates, the sigmoid block, each
    # gate, the states it reads and writes) instead of indexing every array
    steps = zip(
        xp, xp[:, :3], xp[:, 0], xp[:, 1], xp[:, 2], xp[:, 3],
        h_all[:-1], h_all[1:], c_all[:-1], c_all[1:], tanh_c,
    )
    for a, sig, i, f, o, g, h_prev, h, c_prev, c, tc in steps:
        np.matmul(h_prev, wh_half, out=recurrent)
        a += recurrent_gates
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        np.multiply(f, c_prev, out=c)
        c += np.multiply(i, g, out=input_cand)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
    return h_all[1:], (h_all, c_all, xp, tanh_c, wh)


def _lstm_backward(dh_out, cache, steps):
    """Gradients for (T, 2, B, H) upstream gradients: (d input projections, d wh).

    ``steps`` holds each clip's valid steps. The input-projection gradients
    come back time-major and direction-major, (T, 2, B, 4H). No mask is
    needed for padded tails: their upstream gradient is zero, so the running
    dh/dc stay exactly zero until each clip's last valid step, provided the
    padded steps' cached activations are finite.
    """
    h_all, c_all, gates, tanh_c, wh = cache
    length, _, n, h_units = dh_out.shape
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    i, f, o, g = gates.transpose(1, 0, 2, 3, 4)
    # factor everything that does not depend on the running dc/dh out of the
    # loop; each step scales its factors in place: dz = factors * [dc, dc, dh, dc]
    dz_all = np.concatenate(
        [g * i * (1.0 - i), c_all[:-1] * f * (1.0 - f), tanh_c * o * (1.0 - o), i * (1.0 - g * g)],
        axis=3,
    )
    b_c = o * (1.0 - tanh_c * tanh_c)
    dh = np.empty((2, n, h_units), dtype=dh_out.dtype)
    dc = np.empty((2, n, h_units), dtype=dh_out.dtype)
    spread = np.empty((2, n, 4 * h_units), dtype=dh_out.dtype)
    dh_next = np.zeros((2, n, h_units), dtype=dh_out.dtype)
    dc_next = np.zeros((2, n, h_units), dtype=dh_out.dtype)
    for dh_t, b_c_t, f_t, dz in zip(dh_out[::-1], b_c[::-1], f[::-1], dz_all[::-1]):
        np.add(dh_t, dh_next, out=dh)
        np.multiply(dh, b_c_t, out=dc)
        dc += dc_next
        dz *= np.concatenate((dc, dc, dh, dc), axis=2, out=spread)
        np.multiply(dc, f_t, out=dc_next)
        np.matmul(dz, wh_t, out=dh_next)
    h_prev = h_all[:-1]
    dwh = _chunk_sum(
        _chunks(steps), lambda c: h_prev[c[1], :, c[0]].transpose(1, 2, 0) @ dz_all[c[1], :, c[0]].transpose(1, 0, 2)
    )
    return dz_all, dwh


def _time_major(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row gathers between packed rows and the recurrence's time-major (T, 2, B) slots.

    Packed rows hold each clip's frames one clip after another, in
    (row, direction) order. Direction 0 runs over a clip's frames in order
    and direction 1 over them in reverse; a clip's steps past its length are
    padding. Returns ``(to_time, to_packed)``: ``rows[to_time]`` turns
    (row, direction) rows, with one zero row appended after them, into
    (step, direction, clip) slots whose padding reads the zero row, and
    ``slots[to_packed]`` turns the slots back into (row, direction) rows.
    """
    n = len(steps)
    total = int(steps.sum())
    first = _offsets(steps)[:-1]
    direction = np.arange(2)
    # the step at which each direction reads each frame; reversal is its own inverse
    frame = np.arange(total) - np.repeat(first, steps)
    clip = np.repeat(np.arange(n), steps)
    step = np.stack([frame, steps[clip] - 1 - frame], axis=1)
    to_packed = (step * 2 + direction) * n + clip[:, None]
    t = np.arange(int(steps.max()))
    read = np.stack([np.broadcast_to(t, (n, len(t))), steps[:, None] - 1 - t], axis=2)
    rows = (first[:, None, None] + read) * 2 + direction
    to_time = np.where((t < steps[:, None])[..., None], rows, 2 * total).transpose(1, 2, 0)
    return to_time, to_packed


def _bilstm_forward(x, params, name, steps, order):
    """Bidirectional layer over packed (rows, I) input; ``order`` from :func:`_time_major`."""
    to_time, to_packed = order
    wx = np.concatenate([params[f"{name}_fwd_wx"], params[f"{name}_bwd_wx"]], axis=1)
    b = np.concatenate([params[f"{name}_fwd_b"], params[f"{name}_bwd_b"]])
    wh = np.stack([params[f"{name}_fwd_wh"], params[f"{name}_bwd_wh"]])
    h_units = wh.shape[1]
    # one projection for both directions, then the zero row that padded
    # steps read, gathered straight into time-major, gate-major
    # (T, 4, 2, B, H) order
    proj = np.empty((len(x) + 1, wx.shape[1]), dtype=x.dtype)
    np.matmul(x, wx, out=proj[:-1])
    proj[:-1] += b
    proj[-1] = 0
    proj = proj.reshape(-1, h_units)[to_time[:, None] * 4 + np.arange(4)[:, None, None]]
    h_both, cache = _lstm_forward(proj, wh)
    y = h_both.reshape(-1, h_units)[to_packed].reshape(len(x), 2 * h_units)
    return y, (cache, name, steps, to_packed, x, wx)


def _bilstm_backward(dy, cache, grads, chunks):
    lstm_cache, name, steps, to_packed, x, wx = cache
    h_units = dy.shape[1] // 2
    # scattered into time-major slots whose padding stays zero
    dh = np.zeros((int(steps.max()), 2, len(steps), h_units), dtype=dy.dtype)
    dh.reshape(-1, h_units)[to_packed.ravel()] = dy.reshape(-1, h_units)
    dz, dwh = _lstm_backward(dh, lstm_cache, steps)
    dproj = dz.reshape(-1, 4 * h_units)[to_packed].reshape(len(x), -1)
    dwx = _chunk_sum(chunks, lambda r: x[r].T @ dproj[r])
    db = _chunk_sum(chunks, lambda r: dproj[r].sum(axis=0))
    for d, direction in enumerate(("fwd", "bwd")):
        cols = slice(4 * h_units * d, 4 * h_units * (d + 1))
        grads[f"{name}_{direction}_wx"] = dwx[:, cols]
        grads[f"{name}_{direction}_wh"] = dwh[d]
        grads[f"{name}_{direction}_b"] = db[cols]
    return dproj @ wx.T


def frame_double(features: np.ndarray) -> np.ndarray:
    """Split each feature row in half, emitting two frames per input frame.

    Works on (..., frames, dim) arrays; time is the second-to-last axis.
    """
    *lead, length, dim = features.shape
    return features.reshape(*lead, 2 * length, dim // 2)


def frame_undouble(features: np.ndarray) -> np.ndarray:
    """Inverse of :func:`frame_double`."""
    *lead, length, dim = features.shape
    return features.reshape(*lead, length // 2, 2 * dim)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _drop_units(views, rngs, p: float) -> None:
    """Clear the dropped units in each clip's boolean keep view, one generator per clip.

    A unit stays where ``rng.random(view.shape) >= p``. A (C, F, T) conv
    view draws one channel at a time: in C order that is the same stream as
    one draw of the whole view, and the float draws never take more memory
    than a channel.
    """
    for view, rng in zip(views, rngs):
        for block in view if view.ndim > 2 else (view,):
            block &= rng.random(block.shape) >= p


def _apply_keep(x, keep, scale):
    """Multiply ``x`` in place by the inverted-dropout multipliers ``keep * scale``.

    Bitwise ``x * (keep * scale)`` for a boolean ``keep``: a kept unit's
    product by one is exact, and a cleared unit gives ``x * 0``, a zero with
    the sign of ``x``, which the positive ``scale`` keeps.
    """
    x *= keep
    if scale != 1:
        x *= scale
    return x


def _keep_grad(dx, keep, scale):
    """``dx * (keep * scale)`` as a new array in the C order of ``keep``.

    After the conv stages ``dx`` is a transposed view; the batch-norm and
    bias gradient sums read the product, and their rounding depends on its
    layout.
    """
    mask = np.multiply(keep, scale, dtype=dx.dtype)
    return np.multiply(mask, dx, out=mask)


def _conv_stage(x, t, layer, train, rng, p, scale):
    """One conv layer on one clip's (C, F, frames) array: convolution, batch norm, ReLU, dropout.

    Returns the output, batch norm's input moments and the backward cache,
    the last two None in eval mode; ``rng`` is None without dropout.
    """
    x, conv_cache = _conv_forward(x, t[f"conv{layer}_w"], t[f"conv{layer}_b"], CONV_FREQ_STRIDE)
    moments = (x.mean(axis=(1, 2)), x.var(axis=(1, 2))) if train else None
    bn = (t[f"bn{layer}_gamma"], t[f"bn{layer}_beta"], t[f"bn{layer}_mean"], t[f"bn{layer}_var"])
    x, bn_cache = _bn_forward(x, *bn, 0, train)
    if not train:
        return np.maximum(x, 0, out=x), None, None  # ReLU, with no mask to keep
    keep = x > 0  # ReLU
    if rng is not None:
        _drop_units([keep], [rng], p)
    return _apply_keep(x, keep, scale), moments, (conv_cache, bn_cache, keep)


@dataclass(eq=False)
class TrainCache:
    params: dict[str, np.ndarray]
    stages: list
    steps: np.ndarray  # output frames per clip
    bn_moments: list[dict]  # per clip, (mean, var) by layer
    used: bool = False


def _input_frames(spec, bins: int) -> np.ndarray:
    frames = np.asarray(spec)
    if frames.ndim != 2 or frames.shape[1] != bins:
        raise ShapeMismatch(f"expected (W, {bins}) input, got {frames.shape}")
    if frames.shape[0] < 1:
        raise ShapeMismatch("need at least one frame")
    return frames


def forward(params: dict[str, np.ndarray], config: ModelConfig, specs: list, mode: str = "eval", rng_seed=()):
    """Run the network on a batch of spectrograms.

    Parameters
    ----------
    specs : list of (W, bins) arrays
        Input frames of each clip. The batch runs as one, packed: the
        clips' frames lie one clip after another, and each clip's output
        equals what it gives on its own (up to float summation order).
    mode : {"eval", "train"}
        Train mode applies dropout and returns ``(grids, cache)`` for
        :func:`backward`; eval mode returns the grids alone and is a pure
        function of (params, input).
    rng_seed : sequence of int
        Dropout seed of each clip in train mode.

    Returns
    -------
    A list with one (frames, V) array of per-frame log-posteriors per clip,
    in the parameter dtype, plus a TrainCache in train mode whose
    ``bn_moments`` holds each clip's batch-norm input moments.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(specs, list):
        raise ShapeMismatch(f"expected a list of clips, got {type(specs).__name__}")
    frames = [_input_frames(s, config.input_bins) for s in specs]
    if not frames:
        raise ShapeMismatch("need at least one clip")
    train = mode == "train"
    dropout = train and config.dropout_p > 0
    rngs = [None] * len(frames)
    if dropout:
        if len(rng_seed) != len(frames):
            raise ValueError(f"need one dropout seed per clip, got {len(rng_seed)} for {len(frames)}")
        rngs = [np.random.default_rng(s) for s in rng_seed]
    dtype = params["out_w"].dtype
    lengths = np.array([len(f) for f in frames])
    stages: list = []
    bn_moments: list[dict] = [{} for _ in frames]

    def staged(kind, key, result):
        """A stage's output; train mode keeps its backward cache, eval mode drops it here."""
        out, cache = result
        if train:
            stages.append((kind, key, cache))
        return out

    # train mode keeps a boolean mask per dropout stage, and one multiplier; a
    # division, as multiplying by 1 / (1 - p) would round differently
    scale = dtype.type(1) / dtype.type(1 - config.dropout_p)
    # the conv stages run each clip's (C, F, frames) array as if alone: one
    # contiguous block per clip measured faster than packed (C, F, frames)
    clips = [np.ascontiguousarray(f.T, dtype=dtype)[None] for f in frames]
    for i in range(CONV_LAYERS):
        caches = []
        for k, rng in enumerate(rngs):
            clips[k], moments, cache = _conv_stage(clips[k], params, i, train, rng, config.dropout_p, scale)
            if train:
                bn_moments[k][f"bn{i}"] = moments
                caches.append(cache)
        if train:
            stages.append(("conv", i, (caches, scale)))

    # each clip's (C, F, frames) -> packed (frames, F*C) rows, feature index f * C + c
    _, f_out, _ = clips[0].shape
    x = np.empty((int(lengths.sum()), f_out * CONV_FILTERS), dtype=dtype)
    for clip, rows in zip(clips, _clip_rows(lengths)):
        x[rows].reshape(-1, f_out, CONV_FILTERS)[...] = clip.transpose(2, 1, 0)
    if train:
        stages.append(("flatten", None, (lengths, f_out)))

    steps = lengths
    if config.frame_doubling:
        x = staged("double", None, (frame_double(x), None))
        steps = 2 * lengths

    order = _time_major(steps)
    for l in range(RECURRENT_LAYERS):
        x = staged("bilstm", l, _bilstm_forward(x, params, f"rnn{l}", steps, order))
        if l < RECURRENT_LAYERS - 1:
            if train:
                for moments, rows in zip(bn_moments, _clip_rows(steps)):
                    moments[f"rbn{l}"] = (x[rows].mean(axis=0), x[rows].var(axis=0))
            bn = [params[f"rbn{l}_{stat}"] for stat in ("gamma", "beta", "mean", "var")]
            x = staged("bn", f"rbn{l}", _bn_forward(x, *bn, 1, train))
    if dropout:
        keep = np.ones(x.shape, dtype=bool)
        _drop_units([keep[rows] for rows in _clip_rows(steps)], rngs, config.dropout_p)
        x = staged("mul", None, (_apply_keep(x, keep, scale), (keep, scale)))

    x = staged("out", None, (x @ params["out_w"] + params["out_b"], x))
    log_probs = _log_softmax(x)
    grids = [log_probs[rows] for rows in _clip_rows(steps)]
    if not train:
        return grids
    return grids, TrainCache(params=params, stages=stages, steps=steps, bn_moments=bn_moments)


def backward(cache: TrainCache, grad_logits: list) -> dict[str, np.ndarray]:
    """Exact loss gradients for every trainable tensor.

    ``grad_logits`` holds one (frames, V) upstream gradient per clip with
    respect to the pre-softmax activations, as produced by the
    alignment-free loss. Gradients are summed over the batch and carry the
    parameter dtype whatever the dtype of ``grad_logits``.
    """
    if not isinstance(cache, TrainCache) or cache.used:
        raise StaleCache("backward needs a fresh cache from a train-mode forward")
    cache.used = True
    params = cache.params
    out_w = params["out_w"]
    shapes = [np.shape(g) for g in grad_logits]
    if shapes != [(s, out_w.shape[1]) for s in cache.steps]:
        raise ValueError(f"upstream gradients of shapes {shapes} do not match the forward's grids")
    dx = np.concatenate(grad_logits, dtype=out_w.dtype)
    chunks = _row_chunks(cache.steps)
    grads: dict[str, np.ndarray] = {}
    while cache.stages:
        # popping frees each stage's activations as soon as it is done
        kind, key, data = cache.stages.pop()
        if kind == "out":
            grads["out_w"] = _chunk_sum(chunks, lambda r: data[r].T @ dx[r])
            grads["out_b"] = _chunk_sum(chunks, lambda r: dx[r].sum(axis=0))
            dx = dx @ out_w.T
        elif kind == "mul":
            dx = _keep_grad(dx, *data)
        elif kind == "bn":
            dx, dgamma, dbeta = _bn_backward(dx, data, chunks)
            grads[f"{key}_gamma"] = dgamma
            grads[f"{key}_beta"] = dbeta
        elif kind == "bilstm":
            dx = _bilstm_backward(dx, data, grads, chunks)
        elif kind == "double":
            dx = frame_undouble(dx)
        elif kind == "flatten":
            lengths, f_out = data
            dx = [dx[rows].reshape(-1, f_out, CONV_FILTERS).transpose(2, 1, 0) for rows in _clip_rows(lengths)]
        elif kind == "conv":
            # clip by clip, each clip's gradient sums added in clip order
            caches, scale = data
            clip_grads = []
            for k, (conv_cache, bn_cache, keep) in enumerate(caches):
                d = _keep_grad(dx[k], keep, scale)
                d, dgamma, dbeta = _bn_backward(d, bn_cache, _time_chunks(d.shape[-1]))
                # the input spectrogram needs no gradient
                dx[k], dw, db = _conv_backward(d, params[f"conv{key}_w"], conv_cache, input_grad=key > 0)
                clip_grads.append((dw, db, dgamma, dbeta))
            names = (f"conv{key}_w", f"conv{key}_b", f"bn{key}_gamma", f"bn{key}_beta")
            for name, parts in zip(names, zip(*clip_grads)):
                grads[name] = _chunk_sum(parts, lambda part: part)
    return grads


def sgd_nesterov_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
) -> None:
    """In-place Nesterov momentum update, with mu = ``SGD_MOMENTUM``.

    v <- mu * v + g;  p <- p - lr * (g + mu * v), both written into the
    existing arrays, so float32 training state stays float32 and
    round-trips checkpoints exactly.
    """
    for name in trainable(params):
        if name not in grads:
            continue
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        v = velocity[name]
        v *= SGD_MOMENTUM
        v += g
        step = v * SGD_MOMENTUM
        step += g
        step *= lr
        params[name] -= step


def train_step(
    params: dict[str, np.ndarray], velocity: dict[str, np.ndarray], config: ModelConfig,
    clips: list, targets: list, seeds: list, lr: float,
) -> tuple[list[float], list[tuple[int, ctc.InfeasibleLength]]]:
    """One optimizer step on a batch of clips, updating ``params`` and ``velocity`` in place.

    Runs the train-mode forward, each clip's alignment-free loss and
    gradient, the backward pass and the Nesterov update, then blends the
    mean of the trained clips' batch-norm moments into the running
    statistics. A clip whose target needs more frames than its grid has is
    skipped: its upstream gradient is zero and its moments are left out. The
    batch gradient is the sum over the clips, not their mean. When every
    clip is skipped, nothing is updated.

    Returns the loss of each trained clip, in batch order, and one
    ``(batch index, ctc.InfeasibleLength)`` pair per skipped clip.
    """
    grids, cache = forward(params, config, clips, mode="train", rng_seed=seeds)
    losses, skipped, grad_logits, moments = [], [], [], []
    for k, (grid, target, clip_moments) in enumerate(zip(grids, targets, cache.bn_moments)):
        try:
            loss, grad = ctc.ctc_loss(grid, target)
        except ctc.InfeasibleLength as exc:
            skipped.append((k, exc))
            grad_logits.append(np.zeros_like(grid))
            continue
        grad_logits.append(grad)
        moments.append(clip_moments)
        losses.append(loss)
    if not moments:
        return losses, skipped
    sgd_nesterov_step(params, backward(cache, grad_logits), velocity, lr)
    for name in moments[0]:
        for i, stat in enumerate(("mean", "var")):
            blend = np.stack([m[name][i] for m in moments]).mean(axis=0)
            running = params[f"{name}_{stat}"]
            params[f"{name}_{stat}"] = ((1 - BN_MOMENTUM) * running + BN_MOMENTUM * blend).astype(running.dtype)
    return losses, skipped


def zero_velocity(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {n: np.zeros_like(params[n]) for n in trainable(params)}


def lr_at_epoch(epoch: int) -> float:
    """Learning rate schedule: 0.0003 shrunk by 1.1 per epoch, 50-epoch cycles."""
    return 3e-4 / 1.1 ** (epoch % 50)


def _unflatten(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> view into ``flat``, which holds the tensors back to back in ``shapes`` order."""
    bounds = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), np.split(flat, bounds))}


def save_checkpoint(
    path,
    config: ModelConfig,
    params: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    vocab_hash: bytes,
    epoch: int = 0,
    best_wer: float | None = None,
) -> None:
    """Versioned binary checkpoint: magic, version, header, vocabulary hash, payload.

    The payload is every parameter in :func:`param_shapes` order, then the
    velocity of every trainable one, as little-endian float32; the header's
    model configuration fixes that layout. Tensors that do not match it raise
    :class:`CheckpointError` before anything is written. The file is written
    to a temp file of its own beside ``path`` and renamed over it, so an
    interrupted save leaves the previous checkpoint intact.
    """
    shapes = param_shapes(config)
    names = trainable(shapes)
    unmatched = sorted((params.keys() ^ shapes.keys()) | (velocity.keys() ^ set(names)))
    if unmatched:
        raise CheckpointError(f"tensors {unmatched} are missing or not in the model configuration")
    arrays = [params[n] for n in shapes] + [velocity[n] for n in names]
    for name, array in zip([*shapes, *names], arrays):
        if array.shape != shapes[name]:
            raise CheckpointError(f"tensor {name} has shape {array.shape}, expected {shapes[name]}")
    header = json.dumps(
        {"config": asdict(config), "epoch": epoch, "best_wer": best_wer},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(
            CHECKPOINT_MAGIC
            + struct.pack("<II", CHECKPOINT_VERSION, len(header))
            + header
            + struct.pack("<32s", vocab_hash)
        )
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def load_checkpoint(path, expected_vocab_hash: bytes | None = None):
    """Load a checkpoint; returns (config, params, velocity, state dict).

    The parameters are views into one float32 array and the velocities into
    another. Raises :class:`CheckpointError` on any version but
    :data:`CHECKPOINT_VERSION`, on a malformed header, on a payload of
    any length but the one its model configuration implies, and on a payload
    holding NaN or infinity; raises
    :class:`VocabularyMismatch` when an expected vocabulary hash is given
    and differs from the stored one.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != CHECKPOINT_MAGIC:
                raise CheckpointError("not a checkpoint file")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version}; retrain to write version {CHECKPOINT_VERSION}"
                )
            (header_len,) = struct.unpack("<I", fh.read(4))
            # checked before reading, so a damaged length cannot ask for a huge buffer
            size = os.fstat(fh.fileno()).st_size
            if header_len > size - fh.tell():
                raise CheckpointError(f"header of {header_len} bytes runs past the end of the file")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            (vocab_hash,) = struct.unpack("<32s", fh.read(32))
            config = ModelConfig(**header["config"])
            epoch, best_wer = header["epoch"], header["best_wer"]
            if type(epoch) is not int or epoch < 0:
                raise CheckpointError(f"epoch must be a non-negative integer, got {epoch!r}")
            # a NaN best_wer would never be beaten, so a resumed run would never write best.ckpt
            if best_wer is not None and (type(best_wer) not in (int, float) or not 0 <= best_wer < math.inf):
                raise CheckpointError(f"best_wer must be a finite number >= 0 or null, got {best_wer!r}")
            shapes = param_shapes(config)
            velocity_shapes = {n: shapes[n] for n in trainable(shapes)}
            counts = [sum(math.prod(shape) for shape in s.values()) for s in (shapes, velocity_shapes)]
            payload_bytes = 4 * sum(counts)
            # checked before allocating, so a damaged header cannot ask for a huge buffer
            actual = size - fh.tell()
            if actual != payload_bytes:
                raise CheckpointError(
                    f"payload holds {actual} bytes; the model configuration implies {payload_bytes}"
                )
            # one buffer for the parameters and one for the velocities, so a
            # caller that drops the velocities frees them
            flats = [np.empty(count, dtype="<f4") for count in counts]
            if sum(fh.readinto(flat) for flat in flats) != payload_bytes:
                raise CheckpointError("payload ends early")
            if not all(np.isfinite(flat).all() for flat in flats):
                raise CheckpointError("payload holds NaN or infinity")
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise VocabularyMismatch("checkpoint vocabulary hash does not match")
    params = _unflatten(flats[0], shapes)
    velocity = _unflatten(flats[1], velocity_shapes)
    state = {"epoch": epoch, "best_wer": best_wer, "vocab_hash": vocab_hash}
    return config, params, velocity, state
