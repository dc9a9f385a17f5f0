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

The network uses the lanes of :mod:`polyscore.lanes`, as many as
:func:`polyscore.lanes.count` allows (two beside a one-thread OpenBLAS pool
on two or more CPUs). Their items are in train mode each clip's whole conv
stack, forward and backward, and in eval mode each conv layer's time tiles
of every clip; the row halves of the large products (:func:`_row_halves`);
and in each BiLSTM layer's backward ``dwx`` beside the input gradient. The
work splits into the same items whatever the lane count, so every result is
bitwise the same with one lane or two. Every array larger than a small
transient that a lane writes is allocated by the calling thread and handed
in, and lanes call only this module's internals and NumPy.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from . import ctc, lanes
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
DRAW_CHANNELS = 4  # conv channels whose dropout draws are taken at once
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


def _take(flat, shape):
    """A C-contiguous array of ``shape`` over the start of the flat scratch ``flat``."""
    return flat[: math.prod(shape)].reshape(shape)


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


class _ConvLayer(NamedTuple):
    """One 3x3 'same' convolution, strided by CONV_FREQ_STRIDE on frequency, on (C, bins, frames) input.

    Its input is held padded, ``(channels, padded_bins, frames + 2)``, with
    the unpadded input at rows ``pad .. pad + bins`` and columns
    ``1 .. frames + 1``.
    """

    stack: np.ndarray  # the kernel from _weight_stack
    lowered: int
    bias: np.ndarray  # (C_out, 1, 1)
    channels: int  # input channels
    bins: int
    out_bins: int
    pad: int
    padded_bins: int

    def padded_shape(self, frames: int) -> tuple[int, int, int]:
        return self.channels, self.padded_bins, frames + 2

    def interior(self, xp):
        """The unpadded input inside a padded input ``xp``."""
        return xp[:, self.pad : self.pad + self.bins, 1:-1]

    def zero_border(self, xp) -> None:
        """Zero the padding of ``xp``, leaving its interior as it is."""
        xp[:, : self.pad] = 0
        xp[:, self.pad + self.bins :] = 0
        xp[:, :, 0] = 0
        xp[:, :, -1] = 0


def _conv_layer(w, b, bins: int) -> _ConvLayer:
    out_bins, pad, pad_after = _conv_same_pad(bins, CONV_FREQ_STRIDE, CONV_KERNEL)
    stack, lowered = _weight_stack(w)
    return _ConvLayer(stack, lowered, b[:, None, None], w.shape[1], bins, out_bins, pad, bins + pad + pad_after)


def _tile_work(plan, frames: int) -> dict[str, int]:
    """Flat sizes of the time-tile buffers that any layer of ``plan`` needs on ``frames`` frames.

    ``cols`` takes a tile's lowered input, ``z`` its product with the stack
    (and in backward the tile's shifted blocks of ``dy``), ``rows`` the
    stack gradient's per-frequency-row products.
    """
    sizes = {"cols": 0, "z": 0, "rows": 0}
    for layer in plan:
        tile_cols = layer.out_bins * (min(CONV_TILE, frames) + CONV_KERNEL - layer.lowered)
        sizes["cols"] = max(sizes["cols"], layer.stack.shape[1] * tile_cols)
        sizes["z"] = max(sizes["z"], layer.stack.shape[0] * tile_cols)
        sizes["rows"] = max(sizes["rows"], layer.out_bins * layer.stack.size)
    return sizes


def _conv_plan(params, bins: int) -> list[_ConvLayer]:
    """Every conv layer of the network on ``bins`` input bins, in order."""
    plan = []
    for i in range(CONV_LAYERS):
        plan.append(_conv_layer(params[f"conv{i}_w"], params[f"conv{i}_b"], bins))
        bins = plan[-1].out_bins
    return plan


def _windows(stride_f, f_out, lowered):
    """(lowered row, frequency rows, time offset) of each lowered tap in a padded (C, F, W) clip."""
    for ki in range(CONV_KERNEL):
        rows = slice(ki, ki + stride_f * (f_out - 1) + 1, stride_f)
        for a in range(lowered):
            yield ki * lowered + a, rows, a


def _lower(xp_clip, j0, span, lowered, stride_f, f_out, buf):
    """Lower one time tile of a padded (C, F, W) clip into ``buf``.

    Returns the (C * 3 * lowered, F_out * span) view whose row (c, ki, a) and
    column (i, j) hold ``xp_clip[c, ki + stride_f * i, j0 + a + j]``. It is
    filled by one copy from a strided view of the clip: on a lane, each NumPy
    call that releases the interpreter lock costs a hand-over of the lock.
    The tile must lie inside the clip: ``2 + stride_f * (f_out - 1) < F``
    and ``j0 + lowered - 1 + span <= W``.
    """
    s_c, s_f, s_w = xp_clip.strides
    shape = (xp_clip.shape[0], CONV_KERNEL, lowered, f_out, span)
    taps = np.lib.stride_tricks.as_strided(
        xp_clip[:, :, j0:], shape, (s_c, s_f, s_w, stride_f * s_f, s_w), writeable=False
    )
    cols = _take(buf, shape)
    cols[...] = taps
    return cols.reshape(-1, f_out * span)


def _conv_tile(xp, layer: _ConvLayer, y, j0: int, work):
    """Output frames ``j0 .. j0 + CONV_TILE`` of ``layer`` on the padded input ``xp`` into ``y``.

    The tile's padded input is lowered into ``work["cols"]`` and multiplied
    by the stack into ``work["z"]``, one GEMM whose shifted row blocks are
    added; the tile of ``y`` is returned. A clip's last tile ends at its
    length, so no work is spent past it.
    """
    c_out, f_out, width = y.shape
    t = min(CONV_TILE, width - j0)
    span = t + CONV_KERNEL - layer.lowered
    stack, lowered = layer.stack, layer.lowered
    cols = _lower(xp, j0, span, lowered, CONV_FREQ_STRIDE, f_out, work["cols"])
    z = np.matmul(stack, cols, out=_take(work["z"], (len(stack), cols.shape[1])))
    z = z.reshape(-1, c_out, f_out, span)
    out = np.add(z[0, ..., :t], layer.bias, out=y[:, :, j0 : j0 + t])
    for s in range(1, len(z)):
        out += z[s, ..., s * lowered : s * lowered + t]
    return out


def _conv_backward(dy, layer: _ConvLayer, xp, dxp, work):
    """Gradients ``(dw, db)`` of ``layer`` on the padded input ``xp``, lowering it again per tile.

    The stack's gradient is each tile's ``dy``, copied at every time shift
    into a halo-wide row block, against the tile's lowering, as one product
    per frequency row, so that each product reduces over one tile's frames;
    tiles are added in order. Unless ``dxp`` is None, the padded input's
    gradient is written into it: one GEMM of the transposed stack against
    those blocks per tile, scattered over the lowered taps' windows. The
    lowering, the blocks, their products and the per-row products go through
    ``work``'s buffers of :func:`_tile_work`; ``cols`` takes the lowering,
    then its gradient.
    """
    stack, lowered = layer.stack, layer.lowered
    c_out, f_out, width = dy.shape
    halo = CONV_KERNEL - lowered
    row_dstacks = _take(work["rows"], (f_out, *stack.shape))
    dstack = np.zeros_like(stack)
    if dxp is not None:
        dxp.fill(0)
    for j0 in range(0, width, CONV_TILE):
        t = min(CONV_TILE, width - j0)
        span = t + halo
        cols = _lower(xp, j0, span, lowered, CONV_FREQ_STRIDE, f_out, work["cols"])
        # block s holds the tile's dy at columns s * lowered .. s * lowered + t
        # and zeros around it: one fill and one copy through a strided view
        dz = _take(work["z"], (len(stack) // c_out, c_out, f_out, span))
        if halo:
            dz.fill(0)
        shifted = np.lib.stride_tricks.as_strided(
            dz, (*dz.shape[:3], t), (dz.strides[0] + lowered * dz.strides[3], *dz.strides[1:])
        )
        shifted[...] = dy[:, :, j0 : j0 + t]
        dz = dz.reshape(len(stack), f_out, span)
        np.matmul(dz.transpose(1, 0, 2), cols.reshape(-1, f_out, span).transpose(1, 2, 0), out=row_dstacks)
        dstack += row_dstacks.sum(axis=0)
        if dxp is not None:
            # the lowering is spent, so its buffer takes the lowered gradient
            dcols = np.matmul(stack.T, dz.reshape(len(stack), -1), out=_take(work["cols"], cols.shape))
            dcols = dcols.reshape(layer.channels, -1, f_out, span)
            for r, rows, a in _windows(CONV_FREQ_STRIDE, f_out, lowered):
                dxp[:, rows, j0 + a : j0 + a + span] += dcols[:, r]
    shifts = CONV_KERNEL // lowered
    dw = dstack.reshape(shifts, c_out, layer.channels, CONV_KERNEL, lowered).transpose(1, 2, 3, 0, 4)
    db = _chunk_sum(_time_chunks(width), lambda r: dy[r].sum(axis=(1, 2)))
    return dw.reshape(c_out, layer.channels, CONV_KERNEL, CONV_KERNEL), db


def _bn_forward(x, gamma, beta, mean, var, channel_axis, train, out=None):
    """Normalize with the running statistics, overwriting ``x``.

    ``x`` becomes the normalized input: the train-mode cache, or in eval
    mode the output itself, so eval keeps no cache. Given ``out``, the
    output is written there.
    """
    shape = [1] * x.ndim
    shape[channel_axis] = -1
    inv = 1.0 / np.sqrt(var.reshape(shape) + BN_EPS)
    x -= mean.reshape(shape)
    x *= inv
    y = np.multiply(x, gamma.reshape(shape), out=x if out is None and not train else out)
    y += beta.reshape(shape)
    if not train:
        return y, None
    reduce_axes = tuple(a for a in range(x.ndim) if a != channel_axis)
    return y, (x, inv, gamma, channel_axis, reduce_axes)


def _bn_backward(dy, cache, chunks, scratch=None):
    """Gradients of a train-mode :func:`_bn_forward`; ``dy`` becomes the input gradient.

    ``chunks`` index the clips' frames in ``dy``, as :func:`_chunk_sum` sums
    them; each chunk's product of ``dy`` and the normalized input goes into
    ``scratch`` when it is given.
    """
    xhat, inv, gamma, channel_axis, reduce_axes = cache
    shape = [1] * dy.ndim
    shape[channel_axis] = -1

    def dgamma_term(r):
        out = None if scratch is None else _take(scratch, dy[r].shape)
        return np.multiply(dy[r], xhat[r], out=out).sum(axis=reduce_axes)

    dgamma = _chunk_sum(chunks, dgamma_term)
    dbeta = _chunk_sum(chunks, lambda r: dy[r].sum(axis=reduce_axes))
    dy *= gamma.reshape(shape)
    dy *= inv
    return dy, dgamma, dbeta


def _moments(x, scratch):
    """``(x.mean(axis=(1, 2)), x.var(axis=(1, 2)))`` of a (C, F, W) array, bitwise.

    The squared deviations, which ``var`` would allocate, go into
    ``scratch``; the steps are those of NumPy's ``var``.
    """
    mean = x.mean(axis=(1, 2))
    dev = np.subtract(x, mean[:, None, None], out=_take(scratch, x.shape))
    np.multiply(dev, dev, out=dev)
    var = dev.sum(axis=(1, 2))
    return mean, np.true_divide(var, np.intp(x[0].size), out=var, casting="unsafe")


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


def _row_halves(rows: int, inner: int, cols: int) -> list[slice]:
    """The row blocks of a ``(rows, inner) @ (inner, cols)`` product that run as items on the lanes.

    Two halves when each holds more than 2**20 multiply-adds, else the whole:
    OpenBLAS takes another kernel for products of up to about a million
    multiply-adds (its small-matrix kernels, on cores such as SkylakeX),
    which can round differently from the whole product's.
    Above that, each output row is the same bits in a half as in the whole.
    """
    half = rows // 2
    if half * inner * cols <= 2**20:
        return [slice(0, rows)]
    return [slice(0, half), slice(half, rows)]


def _matmul_rows(a, b, out, n_lanes: int):
    """``a @ b`` into ``out``, which the calling thread allocates, its row halves on the lanes."""
    parts = _row_halves(*a.shape, b.shape[1])
    lanes.run(len(parts), lambda i: np.matmul(a[parts[i]], b, out=out[parts[i]]), n_lanes)
    return out


def _bilstm_forward(x, params, name, steps, order, n_lanes):
    """Bidirectional layer over packed (rows, I) input; ``order`` from :func:`_time_major`."""
    to_time, to_packed = order
    wx = np.concatenate([params[f"{name}_fwd_wx"], params[f"{name}_bwd_wx"]], axis=1)
    b = np.concatenate([params[f"{name}_fwd_b"], params[f"{name}_bwd_b"]])
    wh = np.stack([params[f"{name}_fwd_wh"], params[f"{name}_bwd_wh"]])
    h_units = wh.shape[1]
    # one projection for both directions, its row halves on the lanes, then
    # the zero row that padded steps read, gathered straight into
    # time-major, gate-major (T, 4, 2, B, H) order
    proj = np.empty((len(x) + 1, wx.shape[1]), dtype=x.dtype)
    _matmul_rows(x, wx, proj[:-1], n_lanes)
    proj[:-1] += b
    proj[-1] = 0
    proj = proj.reshape(-1, h_units)[to_time[:, None] * 4 + np.arange(4)[:, None, None]]
    h_both, cache = _lstm_forward(proj, wh)
    y = h_both.reshape(-1, h_units)[to_packed].reshape(len(x), 2 * h_units)
    return y, (cache, name, steps, to_packed, x, wx)


def _bilstm_backward(dy, cache, grads, chunks, n_lanes):
    """Gradients of :func:`_bilstm_forward` into ``grads``; returns the input gradient.

    ``dwx``, a sum of chunk products in chunk order, runs on the calling
    thread's lane and the input gradient on the other, each as the one
    product it is with one lane.
    """
    lstm_cache, name, steps, to_packed, x, wx = cache
    h_units = dy.shape[1] // 2
    # scattered into time-major slots whose padding stays zero
    dh = np.zeros((int(steps.max()), 2, len(steps), h_units), dtype=dy.dtype)
    dh.reshape(-1, h_units)[to_packed.ravel()] = dy.reshape(-1, h_units)
    dz, dwh = _lstm_backward(dh, lstm_cache, steps)
    dproj = dz.reshape(-1, 4 * h_units)[to_packed].reshape(len(x), -1)
    dx = np.empty(x.shape, dtype=dy.dtype)
    dwx = []

    def item(i):
        if i == 0:  # item 0 is the calling thread's, so _chunk_sum allocates there
            dwx.append(_chunk_sum(chunks, lambda r: x[r].T @ dproj[r]))
        else:
            np.matmul(dproj, wx.T, out=dx)

    lanes.run(2, item, n_lanes)
    db = _chunk_sum(chunks, lambda r: dproj[r].sum(axis=0))
    for d, direction in enumerate(("fwd", "bwd")):
        cols = slice(4 * h_units * d, 4 * h_units * (d + 1))
        grads[f"{name}_{direction}_wx"] = dwx[0][:, cols]
        grads[f"{name}_{direction}_wh"] = dwh[d]
        grads[f"{name}_{direction}_b"] = db[cols]
    return dx


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


def _drop_units(views, rngs, p: float, draws=None, hits=None) -> None:
    """Clear the dropped units in each clip's boolean keep view, one generator per clip.

    A unit stays where ``rng.random(view.shape) >= p``. A (C, F, T) conv
    view draws DRAW_CHANNELS channels at a time: in C order that is the same
    stream as one draw of the whole view, and the float draws take no more
    memory than those channels. The draws and their comparison go into the
    float64 scratch ``draws`` and the boolean scratch ``hits`` when they are
    given.
    """
    for view, rng in zip(views, rngs):
        blocks = [view[c : c + DRAW_CHANNELS] for c in range(0, len(view), DRAW_CHANNELS)] if view.ndim > 2 else [view]
        for block in blocks:
            u = rng.random(block.shape, out=None if draws is None else _take(draws, block.shape))
            block &= np.greater_equal(u, p, out=None if hits is None else _take(hits, block.shape))


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


def _keep_grad(dx, keep, scale, out=None):
    """``dx * (keep * scale)`` in the C order of ``keep``, into ``out`` when it is given.

    After the conv stages ``dx`` is a transposed view; the batch-norm and
    bias gradient sums read the product, and their rounding depends on its
    layout.
    """
    mask = np.multiply(keep, scale, dtype=dx.dtype, out=out)
    return np.multiply(mask, dx, out=mask)


def _scratch(n_lanes: int, dtype, sizes: dict[str, int]) -> list[dict[str, np.ndarray]]:
    """One set of flat scratch buffers per lane, allocated on the calling thread.

    ``draws`` holds float64 dropout draws and ``hits`` booleans; the others
    are of ``dtype``.
    """
    dtypes = {"draws": np.float64, "hits": bool}
    return [{name: np.empty(size, dtype=dtypes.get(name, dtype)) for name, size in sizes.items()} for _ in range(n_lanes)]


def _balanced(widths) -> list[int]:
    """Clip indices in the order they run as lane items.

    The clips are sorted longest first, and every second pair after the
    first is swapped, so the items at even and at odd positions (the two
    lanes' shares) take the longest clips in turn: 1st, 4th, 5th, 8th ...
    against 2nd, 3rd, 6th, 7th, nearly equal frames.
    """
    order = sorted(range(len(widths)), key=lambda k: -widths[k])
    for i in range(2, len(order) - 1, 4):
        order[i], order[i + 1] = order[i + 1], order[i]
    return order


def _conv_eval(params, plan, frames, outs, n_lanes) -> None:
    """Every conv layer of every clip in eval mode: convolution, batch norm and ReLU.

    Clip k reads its (W, bins) ``frames[k]`` and writes its last layer's
    output into ``outs[k]``, a (C, F, W) view of the packed rows. The
    layers run in turn, and each layer's items are every clip's time tiles
    of :data:`CONV_TILE` output frames, so a lone long clip runs on both
    lanes. Each tile goes straight into the interior of the clip's next
    padded input. The padded inputs are allocated here, and per lane the
    lowering and the products.
    """
    dtype = outs[0].dtype
    widths = [len(f) for f in frames]
    works = _scratch(n_lanes, dtype, _tile_work(plan, max(widths)))
    xps = [[np.empty(layer.padded_shape(w), dtype=dtype) for layer in plan] for w in widths]
    tiles = [(k, j0) for k, w in enumerate(widths) for j0 in range(0, w, CONV_TILE)]
    for k, f in enumerate(frames):
        plan[0].interior(xps[k][0])[0] = f.T
    for i, layer in enumerate(plan):
        bn = tuple(params[f"bn{i}_{s}"] for s in ("gamma", "beta", "mean", "var"))
        for k in range(len(frames)):
            layer.zero_border(xps[k][i])
        dests = [plan[i + 1].interior(xps[k][i + 1]) if i + 1 < len(plan) else outs[k] for k in range(len(frames))]

        def tile(item: int) -> None:
            k, j0 = tiles[item]
            y = _conv_tile(xps[k][i], layer, dests[k], j0, works[item % n_lanes])
            _bn_forward(y, *bn, 0, False)
            np.maximum(y, 0, out=y)

        lanes.run(len(tiles), tile, n_lanes)


def _conv_forward(params, plan, frames, outs, rngs, p, scale, moments, n_lanes):
    """Every conv layer of every clip in train mode: convolution, batch norm, ReLU and dropout.

    Clip k reads its (W, bins) ``frames[k]`` and writes its last layer's
    output into ``outs[k]``, a (C, F, W) view of the packed rows. Each
    layer's output goes straight into the interior of the next layer's
    padded input. The clips are the items of the lanes, each running all of
    its layers. Every array a lane writes is allocated here: each clip's
    padded inputs, convolution outputs (batch norm's cache) and keep masks,
    which the returned caches hold, and per lane the lowering, the
    products, the squared deviations of :func:`_moments` and the dropout
    draws.

    Returns each clip's ``(padded input, batch norm cache, keep)`` per layer
    and puts batch norm's input moments into ``moments[k]``.
    """
    dtype = outs[0].dtype
    widths = [len(f) for f in frames]
    width = max(widths)
    bns = [tuple(params[f"bn{i}_{s}"] for s in ("gamma", "beta", "mean", "var")) for i in range(len(plan))]
    sizes = _tile_work(plan, width)
    arrays = [
        [
            (
                np.empty(layer.padded_shape(w), dtype=dtype),
                np.empty((CONV_FILTERS, layer.out_bins, w), dtype=dtype),
                np.empty((CONV_FILTERS, layer.out_bins, w), dtype=bool),
            )
            for layer in plan
        ]
        for w in widths
    ]
    # the tile products are spent when _moments runs, so their buffer
    # takes its squared deviations
    outputs = max(CONV_FILTERS * l.out_bins * width for l in plan)
    draws = DRAW_CHANNELS * max(l.out_bins for l in plan) * width
    works = _scratch(n_lanes, dtype, {**sizes, "z": max(sizes["z"], outputs), "draws": draws, "hits": draws})
    caches = [None] * len(frames)

    def clip(item: int) -> None:
        k = order[item]
        work = works[item % n_lanes]
        plan[0].interior(arrays[k][0][0])[0] = frames[k].T
        layer_caches = []
        for i, layer in enumerate(plan):
            xp, y, keep = arrays[k][i]
            layer.zero_border(xp)
            out = plan[i + 1].interior(arrays[k][i + 1][0]) if i + 1 < len(plan) else outs[k]
            for j0 in range(0, widths[k], CONV_TILE):
                _conv_tile(xp, layer, y, j0, work)
            moments[k][f"bn{i}"] = _moments(y, work["z"])
            _, bn_cache = _bn_forward(y, *bns[i], 0, True, out=out)
            np.greater(out, 0, out=keep)  # ReLU
            if rngs[k] is not None:
                _drop_units([keep], [rngs[k]], p, work["draws"], work["hits"])
            _apply_keep(out, keep, scale)
            layer_caches.append((xp, bn_cache, keep))
        caches[k] = layer_caches

    order = _balanced(widths)
    lanes.run(len(frames), clip, n_lanes)
    return caches


def _conv_backward_clips(dx, plan, caches, scale, grads, n_lanes) -> None:
    """Gradients of a train-mode :func:`_conv_forward` into ``grads``, given each clip's (C, F, W) ``dx``.

    The clips are the items of the lanes, each running all of its layers,
    last first; each parameter's gradient is then summed over the clips in
    clip order. The keep-mask products, batch norm's chunk products and
    :func:`_conv_backward`'s buffers come per lane from the calling thread.
    A clip's caches are dropped once its item is done.
    """
    dtype = dx[0].dtype
    width = max(d.shape[-1] for d in dx)
    sizes = _tile_work(plan, width)
    # batch norm's chunk products come before the convolution's tiles, so
    # they share the buffer of the tiles' shifted blocks
    products = max(CONV_FILTERS * l.out_bins * min(width, CHUNK_ROWS) for l in plan)
    works = _scratch(n_lanes, dtype, {
        **sizes,
        "z": max(sizes["z"], products),
        "d": max(CONV_FILTERS * l.out_bins * width for l in plan),
        # the input spectrogram needs no gradient
        "dxp": max([math.prod(l.padded_shape(width)) for l in plan[1:]], default=0),
    })
    clip_grads = [None] * len(dx)

    def clip(item: int) -> None:
        k = order[item]
        work = works[item % n_lanes]
        dy = dx[k]
        parts = {}
        for i in reversed(range(len(plan))):
            xp, bn_cache, keep = caches[k][i]
            d = _keep_grad(dy, keep, scale, _take(work["d"], keep.shape))
            d, parts[f"bn{i}_gamma"], parts[f"bn{i}_beta"] = _bn_backward(
                d, bn_cache, _time_chunks(d.shape[-1]), work["z"]
            )
            dxp = _take(work["dxp"], xp.shape) if i > 0 else None
            parts[f"conv{i}_w"], parts[f"conv{i}_b"] = _conv_backward(d, plan[i], xp, dxp, work)
            dy = plan[i].interior(dxp) if i > 0 else None
        clip_grads[k] = parts
        caches[k] = None

    order = _balanced([d.shape[-1] for d in dx])
    lanes.run(len(dx), clip, n_lanes)
    for name in clip_grads[0]:
        grads[name] = _chunk_sum([parts[name] for parts in clip_grads], lambda part: part)


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
    n_lanes = lanes.count()
    # the conv stages run each clip's (C, F, frames) array as if alone: one
    # contiguous block per clip measured faster than packed (C, F, frames).
    # The last one writes each clip's packed (frames, F*C) rows, feature
    # index f * C + c
    plan = _conv_plan(params, config.input_bins)
    f_out = plan[-1].out_bins
    x = np.empty((int(lengths.sum()), f_out * CONV_FILTERS), dtype=dtype)
    outs = [x[rows].reshape(-1, f_out, CONV_FILTERS).transpose(2, 1, 0) for rows in _clip_rows(lengths)]
    if train:
        caches = _conv_forward(params, plan, frames, outs, rngs, config.dropout_p, scale, bn_moments, n_lanes)
        stages.append(("conv", None, (plan, caches, scale, lengths, f_out)))
    else:
        _conv_eval(params, plan, frames, outs, n_lanes)

    steps = lengths
    if config.frame_doubling:
        x = staged("double", None, (frame_double(x), None))
        steps = 2 * lengths

    order = _time_major(steps)
    for l in range(RECURRENT_LAYERS):
        x = staged("bilstm", l, _bilstm_forward(x, params, f"rnn{l}", steps, order, n_lanes))
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

    out_w = params["out_w"]
    logits = _matmul_rows(x, out_w, np.empty((len(x), out_w.shape[1]), dtype=dtype), n_lanes)
    logits += params["out_b"]
    x = staged("out", None, (logits, x))
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
    n_lanes = lanes.count()
    grads: dict[str, np.ndarray] = {}
    while cache.stages:
        # popping frees each stage's activations as soon as it is done
        kind, key, data = cache.stages.pop()
        if kind == "out":
            grads["out_w"] = _chunk_sum(chunks, lambda r: data[r].T @ dx[r])
            grads["out_b"] = _chunk_sum(chunks, lambda r: dx[r].sum(axis=0))
            dx = _matmul_rows(dx, out_w.T, np.empty((len(dx), out_w.shape[0]), dtype=dx.dtype), n_lanes)
        elif kind == "mul":
            dx = _keep_grad(dx, *data)
        elif kind == "bn":
            dx, dgamma, dbeta = _bn_backward(dx, data, chunks)
            grads[f"{key}_gamma"] = dgamma
            grads[f"{key}_beta"] = dbeta
        elif kind == "bilstm":
            dx = _bilstm_backward(dx, data, grads, chunks, n_lanes)
        elif kind == "double":
            dx = frame_undouble(dx)
        elif kind == "conv":
            plan, caches, scale, lengths, f_out = data
            clips = [dx[rows].reshape(-1, f_out, CONV_FILTERS).transpose(2, 1, 0) for rows in _clip_rows(lengths)]
            _conv_backward_clips(clips, plan, caches, scale, grads, n_lanes)
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
