"""Time-delay embedding network over feature frames.

The default stack mirrors the usual x-vector recipe: five frame-level
layers splicing activations at fixed temporal offsets, statistics pooling
to a per-dimension mean and standard deviation, then two dense segment
layers and a softmax over the training languages. Embeddings are the
affine output of the first post-pooling layer (``segment6``), taken
before its nonlinearity.

Frame layers use no padding: a layer with offsets ``[-2..+2]`` produces
activations only at time steps where every offset lands inside its input,
so the time axis shrinks by the receptive-field margin through the stack.
With the default contexts the network needs at least 15 input frames (the
total receptive field of ``frame3``).

Everything is plain float64 numpy. Gradients come from handwritten
backpropagation and are validated against central finite differences in
the test suite; training is deliberately minimal (mean cross-entropy,
plain SGD) so runs are reproducible to the bit at a fixed BLAS thread
count. At full size, ``frame5``'s pre-activations and the weight gradients
differ in low bits between one and two OpenBLAS 0.3.31 threads.

One example's forward and backward is ``example_gradient``, which hands
each layer's gradient term to an ``add`` step. ``compute_gradients`` adds
them in process, example by example; ``harness.train_network`` runs the
examples on several processes and adds each layer's terms into shared
gradients in the same order, so both form the same sums to the bit.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModel, DimMismatch, NonFiniteLoss, TooFewFrames

# Variance floor used in the *gradient* of statistics pooling. The forward
# standard deviation is exact (zero for constant input); flooring only the
# backward denominator keeps gradients finite on constant activations.
STD_GRAD_FLOOR = 1e-10

EMBED_LAYER = "segment6"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and wiring of one affine layer.

    ``offsets`` lists the temporal splice offsets for frame-level layers;
    ``None`` marks a post-pooling dense layer. ``in_dim`` counts the
    concatenated splice width for frame layers.
    """

    name: str
    offsets: tuple[int, ...] | None
    in_dim: int
    out_dim: int
    has_nonlinearity: bool = True

    @property
    def is_frame_layer(self) -> bool:
        return self.offsets is not None

    @property
    def splice_width(self) -> int:
        return len(self.offsets) if self.offsets else 1


def default_layer_specs(
    num_classes: int,
    feat_dim: int = 40,
    frame_dim: int = 512,
    stats_dim: int = 1500,
    embed_dim: int = 512,
) -> list[LayerSpec]:
    """The standard stack; pass smaller dims for a desk-scale variant."""
    return [
        LayerSpec("frame1", (-2, -1, 0, 1, 2), 5 * feat_dim, frame_dim),
        LayerSpec("frame2", (-2, 0, 2), 3 * frame_dim, frame_dim),
        LayerSpec("frame3", (-3, 0, 3), 3 * frame_dim, frame_dim),
        LayerSpec("frame4", (0,), frame_dim, frame_dim),
        LayerSpec("frame5", (0,), frame_dim, stats_dim),
        LayerSpec(EMBED_LAYER, None, 2 * stats_dim, embed_dim),
        LayerSpec("segment7", None, embed_dim, embed_dim),
        LayerSpec("softmax", None, embed_dim, num_classes, has_nonlinearity=False),
    ]


@dataclass
class NetworkParams:
    """All weight matrices (out_dim x in_dim) and bias vectors, per layer."""

    specs: list[LayerSpec]
    weights: dict[str, np.ndarray]
    biases: dict[str, np.ndarray]

    @property
    def num_classes(self) -> int:
        return self.specs[-1].out_dim

    @property
    def frame_specs(self) -> list[LayerSpec]:
        return [s for s in self.specs if s.is_frame_layer]

    @property
    def dense_specs(self) -> list[LayerSpec]:
        return [s for s in self.specs if not s.is_frame_layer]

    @property
    def feat_dim(self) -> int:
        first = self.specs[0]
        return first.in_dim // first.splice_width


def validate_specs(specs: list[LayerSpec]) -> None:
    """Check the layer chain is wired consistently and names each layer
    once, as ``NetworkParams`` keys its weights by name (raises DimMismatch)."""
    if not specs or not specs[0].is_frame_layer or specs[-1].is_frame_layer:
        raise DimMismatch("layer stack must start with frame layers and end dense")
    prev_out = None
    pooled = False
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            raise DimMismatch(f"{spec.name}: layer name given twice")
        seen.add(spec.name)
        if spec.in_dim < 1 or spec.out_dim < 1:
            raise DimMismatch(f"{spec.name}: zero-width layer {spec.in_dim} -> {spec.out_dim}")
        if spec.is_frame_layer:
            if pooled:
                raise DimMismatch(f"{spec.name}: frame layer after pooling")
            if not spec.offsets:
                raise DimMismatch(f"{spec.name}: frame layer with no splice offsets")
            if prev_out is not None and spec.in_dim != spec.splice_width * prev_out:
                raise DimMismatch(
                    f"{spec.name}: in_dim {spec.in_dim} != "
                    f"{spec.splice_width} x previous out_dim {prev_out}"
                )
        else:
            expected = prev_out if pooled else 2 * prev_out
            pooled = True
            if spec.in_dim != expected:
                raise DimMismatch(f"{spec.name}: in_dim {spec.in_dim} != {expected}")
        prev_out = spec.out_dim


def init_network(num_classes: int, seed, **dims) -> NetworkParams:
    """Seeded initialization: weights zero-mean scaled by 1/sqrt(in_dim), biases zero."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    specs = default_layer_specs(num_classes, **dims)
    validate_specs(specs)
    rng = np.random.default_rng(seed)
    weights = {}
    biases = {}
    for spec in specs:
        weights[spec.name] = rng.standard_normal((spec.out_dim, spec.in_dim)) / np.sqrt(
            spec.in_dim
        )
        biases[spec.name] = np.zeros(spec.out_dim)
    return NetworkParams(specs, weights, biases)


def param_count(params: NetworkParams, exclude: tuple[str, ...] = ("segment7", "softmax")) -> int:
    total = 0
    for spec in params.specs:
        if spec.name in exclude:
            continue
        total += params.weights[spec.name].size + params.biases[spec.name].size
    return total


def min_input_frames(params: NetworkParams) -> int:
    """Smallest T the frame stack accepts (its total receptive field)."""
    margin = sum(max(s.offsets) - min(s.offsets) for s in params.frame_specs)
    return 1 + margin


def require_frames(params: NetworkParams, num_frames: int) -> None:
    """Raise TooFewFrames unless the frame stack accepts ``num_frames``."""
    need = min_input_frames(params)
    if num_frames < need:
        raise TooFewFrames(f"need at least {need} frames, got {num_frames}")


# ---------------------------------------------------------------------------
# forward pass

def _splice(x: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """Concatenate rows of x at each offset, for every valid center step."""
    if len(offsets) == 1:
        return x
    lo, hi = min(offsets), max(offsets)
    t_out = x.shape[0] - (hi - lo)  # at least 1: ``forward`` calls ``require_frames`` first
    return np.hstack([x[o - lo : o - lo + t_out] for o in offsets])


def pool_stats(activations: np.ndarray):
    """Statistics pooling: per-dimension mean and population std over time.

    The std is exact (sqrt of the population variance), so constant input
    pools to std exactly zero; see STD_GRAD_FLOOR for the backward pass.
    """
    mean = activations.mean(axis=0)
    var = np.mean((activations - mean) ** 2, axis=0)
    return mean, np.sqrt(var), var


@dataclass
class ForwardCache:
    """Intermediate activations kept for backprop and embedding extraction."""

    frame_inputs: list = field(default_factory=list)  # spliced inputs per frame layer
    frame_preacts: list = field(default_factory=list)
    pooled_input: np.ndarray | None = None  # last frame layer's output over time
    mean: np.ndarray | None = None
    var: np.ndarray | None = None
    dense_inputs: list = field(default_factory=list)  # the first is the pooled mean and std
    dense_preacts: list = field(default_factory=list)
    log_posteriors: np.ndarray | None = None

    @property
    def xvector(self) -> np.ndarray:
        return self.dense_preacts[0]


def _as_frames(features) -> np.ndarray:
    frames = np.asarray(getattr(features, "frames", features), dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"features must be a 2-D frame matrix, got shape {frames.shape}")
    return frames


def forward(params: NetworkParams, features, cache: ForwardCache | None = None) -> ForwardCache:
    """Run the network on one utterance, returning its intermediates (the
    frame layers' only in a ``cache`` handed in, for backprop); the softmax
    output over the training languages is ``exp(cache.log_posteriors)``."""
    x = _as_frames(features)
    if x.shape[1] != params.feat_dim:
        raise DimMismatch(
            f"features have dim {x.shape[1]}, network expects {params.feat_dim}"
        )
    require_frames(params, x.shape[0])
    keep = cache is not None
    cache = cache if keep else ForwardCache()
    for spec in params.frame_specs:
        spliced = _splice(x, spec.offsets)
        pre = spliced @ params.weights[spec.name].T + params.biases[spec.name]
        if keep:
            cache.frame_inputs.append(spliced)
            cache.frame_preacts.append(pre)
        x = np.maximum(pre, 0.0) if spec.has_nonlinearity else pre
    cache.pooled_input = x
    cache.mean, std, cache.var = pool_stats(x)
    vec = np.concatenate([cache.mean, std])
    for spec in params.dense_specs:
        pre = params.weights[spec.name] @ vec + params.biases[spec.name]
        cache.dense_inputs.append(vec)
        cache.dense_preacts.append(pre)
        vec = np.maximum(pre, 0.0) if spec.has_nonlinearity else pre
    logits = vec
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    cache.log_posteriors = shifted - log_z
    return cache


@dataclass
class XVector:
    """Fixed-dimensional utterance embedding (segment6 pre-nonlinearity)."""

    values: np.ndarray


def extract_xvector(params: NetworkParams, features) -> XVector:
    return XVector(forward(params, features).xvector.copy())


# ---------------------------------------------------------------------------
# gradients and training

def _backprop(params: NetworkParams, cache: ForwardCache, d_logits: np.ndarray, add, scratch):
    """Hand each layer's parameter gradient for one example to ``add(name,
    weight_term, bias_term)``, last layer first, each weight term formed in
    ``scratch`` rather than in a new array."""
    dense = params.dense_specs
    g = d_logits
    for i in range(len(dense) - 1, -1, -1):
        spec = dense[i]
        if spec.has_nonlinearity:
            g = g * (cache.dense_preacts[i] > 0.0)
        w = params.weights[spec.name]
        add(spec.name, np.multiply.outer(g, cache.dense_inputs[i],
                                         out=scratch[: w.size].reshape(w.shape)), g)
        g = w.T @ g
    # statistics pooling
    h = cache.pooled_input
    t_pool, dim = h.shape
    g_mean, g_std = g[:dim], g[dim:]
    std_safe = np.sqrt(np.maximum(cache.var, STD_GRAD_FLOOR))
    g_time = g_mean / t_pool + g_std * (h - cache.mean) / (t_pool * std_safe)
    # frame layers
    frames = params.frame_specs
    for i in range(len(frames) - 1, -1, -1):
        spec = frames[i]
        if spec.has_nonlinearity:
            g_time = g_time * (cache.frame_preacts[i] > 0.0)
        w = params.weights[spec.name]
        add(spec.name, np.matmul(g_time.T, cache.frame_inputs[i],
                                 out=scratch[: w.size].reshape(w.shape)), g_time.sum(axis=0))
        if i == 0:
            break
        g_spliced = g_time @ w
        start = -min(spec.offsets)
        t_out = g_time.shape[0]
        prev_dim = spec.in_dim // spec.splice_width
        g_prev = np.zeros((cache.frame_preacts[i - 1].shape[0], prev_dim))
        for k, off in enumerate(spec.offsets):
            g_prev[start + off : start + off + t_out] += g_spliced[
                :, k * prev_dim : (k + 1) * prev_dim
            ]
        g_time = g_prev


def zero_gradients(params: NetworkParams) -> dict:
    """A zero (weight, bias) gradient pair per layer name."""
    return {name: (np.zeros_like(w), np.zeros_like(params.biases[name]))
            for name, w in params.weights.items()}


def adder(grads):
    """``add(name, weight_term, bias_term)``, adding the terms into the
    ``grads`` (from ``zero_gradients``) of layer ``name``."""
    def add(name, weight_term, bias_term):
        gw, gb = grads[name]
        gw += weight_term
        gb += bias_term
    return add


def gradient_scratch(params: NetworkParams) -> np.ndarray:
    """Room for the largest weight term ``example_gradient`` forms."""
    return np.empty(max(w.size for w in params.weights.values()))


def example_gradient(params: NetworkParams, features, label, scale: float, add, scratch) -> float:
    """The loss -log p(label | features) of one example, after handing each
    layer's gradient of ``scale`` times it to ``add`` (see ``_backprop``)."""
    label = int(label)
    if not 0 <= label < params.num_classes:
        raise ValueError(f"label {label} outside [0, {params.num_classes})")
    # a diverging step overflows on the way to a non-finite loss, which is
    # the one report of it
    with np.errstate(over="ignore", invalid="ignore"):
        cache = forward(params, features, ForwardCache())
        d_logits = np.exp(cache.log_posteriors)
        d_logits[label] -= 1.0
        d_logits *= scale
        _backprop(params, cache, d_logits, add, scratch)
        return -cache.log_posteriors[label]


def mean_loss(losses) -> float:
    """The mean of a batch's example losses, summed in order; NonFiniteLoss
    unless it is finite."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for loss in losses:
            total += loss
    loss = total * (1.0 / len(losses))
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"training loss is {loss}")
    return loss


def compute_gradients(params: NetworkParams, batch, grads=None):
    """Mean cross-entropy loss and its parameter gradients over a batch.

    ``batch`` is a list of (features, label) pairs; examples are processed
    in list order so repeated runs accumulate identically. ``grads`` (from
    ``zero_gradients``) is zeroed and refilled instead of allocating anew.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    if grads is None:
        grads = zero_gradients(params)
    else:
        for gw, gb in grads.values():
            gw.fill(0.0)
            gb.fill(0.0)
    add, scratch, scale = adder(grads), gradient_scratch(params), 1.0 / len(batch)
    return mean_loss([example_gradient(params, features, label, scale, add, scratch)
                      for features, label in batch]), grads


def sgd_update(params: NetworkParams, grads, learn_rate: float) -> None:
    """Subtract ``learn_rate`` times ``grads`` from ``params`` in place;
    ``grads`` ends up holding the step."""
    for spec in params.specs:
        gw, gb = grads[spec.name]
        params.weights[spec.name] -= np.multiply(gw, learn_rate, out=gw)
        params.biases[spec.name] -= np.multiply(gb, learn_rate, out=gb)


def train_step(params: NetworkParams, batch, learn_rate: float, grads=None):
    """One SGD step, made on ``params`` in place; returns (params, batch
    loss). ``grads`` goes to ``compute_gradients``; it ends up holding the step."""
    loss, grads = compute_gradients(params, batch, grads)
    sgd_update(params, grads, learn_rate)
    return params, loss


# ---------------------------------------------------------------------------
# model serialization

_MAGIC = b"LIDNET01"
_FLAG_NONLINEARITY = 1
_FLAG_FRAME = 2


def save_params(params: NetworkParams) -> bytes:
    """Versioned little-endian binary: header with layer wiring, then
    row-major float64 weights and biases, layer by layer."""
    out = io.BytesIO()
    out.write(_MAGIC)
    out.write(struct.pack("<I", len(params.specs)))
    for spec in params.specs:
        name = spec.name.encode("utf-8")
        flags = (_FLAG_NONLINEARITY if spec.has_nonlinearity else 0) | (
            _FLAG_FRAME if spec.is_frame_layer else 0
        )
        out.write(struct.pack("<H", len(name)))
        out.write(name)
        out.write(struct.pack("<B", flags))
        offsets = spec.offsets or ()
        out.write(struct.pack("<H", len(offsets)))
        for off in offsets:
            out.write(struct.pack("<i", off))
        out.write(struct.pack("<II", spec.in_dim, spec.out_dim))
    for spec in params.specs:
        out.write(params.weights[spec.name].astype("<f8").tobytes(order="C"))
        out.write(params.biases[spec.name].astype("<f8").tobytes(order="C"))
    return out.getvalue()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptModel("model stream truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_params(data: bytes) -> NetworkParams:
    """Inverse of save_params, validating wiring, payload sizes and that
    every weight and bias is finite."""
    reader = _Reader(data)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise CorruptModel("bad magic; not a model file")
    (num_layers,) = reader.unpack("<I")
    if num_layers == 0 or num_layers > 1000:
        raise CorruptModel(f"implausible layer count {num_layers}")
    specs = []
    for _ in range(num_layers):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptModel(f"layer {len(specs) + 1} has a name that is not UTF-8") from None
        (flags,) = reader.unpack("<B")
        (n_offsets,) = reader.unpack("<H")
        offsets = tuple(reader.unpack("<i")[0] for _ in range(n_offsets))
        in_dim, out_dim = reader.unpack("<II")
        specs.append(
            LayerSpec(
                name,
                offsets if flags & _FLAG_FRAME else None,
                in_dim,
                out_dim,
                bool(flags & _FLAG_NONLINEARITY),
            )
        )
    try:
        validate_specs(specs)
    except DimMismatch as exc:
        raise CorruptModel(str(exc)) from None
    weights = {}
    biases = {}
    for spec in specs:
        w_bytes = reader.take(8 * spec.in_dim * spec.out_dim)
        weights[spec.name] = np.frombuffer(w_bytes, dtype="<f8").reshape(
            spec.out_dim, spec.in_dim
        ).copy()
        biases[spec.name] = np.frombuffer(reader.take(8 * spec.out_dim), dtype="<f8").copy()
        if not (np.isfinite(weights[spec.name]).all() and np.isfinite(biases[spec.name]).all()):
            raise CorruptModel(f"layer {spec.name!r} holds a non-finite weight or bias")
    if reader.pos != len(data):
        raise CorruptModel(f"{len(data) - reader.pos} trailing bytes after payload")
    return NetworkParams(specs, weights, biases)
