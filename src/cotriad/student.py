"""Two-layer dropout MLP classifier with hand-derived reverse-mode gradients.

One instance serves each embedding view. The forward map is

    pre    = x @ w1 + b1
    act    = gelu(pre)                      (exact Gaussian-CDF form)
    hidden = act * keep / (1 - dropout)     (inverted dropout, train only)
    logits = hidden @ w2 + b2

Evaluation mode (``keep=None``) is a pure function of the parameters. All
gradients are analytic and certified against ``numerics.finite_diff_grad``.

Every function that takes an input ``x`` also takes a ``HiddenLayer`` in its
place, so a caller that probes one student on one input several times builds
the first layer once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import InvalidInputError
from .numerics import PROB_FLOOR, entropy_rows, softmax_rows

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _Flat:
    """One float64 vector laid out ``w1 | b1 | w2 | b2``, each row-major.

    This is a student's byte order in the ``.trcm`` payload. ``w1``, ``b1``,
    ``w2`` and ``b2`` are views into ``vector``, built once here.
    """

    __slots__ = ("vector", "dims", "w1", "b1", "w2", "b2")

    def __init__(self, vector: np.ndarray, dims: tuple[int, int, int]):
        d_in, d_h, c = dims
        a = d_in * d_h
        b = a + d_h
        e = b + d_h * c
        v = np.ascontiguousarray(vector, dtype=np.float64)
        if v.shape != (e + c,):
            raise InvalidInputError(f"vector shape {v.shape} does not match dims {dims}")
        self.vector = v
        self.dims = (d_in, d_h, c)
        self.w1 = v[:a].reshape(d_in, d_h)
        self.b1 = v[a:b]
        self.w2 = v[b:e].reshape(d_h, c)
        self.b2 = v[e:]

    def __reduce__(self):
        # Rebuilt from the vector, so the four segments stay views into it.
        return type(self), (self.vector, self.dims)


class StudentParams(_Flat):
    """Weights of one student, ``dims = (d_in, d_h, n_classes)``.

    Treated as an immutable value: updates build a new object from a new
    vector, so caches keyed on the object stay valid.
    """

    __slots__ = ("dropout_rate",)

    def __init__(self, vector: np.ndarray, dims: tuple[int, int, int], dropout_rate: float = 0.1):
        super().__init__(vector, dims)
        self.dropout_rate = float(dropout_rate)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidInputError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate!r}")

    def __reduce__(self):
        return StudentParams, (self.vector, self.dims, self.dropout_rate)

    @property
    def d_in(self) -> int:
        return self.dims[0]

    @property
    def d_h(self) -> int:
        return self.dims[1]

    @property
    def n_classes(self) -> int:
        return self.dims[2]

    def with_vector(self, vector: np.ndarray) -> "StudentParams":
        """The same architecture and dropout rate with other weights."""
        return StudentParams(vector, self.dims, self.dropout_rate)


class Gradients(_Flat):
    """Parameter-shaped gradient with the arithmetic the loop needs."""

    __slots__ = ()

    @staticmethod
    def zeros_like(params: StudentParams) -> "Gradients":
        return Gradients(np.zeros_like(params.vector), params.dims)

    def plus(self, other: "Gradients", scale: float = 1.0) -> "Gradients":
        return Gradients(self.vector + scale * other.vector, self.dims)

    def dot(self, other: "Gradients") -> float:
        # Summed per segment: one vdot over the whole vector rounds differently.
        return float(
            np.vdot(self.w1, other.w1)
            + np.vdot(self.b1, other.b1)
            + np.vdot(self.w2, other.w2)
            + np.vdot(self.b2, other.b2)
        )

    def inf_norm(self) -> float:
        return float(np.abs(self.vector).max())


def init_student(
    d_in: int,
    d_h: int,
    n_classes: int,
    dropout_rate: float = 0.1,
    seed: int = 0,
) -> StudentParams:
    """He-scaled Gaussian weights, zero biases. Deterministic under seed."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d_in, d_h)) * math.sqrt(2.0 / d_in)
    w2 = rng.standard_normal((d_h, n_classes)) * math.sqrt(2.0 / d_h)
    vector = np.concatenate((w1.ravel(), np.zeros(d_h), w2.ravel(), np.zeros(n_classes)))
    return StudentParams(vector, (d_in, d_h, n_classes), dropout_rate)


def _one_plus_erf(u: np.ndarray) -> np.ndarray:
    t = np.multiply(u, _INV_SQRT2)
    erf(t, out=t)
    t += 1.0
    return t


def gelu(u: np.ndarray, one_plus_erf: np.ndarray | None = None) -> np.ndarray:
    """Exact GELU; ``one_plus_erf`` is 1 + erf(u / sqrt 2) when the caller
    already has it."""
    if one_plus_erf is None:
        one_plus_erf = _one_plus_erf(u)
    act = np.multiply(u, 0.5)
    act *= one_plus_erf
    return act


def gelu_prime(u: np.ndarray, one_plus_erf: np.ndarray | None = None) -> np.ndarray:
    """GELU derivative; ``one_plus_erf`` as for ``gelu``."""
    if one_plus_erf is None:
        one_plus_erf = _one_plus_erf(u)
    # 0.5 (1 + erf) + u phi(u), built in two buffers with the operations
    # and operand order of the direct expression, so every bit is the same.
    u_phi = np.multiply(u, -0.5)
    u_phi *= u
    np.exp(u_phi, out=u_phi)
    u_phi *= _INV_SQRT2PI
    u_phi *= u
    out = np.multiply(one_plus_erf, 0.5)
    out += u_phi
    return out


def draw_keeps(rng: np.random.Generator, shape: tuple[int, ...], dropout_rate: float) -> np.ndarray:
    """Bool keep pattern over hidden units: True where a unit survives dropout."""
    return rng.random(shape) >= dropout_rate


def _keep_scale(params: StudentParams, keep: np.ndarray | None, n: int) -> np.ndarray | None:
    if keep is None:
        return None
    k = np.asarray(keep)
    if k.shape != (n, params.d_h):
        raise InvalidInputError(
            f"keep shape {k.shape} does not match batch ({n}, {params.d_h})"
        )
    return k.astype(np.float64) / (1.0 - params.dropout_rate)


class HiddenLayer:
    """The dropout-free hidden layer of one (params, input) pair.

    Dropout acts after the activation, so every pass over the same input and
    parameters, whatever its keep pattern, shares this value: the MC passes,
    the attack's first objective and the soft-gated loss. It holds the input,
    the GELU activation and the GELU derivative, both taken from one
    1 + erf(pre / sqrt 2); the pre-activation and the erf are not kept. Build
    it with ``hidden_layer``.
    """

    __slots__ = ("params", "x", "act", "dact")

    def __init__(self, params: StudentParams, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != params.d_in:
            raise InvalidInputError(f"input of shape {x.shape} does not match d_in {params.d_in}")
        pre = x @ params.w1
        pre += params.b1
        one_plus_erf = _one_plus_erf(pre)
        self.params = params
        self.x = x
        self.act = gelu(pre, one_plus_erf)
        self.dact = gelu_prime(pre, one_plus_erf)


def hidden_layer(params: StudentParams, x: np.ndarray | HiddenLayer) -> HiddenLayer:
    """The hidden layer of ``params`` on ``x``, an input array or a layer.

    A layer is reused only for the ``StudentParams`` object it was built
    from; for any other parameters it is rebuilt from its input.
    """
    if isinstance(x, HiddenLayer):
        if x.params is params:
            return x
        x = x.x
    return HiddenLayer(params, x)


class _Cache:
    __slots__ = ("layer", "scale", "hidden")

    def __init__(self, layer: HiddenLayer, scale, hidden):
        self.layer = layer
        self.scale = scale
        self.hidden = hidden


def _output_layer(
    params: StudentParams, layer: HiddenLayer, keep: np.ndarray | None
) -> tuple[np.ndarray, _Cache]:
    """Dropout and the second layer on top of a computed hidden layer."""
    scale = _keep_scale(params, keep, layer.x.shape[0])
    hidden = layer.act if scale is None else layer.act * scale
    logits = hidden @ params.w2
    logits += params.b2
    return logits, _Cache(layer, scale, hidden)


def forward_batch(
    params: StudentParams, x: np.ndarray | HiddenLayer, keep: np.ndarray | None = None
) -> tuple[np.ndarray, _Cache]:
    """Batch forward pass. ``keep=None`` is evaluation mode (no dropout)."""
    return _output_layer(params, hidden_layer(params, x), keep)


def mc_forward_batch(
    params: StudentParams,
    x: np.ndarray | HiddenLayer,
    n_passes: int,
    seed: int,
) -> np.ndarray:
    """(n_passes, n, c) stochastic softmax outputs for a batch; masks come
    from one stream seeded by ``seed``."""
    if n_passes < 1:
        raise InvalidInputError("n_passes must be >= 1")
    layer = hidden_layer(params, x)
    n = layer.x.shape[0]
    # One pass at a time: the same stream as one (n_passes, n, d_h) draw,
    # with a float64 scratch of one pass instead of all of them.
    rng = np.random.default_rng(seed)
    keeps = (draw_keeps(rng, (n, params.d_h), params.dropout_rate) for _ in range(n_passes))
    probs = np.empty((n_passes, n, params.n_classes))
    for k, keep in enumerate(keeps):
        logits, _ = _output_layer(params, layer, keep)
        probs[k] = softmax_rows(logits)
    return probs


def _backward(params: StudentParams, cache: _Cache, dlogits: np.ndarray) -> Gradients:
    dw2 = cache.hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dpre = _backward_to_pre(params, cache, dlogits)
    dw1 = cache.layer.x.T @ dpre
    db1 = dpre.sum(axis=0)
    return Gradients(np.concatenate((dw1.ravel(), db1, dw2.ravel(), db2)), params.dims)


def _backward_to_pre(params: StudentParams, cache: _Cache, dlogits: np.ndarray) -> np.ndarray:
    # Scaled in the buffer of dlogits @ w2.T, in the order of the direct
    # expression dhidden * scale * dact.
    dpre = dlogits @ params.w2.T
    if cache.scale is not None:
        dpre *= cache.scale
    dpre *= cache.layer.dact
    return dpre


def _backward_to_input(params: StudentParams, cache: _Cache, dlogits: np.ndarray) -> np.ndarray:
    return _backward_to_pre(params, cache, dlogits) @ params.w1.T


def _ce_dlogits(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Composite softmax-CE gradient; the PROB_FLOOR clamp only guards the
    # reported loss value in saturated regimes.
    d = probs.copy()
    d[np.arange(len(y)), y] -= 1.0
    return d


def _entropy_dlogits(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row entropies of (n, c) softmax outputs and their gradient in the logits.

    One log serves both; each is ``entropy_rows`` and its derivative bit for
    bit. An underflowed 0 contributes 0.0 to the entropy and gets a 0.0
    gradient; a NaN entry makes its row's entropy and gradient NaN.
    """
    dead = probs <= 0.0
    any_dead = dead.any()
    logp = np.maximum(probs, PROB_FLOOR)
    np.log(logp, out=logp)
    terms = probs * logp
    if any_dead:
        terms[dead] = 0.0
    h = -terms.sum(axis=-1)
    # The terms buffer is reused for the gradient -p (log p + H).
    logp += h[:, None]
    np.negative(probs, out=terms)
    terms *= logp
    if any_dead:
        terms[dead] = 0.0
    return h, terms


def loss_and_grads(
    params: StudentParams,
    x: np.ndarray | HiddenLayer,
    y: np.ndarray | None,
    kind: str = "ce",
    keep: np.ndarray | None = None,
) -> tuple[float, Gradients]:
    """Mean batch loss and its analytic parameter gradients.

    ``kind="ce"`` is cross-entropy against hard labels ``y``; ``kind="entropy"``
    ignores the targets and returns the mean predictive entropy.
    """
    layer = hidden_layer(params, x)
    n = layer.x.shape[0]
    if n == 0:
        raise InvalidInputError("empty batch")
    logits, cache = forward_batch(params, layer, keep)
    probs = softmax_rows(logits)
    if kind == "ce":
        if y is None:
            raise InvalidInputError("cross-entropy loss requires targets")
        yv = np.asarray(y, dtype=np.int64)
        if yv.min() < 0 or yv.max() >= params.n_classes:
            raise InvalidInputError("target class out of range")
        py = np.maximum(probs[np.arange(n), yv], PROB_FLOOR)
        loss = float(-np.log(py).mean())
        dlogits = _ce_dlogits(probs, yv) / n
    elif kind == "entropy":
        h, dlogits = _entropy_dlogits(probs)
        loss = float(h.mean())
        dlogits /= n
    else:
        raise InvalidInputError(f"unknown loss kind {kind!r}")
    return loss, _backward(params, cache, dlogits)


def weighted_ce_grads(
    params: StudentParams,
    x: np.ndarray | HiddenLayer,
    y: np.ndarray,
    weights: np.ndarray,
    keep: np.ndarray | None = None,
) -> list[Gradients]:
    """Gradients of unnormalized weighted cross-entropy sums.

    ``weights`` is (m, n): one row of per-sample weights per returned
    gradient, that of sum_i weights[r, i] * CE_i. All rows share one forward
    pass; callers own the normalization. This is the building block for
    soft-gated losses and their threshold derivative.
    """
    layer = hidden_layer(params, x)
    n = layer.x.shape[0]
    if n == 0:
        raise InvalidInputError("empty batch")
    yv = np.asarray(y, dtype=np.int64)
    rows = np.asarray(weights, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise InvalidInputError(f"weights shape {rows.shape} is not (m, {n})")
    logits, cache = forward_batch(params, layer, keep)
    dce = _ce_dlogits(softmax_rows(logits), yv)
    return [_backward(params, cache, dce * w[:, None]) for w in rows]


def input_entropy_grad(
    params: StudentParams, x: np.ndarray | HiddenLayer
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample predictive entropy and its gradient w.r.t. the input.

    Evaluation-mode pass: every row's entropy is differentiated against that
    row only, which is what a per-sample perturbation ascent needs.
    """
    logits, cache = forward_batch(params, x)
    h, dlogits = _entropy_dlogits(softmax_rows(logits, out=logits))
    return h, _backward_to_input(params, cache, dlogits)


def input_mi_grad(
    params: StudentParams, x: np.ndarray | HiddenLayer, keeps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample dropout mutual information and its input gradient.

    ``keeps`` is an (n_passes, n, d_h) bool array of frozen masks; freezing
    them is what makes the estimate differentiable in the input.
    """
    layer = hidden_layer(params, x)
    n_passes = keeps.shape[0]
    probs = np.empty((n_passes, layer.x.shape[0], params.n_classes))
    caches = []
    for k in range(n_passes):
        logits, cache = _output_layer(params, layer, keeps[k])
        probs[k] = softmax_rows(logits)
        caches.append(cache)
    mean = probs.mean(axis=0)
    h_mean = entropy_rows(mean)
    h_each, d_each = _entropy_dlogits(probs.reshape(-1, params.n_classes))
    mi = h_mean - h_each.reshape(n_passes, -1).mean(axis=0)
    d_each = d_each.reshape(probs.shape)
    log_mean = np.where(mean > 0.0, np.log(np.maximum(mean, PROB_FLOOR)), 0.0)
    dx = np.zeros_like(layer.x)
    for k in range(n_passes):
        pk = probs[k]
        # d H(mean) / d logits_k, plus -1/K of the per-pass entropy term.
        inner = (pk * log_mean).sum(axis=1, keepdims=True)
        d_hmean = pk * (inner - log_mean) / n_passes
        d_hk = d_each[k] / n_passes
        dx += _backward_to_input(params, caches[k], d_hmean - d_hk)
    return mi, dx


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr at step 0 to 0 at step == total_steps."""
    t = min(max(step, 0), total_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * t / max(total_steps, 1)))


def project_weight_norm(params: StudentParams, bound: float) -> StudentParams:
    """Radial projection onto the ball of L2 norm <= bound over all weights."""
    # Squares are summed per segment, in layout order: one sum over the whole
    # vector may round differently and move the run digest.
    norm = math.sqrt(
        float(
            np.sum(params.w1**2)
            + np.sum(params.b1**2)
            + np.sum(params.w2**2)
            + np.sum(params.b2**2)
        )
    )
    if norm <= bound:
        return params
    return params.with_vector((bound / norm) * params.vector)


def sgd_step(
    params: StudentParams,
    grads: Gradients,
    velocity: Gradients,
    lr: float,
    momentum: float,
    weight_norm_bound: float,
) -> tuple[StudentParams, Gradients]:
    """One momentum step at rate ``lr``, then the projection onto the
    weight-norm ball when ``weight_norm_bound > 0``; returns (params, velocity)."""
    vel = Gradients(momentum * velocity.vector + grads.vector, grads.dims)
    new = params.with_vector(params.vector - lr * vel.vector)
    if weight_norm_bound > 0:
        new = project_weight_norm(new, weight_norm_bound)
    return new, vel
