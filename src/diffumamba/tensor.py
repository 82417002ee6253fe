"""Dense n-dimensional tensors with reverse-mode automatic differentiation.

Everything downstream (convolutions, state-space scans, the noise
reduction module) is built from the primitives in this file.  Data lives
in contiguous row-major numpy buffers; the autodiff tape is the implicit
graph of parent links plus per-node backward closures, replayed once in
reverse topological order by ``Tensor.backward``, which releases each
interior node as it goes.

Scalars default to float32.  A float64 mode (``set_default_dtype``)
exists for tight finite-difference testing.  Any op that produces a
NaN/Inf from finite inputs raises ``NumericError`` immediately instead
of letting the poison propagate.

The default dtype, ``no_grad`` and the gradient-fault hook are context
variables: each thread (and each ``contextvars`` context) sees only its
own settings, and a new thread starts from the defaults.
"""

from __future__ import annotations

import contextvars
import hashlib

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """An op produced NaN/Inf, or a numeric invariant was violated."""


class GradError(RuntimeError):
    """Misuse of the autodiff tape (non-scalar root, double backward, ...)."""


_DEFAULT_DTYPE = contextvars.ContextVar("default_dtype", default=np.float32)
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
# Testing hook: when not None, matmul input adjoints are scaled by this
# factor, which makes every downstream gradient check fail on purpose.
_GRAD_FAULT = contextvars.ContextVar("grad_fault", default=None)


def set_default_dtype(dtype):
    """Select the scalar type for newly created tensors ('f32'/'f64')."""
    if dtype in ("f32", "float32", np.float32):
        _DEFAULT_DTYPE.set(np.float32)
    elif dtype in ("f64", "float64", np.float64):
        _DEFAULT_DTYPE.set(np.float64)
    else:
        raise ValueError(f"unsupported default dtype: {dtype!r}")


class no_grad:
    """Context manager that disables tape recording inside its block."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def records_tape(parents):
    """Whether an op on ``parents`` is recorded: the tape is on in this
    context and some parent needs a gradient."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def set_gradient_fault(scale):
    """Testing hook: corrupt matmul adjoints by ``scale`` (None to clear)."""
    _GRAD_FAULT.set(scale)


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by op '{op}'")


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy-backed value that optionally participates in the grad tape.

    ``data`` is always a contiguous row-major ndarray.  ``grad`` is set
    during ``backward`` with the shape and dtype of ``data``; after
    ``backward`` only leaves still hold one.  It may be a read-only or
    strided view, or share memory with another grad: read it only (see
    ``_accumulate``).  Tensors are immutable after construction as far
    as the tape is concerned: an op never writes into ``data``, and the
    optimizer rebinds a parameter's ``data`` to a new array between
    forward passes, never mid-graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_op", "_backward_ran")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE.get())
        # ascontiguousarray would promote 0-d to (1,); keep rank
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"
        self._backward_ran = False

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # tape plumbing

    def _accumulate(self, g):
        """Add the adjoint ``g`` into ``grad``.

        The first gradient is kept as given, without a copy: broadcast to
        the data's shape and cast only when its dtype differs.  A later
        one rebinds ``grad`` to the sum, rounded to the data's dtype.  No
        buffer is ever written in place, so ``g`` may be a read-only
        view, or a buffer that a sibling parent also received; in turn
        no backward may write into an adjoint it receives or hands on.
        """
        if self.grad is None:
            if np.shape(g) != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            self.grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self.grad = np.asarray(self.grad + g, dtype=self.data.dtype)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` on every reachable leaf of the graph.

        The root must be a scalar produced under an active tape.  Each
        node's closure runs exactly once, in reverse topological order.
        Backward consumes the tape: as soon as an interior node's closure
        has run, the node drops its closure (and with it every buffer
        the closure saved), its parent links and its ``grad``, and is
        marked released.  After backward only leaves keep a ``grad``,
        and the tape outlives it only in tensors the caller still holds.

        A subgraph can therefore feed one backward only: calling
        backward twice on the same root, or on a root whose graph
        reaches a node an earlier backward released, raises
        ``GradError`` before any closure runs.
        """
        if self.shape != ():
            raise GradError(f"backward root must be scalar, got shape {self.shape}")
        if self._backward_ran:
            raise GradError("backward already ran for this root; rebuild the graph")
        if self._backward_fn is None and not self._parents:
            raise GradError("backward called on a detached tensor (no tape)")

        order = _toposort(self)
        if any(node._backward_ran for node in order):
            raise GradError("graph reaches a node an earlier backward released; "
                            "rebuild the graph")
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
            if node._parents:
                node.grad = None
                node._backward_fn = None
                node._parents = ()
                node._backward_ran = True

    # ------------------------------------------------------------------
    # operator sugar

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_scalar(self, p)

    # method aliases for the functional API
    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def narrow(self, axis, start, length):
        return narrow(self, axis, start, length)

    def matmul(self, other):
        return matmul(self, other)

    def sqrt(self):
        return sqrt(self)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap_pair(a, b):
    """Both operands of a binary op as tensors.  A bare Python number
    takes the other operand's dtype, so a constant neither rounds to nor
    promotes to the default dtype when the graph has another."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        b = Tensor(b, dtype=a.dtype)
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        a = Tensor(a, dtype=b.dtype)
    return _wrap(a), _wrap(b)


def _toposort(root):
    """Iterative DFS post-order over parent links; inputs precede users.

    Constants (tensors that need no gradient) are left out: backward has
    nothing to run for them, and leaving them off the order lets a
    constant that only a released closure held die with that closure."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def make_op(data, parents, op, backward):
    """Construct a graph node for a custom primitive.

    ``backward`` receives the output adjoint (ndarray) and must
    accumulate into the parents via ``Tensor._accumulate``, writing into
    neither the adjoint it receives nor one it hands on.  Used by the
    NN layers for ops (conv, pooling) whose adjoints are hand-written.
    """
    _check_finite(data, op)
    data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags["C_CONTIGUOUS"] else np.ascontiguousarray(data)
    out.grad = None
    out._op = op
    out._backward_ran = False
    if records_tape(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _binary_shapes_ok(a, b):
    # numpy trailing-dims broadcast rule; surface a named error on failure
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}") from None


# ----------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = _wrap_pair(a, b)
    _binary_shapes_ok(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return make_op(out_data, (a, b), "add", backward)


def sub(a, b):
    a, b = _wrap_pair(a, b)
    _binary_shapes_ok(a, b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return make_op(out_data, (a, b), "sub", backward)


def mul(a, b):
    a, b = _wrap_pair(a, b)
    _binary_shapes_ok(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return make_op(out_data, (a, b), "mul", backward)


def div(a, b):
    a, b = _wrap_pair(a, b)
    _binary_shapes_ok(a, b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return make_op(out_data, (a, b), "div", backward)


def neg(a):
    def backward(g):
        a._accumulate(-g)

    return make_op(-a.data, (a,), "neg", backward)


def exp(a):
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return make_op(out_data, (a,), "exp", backward)


def log(a):
    out_data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return make_op(out_data, (a,), "log", backward)


def sqrt(a):
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return make_op(out_data, (a,), "sqrt", backward)


def pow_scalar(a, p):
    p = float(p)
    out_data = a.data ** p

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1.0))

    return make_op(out_data, (a,), "pow", backward)


def sigmoid(a):
    # stable: exponentiate only negative magnitudes
    z = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return make_op(out_data, (a,), "sigmoid", backward)


def softplus(a):
    """log(1 + e^x) as max(x, 0) + log1p(z) with z = e^-|x|, the formula
    of ``np.logaddexp(0, x)`` with one vectorized ``exp``.  Backward forms
    the sigmoid 1/(1 + z) or z/(1 + z) from the kept z."""
    z = np.exp(-np.abs(a.data))
    out_data = np.maximum(a.data, 0)
    out_data += np.log1p(z)

    def backward(g):
        sig = np.where(a.data >= 0, 1.0, z)
        sig /= 1.0 + z
        sig *= g
        a._accumulate(sig)

    return make_op(out_data, (a,), "softplus", backward)


def where(mask, a, b):
    """Select ``a`` where ``mask`` (plain bool array) is true, else ``b``.

    The mask itself carries no gradient; adjoints route to the selected
    branch only, so a NaN-producing untaken branch must be masked by the
    caller before this op (see the ZOH fallback of the taped scan oracle
    in the ssm tests).
    """
    a, b = _wrap_pair(a, b)
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(mask, g, 0.0), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(mask, 0.0, g), b.shape))

    return make_op(out_data, (a, b), "where", backward)


# ----------------------------------------------------------------------
# reductions


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None, keepdims=False):
    axes = _normalize_axes(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            shape = list(a.shape)
            for ax in axes:
                shape[ax] = 1
            g = g.reshape(shape)
        a._accumulate(g)

    return make_op(out_data, (a,), "sum", backward)


def tmean(a, axis=None, keepdims=False):
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


# ----------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    n_new = int(np.prod(shape)) if shape else 1
    if n_new != a.size:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} elems) to {shape}")
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return make_op(out_data, (a,), "reshape", backward)


def permute(a, axes):
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank-{a.ndim} tensor")
    out_data = np.ascontiguousarray(a.data.transpose(axes))
    inv = np.argsort(axes)

    def backward(g):
        # a transposed view would change the order of downstream sums
        a._accumulate(np.ascontiguousarray(g.transpose(inv)))

    return make_op(out_data, (a,), "permute", backward)


def narrow(a, axis, start, length):
    """Contiguous slice of ``length`` entries along ``axis``."""
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range "
                         f"for axis {axis} of shape {a.shape}")
    idx = (slice(None),) * axis + (slice(start, start + length),)
    out_data = np.ascontiguousarray(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return make_op(out_data, (a,), "narrow", backward)


def pad(a, pads):
    """Zero-pad; ``pads`` is a per-axis sequence of (before, after)."""
    pads = tuple((int(lo), int(hi)) for lo, hi in pads)
    if len(pads) != a.ndim:
        raise ShapeError(f"pad spec rank {len(pads)} != tensor rank {a.ndim}")
    out_data = np.pad(a.data, pads)
    idx = tuple(slice(lo, lo + s) for (lo, _), s in zip(pads, a.shape))

    def backward(g):
        a._accumulate(g[idx])

    return make_op(out_data, (a,), "pad", backward)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    axis = axis % tensors[0].ndim
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = (slice(None),) * axis + (slice(lo, hi),)
                t._accumulate(g[idx])

    return make_op(out_data, tuple(tensors), "concat", backward)


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        fault = _GRAD_FAULT.get()
        if fault is not None:
            g = g * fault
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return make_op(out_data, (a, b), "matmul", backward)


def log_softmax(a, axis):
    """Numerically stable log-softmax along ``axis``.  A non-finite input
    gives a non-finite output, which ``make_op`` rejects."""
    shift = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=axis, keepdims=True))
    out_data = shift - lse

    def backward(g):
        p = np.exp(out_data)
        a._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return make_op(out_data, (a,), "log_softmax", backward)


# ----------------------------------------------------------------------
# constructors


def zeros(shape, requires_grad=False, dtype=None):
    return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE.get()),
                  requires_grad=requires_grad)


def ones(shape, requires_grad=False, dtype=None):
    return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE.get()),
                  requires_grad=requires_grad)


# ----------------------------------------------------------------------
# random numbers


def _stable_tag(tag) -> int:
    """Deterministic 64-bit integer from a str/int tag (hash() is salted)."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & (2 ** 63 - 1)
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2 ** 63 - 1)


class Rng:
    """Named, seedable counter-based generator (Philox) owned per run.

    No global state: every consumer receives an ``Rng`` or spawns a
    child stream with ``derive``; identical (seed, tag path) pairs give
    identical streams across threads and platforms.
    """

    def __init__(self, seed, name="run", _ss=None):
        self.seed = int(seed)
        self.name = str(name)
        self._ss = _ss if _ss is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.Philox(self._ss))

    def derive(self, tag) -> "Rng":
        """Independent child stream keyed by a stable tag."""
        child = np.random.SeedSequence(entropy=self._ss.entropy,
                                       spawn_key=self._ss.spawn_key + (_stable_tag(tag),))
        return Rng(self.seed, name=f"{self.name}/{tag}", _ss=child)

    def normal(self, shape=(), std=1.0, mean=0.0, dtype=None):
        arr = self._gen.normal(mean, std, size=shape)
        return np.asarray(arr, dtype=dtype or _DEFAULT_DTYPE.get())

    def uniform(self, low, high, shape=(), dtype=None):
        arr = self._gen.uniform(low, high, size=shape)
        return np.asarray(arr, dtype=dtype or _DEFAULT_DTYPE.get())

    def integers(self, low, high, shape=()):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n):
        return self._gen.permutation(n)

    def random(self, shape=()):
        return self._gen.random(size=shape)

    def state(self) -> dict:
        """JSON-serializable bit-generator state (for checkpoints)."""
        st = self._gen.bit_generator.state
        return {
            "name": self.name,
            "seed": self.seed,
            "counter": [int(v) for v in st["state"]["counter"]],
            "key": [int(v) for v in st["state"]["key"]],
            "buffer": [int(v) for v in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    def set_state(self, payload: dict):
        st = self._gen.bit_generator.state
        st["state"]["counter"] = np.array(payload["counter"], dtype=np.uint64)
        st["state"]["key"] = np.array(payload["key"], dtype=np.uint64)
        st["buffer"] = np.array(payload["buffer"], dtype=np.uint64)
        st["buffer_pos"] = payload["buffer_pos"]
        st["has_uint32"] = payload["has_uint32"]
        st["uinteger"] = payload["uinteger"]
        self._gen.bit_generator.state = st
        self.name = payload.get("name", self.name)
        self.seed = payload.get("seed", self.seed)


class ZeroRng:
    """Draw-free ``Rng`` stand-in for building a model whose weights are
    about to be overwritten (a checkpoint load): ``normal`` and
    ``uniform`` return zeros of the requested shape and dtype."""

    def derive(self, tag) -> "ZeroRng":
        return self

    def normal(self, shape=(), std=1.0, mean=0.0, dtype=None):
        return np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE.get())

    def uniform(self, low, high, shape=(), dtype=None):
        return np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE.get())
