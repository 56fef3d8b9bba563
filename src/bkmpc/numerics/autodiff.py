"""Minimal reverse-mode differentiation on a flat tape of ndarray ops.

The op set is exactly what the latent-dynamics training loss needs:
broadcasting add, subtract and multiply, a few activations, shape ops
and reductions, matrix products, the stabilized hold integral, the
batched matrix exponential, and the eigenvalue-modulus hinge penalty.
A forward call with a Var operand records one node onto its Tape (single
writer; plain operands become constants); with plain operands only, it
returns the plain value and records nothing. ``backward`` replays
adjoints in reverse order and is read-only, so one recorded tape can be
differentiated from any thread.

Adjoint conventions worth noting:

* ``getitem``: ``backward`` adds the cotangent into the source's gradient
  in place; a key with index arrays goes through ``np.add.at``, so an
  element selected more than once receives every contribution.
* ``expm``: the gradient of ``exp(M)`` contracted with an upstream
  cotangent G is the directional derivative of exp at M^T in direction G,
  evaluated by ``dense.matrix_exp_frechet``: the product rule on the same
  scaled degree-16 Taylor polynomial (Paterson--Stockmeyer) as the forward
  pass, so the adjoint differentiates exactly what the forward evaluates,
  with matrix products only and no linear solve.
* ``eig_penalty``: with the right eigenvectors as the columns of V and
  W = V^-1, d(lambda_i)/dM = W[i, :]^T V[:, i]^T (Magnus 1985). The
  forward pass makes one ``eigen_pair`` call on the matrices that pass the
  row-sum prefilter, takes the penalties from its eigenvalues and keeps
  (lambda, V, W) on the tape for the matrices with an active hinge; the
  adjoint only assembles the gradient from them, with no LAPACK call, and
  sends nothing back when no active matrix has a nonzero cotangent.
  Conjugate pairs are handled as one group (their contributions are
  conjugate, so the pair contributes twice the real part). Groups whose
  moduli collide within 1e-8, and near-defective eigenvalues
  (1 < 1e-12 |V[:, i]| |W[i, :]|), get their gradient dropped for that
  matrix while the penalty value is kept. A non-finite matrix is
  skipped before any LAPACK call. A matrix whose eigenvectors fail (no
  convergence, or a singular V) takes its penalty from ``eig_values`` and
  loses its gradient; if that fails too, it loses its penalty. Each matrix
  that loses anything logs one warning on the ``bkmpc.numerics`` logger.
"""

import logging

import numpy as np

from . import dense
from .eig import ConvergenceError, eig_values, eigen_pair

logger = logging.getLogger("bkmpc.numerics")

# Moduli above the hinge threshold closer than this are treated as a
# cluster: penalty value kept, gradient contribution dropped.
_CLUSTER_TOL = 1e-8


class UnsupportedOpError(RuntimeError):
    """backward() hit an op with no registered adjoint rule."""


class _Node:
    __slots__ = ("op", "args", "value", "ctx")

    def __init__(self, op, args, value, ctx):
        self.op = op
        self.args = args
        self.value = value
        self.ctx = ctx


class Var:
    """Handle to one tape node; supports ``+``, ``-``, ``*``, ``@`` and
    indexing."""

    __slots__ = ("tape", "idx")
    # an ndarray operand on the left defers to the Var's reflected operator
    __array_ufunc__ = None

    def __init__(self, tape, idx):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape._nodes[self.idx].value

    @property
    def shape(self):
        return self.value.shape

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

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)


class Tape:
    """Ordered record of primitive ops with saved forward values."""

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value):
        """Register a differentiable input (parameter or seed value)."""
        return self._record("leaf", (), np.asarray(value, dtype=float), None)

    def constant(self, value):
        """Register a non-differentiable input."""
        return self._record("const", (), np.asarray(value, dtype=float), None)

    def _record(self, op, args, value, ctx):
        self._nodes.append(_Node(op, tuple(a.idx for a in args), value, ctx))
        return Var(self, len(self._nodes) - 1)

    def _lift(self, x):
        return x if isinstance(x, Var) else self.constant(x)


def _tape_of(*xs):
    """The tape of the first Var operand, or None if every operand is plain."""
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def plain(x):
    """The value of a Var, or ``x`` itself as a float array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def _op(op, value, args, ctx=None):
    """``value`` itself if no operand is a Var; otherwise the Var of a new
    ``op`` node over ``args``, plain operands recorded as constants."""
    tape = _tape_of(*args)
    if tape is None:
        return value
    return tape._record(op, tuple(tape._lift(a) for a in args), value, ctx)


def _unbroadcast(g, shape):
    """Reduce an upstream gradient back to the shape it broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


def _binary(op, fn, a, b, ctx=None):
    return _op(op, fn(plain(a), plain(b)), (a, b), ctx)


def _unary(op, fn, x, ctx=None):
    return _op(op, fn(plain(x)), (x,), ctx)


def add(a, b):
    return _binary("add", np.add, a, b)


def sub(a, b):
    return _binary("sub", np.subtract, a, b)


def mul(a, b):
    return _binary("mul", np.multiply, a, b)


def exp(x):
    return _unary("exp", np.exp, x)


def tanh(x):
    return _unary("tanh", np.tanh, x)


def softplus(x):
    return _unary("softplus", lambda v: np.logaddexp(0.0, v), x)


def neg_celu(x):
    """x for x < 0, 1 - exp(-x) for x >= 0; output bounded above by 1."""
    return _unary(
        "neg_celu", lambda v: np.where(v < 0.0, v, -np.expm1(-v)), x
    )


def phi1(a, delta):
    return _binary("phi1", dense.phi1, a, delta)


def matmul(a, b):
    return _binary("matmul", np.matmul, a, b)


def matvec(a, v):
    """Contraction '...ij,...j->...i' with broadcasting over batch axes."""
    return _binary(
        "matvec",
        lambda A, x: np.matmul(A, x[..., None])[..., 0],
        a,
        v,
    )


def transpose(x, axes=None):
    val = plain(x)
    axes = tuple(axes) if axes is not None else tuple(reversed(range(val.ndim)))
    return _op("transpose", np.transpose(val, axes), (x,), axes)


def reshape(x, shape):
    val = plain(x)
    return _op("reshape", val.reshape(shape), (x,), val.shape)


def _basic_key(key):
    """Whether ``key`` indexes by integers, slices, None and Ellipsis only,
    so that no element of the source is selected twice."""
    keys = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in keys
    )


def getitem(x, key):
    val = plain(x)
    ctx = (key, val.shape, _basic_key(key))
    return _op("getitem", np.asarray(val[key], dtype=float), (x,), ctx)


def concat(parts, axis=0):
    vals = [plain(p) for p in parts]
    sizes = [v.shape[axis] for v in vals]
    return _op("concat", np.concatenate(vals, axis=axis), tuple(parts), (axis, sizes))


def stack(parts):
    """Equal-shape parts stacked along a new leading axis."""
    vals = [p.value if isinstance(p, Var) else p for p in parts]
    return _op("stack", np.array(vals, dtype=float), tuple(parts))


def vsum(x, axis=None, keepdims=False):
    val = plain(x)
    out = np.asarray(np.sum(val, axis=axis, keepdims=keepdims), dtype=float)
    return _op("sum", out, (x,), (axis, keepdims, val.shape))


def vmean(x, axis=None, keepdims=False):
    val = plain(x)
    out = np.asarray(np.mean(val, axis=axis, keepdims=keepdims), dtype=float)
    count = val.size / max(out.size, 1)
    return _op("mean", out, (x,), (axis, keepdims, val.shape, count))


def expm(M):
    """Batched matrix exponential as a differentiable primitive."""
    return _op("expm", dense.matrix_exp(plain(M)), (M,))


def eig_penalty(A, margin):
    """Per-matrix hinge sum  sum_j max(0, |lambda_j| - (1 - margin)).

    A has shape (..., n, n); the result drops the two matrix axes. An
    infinity-norm prefilter short-circuits matrices that provably cannot
    have a modulus above the threshold, since every modulus is at most
    the largest row sum of |A| (the hinge, and its gradient, are exactly
    zero there); the rest go to one eigenvector call. Its eigenvalues give
    the penalties, and the tape keeps its factors of the matrices with an
    active hinge for the adjoint. The model's rank path applies the same
    bound from its coupling factors first (``model.LowRank.certified``)
    and passes only the matrices it cannot clear, so a stack here may hold
    a sub-set of the steps, or none.
    """
    val = plain(A)
    flat = val.reshape((-1,) + val.shape[-2:])
    thresh = 1.0 - margin
    finite = np.isfinite(flat).all(axis=(1, 2))
    for _ in range(int((~finite).sum())):
        logger.warning("non-finite matrix inside eig_penalty; skipping its penalty")
    idx = np.flatnonzero(finite & (np.abs(flat).sum(axis=2).max(axis=1) >= thresh))
    pens = np.zeros(flat.shape[0])
    active, factors = idx, None
    if idx.size:
        (lam, V, W), ok = _each_matrix(eigen_pair, flat[idx])
        lost, idx = np.delete(idx, ok), idx[ok]
        mods = np.abs(lam)
        pens[idx] = np.maximum(mods - thresh, 0.0).sum(axis=1)
        act = (mods > thresh).any(axis=1)
        active, factors = idx[act], (lam[act], V[act], W[act])
        if lost.size:
            _fallback_penalties(pens, flat, lost, thresh)
    return _op(
        "eig_penalty", pens.reshape(val.shape[:-2]), (A,), (thresh, active, factors)
    )


def _fallback_penalties(pens, flat, lost, thresh):
    """Penalties, from eigenvalues alone, of the matrices ``lost`` whose
    eigenvectors failed; one warning for each that loses anything."""
    lams, ok = _each_matrix(eig_values, flat[lost])
    hinge = np.maximum(np.abs(lams) - thresh, 0.0).sum(axis=1)
    pens[lost[ok]] = hinge
    for _ in range(lost.size - ok.size):
        logger.warning(
            "eigensolver did not converge inside eig_penalty; "
            "skipping the penalty for this matrix"
        )
    for _ in range(int((hinge > 0.0).sum())):
        logger.warning(
            "eigenvectors did not converge inside eig_penalty; "
            "skipping the hinge gradient for this matrix"
        )


def _each_matrix(fn, stack):
    """``fn(stack)`` and the positions of the matrices it covers.

    After a ConvergenceError on the stack, each matrix is tried alone; the
    ones that still fail are left out of the result.
    """
    try:
        return fn(stack), np.arange(len(stack))
    except ConvergenceError:
        pass
    ok = []
    for i in range(len(stack)):
        try:
            fn(stack[i : i + 1])
            ok.append(i)
        except ConvergenceError:
            pass
    ok = np.array(ok, dtype=int)
    return fn(stack[ok]), ok


def _eig_penalty_grad(lam, V, W, thresh, gscale):
    """Gradient of the hinge sums of a stack with eigen factors (lam, V, W),
    matrix i scaled by ``gscale[i]``; see the module docstring."""
    mods = np.abs(lam)
    # one group per real eigenvalue or conjugate pair (imag >= 0) above the threshold
    group = (mods > thresh) & (lam.imag >= 0.0)
    close = np.abs(mods[:, :, None] - mods[:, None, :]) < _CLUSTER_TOL
    close &= group[:, :, None] & group[:, None, :]
    close &= ~np.eye(lam.shape[-1], dtype=bool)
    keep = group & ~close.any(axis=2)
    # near-defective: |y* x| < 1e-12 |x| |y| for right/left vectors x, y
    keep &= 1e-12 * np.linalg.norm(V, axis=1) * np.linalg.norm(W, axis=2) <= 1.0
    weight = np.where(lam.imag == 0.0, 1.0, 2.0)
    coef = np.divide(weight * np.conj(lam), mods, out=np.zeros_like(lam), where=keep)
    # sum_i coef_i d(lambda_i)/dM = (V diag(coef) W)^T
    dmod = np.real(V @ (coef[:, :, None] * W))
    return gscale[:, None, None] * np.swapaxes(dmod, -1, -2)


def _adj_add(n, vals, g):
    return (_unbroadcast(g, vals[0].shape), _unbroadcast(g, vals[1].shape))


def _adj_sub(n, vals, g):
    return (_unbroadcast(g, vals[0].shape), _unbroadcast(-g, vals[1].shape))


def _adj_mul(n, vals, g):
    return (
        _unbroadcast(g * vals[1], vals[0].shape),
        _unbroadcast(g * vals[0], vals[1].shape),
    )


def _adj_matmul(n, vals, g):
    A, B = vals
    gA = g @ np.swapaxes(B, -1, -2)
    gB = np.swapaxes(A, -1, -2) @ g
    return (_unbroadcast(gA, A.shape), _unbroadcast(gB, B.shape))


def _adj_matvec(n, vals, g):
    A, v = vals
    gA = g[..., :, None] * v[..., None, :]
    gv = np.matmul(np.swapaxes(A, -1, -2), g[..., None])[..., 0]
    return (_unbroadcast(gA, A.shape), _unbroadcast(gv, v.shape))


def _adj_sum(n, vals, g):
    axis, keepdims, shape = n.ctx
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape).copy(),)


def _adj_mean(n, vals, g):
    axis, keepdims, shape, count = n.ctx
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape) / count,)


def _adj_concat(n, vals, g):
    axis, sizes = n.ctx
    offsets = np.cumsum([0] + sizes)
    slicer = [slice(None)] * g.ndim
    outs = []
    for i in range(len(sizes)):
        slicer[axis] = slice(offsets[i], offsets[i + 1])
        outs.append(g[tuple(slicer)].copy())
    return tuple(outs)


def _adj_expm(n, vals, g):
    MT = np.swapaxes(vals[0], -1, -2)
    return (dense.matrix_exp_frechet(MT, g),)


def _adj_eig_penalty(n, vals, g):
    thresh, active, factors = n.ctx
    A = vals[0]
    gflat = np.asarray(g, dtype=float).reshape(-1)
    sel = gflat[active] != 0.0
    if not sel.any():
        # no gradient: send none back, rather than zeros through A's inputs
        return (None,)
    out = np.zeros((gflat.size,) + A.shape[-2:])
    idx = active[sel]
    lam, V, W = (f[sel] for f in factors)
    out[idx] = _eig_penalty_grad(lam, V, W, thresh, gflat[idx])
    return (out.reshape(A.shape),)


_ADJOINTS = {
    "add": _adj_add,
    "sub": _adj_sub,
    "mul": _adj_mul,
    "exp": lambda n, vals, g: (g * n.value,),
    "tanh": lambda n, vals, g: (g * (1.0 - n.value**2),),
    "softplus": lambda n, vals, g: (g * 0.5 * (1.0 + np.tanh(0.5 * vals[0])),),
    "neg_celu": lambda n, vals, g: (
        g * np.where(vals[0] < 0.0, 1.0, np.exp(-np.maximum(vals[0], 0.0))),
    ),
    "phi1": lambda n, vals, g: tuple(
        _unbroadcast(g * p, v.shape)
        for p, v in zip(dense.phi1_partials(*vals), vals)
    ),
    "matmul": _adj_matmul,
    "matvec": _adj_matvec,
    "transpose": lambda n, vals, g: (np.transpose(g, np.argsort(n.ctx)),),
    "reshape": lambda n, vals, g: (g.reshape(n.ctx),),
    "getitem": lambda n, vals, g: (g,),  # added in place by ``backward``
    "concat": _adj_concat,
    "stack": lambda n, vals, g: tuple(g),
    "sum": _adj_sum,
    "mean": _adj_mean,
    "expm": _adj_expm,
    "eig_penalty": _adj_eig_penalty,
}


class Grads:
    """Gradients keyed by the Var (parameter) they belong to."""

    def __init__(self, tape, table):
        self._tape = tape
        self._table = table

    def __getitem__(self, var):
        g = self._table[var.idx]
        if g is None:
            return np.zeros_like(var.value)
        return g


def backward(tape, out):
    """Accumulate d(out)/d(leaf) for every leaf reachable from ``out``.

    ``out`` must hold a scalar, whose adjoint is seeded with 1. Replays the
    tape in reverse topological (recording) order, so the result is
    deterministic for a fixed tape.
    """
    if not isinstance(out, Var) or out.tape is not tape:
        raise ValueError("output is not a Var recorded on this tape")
    if out.value.size != 1:
        raise ValueError("backward seeds a scalar-valued output")
    nodes = tape._nodes
    table = [None] * len(nodes)
    table[out.idx] = np.ones_like(out.value)
    for i in range(out.idx, -1, -1):
        g = table[i]
        if g is None:
            continue
        node = nodes[i]
        if node.op in ("leaf", "const"):
            continue
        # an inner node's cotangent is spent once its adjoint has run
        table[i] = None
        fn = _ADJOINTS.get(node.op)
        if fn is None:
            raise UnsupportedOpError(f"no adjoint registered for op '{node.op}'")
        vals = tuple(nodes[j].value for j in node.args)
        for j, ag in zip(node.args, fn(node, vals, g)):
            if ag is None or nodes[j].op == "const":
                continue
            if node.op == "getitem":
                # in place: a slice of a stack costs the slice, not the stack;
                # an index array may repeat an element, whose contributions
                # ``np.add.at`` sums where ``+=`` would keep only one
                key, shape, basic = node.ctx
                if table[j] is None:
                    table[j] = np.zeros(shape)
                if basic:
                    table[j][key] += ag
                else:
                    np.add.at(table[j], key, ag)
            elif table[j] is None:
                table[j] = np.array(ag, dtype=float)
            else:
                table[j] += ag
    return Grads(tape, table)
