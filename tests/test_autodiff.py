"""Reverse-mode tape: every registered adjoint against finite differences."""

import logging

import numpy as np
import pytest

from bkmpc.numerics import Tape, UnsupportedOpError, backward
from bkmpc.numerics import autodiff as ad
from helpers import tape_gradcheck

RNG = np.random.default_rng(101)


def test_square_at_three():
    tape = Tape()
    x = tape.leaf(3.0)
    out = x * x
    grads = backward(tape, out)
    assert grads[x] == pytest.approx(6.0, abs=1e-14)


def test_sum_exp_matrix_matches_fd():
    M = RNG.standard_normal((3, 3)) * 0.5
    err = tape_gradcheck(lambda t, ls: ad.vsum(ad.exp(ls[0])), [M], rtol=1e-5)
    assert err <= 1e-5


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda t, ls: ad.vsum(ad.exp(ls[0] + ls[1]))),
        ("sub", lambda t, ls: ad.vsum(ad.tanh(ls[0] - ls[1]))),
        ("mul", lambda t, ls: ad.vsum(ls[0] * ls[1] * ls[0])),
        ("softplus", lambda t, ls: ad.vsum(ad.softplus(ls[0] * ls[1]))),
        ("neg_celu", lambda t, ls: ad.vsum(ad.neg_celu(ls[0] * 3.0 + ls[1]))),
        ("phi1", lambda t, ls: ad.vsum(ad.phi1(ls[0], ad.softplus(ls[1])))),
    ],
)
def test_elementwise_adjoints(name, build):
    a = RNG.standard_normal((4, 3)) * 0.8
    b = RNG.standard_normal((4, 3)) * 0.8 + 0.3
    assert tape_gradcheck(build, [a, b], rtol=1e-5) <= 1e-5


def test_broadcasting_adjoints():
    a = RNG.standard_normal((5, 1, 3))
    b = RNG.standard_normal((4, 3))
    build = lambda t, ls: ad.vsum(ad.tanh(ls[0] * ls[1] + ls[1]))
    assert tape_gradcheck(build, [a, b], rtol=1e-5) <= 1e-5


def test_matmul_matvec_adjoints():
    A = RNG.standard_normal((4, 3))
    B = RNG.standard_normal((3, 5))
    v = RNG.standard_normal(3)
    build = lambda t, ls: ad.vsum(ad.tanh(ls[0] @ ls[1])) + ad.vsum(
        ad.matvec(ls[0], ls[2])
    )
    assert tape_gradcheck(build, [A, B, v], rtol=1e-5) <= 1e-5


def test_batched_matmul_adjoint():
    A = RNG.standard_normal((6, 3, 3)) * 0.4
    B = RNG.standard_normal((6, 3, 2))
    build = lambda t, ls: ad.vsum(ad.exp(ls[0]) @ ls[1] * 0.1)
    assert tape_gradcheck(build, [A, B], rtol=1e-5) <= 1e-5


def test_shape_ops_adjoints():
    x = RNG.standard_normal((4, 6))
    build = lambda t, ls: ad.vsum(
        ad.concat(
            [ad.reshape(ls[0], (2, 12)), ad.reshape(ad.transpose(ls[0]), (2, 12))],
            axis=0,
        )
        * ad.getitem(ls[0], (slice(0, 2), slice(None)))[0, 0]
    )
    assert tape_gradcheck(build, [x], rtol=1e-5) <= 1e-5


def test_getitem_repeated_index_sums_its_gradients():
    # an index array that selects one row twice sends that row the sum of
    # both rows' cotangents; so does a (row, column) pair of index arrays
    x = RNG.standard_normal((3, 4))
    w = RNG.standard_normal((3, 4))
    tape = Tape()
    leaf = tape.leaf(x)
    grads = backward(tape, ad.vsum(leaf[[0, 0, 1]] * w))
    assert np.array_equal(grads[leaf], np.stack([w[0] + w[1], w[2], np.zeros(4)]))
    build = lambda t, ls: ad.vsum(ad.tanh(ls[0][[0, 0, 1]]) * w)
    assert tape_gradcheck(build, [x], rtol=1e-5) <= 1e-5
    pairs = (np.array([2, 0, 2, 2]), np.array([1, 3, 1, 0]))
    build = lambda t, ls: ad.vsum(ad.tanh(ls[0][pairs]) * w[0])
    assert tape_gradcheck(build, [x], rtol=1e-5) <= 1e-5


def test_mean_and_keepdims_adjoints():
    x = RNG.standard_normal((3, 4, 2))
    build = lambda t, ls: ad.vsum(
        ad.vmean(ls[0], axis=1) * ad.vsum(ls[0], axis=(0, 2), keepdims=False)[1]
    )
    assert tape_gradcheck(build, [x], rtol=1e-5) <= 1e-5


def test_expm_adjoint_matches_fd():
    M = RNG.standard_normal((3, 3)) * 0.6
    W = RNG.standard_normal((3, 3))
    build = lambda t, ls: ad.vsum(ad.expm(ls[0]) * t.constant(W))
    assert tape_gradcheck(build, [M], rtol=1e-4) <= 1e-4


def test_expm_batched_adjoint():
    M = RNG.standard_normal((4, 3, 3)) * 0.5
    build = lambda t, ls: ad.vsum(ad.tanh(ad.expm(ls[0])))
    assert tape_gradcheck(build, [M], rtol=1e-4) <= 1e-4


def test_low_rank_coupling_factor_adjoint_matches_fd():
    # the rscp preset's shapes (dz = 15, m = 3, rank 1): the factor through
    # the (B, 6, 6) augmented exponential, applied to a drift and formed
    # in full, with controls whose augmented matrices need squarings
    from bkmpc import model

    L = 0.5 * RNG.standard_normal((3, 15, 1))
    R = 0.5 * RNG.standard_normal((3, 15, 1))
    u = np.array([[0.3, -0.2, 0.1], [4.0, -3.0, 2.5]])
    drift = RNG.standard_normal((2, 15))
    W = RNG.standard_normal((2, 15, 15))

    def build(t, ls):
        cpl = model.forward_coupling({"cpl_l": ls[0], "cpl_r": ls[1]})
        assert isinstance(cpl, model.LowRank)
        s2, phi_h = cpl.phi_half(u, 1.0)
        moved = ad.vsum(ad.tanh(cpl.apply(s2, phi_h, t.constant(drift[..., None]))))
        return moved + ad.vsum(cpl.factor(s2, phi_h) * t.constant(W))

    assert tape_gradcheck(build, [L, R], rtol=1e-4) <= 1e-4


def test_inactive_hinge_sends_no_cotangent(monkeypatch):
    # no active matrix: the hinge sends nothing back, so the exponential
    # feeding it runs no adjoint and its input's gradient is zero
    def no_adjoint(*args):
        raise AssertionError("the expm adjoint ran")

    monkeypatch.setattr(ad.dense, "matrix_exp_frechet", no_adjoint)
    tape = Tape()
    m = tape.leaf(np.diag([-1.0, -2.0, -3.0]) + 0.01 * RNG.standard_normal((3, 3)))
    out = ad.vsum(ad.eig_penalty(ad.expm(m), 0.05))
    assert out.value == 0.0
    assert np.all(backward(tape, out)[m] == 0.0)


def test_eig_penalty_inactive_zero_grad():
    A = np.diag([0.5, 0.3, -0.2])
    tape = Tape()
    a = tape.leaf(A)
    out = ad.vsum(ad.eig_penalty(a, margin=0.05))
    assert out.value == 0.0
    grads = backward(tape, out)
    assert np.all(grads[a] == 0.0)


def test_eig_penalty_value_real_and_complex():
    tape = Tape()
    A = tape.leaf(np.diag([1.1, 0.2]))
    assert ad.eig_penalty(A, 0.05).value == pytest.approx(0.15, abs=1e-10)
    # complex pair with modulus sqrt(2): both moduli count
    B = tape.leaf(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    expect = 2 * (np.sqrt(2.0) - 0.95)
    assert ad.eig_penalty(B, 0.05).value == pytest.approx(expect, abs=1e-10)


def test_eig_penalty_gradient_real_active():
    A = np.diag([1.2, 0.4, -0.1]) + 0.05 * RNG.standard_normal((3, 3))
    build = lambda t, ls: ad.vsum(ad.eig_penalty(ls[0], 0.05))
    assert tape_gradcheck(build, [A], rtol=1e-5, h=1e-6) <= 1e-5


def test_eig_penalty_gradient_complex_pair():
    # rotation scaled past the threshold: complex pair, both active
    A = 1.08 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    A = A + 0.02 * RNG.standard_normal((2, 2))
    build = lambda t, ls: ad.vsum(ad.eig_penalty(ls[0], 0.05))
    assert tape_gradcheck(build, [A], rtol=1e-5, h=1e-6) <= 1e-5


def test_eig_penalty_batch_shape():
    tape = Tape()
    A = tape.leaf(np.stack([np.diag([1.1, 0.0]), np.diag([0.5, 0.2])]))
    pen = ad.eig_penalty(A, 0.05)
    assert pen.value.shape == (2,)
    assert pen.value[0] == pytest.approx(0.15, abs=1e-10)
    assert pen.value[1] == 0.0


def _rot(r, t):
    return r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _hinge_stack():
    """Finite 3x3 matrices covering every branch of the hinge at margin 0.05."""
    rng = np.random.default_rng(103)
    pair = np.zeros((3, 3))
    pair[:2, :2] = _rot(1.08, 0.7)
    pair[2, 2] = 0.3
    both = np.zeros((3, 3))
    both[:2, :2] = _rot(1.1, 0.4)
    both[2, 2] = 1.3
    return np.stack([
        np.diag([0.5, 0.3, -0.2]),  # fails the row-sum prefilter
        np.array([[0.5, 0.6, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.1]]),  # passes it, inactive
        np.diag([1.2, 0.4, -0.1]) + 0.05 * rng.standard_normal((3, 3)),  # active real
        pair + 0.02 * rng.standard_normal((3, 3)),  # active complex pair
        both + 0.02 * rng.standard_normal((3, 3)),  # active pair and real
    ])


# equal moduli: both groups are a cluster, so its gradient is dropped
_CLUSTERED = np.diag([1.1, -1.1, 0.2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_penalty_stack_matches_per_matrix_and_fd():
    stack = np.concatenate([_hinge_stack(), _CLUSTERED[None]])
    tape = Tape()
    a = tape.leaf(stack)
    pen = ad.eig_penalty(a, 0.05)
    single = [float(ad.eig_penalty(tape.leaf(M), 0.05).value) for M in stack]
    assert np.allclose(pen.value, single, rtol=1e-13, atol=0.0)
    assert np.all(pen.value[:2] == 0.0) and np.all(pen.value[2:] > 0.0)
    grads = backward(tape, ad.vsum(pen))
    assert np.all(grads[a][:2] == 0.0) and np.all(grads[a][-1] == 0.0)

    # distinct upstream weights per matrix; the clustered one rides along as a constant
    w = np.arange(1.0, 7.0)
    build = lambda t, ls: ad.vsum(
        ad.eig_penalty(ad.concat([ls[0], t.constant(_CLUSTERED[None])]), 0.05)
        * t.constant(w)
    )
    assert tape_gradcheck(build, [_hinge_stack()], rtol=1e-5, h=1e-6) <= 1e-5


def _failing_on(real, *bad):
    """``real``, raising LinAlgError on any stack that holds a matrix of ``bad``."""
    def call(M, *args):
        M = np.asarray(M)
        if any(np.any(np.all(M == b, axis=(-2, -1))) for b in bad):
            raise np.linalg.LinAlgError("did not converge")
        return real(M, *args)
    return call


def _penalty_and_grad(stack, w=None):
    tape = Tape()
    a = tape.leaf(stack)
    pen = ad.eig_penalty(a, 0.05)
    w = np.ones(len(stack)) if w is None else w
    return pen.value, backward(tape, ad.vsum(pen * tape.constant(w)))[a]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_penalty_skips_each_failing_matrix_once(monkeypatch, caplog):
    good = _hinge_stack()
    ref, g_ref = _penalty_and_grad(good)

    stack = good.copy()
    stack[1, 0, 0] = np.nan  # non-finite: skipped before any LAPACK call
    both_fail, vectors_fail = stack[2].copy(), stack[3].copy()

    monkeypatch.setattr(np.linalg, "eigvals", _failing_on(np.linalg.eigvals, both_fail))
    monkeypatch.setattr(
        np.linalg, "eig", _failing_on(np.linalg.eig, both_fail, vectors_fail)
    )
    tape = Tape()
    a = tape.leaf(stack)
    with caplog.at_level(logging.WARNING, logger="bkmpc.numerics"):
        pen = ad.eig_penalty(a, 0.05)
        forward_warnings = len(caplog.records)
        grads = backward(tape, ad.vsum(pen))[a]
    assert forward_warnings == 3
    # the eigenvector failure keeps its penalty and loses only its gradient
    assert len(caplog.records) == 3
    assert all(r.name == "bkmpc.numerics" for r in caplog.records)
    assert pen.value[1] == 0.0 and pen.value[2] == 0.0
    keep = [0, 3, 4]
    assert np.allclose(pen.value[keep], ref[keep], rtol=1e-13, atol=0.0)
    assert np.all(grads[1:4] == 0.0)
    assert np.allclose(grads[[0, 4]], g_ref[[0, 4]], rtol=1e-12, atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_penalty_singular_eigenvectors_keep_penalty(monkeypatch, caplog):
    good = _hinge_stack()
    ref, g_ref = _penalty_and_grad(good)
    _, V_bad = np.linalg.eig(good[3])
    # the inactive matrix 1 has no gradient to lose, so it logs nothing
    _, V_quiet = np.linalg.eig(good[1])
    monkeypatch.setattr(np.linalg, "inv", _failing_on(np.linalg.inv, V_bad, V_quiet))
    with caplog.at_level(logging.WARNING, logger="bkmpc.numerics"):
        pen, grads = _penalty_and_grad(good)
    assert len(caplog.records) == 1
    assert pen[3] > 0.0
    assert np.allclose(pen, ref, rtol=1e-13, atol=0.0)
    assert np.all(grads[3] == 0.0)
    keep = [0, 1, 2, 4]
    assert np.allclose(grads[keep], g_ref[keep], rtol=1e-12, atol=1e-15)


def _counting(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


def test_eig_penalty_decomposes_once_in_the_forward(monkeypatch):
    calls = _counting(monkeypatch, ("eig", "eigvals", "inv"))
    tape = Tape()
    a = tape.leaf(_hinge_stack())
    pen = ad.eig_penalty(a, 0.05)
    assert calls == {"eig": 1, "eigvals": 0, "inv": 1}
    assert np.all(pen.value[2:] > 0.0)
    backward(tape, ad.vsum(pen))
    assert calls == {"eig": 1, "eigvals": 0, "inv": 1}


def test_eig_penalty_forward_factors_feed_the_adjoint():
    # prefilter-rejected, passing but inactive, active real, active pair, both
    stack = _hinge_stack()
    w = np.array([1.0, 2.0, 3.0, 0.5, 4.0])
    pen, grads = _penalty_and_grad(stack, w)
    oracle = np.maximum(np.abs(np.linalg.eigvals(stack)) - 0.95, 0.0).sum(axis=1)
    assert np.all(pen[:2] == 0.0) and np.all(pen[2:] > 0.0)
    assert np.allclose(pen, oracle, rtol=1e-14, atol=0.0)
    lam, V, W = ad.eigen_pair(stack[2:])
    expect = ad._eig_penalty_grad(lam, V, W, 0.95, w[2:])
    assert np.all(grads[:2] == 0.0)
    assert np.array_equal(grads[2:], expect)


def test_unsupported_op_raises():
    tape = Tape()
    x = tape.leaf(1.0)
    bogus = tape._record("frobnicate", (x,), np.asarray(2.0), None)
    out = bogus * 1.0
    with pytest.raises(UnsupportedOpError):
        backward(tape, out)


def test_backward_deterministic():
    M = RNG.standard_normal((3, 3))

    def run():
        tape = Tape()
        m = tape.leaf(M)
        out = ad.vsum(ad.expm(m) * ad.tanh(m))
        return backward(tape, out)[m]

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    with pytest.raises(ValueError):
        backward(tape, x * 2.0)


def test_one_step_split_rollout_loss_grad():
    # one step of the split one-dimensional latent update, all params live
    a0 = np.array([-0.4])
    d0 = np.array([0.2])  # pre-softplus timescale
    b0 = np.array([[0.8]])
    g0 = np.array([[[0.3]]])
    z0 = np.array([0.7])
    u = 1.3
    target = 0.25

    def build(t, ls):
        a, draw, bc, G = ls
        delta = ad.softplus(draw)
        ed = ad.exp(ad.neg_celu(a) * delta)
        bphi = ad.phi1(ad.neg_celu(a), delta)
        ep = ad.expm(ad.reshape(G[0] * u, (1, 1)))
        znext = ad.matvec(ep, ed * z0 + ad.matvec(bc * bphi, t.constant([u])))
        err = znext - target
        return ad.vsum(err * err)

    assert tape_gradcheck(build, [a0, d0, b0, g0], rtol=1e-4) <= 1e-4


def _op_calls():
    """One call of each op in the adjoint table: (fn, operand arrays)."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 3, 3))
    v = rng.standard_normal((2, 3))
    return {
        "add": (ad.add, (A, v[:, None, :])),
        "sub": (ad.sub, (A, v[:, :, None])),
        "mul": (ad.mul, (A, v[:, None, :])),
        "exp": (ad.exp, (v,)),
        "tanh": (ad.tanh, (v,)),
        "softplus": (ad.softplus, (v,)),
        "neg_celu": (ad.neg_celu, (v,)),
        "phi1": (ad.phi1, (v[0], np.abs(v))),
        "matmul": (ad.matmul, (A, A)),
        "matvec": (ad.matvec, (A, v)),
        "transpose": (lambda x: ad.transpose(x, (0, 2, 1)), (A,)),
        "reshape": (lambda x: ad.reshape(x, (2, 9)), (A,)),
        "getitem": (lambda x: x[:, 1:, 0], (A,)),
        "concat": (lambda *p: ad.concat(list(p), axis=1), (v, v[:, :2])),
        "stack": (lambda *p: ad.stack(p), (v, 2.0 * v)),
        "sum": (lambda x: ad.vsum(x, axis=1), (A,)),
        "mean": (lambda x: ad.vmean(x, axis=(1, 2)), (A,)),
        "expm": (ad.expm, (0.5 * A,)),
        "eig_penalty": (lambda x: ad.eig_penalty(x, 0.05), (A,)),
    }


def test_plain_operands_give_the_taped_value():
    calls = _op_calls()
    assert set(calls) == set(ad._ADJOINTS)
    for name, (fn, args) in calls.items():
        plain = fn(*args)
        tape = Tape()
        taped = fn(*(tape.leaf(a) for a in args))
        assert tape._nodes[-1].op == name
        assert isinstance(plain, np.ndarray), name
        assert plain.shape == taped.value.shape, name
        assert plain.tobytes() == taped.value.tobytes(), name


def test_plain_operand_next_to_a_var_is_recorded_as_a_constant():
    tape = Tape()
    x = tape.leaf(np.arange(3.0))
    out = np.ones(3) * x  # an ndarray on the left defers to the Var
    assert isinstance(out, ad.Var)
    assert [n.op for n in tape._nodes] == ["leaf", "const", "mul"]
    assert np.array_equal(backward(tape, ad.vsum(out))[x], np.ones(3))
