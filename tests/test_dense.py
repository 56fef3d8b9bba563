"""Matrix exponential, directional derivative, and phi1."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from bkmpc.numerics import (
    DimensionError,
    DomainError,
    dense,
    matrix_exp,
    matrix_exp_frechet,
    phi1,
    phi1_partials,
)
from bkmpc.numerics.dense import _THETA
from helpers import block_frechet, taylor_expm

action = dense.matrix_exp_frechet_action


def test_exp_zero_is_identity_exactly():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))
    # a zero matrix next to a companion that needs squarings (s = 6)
    rng = np.random.default_rng(2)
    Ms = np.zeros((2, 3, 3))
    Ms[1] = rng.standard_normal((3, 3))
    Ms[1] *= 40.0 / np.abs(Ms[1]).sum(axis=0).max()
    assert np.array_equal(matrix_exp(Ms)[0], np.eye(3))
    E = rng.standard_normal((2, 3, 3))
    assert np.array_equal(matrix_exp_frechet(Ms, E)[0], E[0])
    # L(0, E) v = E v: integer entries make E v exact in any order
    Ek = rng.integers(-9, 10, (2, 3, 3)).astype(float)
    v = rng.integers(-9, 10, (2, 3)).astype(float)
    X, Lv = action(Ms, Ek, v)
    assert np.array_equal(X[0], np.eye(3))
    assert np.array_equal(Lv[0], (Ek @ v[0]).T)
    X, Lv = action(np.zeros((4, 4)), np.ones((1, 4, 4)), np.arange(4.0))
    assert np.array_equal(X, np.eye(4)) and np.array_equal(Lv[:, 0], np.full(4, 6.0))


def test_exp_diagonal_closed_form():
    E = matrix_exp(np.diag([-0.1, -0.2]))
    expect = np.diag([0.904837418, 0.818730753])
    assert np.allclose(E, expect, atol=1e-9)
    assert E[0, 1] == 0.0 and E[1, 0] == 0.0


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        M *= 1.0 / max(np.linalg.norm(M, 2), 1e-9)
        E = matrix_exp(M)
        T = taylor_expm(M)
        assert np.linalg.norm(E - T, 2) <= 1e-13 * np.linalg.norm(T, 2)


def test_exp_accuracy_up_to_norm_ten():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.standard_normal((6, 6))
        M *= 10.0 / np.linalg.norm(M, 2)
        E = matrix_exp(M)
        T = taylor_expm(M, terms=400)
        assert np.linalg.norm(E - T, 2) <= 1e-12 * np.linalg.norm(T, 2)


def test_exp_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        M *= 2.0 / np.linalg.norm(M, 2)
        P = matrix_exp(M) @ matrix_exp(-M)
        assert np.max(np.abs(P - np.eye(5))) <= 1e-10


def test_exp_batched_matches_loop():
    rng = np.random.default_rng(5)
    Ms = rng.standard_normal((7, 4, 4))
    batched = matrix_exp(Ms)
    for i in range(7):
        assert np.allclose(batched[i], matrix_exp(Ms[i]), atol=1e-12)


def test_exp_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        matrix_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_frechet_at_zero_is_direction():
    E = np.arange(9.0).reshape(3, 3)
    assert np.allclose(matrix_exp_frechet(np.zeros((3, 3)), E), E, atol=1e-13)


def test_frechet_diagonal_chain_rule():
    a = np.array([0.3, -0.7, 1.1])
    e = np.array([0.5, 2.0, -1.0])
    L = matrix_exp_frechet(np.diag(a), np.diag(e))
    assert np.allclose(np.diag(L), e * np.exp(a), atol=1e-12)


def test_frechet_matches_central_difference():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(10):
        M = rng.standard_normal((4, 4))
        E = rng.standard_normal((4, 4))
        L = matrix_exp_frechet(M, E)
        fd = (matrix_exp(M + h * E) - matrix_exp(M - h * E)) / (2 * h)
        assert np.linalg.norm(L - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def test_frechet_linear_in_direction():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((4, 4))
    E1 = rng.standard_normal((4, 4))
    E2 = rng.standard_normal((4, 4))
    al, be = 0.37, -1.91
    L1 = matrix_exp_frechet(M, E1)
    L2 = matrix_exp_frechet(M, E2)
    L12 = matrix_exp_frechet(M, al * E1 + be * E2)
    scale = max(np.max(np.abs(L12)), 1.0)
    assert np.max(np.abs(L12 - al * L1 - be * L2)) <= 1e-12 * scale


def _with_norm(rng, n, norm1):
    M = rng.standard_normal((n, n))
    return M * (norm1 / np.abs(M).sum(axis=0).max())


def _rel1(X, ref):
    return np.abs(X - ref).sum(axis=-2).max() / np.abs(ref).sum(axis=-2).max()


def test_frechet_matches_block_oracle():
    rng = np.random.default_rng(29)
    for n in (4, 15):
        for norm1 in (0.0, 0.1, 0.5, 3.0, 12.0, 40.0):
            for _ in range(3):
                M = _with_norm(rng, n, norm1)
                E = rng.standard_normal((n, n))
                X_ref, L_ref = block_frechet(M, E)
                assert _rel1(matrix_exp(M), X_ref) <= 1e-13
                assert _rel1(matrix_exp_frechet(M, E), L_ref) <= 1e-13


def _mp_block(M, E):
    """(exp(M), L(M, E)) from mpmath's expm of the block [[M, E], [0, M]]
    at 20 digits."""
    n = M.shape[-1]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = M
    blk[:n, n:] = E
    blk[n:, n:] = M
    with mpmath.workdps(20):
        W = np.array(mpmath.expm(mpmath.matrix(blk.tolist())).tolist(), dtype=float)
    return W[:n, :n], W[:n, n:]


def test_exp_and_frechet_match_mpmath():
    # norms on both sides of the switching radius, up to four squarings
    rng = np.random.default_rng(41)
    for n in (4, 8):
        for norm1 in (1e-5, 0.5 * _THETA, 0.99 * _THETA, 1.01 * _THETA, 5.37, 12.0):
            M = _with_norm(rng, n, norm1)
            E = rng.standard_normal((3, n, n))
            refs = [_mp_block(M, E_j) for E_j in E]
            X_ref = refs[0][0]
            assert _rel1(matrix_exp(M), X_ref) <= 1e-14
            assert _rel1(matrix_exp_frechet(M, E[0]), refs[0][1]) <= 1e-14
            v = rng.standard_normal(n)
            _, Lv = action(M, E, v)
            for j in range(3):
                assert _rel_action(Lv[:, j], refs[j][1], v) <= 1e-14


def test_frechet_direction_stack_equals_separate_calls():
    # k shared directions in one action call: each direction's column is
    # its one-direction call's up to roundoff (BLAS may order the sums of
    # wider products differently), and the exponential is the same
    rng = np.random.default_rng(31)
    M = np.stack([_with_norm(rng, 5, v) for v in (0.3, 2.0, 9.0)])
    E = rng.standard_normal((4, 5, 5))
    v = rng.standard_normal((3, 5))
    X, Lv = action(M, E, v)
    assert Lv.shape == (3, 5, 4)
    for j in range(4):
        X_j, Lv_j = action(M, E[j : j + 1], v)
        assert np.array_equal(X, X_j)
        err = np.abs(Lv[..., j] - Lv_j[..., 0]).sum(axis=-1)
        assert np.all(err <= 1e-14 * np.abs(Lv_j[..., 0]).sum(axis=-1))


def _rel_action(Lv, L_ref, v):
    """1-norm error of Lv against L_ref v, relative to ||L_ref||_1 ||v||_1."""
    return np.abs(Lv - L_ref @ v).sum() / (
        np.abs(L_ref).sum(axis=-2).max() * np.abs(v).sum()
    )


@pytest.mark.parametrize("k", [1, 3])
def test_frechet_action_matches_block_oracle(k):
    # norms giving squaring counts 0, 1, 2, 4 and 6, against the
    # extended-precision block exponential; exp(M) is matrix_exp's
    rng = np.random.default_rng(61 + k)
    for n in (4, 15):
        for norm1, s in ((0.0, 0), (0.5, 0), (1.2, 1), (3.0, 2), (12.0, 4), (40.0, 6)):
            assert dense._squarings(np.array([norm1]))[0] == s
            for _ in range(2):
                M = _with_norm(rng, n, norm1)
                E = rng.standard_normal((k, n, n))
                v = rng.standard_normal(n)
                X, Lv = action(M, E, v)
                assert np.array_equal(X, matrix_exp(M))
                for j in range(k):
                    _, L_ref = block_frechet(M, E[j])
                    assert _rel_action(Lv[:, j], L_ref, v) <= 1e-13, (n, norm1, j)
                    ref = L_ref @ v
                    assert np.abs(Lv[:, j] - ref).sum() <= 1e-13 * np.abs(ref).sum()


def test_frechet_action_stack_members_equal_solo_calls():
    # squaring counts 0 to 6 in one stack, shuffled: the matrices of
    # each count are grouped, and each member equals its solo call
    rng = np.random.default_rng(67)
    norms = (0.0, 0.5, 40.0, 0.99 * _THETA, 1.01 * _THETA, 3.0, 12.0, 0.3, 3.0)
    Ms = np.stack([_with_norm(rng, 6, v) for v in norms])
    E = rng.standard_normal((3, 6, 6))
    v = rng.standard_normal((len(norms), 6))
    X, Lv = action(Ms, E, v)
    assert np.array_equal(X, matrix_exp(Ms))
    for i in range(len(norms)):
        X_i, Lv_i = action(Ms[i], E, v[i])
        assert np.array_equal(X[i], X_i) and np.array_equal(Lv[i], Lv_i)
    # leading batch axes are flattened and restored
    X2, Lv2 = action(Ms[:8].reshape(2, 4, 6, 6), E, v[:8].reshape(2, 4, 6))
    assert np.array_equal(X2.reshape(8, 6, 6), X[:8])
    assert np.array_equal(Lv2.reshape(8, 6, 3), Lv[:8])


def test_stack_members_equal_solo_calls():
    # norms on both sides of the switching radius: squaring counts 0 to 6
    rng = np.random.default_rng(37)
    norms = (0.0, 0.5, 0.99 * _THETA, 1.01 * _THETA, 12.0, 40.0)
    Ms = np.stack([_with_norm(rng, 6, v) for v in norms])
    Es = rng.standard_normal(Ms.shape)
    expm = matrix_exp(Ms)
    L = matrix_exp_frechet(Ms, Es)
    for i in range(len(norms)):
        assert np.array_equal(expm[i], matrix_exp(Ms[i]))
        assert np.array_equal(L[i], matrix_exp_frechet(Ms[i], Es[i]))


def _mixed_stack(rng, shape):
    """Random matrices of a stack shape, each zero, at 1-norm 0.3 (below
    the switching radius) or at 1-norm 40 (six squarings)."""
    M = rng.standard_normal(shape)
    norm1 = np.abs(M).sum(axis=-2).max(axis=-1)
    target = rng.choice([0.0, 0.3, 40.0], size=shape[:-2])
    return M * (target / norm1)[..., None, None]


def _kernel_outputs(M, E, Ek, v):
    # the action takes M / 4 (at most four squarings), so its blocks still
    # mix matrices with and without squarings
    return [matrix_exp(M), matrix_exp_frechet(M, E), *action(M / 4, Ek, v)]


@pytest.mark.parametrize("shape", [(256, 15, 15), (30, 3, 15, 15), (300, 1, 8, 8)])
def test_blocked_kernels_equal_the_one_block_result(shape, monkeypatch):
    # each matrix is scaled on its own, so walking the stack in blocks
    # (one matrix each, or uneven blocks of a few) changes no bit; the
    # directions come one per matrix, or three shared by the stack with
    # one vector per matrix
    rng = np.random.default_rng(43)
    M = _mixed_stack(rng, shape)
    E = rng.standard_normal(shape)
    n = shape[-1]
    Ek, v = rng.standard_normal((3, n, n)), rng.standard_normal(shape[:-1])
    monkeypatch.setattr(dense, "_BLOCK_BYTES", 1 << 40)
    whole = _kernel_outputs(M, E, Ek, v)
    for budget in (1, 7 * 40 * n * n):
        monkeypatch.setattr(dense, "_BLOCK_BYTES", budget)
        for got, want in zip(_kernel_outputs(M, E, Ek, v), whole, strict=True):
            assert np.array_equal(got, want), budget


@pytest.mark.parametrize("shape, k", [((1024, 15, 15), 0), ((1024, 15, 15), 3),
                                      ((4000, 8, 8), 0)])
def test_kernel_temporaries_stay_within_the_block_budget(shape, k):
    # a stack of several budgets: each call's traced peak is its output
    # plus a few budgets (the powers, Horner iterates and their
    # derivatives of one block), not a multiple of the stack; k shared
    # directions go through the action kernel
    rng = np.random.default_rng(47)
    M = _mixed_stack(rng, shape)
    n = shape[-1]
    if k:
        # M / 16 needs at most two squarings
        deriv = action, (M / 16, rng.standard_normal((k, n, n)), rng.standard_normal(shape[:-1]))
    else:
        deriv = matrix_exp_frechet, (M, rng.standard_normal(shape))
    assert M.nbytes > dense._BLOCK_BYTES
    for fn, args in ((matrix_exp, (M,)), deriv):
        tracemalloc.start()
        try:
            out = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = sum(x.nbytes for x in (out if isinstance(out, tuple) else (out,)))
        assert peak <= out_bytes + 4 * dense._BLOCK_BYTES, fn.__name__


def test_frechet_action_at_sixteen_squarings_stays_within_the_block_budget():
    # nilpotent matrices at a 1-norm that needs 16 squarings, a stack of
    # several budgets: the action's traced peak is its output plus a few
    # budgets, as for the other kernels, not a multiple of 2**s, and its
    # members match the extended-precision block exponential
    rng = np.random.default_rng(71)
    M = np.triu(rng.standard_normal((1024, 15, 15)), 1)
    M *= (0.9 * _THETA * 2**16 / np.abs(M).sum(axis=-2).max(axis=-1))[:, None, None]
    assert np.all(dense._squarings(np.abs(M).sum(axis=-2).max(axis=-1)) == 16)
    E, v = rng.standard_normal((3, 15, 15)), rng.standard_normal((1024, 15))
    tracemalloc.start()
    try:
        X, Lv = action(M, E, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + Lv.nbytes + 4 * dense._BLOCK_BYTES
    for i in (0, 517, 1023):
        assert np.array_equal(X[i], matrix_exp(M[i]))
        for j in range(3):
            _, L_ref = block_frechet(M[i], E[j])
            assert _rel_action(Lv[i, :, j], L_ref, v[i]) <= 1e-13, (i, j)
            ref = L_ref @ v[i]
            assert np.abs(Lv[i, :, j] - ref).sum() <= 1e-13 * np.abs(ref).sum()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 64])
def test_norms_equal_the_abs_sum_max_formula(n):
    # one einsum pass gives the column sums of |M| in the order that the
    # reduction over axis -2 adds them, so the same bytes; four batch
    # shapes for each of twelve sizes, entries over many magnitudes
    rng = np.random.default_rng(53 + n)
    for batch in ((), (1,), (7,), (3, 5)):
        M = rng.standard_normal(batch + (n, n)) * 10.0 ** rng.integers(-8, 9, batch + (n, n))
        want = np.abs(M).sum(axis=-2).max(axis=-1).ravel()
        got = dense._norms(M, "M")
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), batch


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_kernels_reject_a_non_finite_exponent(bad):
    # a NaN or infinite entry, or finite entries whose column sum
    # overflows, gives a non-finite 1-norm; no squaring count follows
    M = np.zeros((3, 4, 4))
    if bad == "overflow":
        M[1, :, 2] = 1e308
    else:
        M[1, 3, 0] = bad
    E = np.ones(M.shape)
    with pytest.raises(DomainError):
        matrix_exp(M)
    with pytest.raises(DomainError):
        matrix_exp_frechet(M, E)
    with pytest.raises(DomainError):
        action(M, E[:2], np.ones(M.shape[:-1]))
    # the directions and vectors keep their own entrywise check
    with pytest.raises(DomainError):
        matrix_exp_frechet(E, np.where(M == 0.0, 0.0, np.nan))
    with pytest.raises(DomainError):
        action(E, np.where(M == 0.0, 0.0, np.nan), np.ones(M.shape[:-1]))
    with pytest.raises(DomainError):
        action(E, E, np.full(M.shape[:-1], np.nan))


def test_unscaled_blocks_equal_the_scaled_path():
    # a block whose matrices all need no squaring copies them unscaled;
    # in a block with one matrix that needs squarings the same matrices
    # are multiplied by 2**0, with the same bytes
    rng = np.random.default_rng(59)
    small = np.stack([_with_norm(rng, 6, v) for v in (0.0, 0.1, 0.5, 0.99 * _THETA)])
    mixed = np.concatenate([small, _with_norm(rng, 6, 12.0)[None]])
    E = rng.standard_normal(mixed.shape)
    Ek, v = rng.standard_normal((2, 6, 6)), rng.standard_normal((5, 6))
    got = _kernel_outputs(small, E[:4], Ek, v[:4])
    want = _kernel_outputs(mixed, E, Ek, v)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w[:4].tobytes()


def test_frechet_shape_mismatch():
    cases = [
        ((3, 3), (2, 2)),
        ((4, 3, 3), (5, 3, 3)),  # batch axes differ
        ((4, 3, 3), (2, 4, 3, 3)),  # direction axis before the batch axis
        ((3, 3), (2, 2, 3, 3)),  # two direction axes
        ((4, 3, 3), (3, 3)),
    ]
    for m_shape, e_shape in cases:
        with pytest.raises(DimensionError):
            matrix_exp_frechet(np.zeros(m_shape), np.zeros(e_shape))
    # the action takes (k, n, n) shared directions and one vector per matrix
    cases = [
        ((4, 3, 3), (3, 3), (4, 3)),  # no direction axis
        ((4, 3, 3), (4, 2, 3, 3), (4, 3)),  # directions per matrix
        ((4, 3, 3), (2, 2, 2), (4, 3)),
        ((4, 3, 3), (2, 3, 3), (3,)),
        ((4, 3, 3), (2, 3, 3), (4, 2)),
    ]
    for m_shape, e_shape, v_shape in cases:
        with pytest.raises(DimensionError):
            action(np.zeros(m_shape), np.zeros(e_shape), np.zeros(v_shape))


def test_phi1_limit_and_closed_form():
    assert phi1(0.0, 0.02) == pytest.approx(0.02, abs=0.0)
    assert phi1(-1.0, 0.1) == pytest.approx(0.0951625820, abs=1e-9)


def test_phi1_no_cancellation_near_zero():
    # 50-digit reference for (exp(a*d)-1)/a at a = 1e-14, d = 1.
    with mpmath.workdps(50):
        a = mpmath.mpf("1e-14")
        ref = float((mpmath.e ** (a * 1) - 1) / a)
    assert abs(phi1(1e-14, 1.0) - ref) <= 1e-12


def test_phi1_approaches_delta():
    rng = np.random.default_rng(19)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12, 0)
        d = rng.uniform(0.0, 1.0)
        if abs(a) * d > 1.0:
            continue
        bound = abs(a) * d * d * np.exp(abs(a) * d)
        assert abs(phi1(a, d) - d) <= bound + 1e-15


def test_phi1_partials_match_fd():
    rng = np.random.default_rng(23)
    h = 1e-7
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0)
        d = rng.uniform(0.01, 2.0)
        da, dd = phi1_partials(a, d)
        fa = (phi1(a + h, d) - phi1(a - h, d)) / (2 * h)
        fd = (phi1(a, d + h) - phi1(a, d - h)) / (2 * h)
        assert abs(da - fa) <= 1e-5 * max(abs(fa), 1e-9)
        assert abs(dd - fd) <= 1e-5 * max(abs(fd), 1e-9)


def test_phi1_partials_smooth_across_small_a():
    # series and closed-form branches agree with a 50-digit reference on
    # both sides of the switch point |a*d| = 1e-4
    d = 0.7
    for a in [9e-5 / d, 1.1e-4 / d, 1e-9, -3e-5]:
        da, _ = phi1_partials(a, d)
        with mpmath.workdps(50):
            am, dm = mpmath.mpf(a), mpmath.mpf(d)
            ref = float((dm * mpmath.e ** (am * dm) - mpmath.expm1(am * dm) / am) / am)
        assert abs(da - ref) <= 1e-10 * max(abs(ref), 1.0)
