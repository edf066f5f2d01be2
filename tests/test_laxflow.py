import contextlib
import functools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from laxkit import builtins as bi
from laxkit import laxflow as lf
from laxkit.exactalg import MultiPoly
from laxkit.sysdsl import VectorFieldSystem


def test_pencil_validation():
    with pytest.raises(ValueError):
        lf.MatrixPencil({0: np.ones((2, 3))})
    with pytest.raises(ValueError):
        lf.MatrixPencil({0: np.eye(2), 1: np.eye(3)})
    p = lf.MatrixPencil({-1: [[0, 1], [0, 0]], 0: np.eye(2)})
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0.0)


def test_charpoly_constant_diag():
    p = {0: [[F(1), F(0)], [F(0), F(2)]]}
    curve = lf.pencil_charpoly(p)
    # det(A - zI) = (1-z)(2-z) = z^2 - 3z + 2
    assert curve.coeffs == {(0, 0): F(2), (1, 0): F(-3), (2, 0): F(1)}


def test_charpoly_toda_structure_matches_floquet():
    from laxkit.jacobispec import PeriodicJacobi, floquet_polynomial
    a = [F(1), F(1, 2), F(3, 2)]
    b = [F(0), F(1, 3), F(-1, 3)]
    pencil = lf.toda_periodic_coeffs(a, b)
    curve = lf.pencil_charpoly(pencil)
    N = 3
    alpha = F(1) * a[0] * a[1] * a[2]
    P = floquet_polynomial(PeriodicJacobi(a, b))
    sign = F((-1) ** (N + 1))
    # det(A(h)-zI) = sign*(alpha*(h + 1/h) - P(z))
    assert curve.coeffs[(0, 1)] == sign * alpha
    assert curve.coeffs[(0, -1)] == sign * alpha
    for k in range(N + 1):
        assert curve.coeffs.get((k, 0), F(0)) == -sign * P[k]


def test_charpoly_toda_h_inversion_symmetry():
    rng = np.random.default_rng(2)
    pencil, _ = lf.toda_periodic_pencil(list(rng.uniform(0.5, 1.5, 4)),
                                        list(rng.uniform(-0.5, 0.5, 4)))
    curve = lf.pencil_charpoly(pencil).drop_small()
    for (i, j), v in curve.coeffs.items():
        assert abs(float(v) - float(curve.coeffs.get((i, -j), 0))) < 1e-8


def test_charpoly_manakov_parity():
    pencil, _ = lf.manakov_pencil([1, 2, 3, 4], lf.random_skew(4, seed=1))
    curve = lf.pencil_charpoly(pencil).drop_small()
    n = pencil.dim
    # P(z,h) = (-1)^n P(-z,-h): only monomials with i+j even survive
    for (i, j), v in curve.coeffs.items():
        assert (i + j) % 2 == 0, ((i, j), v)


def test_commutator_window_violation_signals_malformed_b():
    A = lf.MatrixPencil({0: lf.random_skew(3, seed=0)})

    def bad_B(P):
        return lf.MatrixPencil({2: np.diag([1.0, 2.0, 3.0]),
                                0: lf.random_skew(3, seed=1)})
    with pytest.raises(ValueError, match="window"):
        bad_B(A).commutator(A, window=A.h_range)


def reference_commutator(P, Q, window=None):
    """The block-pair double loop that MatrixPencil.commutator replaced:
    the oracle for its values, the sign of its zeros and its spill check."""
    wlo, whi = window or (P.lo + Q.lo, P.h_range[1] + Q.h_range[1])
    out = np.zeros((whi - wlo + 1, P.dim, P.dim))
    for i, A in enumerate(P.blocks, P.lo):
        for j, B in enumerate(Q.blocks, Q.lo):
            C = A @ B - B @ A
            k = i + j
            if wlo <= k <= whi:
                out[k - wlo] += C
                continue
            spill = float(np.max(np.abs(C)))
            if spill > 1e-10 and spill > 1e-10 * (
                    1 + float(np.max(np.abs(A))) * float(np.max(np.abs(B)))):
                raise ValueError(
                    f"commutator spills h^{k} outside the declared window")
    return lf.MatrixPencil.from_blocks(wlo, out)


def assert_same_pencil(got, want):
    assert got.h_range == want.h_range
    assert np.array_equal(got.blocks, want.blocks)
    assert np.array_equal(np.signbit(got.blocks), np.signbit(want.blocks))


_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                     st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@st.composite
def _pencil(draw, n):
    """lo in -2..2, one to three blocks, each dense, diagonal (so that
    diagonal blocks commute exactly) or zero, at a drawn scale."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dense", "diagonal", "zero"]))
        scale = draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e3]))
        M = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n)),
                     dtype=float).reshape(n, n) * scale
        if kind == "diagonal":
            M = np.diag(np.diag(M))
        elif kind == "zero":
            M = M * 0.0
        blocks.append(M)
    return lf.MatrixPencil.from_blocks(draw(st.integers(-2, 2)), np.array(blocks))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_commutator_matches_block_pair_loop(data):
    n = data.draw(st.integers(1, 6))
    P, Q = data.draw(_pencil(n)), data.draw(_pencil(n))
    lo, hi = P.lo + Q.lo, P.h_range[1] + Q.h_range[1]
    shape = data.draw(st.sampled_from(["default", "clip-lo", "clip-hi", "wider"]))
    window = None
    if shape == "clip-lo":
        window = (data.draw(st.integers(lo, hi)), hi)
    elif shape == "clip-hi":
        window = (lo, data.draw(st.integers(lo, hi)))
    elif shape == "wider":
        window = (lo - data.draw(st.integers(0, 2)), hi + data.draw(st.integers(0, 2)))
    try:
        want = reference_commutator(P, Q, window)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            P.commutator(Q, window)
        assert str(got.value) == str(exc)
        return
    assert_same_pencil(P.commutator(Q, window), want)


def test_commutator_spill_names_first_pair_in_order():
    # pairs (0, 0) -> h^0 and (1, 1) -> h^2 both spill out of window (1, 1);
    # the loop met h^0 first
    X, Y = lf.random_skew(3, seed=1), lf.random_skew(3, seed=2)
    P = lf.MatrixPencil({0: X, 1: Y})
    Q = lf.MatrixPencil({0: Y, 1: X})
    with pytest.raises(ValueError, match=r"h\^0 outside"):
        P.commutator(Q, window=(1, 1))
    with pytest.raises(ValueError, match=r"h\^2 outside"):
        P.commutator(Q, window=(0, 1))


def test_commutator_sums_each_degree_in_block_order():
    # three pairs land on h^2; float addition does not associate, so some
    # entries of their sum round differently in another order
    rng = np.random.default_rng(3)
    P = lf.MatrixPencil({k: rng.normal(size=(4, 4)) for k in range(3)})
    Q = lf.MatrixPencil({k: rng.normal(size=(4, 4)) for k in range(3)})
    for window in (None, (1, 3), (2, 2)):
        try:
            want = reference_commutator(P, Q, window)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc).replace("^", r"\^")):
                P.commutator(Q, window)
            continue
        assert_same_pencil(P.commutator(Q, window), want)


@pytest.mark.parametrize("spill,raises", [(0.5e-10, False), (1.5e-10, False),
                                          (2.5e-10, True)])
def test_commutator_spill_threshold(spill, raises):
    # [A, B] = diag(a s, -a s) with max|A| max|B| = L s = 1, so the bound is
    # 1e-10 * (1 + 1) = 2e-10
    L, s = 1e3, 1e-3
    P = lf.MatrixPencil({0: [[L, spill / s], [0.0, L]]})
    Q = lf.MatrixPencil({0: [[0.0, 0.0], [s, 0.0]]})
    if raises:
        with pytest.raises(ValueError, match=r"h\^0 outside"):
            P.commutator(Q, window=(1, 1))
    else:
        assert not P.commutator(Q, window=(1, 1)).blocks.any()


# The B factories as they were when each built its pencil from a dict:
# the oracle for the pencil-free factories, down to the sign of zeros
# (the flow CSVs print -0.0 as -0).

def _dict_b_toda_periodic(P):
    out = {}
    for k, M in P.coeffs.items():
        if k == 0:
            out[k] = np.triu(M, 1) - np.tril(M, -1)
        elif k > 0:
            out[k] = M
        else:
            out[k] = -M
    return lf.MatrixPencil(out)


def _dict_b_toda_open(P):
    M = P.coeffs[0]
    return lf.MatrixPencil({0: np.triu(M, 1) - np.tril(M, -1)})


def _ratio(al, be):
    n = len(al)
    lam = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                lam[i, j] = (be[i] - be[j]) / (al[i] - al[j])
    return lam


def _dict_b_euler_arnold(al, be):
    lam = _ratio(np.asarray(al, dtype=float), np.asarray(be, dtype=float))
    return lambda P: lf.MatrixPencil({0: -(lam * P.coeffs[0]),
                                      1: -np.diag(np.asarray(be, dtype=float))})


def _dict_b_manakov(j_diag):
    J = np.diag(np.asarray(j_diag, dtype=float))

    def B(P):
        denom = np.add.outer(np.diag(J), np.diag(J))
        Omt = P.coeffs[0] / denom
        np.fill_diagonal(Omt, 0.0)
        return lf.MatrixPencil({0: -Omt, 1: -J})
    return B


def _dict_b_rank2(al, be):
    ratio = _ratio(np.asarray(al, dtype=float), np.asarray(be, dtype=float))
    return lambda P: lf.MatrixPencil({0: -(ratio * P.coeffs[1]),
                                      1: -np.diag(np.asarray(be, dtype=float))})


def _sphere_point(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    y = rng.normal(size=n)
    y -= (y @ x) * x
    return x, y


def _b_cases():
    rng = np.random.default_rng(12)
    for n in (2, 3, 6):
        a, b = list(rng.uniform(0.6, 1.4, n)), list(rng.uniform(-0.5, 0.5, n))
        yield f"toda-periodic-{n}", lf.toda_periodic_pencil(a, b), _dict_b_toda_periodic
    yield ("toda-open", lf.toda_open_pencil([1.0, 0.7, 1.3], [0.1, -0.2, 0.3, 0.0]),
           _dict_b_toda_open)
    for n in (3, 4):
        al = list(range(1, n + 1))
        yield (f"euler-arnold-{n}", lf.LAX_FLOWS["euler-arnold"].start(n, n)[:2],
               _dict_b_euler_arnold(al, [v ** 2 for v in al]))
    yield ("manakov", lf.manakov_pencil([1, 2, 3, 4], lf.random_skew(4, seed=3)),
           _dict_b_manakov([1, 2, 3, 4]))
    x, y = _sphere_point(4, 5)
    yield ("neumann", lf.neumann_pencil([1.0, 2.0, 3.0, 4.0], x, y),
           _dict_b_rank2([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]))
    x, y = _sphere_point(3, 6)
    al = np.array([1.0, 2.0, 3.5])
    yield ("jacobi-geodesic", lf.jacobi_geodesic_pencil(al, x, y),
           _dict_b_rank2(al, 1.0 / al))


@pytest.mark.parametrize("case", list(_b_cases()), ids=lambda c: c[0])
def test_b_factories_match_dict_built_b(case):
    _, (pencil, B), reference = case
    states = lf.integrate_lax(pencil, B, 0.1, 0.01, sample_every=3).pencils
    # the same states with every zero entry turned into -0.0
    states += [lf.MatrixPencil.from_blocks(P.lo, np.where(P.blocks == 0, -0.0, P.blocks))
               for P in states]
    for P in states:
        assert_same_pencil(B(P), reference(P))


@pytest.mark.parametrize("case", list(_b_cases()), ids=lambda c: c[0])
def test_b_factories_return_fresh_blocks(case):
    # rk4 keeps all four stages of a step when it integrates dA/dt = B(A)
    # itself (the non-commutator control): a B that reused one buffer
    # across calls, or handed back a view of P's blocks, would corrupt them
    _, (pencil, B), _ = case
    P = pencil
    Q = lf.MatrixPencil.from_blocks(P.lo, P.blocks * 1.5)
    first, second, third = B(P), B(P), B(Q)
    blocks = [first.blocks, second.blocks, third.blocks]
    for i, X in enumerate(blocks):
        assert not np.shares_memory(X, P.blocks)
        assert not np.shares_memory(X, Q.blocks)
        for Y in blocks[i + 1:]:
            assert not np.shares_memory(X, Y)
    assert_same_pencil(first, second)


def _negative_zeros(P):
    return lf.MatrixPencil.from_blocks(P.lo, np.where(P.blocks == 0, -0.0, P.blocks))


# The Lax path as it was before integrate_lax took one buffered step: the
# oracle for it.  B's pencil was built per stage (the Toda B by where=
# ufuncs into a zero-filled array), a kernel summed each commutator into
# its own buffer and handed back a copy, and every stage and advance was a
# fresh array.

def reference_toda_b(lo, K, n):
    deg = np.arange(lo, lo + K)[:, None, None]
    negate = deg < 0
    keep = (deg > 0) | ((deg == 0) & ~np.tri(n, n, 0, dtype=bool))
    flip = (deg == 0) & np.tri(n, n, -1, dtype=bool)

    def B(P):
        out = np.zeros((K, n, n))
        np.negative(P.blocks, out=out, where=negate)
        np.copyto(out, P.blocks, where=keep)
        np.subtract(0.0, P.blocks, out=out, where=flip)
        return lf.MatrixPencil.from_blocks(lo, out)
    return B


def reference_metric_b(al, be, k):
    neg_ratio = -_ratio(np.asarray(al, dtype=float), np.asarray(be, dtype=float))
    B1 = -np.diag(np.asarray(be, dtype=float))

    def B(P):
        out = np.empty((2, len(B1), len(B1)))
        np.multiply(neg_ratio, P.blocks[k - P.lo], out=out[0])
        out[1] = B1
        return lf.MatrixPencil.from_blocks(0, out)
    return B


def reference_plan(ka, kb, lo, window, n):
    wlo, whi = window
    base = lo - wlo
    prod, swap = np.empty((2, ka, kb, n, n))
    acc = np.empty((whi - wlo + 1, n, n))
    adds = []
    for i in range(ka):
        j0, j1 = max(0, -base - i), min(kb, len(acc) - base - i)
        if j0 < j1:
            adds.append((acc[base + i + j0:base + i + j1], prod[i, j0:j1]))
    deg = lo + np.add.outer(np.arange(ka), np.arange(kb))
    oi, oj = np.nonzero((deg < wlo) | (deg > whi))
    entries = ((oi * kb + oj)[:, None] * (n * n) + np.arange(n * n)).ravel()
    flat = prod.reshape(-1)

    def kernel(A, B):
        Ai = A[:, None]
        np.matmul(Ai, B, out=prod)
        np.matmul(B, Ai, out=swap)
        np.subtract(prod, swap, out=prod)
        acc.fill(0.0)
        for dst, src in adds:
            dst += src
        spill = flat[entries]
        if spill @ spill > 5e-21:
            worst = np.max(np.abs(prod[oi, oj]), axis=(1, 2))
            scale = np.outer(np.max(np.abs(A), axis=(1, 2)),
                             np.max(np.abs(B), axis=(1, 2)))[oi, oj]
            bad = (worst > 1e-10) & (worst > 1e-10 * (1 + scale))
            if bad.any():
                k = int(deg[oi, oj][np.argmax(bad)])
                raise ValueError(
                    f"commutator spills h^{k} outside the declared window")
        return acc.copy()
    return kernel


def reference_stage(y, c, k):
    return y + c * k


def reference_step(y, c, k1, k2, k3, k4):
    return y + c * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_integrate_lax(p0, B, t_end, dt, sample_every=10, calls=None):
    """The composed path through lf.rk4's loop; `calls` counts B's calls."""
    lo, window = p0.lo, p0.h_range
    kb, n = p0.blocks.shape[:2]
    plans = {}

    def rhs(y):
        if calls is not None:
            calls.append(None)
        Q = B(lf.MatrixPencil.from_blocks(lo, y))
        key = (Q.lo, len(Q.blocks))
        kernel = plans.get(key)
        if kernel is None:
            kernel = plans[key] = reference_plan(key[1], kb, Q.lo + lo, window, n)
        return kernel(Q.blocks, y)

    def composed(h, dt, c):
        def step(y):
            k1 = rhs(y)
            k2 = rhs(reference_stage(y, h, k1))
            k3 = rhs(reference_stage(y, h, k2))
            return reference_step(y, c, k1, k2, k3, rhs(reference_stage(y, dt, k3)))
        return step
    times, states = lf.rk4(composed, p0.blocks, t_end, dt, sample_every, lf.BLOWUP)
    return lf.LaxTrajectory(times, [lf.MatrixPencil.from_blocks(lo, y) for y in states])


def _reference_b(name, pencil, B):
    """the B a _b_cases or LAX_FLOWS case had before its factory declared it
    as data (manakov's B is unchanged)"""
    n = pencil.dim
    al = np.arange(1.0, n + 1)
    if name.startswith("toda"):
        return reference_toda_b(pencil.lo, len(pencil.blocks), n)
    if name.startswith("euler-arnold"):
        return reference_metric_b(al, al ** 2, 0)
    if name == "neumann":
        return reference_metric_b(al, al, 1)
    if name == "jacobi-geodesic":
        al = np.array([1.0, 2.0, 3.5])
        return reference_metric_b(al, 1.0 / al, 1)
    return B


@contextlib.contextmanager
def _buffered_stages():
    """Records every stage of the buffered step that integrate_lax hands
    rk4 (through _four_stages): a copy of its state and, unless it raised,
    of its k, and the k buffer itself."""
    log = []
    four_stages = lf._four_stages

    def recording(rhs, *rest):
        def record(f):
            def stage(y):
                log.append([y.copy()])
                k = f(y)
                log[-1] += [k.copy(), k]
                return k
            return stage
        return four_stages([record(f) for f in rhs], *rest)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf, "_four_stages", recording)
        yield log


@pytest.mark.parametrize("case", list(_b_cases()), ids=lambda c: c[0])
def test_integrate_lax_stages_match_reference_commutator(case):
    # the buffered step, one k buffer per stage reused from step to step,
    # gives what the block-pair loop gives on each stage's state, zeros'
    # signs included (from the pencil as built and with its zeros made -0.0)
    _, (pencil, B), _ = case
    for p0 in (pencil, _negative_zeros(pencil)):
        with _buffered_stages() as log:
            lf.integrate_lax(p0, B, 0.05, 0.01, sample_every=2)
        assert len(log) == 20
        assert len({id(k) for _, _, k in log}) == 4
        for y, k, _ in log:
            P = lf.MatrixPencil.from_blocks(p0.lo, y)
            assert_same_pencil(lf.MatrixPencil.from_blocks(p0.lo, k),
                               reference_commutator(B(P), P, p0.h_range))


def _lax_outcome(integrate, p0, B, t_end, dt, every):
    """the samples of a flow, the time of its blow-up, or its spill"""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(p0, B, t_end, dt, every)
    except lf.BlowUpError as exc:
        return "blowup", exc.time
    except ValueError as exc:
        return "spill", str(exc)
    return "samples", traj.times, [P.blocks for P in traj.pencils]


def assert_same_flow(p0, B, ref_B, t_end, dt, every):
    """integrate_lax against the composed reference: the same samples bit
    for bit, or a blow-up at the same time, or the same spill after as many
    B evaluations"""
    calls = []
    want = _lax_outcome(lambda *a: reference_integrate_lax(*a, calls=calls),
                        p0, ref_B, t_end, dt, every)
    with _buffered_stages() as log:
        got = _lax_outcome(lf.integrate_lax, p0, B, t_end, dt, every)
    event(want[0])
    assert got[:2] == want[:2]
    if want[0] == "samples":
        assert _same_bits(got[2], want[2])
    elif want[0] == "spill":
        assert len(log) == len(calls)


_DTS = st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 1e150])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_b_cases())), _DTS, st.integers(1, 60),
       st.integers(1, 7), st.booleans(), st.booleans())
def test_integrate_lax_matches_the_composed_reference(case, dt, steps, every,
                                                      negative, plain):
    # each case's factory B and, through a plain callable, the same B
    name, (pencil, B), _ = case
    ref_B = _reference_b(name, pencil, B)
    p0 = _negative_zeros(pencil) if negative else pencil
    if plain:
        B = (lambda f: lambda P: f(P))(B)
    assert_same_flow(p0, B, ref_B, steps * dt, dt, every)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(lf.LAX_FLOWS)), st.integers(0, 5), st.integers(0, 2 ** 31),
       _DTS, st.integers(1, 60), st.booleans())
def test_lax_flows_match_the_composed_reference(name, extra, seed, dt, steps, negative):
    flow = lf.LAX_FLOWS[name]
    pencil, B, _ = flow.start(flow.min_n + extra, seed)
    p0 = _negative_zeros(pencil) if negative else pencil
    assert_same_flow(p0, B, _reference_b(name, pencil, B), steps * dt, dt, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 1), st.integers(1, 4), st.integers(1, 6), st.data())
def test_toda_b_matches_the_where_ufunc_b(lo, K, n, data):
    P = lf.MatrixPencil.from_blocks(lo, np.array(data.draw(
        st.lists(_entries, min_size=K * n * n, max_size=K * n * n))).reshape(K, n, n))
    assert_same_pencil(lf._toda_b(lo, K, n)(P), reference_toda_b(lo, K, n)(P))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.sampled_from([0, 1]), st.data())
def test_metric_b_matches_the_ratio_product_b(n, k, data):
    # alphas a quarter apart at least, so that every ratio is finite
    al = [v / 4 for v in data.draw(st.lists(st.integers(-20, 20), min_size=n,
                                            max_size=n, unique=True))]
    be = data.draw(st.lists(_entries, min_size=n, max_size=n))
    K = data.draw(st.integers(k + 1, 3))
    P = lf.MatrixPencil.from_blocks(0, np.array(data.draw(
        st.lists(_entries, min_size=K * n * n, max_size=K * n * n))).reshape(K, n, n))
    assert_same_pencil(lf._metric_b(np.array(al), np.array(be), k)(P),
                       reference_metric_b(al, be, k)(P))


@pytest.mark.parametrize("block,degree", [(0, -2), (2, 2), (3, 2)],
                         ids=["h^-1-block", "h^1-block", "new-h^2-block"])
def test_integrate_lax_spill_after_some_steps(block, degree):
    # a B that turns malformed at its tenth call (the second stage of the
    # third step): a wrong h^-1 or h^1 block keeps its layout and so the
    # flow's kernel, a new h^2 block needs another one
    pencil, B = lf.toda_periodic_pencil([1.0, 1.2, 0.8], [0.1, -0.2, 0.3])
    calls = []

    def late_B(P):
        calls.append(P)
        Q = B(P)
        if len(calls) < 10:
            return Q
        blocks = np.concatenate([Q.blocks, np.zeros((1, 3, 3))])
        blocks[block] += lf.random_skew(3, seed=4)
        return lf.MatrixPencil.from_blocks(Q.lo, blocks[:max(block + 1, 3)])
    with pytest.raises(ValueError) as got:
        lf.integrate_lax(pencil, late_B, 1.0, 0.01)
    assert len(calls) == 10
    P = calls[-1]
    with pytest.raises(ValueError) as want:
        late_B(P).commutator(P, window=pencil.h_range)
    assert str(got.value) == str(want.value) == (
        f"commutator spills h^{degree} outside the declared window")
    with pytest.raises(ValueError, match=str(want.value).replace("^", r"\^")):
        reference_commutator(late_B(P), P, pencil.h_range)


def reference_float_charpoly(P):
    """The per-node loop that the float pencil_charpoly replaced: the
    oracle for its coefficients, their order and their bits."""
    n = P.dim
    lo, hi = P.h_range
    lo, hi = min(lo, 0), max(hi, 0)
    nodes = lf._h_nodes(n * (hi - lo) + 1)
    rows = []
    for h0 in nodes:
        cp = np.poly(P.evaluate(float(h0)))[::-1]
        rows.append([(-1.0) ** n * c for c in cp])
    coeffs = {}
    for k in range(n + 1):
        wlo, whi = (n - k) * lo, (n - k) * hi
        m = whi - wlo + 1
        V = np.array([[float(nodes[r]) ** (wlo + c) for c in range(m)]
                      for r in range(m)])
        sol = np.linalg.solve(V, np.array([rows[r][k] for r in range(m)], dtype=float))
        for c in range(m):
            if abs(sol[c]) > 1e-9:
                coeffs[(k, wlo + c)] = sol[c]
    return coeffs


@pytest.mark.parametrize("case", list(_b_cases()), ids=lambda c: c[0])
def test_float_charpoly_matches_per_node_loop(case):
    # one eigvals call on all nodes is complex if any node's eigenvalues
    # are: every case but toda-open has nodes with real eigenvalues in a
    # complex stack, which np.poly must still turn into the same reals
    _, (pencil, B), _ = case
    for P in lf.integrate_lax(pencil, B, 0.2, 0.01, sample_every=5).pencils:
        got, want = lf.pencil_charpoly(P).coeffs, reference_float_charpoly(P)
        assert list(got) == list(want)
        assert all(_same_bits(got[k], want[k]) for k in want)


def test_integrate_frozen_when_b_zero():
    pencil, _ = lf.toda_periodic_pencil([1.0, 1.2, 0.8], [0.1, -0.2, 0.3])

    def B0(P):
        return lf.MatrixPencil({0: np.zeros((3, 3))})
    traj = lf.integrate_lax(pencil, B0, 1.0, 1e-2)
    assert lf.isospectral_drift(traj, [1.0, 2.0], 3) == 0.0
    for k, M in traj.final().coeffs.items():
        assert np.array_equal(M, pencil.coeffs[k].astype(float))


def test_integrate_rejects_bad_step():
    pencil, B = lf.toda_periodic_pencil([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        lf.integrate_lax(pencil, B, 1.0, 0.0)


def test_rk4_matches_the_classical_scheme():
    # y' = M y + y^2 elementwise, stepped by hand with the same arithmetic
    M = np.array([[0.0, 1.0], [-2.0, -0.1]])

    def f(y):
        return M @ y + y ** 2 / 7

    y0 = np.array([0.3, -0.2])
    dt = 0.01
    times, states = lf.rk4(lf.composed_step(f), y0, 1.0, dt, 30, 1e8)
    y = y0
    want_t, want_y = [0.0], [y0]
    for s in range(100):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (s + 1) % 30 == 0 or s == 99:
            want_t.append((s + 1) * dt)
            want_y.append(y)
    assert times == want_t == [0.0, 30 * dt, 60 * dt, 90 * dt, 100 * dt]
    assert all(np.array_equal(a, b) for a, b in zip(states, want_y))


@pytest.mark.parametrize("t_end,dt", [(1.0, 0.3), (0.01, 0.3), (0.0, 0.1),
                                      (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
def test_rk4_rejects_step_that_misses_horizon(t_end, dt):
    def f(y):
        raise AssertionError("no step may be taken")
    with pytest.raises(ValueError):
        lf.rk4(lf.composed_step(f), np.zeros(2), t_end, dt, 1, 1e8)


def _state(kind, values):
    """values as an rk4 state of the given kind"""
    if kind == "array":
        return np.array(values, dtype=float)
    return [float(v) for v in values]


@functools.lru_cache(maxsize=32)
def reference_list_kernels(m):
    """The two combinations rk4 composed a list state's rhs with, before
    every list state stepped through a generated step: straight-line
    functions whose entries are the ndarray expressions on entry i."""
    stage = [f"y[{i}] + c * k[{i}]" for i in range(m)]
    advance = [f"y[{i}] + c * (k1[{i}] + 2 * k2[{i}] + 2 * k3[{i}] + k4[{i}])"
               for i in range(m)]
    return (eval(f"lambda y, c, k: [{', '.join(stage)}]"),
            eval(f"lambda y, c, k1, k2, k3, k4: [{', '.join(advance)}]"))


def reference_composed_step(rhs):
    """make(h, dt, c) -> step: the list composition rk4 ran, four rhs calls
    a step combined by reference_list_kernels of the state's length."""
    def make(h, dt, c):
        def step(y):
            stage, advance = reference_list_kernels(len(y))
            k1 = rhs(y)
            k2 = rhs(stage(y, h, k1))
            k3 = rhs(stage(y, h, k2))
            return advance(y, c, k1, k2, k3, rhs(stage(y, dt, k3)))
        return step
    return make


@functools.lru_cache(maxsize=32)
def reference_lattice_rhs(n):
    """The periodic lattice's right-hand side as one eval'd straight-line
    function of the list state a_1..a_n, b_1..b_n, from the entries that
    lf._lattice_step(n) inlines: the rhs whose composition it matches."""
    y = [f"y[{i}]" for i in range(2 * n)]
    entries = lf._lattice_entries(n, y, [f"{v} ** 2" for v in y[:n]])
    return eval(f"lambda y: [{', '.join(entries)}]")


def _rhs(kind, f):
    """the step maker of f for a state of the given kind: rk4's ndarray
    composition, or the reference list composition"""
    return lf.composed_step(f) if kind == "array" else reference_composed_step(f)


KINDS = ["array", "list"]


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_blowup_on_norm_and_on_nonfinite_state(kind):
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(_rhs(kind, lambda y: y), _state(kind, [1.0]), 10.0, 0.5, 1, 100.0)
    assert exc.value.time == 5.0  # e^t passes 100 during the tenth step
    with pytest.raises(lf.BlowUpError):
        lf.rk4(_rhs(kind, lambda y: _state(kind, [v * np.inf for v in y])),
               _state(kind, [1.0]), 1.0, 0.5, 1, np.inf)


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_blowup_test_nan_inf_and_bound(kind):
    def const(v):
        return _rhs(kind, lambda y: _state(kind, v))
    # a NaN state raises, however loose the bound
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(const([0.0, np.nan]), _state(kind, [0.0, 0.0]), 1.0, 0.25, 1,
               np.inf)
    assert exc.value.time == 0.25
    # so does an infinite one of either sign with blowup = inf
    for v in (np.inf, -np.inf):
        with pytest.raises(lf.BlowUpError):
            lf.rk4(const([v, 0.0]), _state(kind, [0.0, 0.0]), 1.0, 0.25, 1,
                   np.inf)
    # a NaN after a larger entry raises too, and finite entries whose sum
    # overflows are no blow-up under blowup = inf
    with pytest.raises(lf.BlowUpError):
        lf.rk4(const([0.0, 0.0, 0.0]), _state(kind, [-5.0, np.nan, 1.0]), 1.0, 0.25, 1,
               np.inf)
    big = _state(kind, [1e308, 1e308, -1e308])
    times, states = lf.rk4(const([0.0, 0.0, 0.0]), big, 1.0, 0.25, 1, np.inf)
    assert times[-1] == 1.0 and np.array_equal(states[-1], big)
    # a max-norm equal to the bound is not above it; the next float is
    y0 = _state(kind, [-4.0, 1.0])
    times, states = lf.rk4(const([0.0, 0.0]), y0, 1.0, 0.25, 1, 4.0)
    assert times[-1] == 1.0 and np.array_equal(states[-1], y0)
    assert type(states[-1]) is type(y0)
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(const([0.0, 0.0]), _state(kind, [np.nextafter(-4.0, -5.0), 1.0]),
               1.0, 0.25, 1, 4.0)
    assert exc.value.time == 0.25


def test_rk4_blowup_on_nan_inside_a_block_state():
    # a pencil's (K, n, n) state: the max-norm reduces over every axis
    y0 = np.zeros((3, 2, 2))
    y0[0, 0, 0] = -5.0

    def rhs(y):
        k = np.zeros_like(y)
        k[1, 1, 0] = np.nan
        return k
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(lf.composed_step(rhs), y0, 1.0, 0.25, 1, np.inf)
    assert exc.value.time == 0.25


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_overflow_in_rhs_is_a_blowup_at_that_step(kind):
    calls = []

    def rhs(y):
        calls.append(None)
        if len(calls) == 10:  # second stage of the third step
            raise OverflowError("(34, 'Numerical result out of range')")
        return _state(kind, [0.0] * len(y))

    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(_rhs(kind, rhs), _state(kind, [1.0, 1.0]), 1.0, 0.125, 1, np.inf)
    assert exc.value.time == 3 * 0.125
    assert isinstance(exc.value.__cause__, OverflowError)
    # Python float ** raises on overflow where numpy returns inf
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(_rhs(kind, lambda y: _state(kind, [float(x) ** 2 for x in y])),
               _state(kind, [1e200]), 1.0, 0.5, 1, np.inf)
    assert exc.value.time == 0.5


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


_entry = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.sampled_from([1e-3, 0.01, 0.05, 0.1 / 3]),
       st.integers(1, 12), st.data())
def test_rk4_list_state_steps_to_the_bits_of_the_array_state(dim, dt, steps,
                                                              data):
    # one nonlinear rhs on Python floats, fed a list directly and an ndarray
    # through tolist, as the lattice rhs was before it took lists: the list
    # steps through the reference list composition, which the generated
    # steps match (the lattice and vector-field properties below)
    y0 = data.draw(st.lists(_entry, min_size=dim, max_size=dim))
    c = data.draw(st.lists(_entry, min_size=dim, max_size=dim))

    def f(y):
        return [0.25 * (y[(j + 1) % dim] * y[j] - y[j - 1] ** 2) + c[j] * y[j]
                for j in range(dim)]

    t_end = steps * dt
    every = data.draw(st.integers(1, 4))
    got_t, got = lf.rk4(reference_composed_step(f), list(y0), t_end, dt, every, 1e8)
    want_t, want = lf.rk4(lf.composed_step(lambda y: np.array(f(y.tolist()))),
                          np.array(y0), t_end, dt, every, 1e8)
    assert got_t == want_t
    assert all(type(y) is list and all(type(v) is float for v in y)
               for y in got[1:])
    assert _same_bits(got, want)


def _lattice_run(make_step, y0, t_end, dt):
    """rk4's samples, or (time, cause type) of its BlowUpError"""
    try:
        return lf.rk4(make_step, list(y0), t_end, dt, 1, np.inf)
    except lf.BlowUpError as exc:
        return exc.time, type(exc.__cause__)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
       st.integers(1, 8), st.sampled_from([1.0, 1e-100, 1e100, 1e153, 1e154]), st.data())
def test_lattice_step_matches_the_four_stage_composition(n, dt, steps, scale, data):
    # the generated step against the composition of the lattice rhs with
    # the list combinations: the same samples bit for bit, signed zeros
    # included, or a blow-up (an a_j ** 2 overflow among them) at the same
    # step with the same cause
    y0 = [scale * v for v in data.draw(st.lists(_entry, min_size=2 * n, max_size=2 * n))]
    got = _lattice_run(lf._lattice_step(n), y0, steps * dt, dt)
    want = _lattice_run(reference_composed_step(reference_lattice_rhs(n)), y0,
                        steps * dt, dt)
    assert got[0] == want[0]
    if isinstance(want[1], list):
        assert all(type(y) is list for y in got[1])
        assert _same_bits(got[1], want[1])
    else:
        assert got[1] is want[1]


@pytest.mark.parametrize("n,a1,beta,step", [(2, 1e151, 2.0, 14), (3, 1e150, 2.0, 29),
                                            (3, 1e150, 4.0, 3)])
def test_lattice_square_overflow_is_a_blowup_at_the_composed_step(n, a1, beta, step):
    # a_1 grows from a1 past sqrt(max double) while every entry stays
    # finite, so an a_j ** 2 of a stage raises OverflowError inside the
    # generated step: BlowUpError at the step where the composition raises
    lam = 1e153
    y0 = [a1] + [lam * 1e-3] * (n - 1) + [0.0] * (n - 1) + [beta * lam]
    dt = 1 / lam
    for make_step in (lf._lattice_step(n), reference_composed_step(reference_lattice_rhs(n))):
        with pytest.raises(lf.BlowUpError) as exc:
            lf.rk4(make_step, y0, 50 * dt, dt, 1, np.inf)
        assert isinstance(exc.value.__cause__, OverflowError)
        assert exc.value.time == step * dt


def test_generated_kernels_are_built_once_per_size():
    assert reference_list_kernels(9) is reference_list_kernels(9)
    assert lf._lattice_step(5) is lf._lattice_step(5)
    assert reference_list_kernels(9) is not reference_list_kernels(10)
    assert lf._lattice_step(5) is not lf._lattice_step(6)


@st.composite
def float_vector_fields(draw):
    """small_vector_fields' recipe (tests/test_painleve.py) with float
    coefficients: 2-5 variables, exponents up to 2, about half the
    monomials of equation i divisible by x_i, and now and then the constant
    symbol c, which integrate_system leaves unbound.  A coefficient may be
    subnormal, whose Fraction's denominator overflows a float."""
    n = draw(st.integers(2, 5))
    names = [f"x{i + 1}" for i in range(n)]
    coeff = st.one_of(st.floats(-3, 3, allow_subnormal=True),
                      st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0, 5e-324, 1e300]))
    eqs = []
    for i in range(n):
        p = MultiPoly.zero()
        for _ in range(draw(st.integers(0, 3))):
            exps = {v: draw(st.integers(0, 2)) for v in names}
            exps[names[i]] = max(exps[names[i]], draw(st.integers(0, 1)))
            if draw(st.integers(0, 29)) == 0:
                exps["c"] = 1
            p = p + MultiPoly.monomial(F(draw(coeff)), **exps)
        eqs.append(p)
    return VectorFieldSystem(name="s", variables=tuple(names), constants=("c",),
                             equations=tuple(eqs), invariants={})


def reference_integrate_system(sys_, z0, t_end, dt, sample_every):
    """integrate_system's flow as rk4 ran it before its generated step: the
    eval_num rhs under the reference list composition"""
    def rhs(z):
        env = dict(zip(sys_.variables, z))
        return [f.eval_num(env) for f in sys_.equations]
    times, states = lf.rk4(reference_composed_step(rhs), [float(x) for x in z0], t_end, dt,
                           sample_every, lf.BLOWUP)
    return times, np.array(states)


def _field_outcome(integrate, *args):
    """the samples, or (time, cause type) of a BlowUpError, or a KeyError's
    text"""
    try:
        return integrate(*args)
    except lf.BlowUpError as exc:
        return exc.time, type(exc.__cause__)
    except KeyError as exc:
        return "KeyError", str(exc)


@settings(max_examples=150, deadline=None)
@given(float_vector_fields(), st.sampled_from([1e-3, 0.01, 0.1, 1.0]), st.integers(1, 8),
       st.integers(1, 4), st.sampled_from([1.0, 0.5, 1e-100, 10.0, 1e154, 1e160]),
       st.data())
def test_field_step_matches_the_eval_num_composition(sys_, dt, steps, every, scale,
                                                     data):
    # integrate_system's generated step against rk4's composition of the
    # eval_num rhs with the list combinations: the same samples bit for bit,
    # signed zeros included, or a blow-up (a Python float ** overflow among
    # them) at the same step with the same cause, or the same KeyError of an
    # unbound c, even where an overflow comes first
    z0 = [scale * v for v in data.draw(st.lists(_entry, min_size=sys_.dim,
                                                 max_size=sys_.dim))]
    args = (sys_, z0, steps * dt, dt, every)
    got = _field_outcome(lf.integrate_system, *args)
    want = _field_outcome(reference_integrate_system, *args)
    # the outcome: samples, a blow-up's cause (NoneType for the norm test)
    # or an unbound symbol
    event("KeyError" if want[0] == "KeyError" else getattr(want[1], "__name__", "samples"))
    assert got[0] == want[0]
    if isinstance(want[1], np.ndarray):
        assert _same_bits(got[1], want[1])
    else:
        assert got[1] == want[1]


def test_unbound_symbol_raises_the_key_error_of_eval_num():
    sys_ = bi.builtin_system("henon-heiles")
    with pytest.raises(KeyError, match="no value supplied for symbol 'A'"):
        lf.integrate_system(sys_, [0.1] * sys_.dim, 1.0, 1e-3)


@pytest.mark.parametrize("c", [F(5e-324), F(1e-310), F(1, 10 ** 400), F(10 ** 400)],
                         ids=["5e-324", "1e-310", "1/10**400", "10**400"])
def test_tiny_coefficients_step_and_huge_ones_stay_on_eval_num(c):
    # x' = c x y, y' = -x: a coefficient whose denominator overflows a float
    # is float(c) in the generated step as in eval_num; one past float range
    # stays on eval_num, whose OverflowError is a blow-up at the first step
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    sys_ = VectorFieldSystem(name="s", variables=("x", "y"), constants=(),
                             equations=(x * y * c, -x), invariants={})
    args = (sys_, [0.5, -1.5], 0.01, 1e-3, 3)
    got = _field_outcome(lf.integrate_system, *args)
    want = _field_outcome(reference_integrate_system, *args)
    if c > 1:
        assert got == want == (1e-3, OverflowError)
    else:
        assert got[0] == want[0] == [k * 1e-3 for k in (0, 3, 6, 9, 10)]
        assert _same_bits(got[1], want[1])


def test_field_step_is_built_once_per_shape():
    sys_ = bi.builtin_system("kvm")
    lf.integrate_system(sys_, [0.5] * sys_.dim, 0.01, 1e-3)
    hits = lf._field_step.cache_info().hits
    lf.integrate_system(sys_, [0.7] * sys_.dim, 0.01, 1e-3)
    assert lf._field_step.cache_info().hits == hits + 1


def test_steps_for_budget():
    assert lf.steps_for(1.0, 1e-6) == lf.MAX_STEPS == 10 ** 6
    with pytest.raises(ValueError, match="MAX_STEPS"):
        lf.steps_for(2.0, 1e-6)
    with pytest.raises(ValueError, match="1e\\+300 steps"):
        lf.steps_for(1.0, 1e-300)


def test_integrate_lax_rejects_malformed_b():
    pencil, _ = lf.toda_periodic_pencil([1.0, 1.2, 0.8], [0.1, -0.2, 0.3])

    def bad_B(P):
        return lf.MatrixPencil({2: np.diag([1.0, 2.0, 3.0])})
    with pytest.raises(ValueError, match="window"):
        lf.integrate_lax(pencil, bad_B, 1.0, 1e-2)


def test_pencil_coeffs_are_read_only():
    p = lf.MatrixPencil({1: np.eye(2), -1: [[0, 1], [0, 0]]})
    assert p.h_range == (-1, 1)
    assert list(p.coeffs) == [-1, 0, 1]
    assert not p.coeffs[0].any()
    with pytest.raises(TypeError):
        p.coeffs[0] = np.eye(2)
    with pytest.raises(ValueError):
        p.coeffs[1][0, 0] = 5.0


def test_blowup_detection():
    from laxkit.laxflow import BlowUpError, integrate_system
    from laxkit.sysdsl import parse_system
    sys_ = parse_system("system s\nvars x\neq x = x^2\n")
    with pytest.raises(BlowUpError) as exc:
        integrate_system(sys_, [2.0], 5.0, 1e-3)
    assert exc.value.time < 1.0  # pole of 1/(1/2 - t) is at t = 0.5


def test_curve_constancy_along_flow():
    rng = np.random.default_rng(4)
    pencil, B = lf.toda_periodic_pencil(list(rng.uniform(0.6, 1.4, 3)),
                                        list(rng.uniform(-0.4, 0.4, 3)))
    traj = lf.integrate_lax(pencil, B, 1.0, 1e-3, sample_every=500)
    assert lf.curve_drift(traj) < 1e-8


def test_isospectral_drift_propagates_nan():
    # tr A^2 overflows to inf at both samples, and inf - inf is NaN: the
    # drift is NaN, not the 0.0 of the power that stays finite
    traj = lf.LaxTrajectory(times=[0.0, 1.0], pencils=[
        lf.MatrixPencil({0: np.diag([1e200, 2.0])}),
        lf.MatrixPencil({0: np.diag([1e200, 3.0])})])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(lf.isospectral_drift(traj, [1.0], 2))
        assert lf.isospectral_drift(traj, [1.0], 1) == 0.0


def test_curve_drifts_propagate_nan(monkeypatch):
    # one NaN coefficient difference among finite ones, wherever the set of
    # keys puts it, and one NaN sample before a finite one
    base = lf.SpectralCurve({(k, 0): float(k) for k in range(12)}, 2)
    bad = lf.SpectralCurve({**base.coeffs, (5, 0): np.nan, (7, 0): 9.0}, 2)
    assert np.isnan(base.max_coeff_difference(bad))
    assert base.max_coeff_difference(base) == 0.0
    curves = iter([base, bad, lf.SpectralCurve({(0, 0): 1.0}, 2)])
    monkeypatch.setattr(lf, "pencil_charpoly", lambda P: next(curves))
    traj = lf.LaxTrajectory(times=[0.0, 1.0, 2.0],
                            pencils=[lf.MatrixPencil({0: np.eye(2)})] * 3)
    assert np.isnan(lf.curve_drift(traj))


def test_kvm_direct_integration_conserves_invariants():
    sys_ = bi.builtin_system("kvm")
    rng = np.random.default_rng(11)
    z0 = rng.uniform(0.3, 1.0, 5)
    times, states = lf.integrate_system(sys_, z0, 1.0, 1e-3)
    drifts = lf.invariant_drift(sys_, times, states)
    assert max(drifts.values()) < 1e-9


def test_poisson_bracket_modes():
    sys_ = bi.builtin_system("henon-heiles")
    br = lf.poisson_bracket(sys_, "H1", "H2")
    assert br.is_zero
    assert lf.poisson_bracket(sys_, "H1", "H1").is_zero
    vals = lf.poisson_bracket(sys_, "H1", "H2",
                              points=[[1, 2, 3, 4], [F(1, 2), 0, 1, F(5, 3)]])
    assert vals == [0, 0]
    with pytest.raises(KeyError):
        lf.poisson_bracket(sys_, "H1", "nope")


def test_jacobi_identity_pass_and_witness():
    sys_ = bi.builtin_system("kvm")
    ok, wit = lf.jacobi_identity_check(sys_)
    assert ok and not wit
    from dataclasses import replace
    bad = [row[:] for row in sys_.poisson]
    bad[0][1] = -bad[0][1]
    broken = replace(sys_, poisson=bad)
    ok2, wit2 = lf.jacobi_identity_check(broken)
    assert not ok2
    assert wit2 and wit2[0][1] is not None  # witness point reported


def test_jacobi_identity_constant_bracket_trivial():
    sys_ = bi.builtin_system("henon-heiles")
    ok, wit = lf.jacobi_identity_check(sys_)
    assert ok


def test_rigid_body_dims_table():
    assert lf.rigid_body_dims(4) == {"dim_orbit": 4, "genus_C": 3,
                                     "genus_C0": 1, "dim_prym": 2}
    assert lf.rigid_body_dims(3) == {"dim_orbit": 2, "genus_C": 1,
                                     "genus_C0": 0, "dim_prym": 1}
    assert lf.rigid_body_dims(5)["dim_prym"] == 4
    with pytest.raises(ValueError):
        lf.rigid_body_dims(2)


def test_euler_arnold_flow_is_metric_flow():
    # dX/dt from the pencil bracket equals [X, lam*X] directly
    al = [1.0, 2.0, 3.0, 4.0]
    be = [1.0, 4.0, 9.0, 16.0]
    X = lf.random_skew(4, seed=5)
    pencil, B = lf.euler_arnold_pencil(al, be, X)
    rhs = B(pencil).commutator(pencil)
    lam = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i != j:
                lam[i, j] = (be[i] - be[j]) / (al[i] - al[j])
    direct = X @ (lam * X) - (lam * X) @ X
    assert np.allclose(rhs.coeffs[0], direct, atol=1e-12)
    assert 1 not in rhs.coeffs or np.allclose(rhs.coeffs.get(1, 0), 0)


def test_neumann_structure_preserved():
    rng = np.random.default_rng(6)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    y = rng.normal(size=3)
    y -= (y @ x) * x
    pencil, B = lf.neumann_pencil([1.0, 2.0, 3.0], x, y)
    traj = lf.integrate_lax(pencil, B, 0.5, 1e-3, sample_every=100)
    # h^2 coefficient (the diagonal alpha) must stay exactly in place
    for P in traj.pencils:
        assert np.allclose(P.coeffs[2], np.diag([1.0, 2.0, 3.0]), atol=1e-9)
    assert lf.isospectral_drift(traj, [1.0, -2.0], 3) < 1e-8


def test_neumann_constraints():
    with pytest.raises(ValueError, match=r"\|x\| = 1"):
        lf.neumann_pencil([1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def test_neumann_branch_point_count():
    rng = np.random.default_rng(9)
    n = 4
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    y = rng.normal(size=n)
    y -= (y @ x) * x
    pts = lf.neumann_branch_points(list(range(1, n + 1)), x, y)
    assert len(pts) == 2 * n - 1  # plus the point at infinity makes 2n


def test_jacobi_identity_invariant_triples_and_points():
    sys_ = bi.builtin_system("kvm")
    ok, wit = lf.jacobi_identity_check(sys_, triples=[("H1", "H2", "H3")])
    assert ok and not wit
    ok, wit = lf.jacobi_identity_check(
        sys_, points=[[F(1), F(2), F(1, 2), F(3), F(1)]])
    assert ok


# -- closed-form oracle: Symes' QR solution of the open Toda lattice

def _symes(L0, t):
    """L(t) = Q^T L0 Q with e^{t L0} = Q R, R with a positive diagonal: the
    solution of dL/dt = [L+ - L-, L] (W. W. Symes, Physica D 4, 1982).  The
    exponential comes from the eigendecomposition of the symmetric L0."""
    w, V = np.linalg.eigh(L0)
    Q, R = np.linalg.qr((V * np.exp(t * w)) @ V.T)
    Q = Q * np.sign(np.diag(R))
    return Q.T @ L0 @ Q


def test_open_toda_matches_symes_qr_formula():
    pencil, B = lf.toda_open_pencil([1.0, 0.7, 1.3], [0.1, -0.2, 0.3, 0.0])
    L0 = pencil.blocks[0]
    traj = lf.integrate_lax(pencil, B, 1.0, 1e-3)
    assert traj.times[-1] == pytest.approx(1.0)
    L1 = traj.pencils[-1].blocks[0]
    assert np.max(np.abs(L1 - _symes(L0, 1.0))) < 1e-10
    # the time-reversed formula is far off, so a flipped sign in B or in
    # the commutator cannot pass
    assert np.max(np.abs(L1 - _symes(L0, -1.0))) > 1e-2
