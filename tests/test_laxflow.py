from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laxkit import builtins as bi
from laxkit import laxflow as lf
from laxkit.exactalg import MultiPoly


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
        yield (f"euler-arnold-{n}", bi.builtin("euler-arnold", n=n, seed=n),
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
    times, states = lf.rk4(f, y0, 1.0, dt, 30, 1e8)
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
        lf.rk4(f, np.zeros(2), t_end, dt, 1, 1e8)


def _state(kind, values):
    """values as an rk4 state of the given kind"""
    if kind == "array":
        return np.array(values, dtype=float)
    return [float(v) for v in values]


KINDS = ["array", "list"]


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_blowup_on_norm_and_on_nonfinite_state(kind):
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(lambda y: y, _state(kind, [1.0]), 10.0, 0.5, 1, 100.0)
    assert exc.value.time == 5.0  # e^t passes 100 during the tenth step
    with pytest.raises(lf.BlowUpError):
        lf.rk4(lambda y: _state(kind, [v * np.inf for v in y]),
               _state(kind, [1.0]), 1.0, 0.5, 1, np.inf)


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_blowup_test_nan_inf_and_bound(kind):
    def const(v):
        return lambda y: _state(kind, v)
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


@pytest.mark.parametrize("kind", KINDS)
def test_rk4_overflow_in_rhs_is_a_blowup_at_that_step(kind):
    calls = []

    def rhs(y):
        calls.append(None)
        if len(calls) == 10:  # second stage of the third step
            raise OverflowError("(34, 'Numerical result out of range')")
        return _state(kind, [0.0] * len(y))

    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(rhs, _state(kind, [1.0, 1.0]), 1.0, 0.125, 1, np.inf)
    assert exc.value.time == 3 * 0.125
    assert isinstance(exc.value.__cause__, OverflowError)
    # Python float ** raises on overflow where numpy returns inf
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(lambda y: _state(kind, [float(x) ** 2 for x in y]),
               _state(kind, [1e200]), 1.0, 0.5, 1, np.inf)
    assert exc.value.time == 0.5


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


_entry = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.sampled_from([1e-3, 0.01, 0.05, 0.1 / 3]),
       st.integers(1, 12), st.data())
def test_rk4_list_state_steps_to_the_bits_of_the_array_state(dim, dt, steps,
                                                              data):
    # one nonlinear rhs on Python floats, fed a list directly and an ndarray
    # through tolist, as the lattice rhs was before it took lists
    y0 = data.draw(st.lists(_entry, min_size=dim, max_size=dim))
    c = data.draw(st.lists(_entry, min_size=dim, max_size=dim))

    def f(y):
        return [0.25 * (y[(j + 1) % dim] * y[j] - y[j - 1] ** 2) + c[j] * y[j]
                for j in range(dim)]

    t_end = steps * dt
    every = data.draw(st.integers(1, 4))
    got_t, got = lf.rk4(f, list(y0), t_end, dt, every, 1e8)
    want_t, want = lf.rk4(lambda y: np.array(f(y.tolist())), np.array(y0),
                          t_end, dt, every, 1e8)
    assert got_t == want_t
    assert all(type(y) is list and all(type(v) is float for v in y)
               for y in got[1:])
    assert _same_bits(got, want)


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
