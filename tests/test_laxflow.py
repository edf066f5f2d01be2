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
    pencil = bi.toda_periodic_coeffs(a, b)
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
    pencil, _ = bi.toda_periodic_pencil(list(rng.uniform(0.5, 1.5, 4)),
                                        list(rng.uniform(-0.5, 0.5, 4)))
    curve = lf.pencil_charpoly(pencil).drop_small()
    for (i, j), v in curve.coeffs.items():
        assert abs(float(v) - float(curve.coeffs.get((i, -j), 0))) < 1e-8


def test_charpoly_manakov_parity():
    pencil, _ = bi.manakov_pencil([1, 2, 3, 4], bi.random_skew(4, seed=1))
    curve = lf.pencil_charpoly(pencil).drop_small()
    n = pencil.dim
    # P(z,h) = (-1)^n P(-z,-h): only monomials with i+j even survive
    for (i, j), v in curve.coeffs.items():
        assert (i + j) % 2 == 0, ((i, j), v)


def test_commutator_window_violation_signals_malformed_b():
    A = lf.MatrixPencil({0: bi.random_skew(3, seed=0)})

    def bad_B(P):
        return lf.MatrixPencil({2: np.diag([1.0, 2.0, 3.0]),
                                0: bi.random_skew(3, seed=1)})
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
    X, Y = bi.random_skew(3, seed=1), bi.random_skew(3, seed=2)
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
        yield f"toda-periodic-{n}", bi.toda_periodic_pencil(a, b), _dict_b_toda_periodic
    yield ("toda-open", bi.toda_open_pencil([1.0, 0.7, 1.3], [0.1, -0.2, 0.3, 0.0]),
           _dict_b_toda_open)
    for n in (3, 4):
        al = list(range(1, n + 1))
        yield (f"euler-arnold-{n}", bi.builtin("euler-arnold", n=n, seed=n),
               _dict_b_euler_arnold(al, [v ** 2 for v in al]))
    yield ("manakov", bi.manakov_pencil([1, 2, 3, 4], bi.random_skew(4, seed=3)),
           _dict_b_manakov([1, 2, 3, 4]))
    x, y = _sphere_point(4, 5)
    yield ("neumann", bi.neumann_pencil([1.0, 2.0, 3.0, 4.0], x, y),
           _dict_b_rank2([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]))
    x, y = _sphere_point(3, 6)
    al = np.array([1.0, 2.0, 3.5])
    yield ("jacobi-geodesic", bi.jacobi_geodesic_pencil(al, x, y),
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


def test_integrate_frozen_when_b_zero():
    pencil, _ = bi.toda_periodic_pencil([1.0, 1.2, 0.8], [0.1, -0.2, 0.3])

    def B0(P):
        return lf.MatrixPencil({0: np.zeros((3, 3))})
    traj = lf.integrate_lax(pencil, B0, 1.0, 1e-2)
    assert lf.isospectral_drift(traj, [1.0, 2.0], 3) == 0.0
    for k, M in traj.final().coeffs.items():
        assert np.array_equal(M, pencil.coeffs[k].astype(float))


def test_integrate_rejects_bad_step():
    pencil, B = bi.toda_periodic_pencil([1.0, 1.0], [0.0, 0.0])
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


def test_rk4_blowup_on_norm_and_on_nonfinite_state():
    with pytest.raises(lf.BlowUpError) as exc:
        lf.rk4(lambda y: y, np.ones(1), 10.0, 0.5, 1, 100.0)
    assert exc.value.time == 5.0  # e^t passes 100 during the tenth step
    with pytest.raises(lf.BlowUpError):
        lf.rk4(lambda y: y * np.inf, np.ones(1), 1.0, 0.5, 1, np.inf)


def test_integrate_lax_rejects_malformed_b():
    pencil, _ = bi.toda_periodic_pencil([1.0, 1.2, 0.8], [0.1, -0.2, 0.3])

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
    pencil, B = bi.toda_periodic_pencil(list(rng.uniform(0.6, 1.4, 3)),
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
    X = bi.random_skew(4, seed=5)
    pencil, B = bi.euler_arnold_pencil(al, be, X)
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
    pencil, B = bi.neumann_pencil([1.0, 2.0, 3.0], x, y)
    traj = lf.integrate_lax(pencil, B, 0.5, 1e-3, sample_every=100)
    # h^2 coefficient (the diagonal alpha) must stay exactly in place
    for P in traj.pencils:
        assert np.allclose(P.coeffs[2], np.diag([1.0, 2.0, 3.0]), atol=1e-9)
    assert lf.isospectral_drift(traj, [1.0, -2.0], 3) < 1e-8


def test_neumann_constraints():
    with pytest.raises(ValueError, match=r"\|x\| = 1"):
        bi.neumann_pencil([1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def test_neumann_branch_point_count():
    rng = np.random.default_rng(9)
    n = 4
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    y = rng.normal(size=n)
    y -= (y @ x) * x
    pts = bi.neumann_branch_points(list(range(1, n + 1)), x, y)
    assert len(pts) == 2 * n - 1  # plus the point at infinity makes 2n


def test_jacobi_identity_invariant_triples_and_points():
    sys_ = bi.builtin_system("kvm")
    ok, wit = lf.jacobi_identity_check(sys_, triples=[("H1", "H2", "H3")])
    assert ok and not wit
    ok, wit = lf.jacobi_identity_check(
        sys_, points=[[F(1), F(2), F(1, 2), F(3), F(1)]])
    assert ok
