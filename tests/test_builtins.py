import numpy as np
import pytest

from laxkit import builtins as bi
from laxkit import laxflow as lf


def test_unknown_builtin():
    with pytest.raises(KeyError):
        bi.builtin("nope")
    with pytest.raises(KeyError):
        bi.builtin_system("nope")


def test_flaschka_consistency_with_particle_flow():
    # d/dt of the Flaschka image of the Hamiltonian particle flow must be
    # the lattice flow itself
    rng = np.random.default_rng(0)
    n = 4
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    a, b = lf.flaschka(x, y)
    # particle equations: x' = y, y'_j = -e^(x_j - x_{j+1}) + e^(x_{j-1}-x_j)
    xd = y.copy()
    yd = np.array([-np.exp(x[j] - x[(j + 1) % n]) +
                   np.exp(x[(j - 1) % n] - x[j]) for j in range(n)])
    # chain rule through the map
    ad = np.array([a[j] * (xd[j] - xd[(j + 1) % n]) / 2 for j in range(n)])
    bd = -0.5 * yd
    da, db = lf.toda_scalar_rhs(a, b)
    assert np.allclose(ad, da, atol=1e-12)
    assert np.allclose(bd, db, atol=1e-12)


def test_toda_pencil_matches_scalar_flow():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 1.5, 3)
    b = rng.uniform(-0.5, 0.5, 3)
    P, B = lf.toda_periodic_pencil(list(a), list(b))
    C = B(P).commutator(P)
    da, db = lf.toda_scalar_rhs(a, b)
    assert np.allclose(np.diag(C.coeffs[0]), db)
    assert np.allclose([C.coeffs[0][0, 1], C.coeffs[0][1, 2]], da[:2])
    assert np.allclose(C.coeffs[-1][0, 2], da[2])
    assert np.allclose(C.coeffs[1][2, 0], da[2])


def test_toda_b_pencil_structure():
    P, B = lf.toda_periodic_pencil([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    Bp = B(P)
    # corner of the h^-1 block carries a minus, the h^+1 block a plus
    assert Bp.coeffs[-1][0, 2] == -3.0
    assert Bp.coeffs[1][2, 0] == 3.0
    B0 = Bp.coeffs[0]
    assert np.allclose(B0, np.triu(B0) + np.tril(B0)) and B0[0, 1] == 1.0
    assert B0[1, 0] == -1.0


def test_toda_pencil_rejects_zero_offdiagonal():
    with pytest.raises(ValueError):
        lf.toda_periodic_pencil([1.0, 0.0, 1.0], [0.0, 0.0, 0.0])


def test_open_toda_isospectral():
    pencil, B = lf.toda_open_pencil([1.0, 0.7], [0.3, -0.2, 0.1])
    traj = lf.integrate_lax(pencil, B, 1.0, 1e-3, sample_every=250)
    assert lf.isospectral_drift(traj, [1.0], 3) < 1e-9


def test_manakov_consistency():
    J = [1.0, 2.0, 3.0, 4.0]
    Om = lf.random_skew(4, seed=3)
    pencil, B = lf.manakov_pencil(J, Om)
    # dA/dt at t=0: h-part must vanish, h^0 part equals [M, Omega]
    rhs = B(pencil).commutator(pencil)
    M = pencil.coeffs[0]
    direct = M @ Om - Om @ M
    assert np.allclose(rhs.coeffs[0], direct, atol=1e-12)
    assert np.allclose(rhs.coeffs.get(1, np.zeros((4, 4))), 0, atol=1e-12)


def test_euler_arnold_conserves_energy_and_traces():
    pencil, B = bi.builtin("euler-arnold", n=4, seed=2)
    traj = lf.integrate_lax(pencil, B, 1.0, 1e-3, sample_every=250)
    X0 = traj.pencils[0].coeffs[0]
    X1 = traj.pencils[-1].coeffs[0]
    assert abs(np.trace(X1 @ X1) - np.trace(X0 @ X0)) < 1e-8
    assert lf.isospectral_drift(traj, [1.0, -1.0, 0.5], 4) < 1e-8


def test_euler_arnold_input_validation():
    with pytest.raises(ValueError, match="distinct"):
        lf.euler_arnold_pencil([1, 1, 2], [1, 2, 3], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="skew"):
        lf.euler_arnold_pencil([1, 2, 3], [1, 2, 3], np.eye(3))


def test_painleve_meta_covers_builtins():
    for name in ("kvm", "henon-heiles", "rdg", "rdg5", "hh5", "harmonic"):
        meta = bi.painleve_meta(name)
        assert "order" in meta
    with pytest.raises(KeyError):
        bi.painleve_meta("nope")


def test_toda_builtin_accepts_particle_coordinates():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    pencil, B = bi.builtin("toda-periodic", x=list(x), y=list(y))
    a, b = lf.flaschka(x, y)
    assert np.allclose(np.diag(pencil.coeffs[0]), b)
    assert np.allclose(pencil.coeffs[0][0, 1], a[0])
    assert np.allclose(pencil.coeffs[-1][0, 2], a[2])
    traj = lf.integrate_lax(pencil, B, 0.5, 1e-3, sample_every=100)
    assert lf.isospectral_drift(traj, [1.0], 3) < 1e-9


def test_neumann_pencil_structure():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 2.0, 0.0])
    pencil, _ = lf.neumann_pencil([1.0, 2.0, 3.0], x, y)
    assert np.allclose(pencil.coeffs[2], np.diag([1.0, 2.0, 3.0]))
    wedge = np.outer(x, y) - np.outer(y, x)
    assert np.allclose(pencil.coeffs[1], -wedge)
    assert np.allclose(pencil.coeffs[0], -np.outer(y, y))
