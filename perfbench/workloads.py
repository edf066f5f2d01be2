"""Seeded job lists for the laxkit benchmark, and the checks on each job's output.

A job is one `laxkit.cli.main(argv)` call (plus, on `jacobi`, the exact
Padé-vs-moments agreement of acceptance check 8).  The generators below turn a
workload seed into argv lists; laxkit only ever sees those argv lists.  Every
job's output is checked after the job, outside its timed region.

Workloads (names are stable; later changes are measured against them):

painleve  `laxkit painleve --builtin X` for henon-heiles, rdg, rdg5, hh5, kvm at
          their default orders, plus henon-heiles at order 24 and rdg at order
          12 (with its constraint curves).  All inputs are fixed; the seed only
          shuffles the job order.  Exact multivariate arithmetic does the work.
lax-flow  `laxkit flow` for toda-periodic (N=3, N=6), euler-arnold (N=4),
          neumann (N=4) and kvm, 1000 RK4 steps each.  The seed draws each
          job's `--seed`, so the initial states differ per seed while the step
          count, and so the work, does not.  Float pencil arithmetic dominates.
jacobi    `laxkit jacobi --check-stieltjes --toda-t-end 1` for periods 2..7 at
          denominator heights 3 and 8, plus the period-3 input that hangs in
          `rational_roots` today.  Each (period, height) slot has one base
          matrix; the seed picks a member of its spectral-symmetry orbit
          (cyclic shift, reversal, b -> -b) and the job order.  The symmetries
          leave the Floquet discriminant unchanged up to z -> -z, so every seed
          does the same exact root isolation while the reports, atoms and
          lattice flows differ.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


class WrongOutput(Exception):
    """A job finished but its output failed a check."""


# Per-job time limits, set well clear of every finishing job so that
# failed_ratio repeats exactly.  The slowest painleve / lax-flow job takes
# about 3 s here.  Exact root isolation grows with the period, so a jacobi
# job gets 2.5 s per site, and at least 10 s: the slowest finishing one
# (N=7, height 8) took 5-8 s against 17.5 s, N=3 jobs under 1 s against
# 10 s.  Only the item-4 input reaches its limit; the floor keeps it above
# the N=7 job, so job_s.p90 reads that job's time rather than the limit.
LIMIT_S = 15.0
JACOBI_LIMIT_S = 10.0
JACOBI_LIMIT_PER_SITE_S = 2.5


@dataclass
class Job:
    key: str
    argv: List[str]
    check: Callable[[Path], None]
    limit_s: float = LIMIT_S
    # extra timed work run after the CLI call; returns False on a wrong result
    extra: Optional[Callable[[], bool]] = None


# ---------------------------------------------------------------------------
# painleve
# ---------------------------------------------------------------------------

PAINLEVE_JOBS = [("henon-heiles", None), ("rdg", None), ("rdg5", None),
                 ("hh5", None), ("kvm", None),
                 ("henon-heiles", 24), ("rdg", 12)]


def painleve_jobs(seed: int) -> List[Job]:
    jobs = []
    for name, order in PAINLEVE_JOBS:
        argv = ["painleve", "--builtin", name]
        if order is not None:
            argv += ["--order", str(order)]
        key = " ".join(argv[2:])
        jobs.append(Job(key, argv, _painleve_check(name, key)))
    random.Random(f"painleve:{seed}").shuffle(jobs)
    return jobs


def _parse(text: str):
    from laxkit.exactalg import MultiPoly
    from laxkit.sysdsl import parse_expression
    names = ["alpha", "beta", "gamma", "theta", "u", "v", "w", "A",
             "b1", "b2", "c1", "c2", "c3", "eps"]
    return parse_expression(text, {n: MultiPoly.var(n) for n in names})


def _check_golden_series(balance, golden, eps):
    from laxkit.exactalg import MultiPoly
    sub = {} if eps is None else {"eps": MultiPoly.const(eps)}
    for var, table in golden.items():
        got = balance["series"][var]
        for exp, want in table.items():
            # reports leave out zero coefficients
            if _parse(got.get(exp, "0")) != _parse(want).subs(sub):
                raise WrongOutput(f"{var}@t^{exp}: got {got.get(exp)}, want {want}")


def _painleve_check(name: str, key: str):
    def check(out: Path):
        from laxkit import acceptance as acc
        (path,) = out.glob("painleve_*.json")
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != DIGESTS["painleve"][key]:
            raise WrongOutput(f"report digest {digest[:12]} differs from the "
                              "one recorded at the seed commit")
        report = json.loads(raw)
        bals = report["balances"]
        goldens = {"henon-heiles": (acc.GOLDEN_HH, acc.GOLDEN_CURVE_HH, 1),
                   "rdg": (acc.GOLDEN_RDG, acc.GOLDEN_CURVE_RDG, 2),
                   "rdg5": (acc.GOLDEN_RDG5, acc.GOLDEN_CURVE_RDG5, 2)}
        if name in goldens:
            series, curve, count = goldens[name]
            if len(bals) != count:
                raise WrongOutput(f"{len(bals)} principal balances, want {count}")
            for bal in bals:
                eps = {"eps=+1": 1, "eps=-1": -1}.get(bal["label"])
                _check_golden_series(bal, series, eps)
                if _parse(bal["constraint"]["curve"]) != _parse(curve).primitive():
                    raise WrongOutput(f"{bal['label']}: constraint curve differs")
        elif name == "kvm":
            counts = [(b["parameter_count"]["explicit"],
                       b["parameter_count"]["with_time_origin"]) for b in bals]
            if counts != [(3, 4)] * 5:
                raise WrongOutput(f"kvm parameter counts {counts}")
    return check


# ---------------------------------------------------------------------------
# lax-flow
# ---------------------------------------------------------------------------

# (builtin, N, --tol).  The Neumann drift at dt=1e-3 depends on the random
# initial velocity: over 250 seeds its median is 5e-9 and its maximum 4e-7,
# and it passed 1e-8 on 10 of the first 30, so its gate is 1e-5.  The others
# stayed below 2e-10 over 30 seeds and keep the CLI's default 1e-8.
FLOW_JOBS = [("toda-periodic", 3, 1e-8), ("toda-periodic", 6, 1e-8),
             ("euler-arnold", 4, 1e-8), ("neumann", 4, 1e-5), ("kvm", None, 1e-8)]
FLOW_T_END, FLOW_DT = 1.0, 1e-3


def lax_flow_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"lax-flow:{seed}")
    jobs = []
    for name, n, tol in FLOW_JOBS:
        argv = ["flow", "--builtin", name]
        if n is not None:
            argv += ["-N", str(n)]
        argv += ["--t-end", repr(FLOW_T_END), "--dt", repr(FLOW_DT),
                 "--tol", repr(tol), "--seed", str(rng.randrange(2 ** 31))]
        jobs.append(Job(" ".join(argv[1:]), argv, _flow_check(name, n, tol)))
    rng.shuffle(jobs)
    return jobs


def _flow_check(name: str, n: Optional[int], tol: float):
    def check(out: Path):
        summary = json.loads((out / f"flow_{name}.json").read_text())
        with open(out / f"flow_{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], [[float(x) for x in r] for r in rows[1:]]
        if summary.get("pass") is not True:
            raise WrongOutput("report says pass: false")
        drifts = (list(summary["invariant_drift"].values()) if name == "kvm"
                  else [summary["trace_drift"]] + ([summary["curve_drift"]]
                                                  if "curve_drift" in summary else []))
        if not all(0.0 <= d < tol for d in drifts):
            raise WrongOutput(f"drift {max(drifts):.3e} not below {tol}")
        if body[-1][0] != FLOW_T_END:
            raise WrongOutput(f"trajectory ends at t={body[-1][0]!r}, not {FLOW_T_END}")
        first, last = body[0], body[-1]
        # columns that are exact invariants of the flow
        if name == "toda-periodic":
            cols = [[header.index(f"b{j + 1}") for j in range(n)]]
        elif name == "euler-arnold":
            cols = [[header.index("tr_X2")]]
        elif name == "kvm":
            cols = [[header.index(h)] for h in summary["invariant_drift"]]
        else:
            cols = []
        for c in cols:
            d = abs(sum(last[i] for i in c) - sum(first[i] for i in c))
            if not d < tol:
                raise WrongOutput(f"csv invariant {header[c[0]]} drifts by {d:.3e}")
        if name == "neumann" and len(summary["branch_points"]) != 2 * n - 1:
            raise WrongOutput("wrong number of finite branch points")
    return check


# ---------------------------------------------------------------------------
# jacobi
# ---------------------------------------------------------------------------

# Base matrices per (period, height): numerators over the height, drawn once
# with random.Random(1000 * period + height) -- a_j coprime to the height in
# (height/2, 2 height], b_j coprime to it (or 0) in [-height, height].
JACOBI_BASES = {
    (2, 3): ([2, 5], [2, -1]),
    (2, 8): ([7, 13], [3, -5]),
    (3, 3): ([5, 4, 5], [-1, 0, 2]),
    (3, 8): ([9, 11, 5], [-3, 3, -5]),
    (4, 3): ([5, 2, 2, 2], [-2, -2, 2, 2]),
    (4, 8): ([13, 5, 15, 9], [1, -5, -7, 5]),
    (5, 3): ([2, 5, 4, 4, 5], [1, 2, 2, 1, 2]),
    (5, 8): ([5, 13, 7, 15, 9], [-1, 1, -7, 3, -3]),
    (6, 3): ([4, 4, 5, 5, 4, 2], [1, 0, 1, -2, -2, -2]),
    (6, 8): ([7, 11, 9, 9, 15, 7], [0, -1, -5, 3, -1, 5]),
    (7, 3): ([5, 2, 5, 4, 2, 4, 4], [0, -1, 2, -1, 0, -2, 0]),
    (7, 8): ([9, 15, 9, 13, 9, 15, 11], [-5, -3, -1, -3, -7, -1, -5]),
}

# ROADMAP item 4: trial division in rational_roots hangs on this input.
_F = Fraction
HANG_INPUT = ([_F(7, 13), _F(7, 13) + _F(1, 97), _F(7, 13) + _F(2, 97)],
              [_F(-1, 3), _F(1, 11) - _F(1, 3), _F(2, 11) - _F(1, 3)])

JACOBI_T_END, JACOBI_TOL = 1.0, 1e-6


def orbit_member(a: List[Fraction], b: List[Fraction], shift: int,
                 reverse: bool, negate: bool):
    """A periodic Jacobi matrix with the same Floquet discriminant (up to
    z -> -z): cyclic shift of the sites, reversal, and b -> -b."""
    n = len(a)
    a = a[shift:] + a[:shift]
    b = b[shift:] + b[:shift]
    if reverse:
        # site j -> n+1-j: a_j couples j, j+1, so a'_j = a_{n-j}; a_n stays
        a = list(reversed(a[:-1])) + [a[-1]]
        b = list(reversed(b))
    if negate:
        b = [-x for x in b]
    return a, b


def jacobi_jobs(seed: int) -> List[Job]:
    rng = random.Random(f"jacobi:{seed}")
    jobs = []
    for (n, den), (pa, pb) in JACOBI_BASES.items():
        a0 = [Fraction(p, den) for p in pa]
        b0 = [Fraction(q, den) for q in pb]
        a, b = orbit_member(a0, b0, rng.randrange(n), rng.random() < 0.5,
                            rng.random() < 0.5)
        jobs.append(_jacobi_job(f"N={n} height={den}", a, b))
    jobs.append(_jacobi_job("N=3 item-4 input", *HANG_INPUT))
    rng.shuffle(jobs)
    return jobs


def _jacobi_job(label: str, a: List[Fraction], b: List[Fraction]) -> Job:
    argv = ["jacobi", "-a=" + ",".join(map(str, a)), "-b=" + ",".join(map(str, b)),
            "--check-stieltjes", "--toda-t-end", repr(JACOBI_T_END),
            "--tol", repr(JACOBI_TOL)]

    def pade_agrees() -> bool:
        # acceptance check 8: Padé convergents reproduce 2k moments exactly
        from laxkit import jacobispec as js
        mom = js.moments(a, b, a[-1], 10)
        return all(js.pade_series(a, b, a[-1], k, 2 * k) == mom[:2 * k]
                   for k in range(1, 6))

    return Job(label, argv, _jacobi_check(a, b),
               limit_s=max(JACOBI_LIMIT_S, JACOBI_LIMIT_PER_SITE_S * len(a)),
               extra=pade_agrees)


def floquet_discriminant(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """alpha * trace of the transfer-matrix product, ascending in z: the monic
    P with P(z) = alpha (h + 1/h) on the spectral curve.  Computed here from
    the transfer matrices, independently of laxkit's determinant expansion."""
    def mul(p, q):
        r = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                r[i + j] += x * y
        return r

    def add(p, q):
        n = max(len(p), len(q))
        return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                for i in range(n)]

    M = [[[Fraction(1)], [Fraction(0)]], [[Fraction(0)], [Fraction(1)]]]
    for j in range(len(a)):
        T = [[[-b[j] / a[j], 1 / a[j]], [-a[j - 1] / a[j]]],
             [[Fraction(1)], [Fraction(0)]]]
        M = [[add(mul(T[i][0], M[0][k]), mul(T[i][1], M[1][k])) for k in range(2)]
             for i in range(2)]
    alpha = math.prod(a)
    return [c * alpha for c in add(M[0][0], M[1][1])]


def _tridiag(diag, off) -> np.ndarray:
    A = np.diag([float(x) for x in diag])
    for j, x in enumerate(off):
        A[j, j + 1] = A[j + 1, j] = float(x)
    return A


def _periodic_eigs(a, b, h: int) -> np.ndarray:
    """Eigenvalues of A(h) at h = +-1, where P(z) = +-2 alpha."""
    A = _tridiag(b, a[:-1])
    A[-1, 0] += h * float(a[-1])
    A[0, -1] += h * float(a[-1])
    return np.linalg.eigvalsh(A)


def _close(got, want, tol=1e-8) -> bool:
    return len(got) == len(want) and all(
        abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(got, want))


def _jacobi_check(a: List[Fraction], b: List[Fraction]):
    def check(out: Path):
        rep = json.loads((out / "jacobi_report.json").read_text())
        if rep["a"] != [str(x) for x in a] or rep["b"] != [str(x) for x in b]:
            raise WrongOutput("report echoes different input data")
        if [Fraction(c) for c in rep["P_ascending"]] != floquet_discriminant(a, b):
            raise WrongOutput("Floquet polynomial differs from the transfer-matrix trace")
        edges = sorted(x for x, m in rep["branch_points"] for _ in range(m))
        want = sorted(np.concatenate([_periodic_eigs(a, b, 1),
                                      _periodic_eigs(a, b, -1)]))
        if not _close(edges, want):
            raise WrongOutput("branch points differ from the (anti)periodic eigenvalues")
        block = _tridiag(b[:-1], a[:-2])
        if not _close(sorted(rep["auxiliary_spectrum"]), np.linalg.eigvalsh(block)):
            raise WrongOutput("auxiliary spectrum differs from the truncated block")
        if rep["interlacing_ok"] is not True:
            raise WrongOutput("auxiliary spectrum does not interlace the gaps")
        # held to the job's --tol like the Stieltjes check: acceptance check 8
        # uses 1e-8 on its data, but the quadrature misses a0^2 by 7.3e-8 on
        # four orbit members of the N=3 height-8 base
        a0 = float(a[-1])
        if not abs(rep["total_mass"] - a0 * a0) < JACOBI_TOL:
            raise WrongOutput(f"total mass {rep['total_mass']!r} != a0^2")
        st = rep["stieltjes_check"]
        if st["pass"] is not True or not st["max_error"] < JACOBI_TOL:
            raise WrongOutput(f"Stieltjes check failed: {st['max_error']:.3e}")
        toda = rep["toda"]
        if toda["interlacing_ok"] is not True:
            raise WrongOutput("interlacing lost along the lattice flow")
        with open(out / "jacobi_toda.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if float(rows[-1][0]) != JACOBI_T_END:
            raise WrongOutput(f"lattice flow ends at t={rows[-1][0]}, not {JACOBI_T_END}")
    return check


GENERATORS = {"painleve": painleve_jobs, "lax-flow": lax_flow_jobs,
              "jacobi": jacobi_jobs}
