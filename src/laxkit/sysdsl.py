"""Parser for the .ivf (integrable vector field) text format.

Line-oriented; sections in any order after `system`:

    system kvm5
    vars x1 x2 x3 x4 x5
    consts A
    eq x1 = x1*(x5 - x2)
    invariant H2 = x1 + x2 + x3 + x4 + x5
    hamiltonian H2
    poisson 1 2 = -x1*x2

`#` starts a comment.  Polynomial expressions use + - * / ^ and
parentheses; `/` is restricted to nonzero rational constant divisors and
`^` to nonnegative integer literals.  Poisson entries are given for the
upper triangle (1-based indices); skew completion is automatic and a
conflicting explicit lower-triangle entry is rejected.  Variables are
flat identifiers (x1, not x_1); periodic index arithmetic is resolved by
the file author.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactalg import MultiPoly


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass
class VectorFieldSystem:
    """Polynomial ODE z' = f(z) with named invariants and optional Poisson
    matrix.  Equations are indexed like `variables`."""
    name: str
    variables: Tuple[str, ...]
    constants: Tuple[str, ...]
    equations: Tuple[MultiPoly, ...]
    invariants: Dict[str, MultiPoly]
    poisson: Optional[List[List[MultiPoly]]] = None
    hamiltonian: Optional[str] = None

    @property
    def dim(self) -> int:
        return len(self.variables)

    def pretty(self) -> str:
        order = list(self.variables) + list(self.constants)
        lines = [f"system {self.name}", "vars " + " ".join(self.variables)]
        if self.constants:
            lines.append("consts " + " ".join(self.constants))
        for v, f in zip(self.variables, self.equations):
            lines.append(f"eq {v} = {f.to_str(order)}")
        for nm, H in self.invariants.items():
            lines.append(f"invariant {nm} = {H.to_str(order)}")
        if self.hamiltonian:
            lines.append(f"hamiltonian {self.hamiltonian}")
        if self.poisson is not None:
            n = self.dim
            for i in range(n):
                for j in range(i + 1, n):
                    if not self.poisson[i][j].is_zero:
                        lines.append(f"poisson {i+1} {j+1} = "
                                     f"{self.poisson[i][j].to_str(order)}")
        return "\n".join(lines) + "\n"


# -- expression parsing ----------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


class _ExprParser:
    def __init__(self, text: str, line: int, symbols: Dict[str, MultiPoly]):
        self.text = text
        self.line = line
        self.symbols = symbols
        self.toks: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                     line, pos + 1)
                break
            if m.group(1):
                self.toks.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.toks.append(("name", m.group(2), m.start(2)))
            else:
                op = "^" if m.group(3) == "**" else m.group(3)
                self.toks.append(("op", op, m.start(3)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", "", len(self.text))

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def _err(self, msg, tok):
        raise ParseError(msg, self.line, tok[2] + 1)

    def parse(self) -> MultiPoly:
        v = self._sum()
        t = self._peek()
        if t[0] != "end":
            self._err(f"unexpected trailing token {t[1]!r}", t)
        return v

    def _sum(self) -> MultiPoly:
        t = self._peek()
        if t[0] == "op" and t[1] == "-":
            self._next()
            v = -self._product()
        elif t[0] == "op" and t[1] == "+":
            self._next()
            v = self._product()
        else:
            v = self._product()
        while True:
            t = self._peek()
            if t[0] == "op" and t[1] in "+-":
                self._next()
                rhs = self._product()
                v = v + rhs if t[1] == "+" else v - rhs
            else:
                return v

    def _product(self) -> MultiPoly:
        v = self._power()
        while True:
            t = self._peek()
            if t[0] == "op" and t[1] in "*/":
                self._next()
                rhs = self._power()
                if t[1] == "*":
                    v = v * rhs
                else:
                    if not rhs.is_constant or rhs.is_zero:
                        self._err("division only by nonzero rational constants", t)
                    v = v / rhs.const_value()
            else:
                return v

    def _power(self) -> MultiPoly:
        base = self._atom()
        t = self._peek()
        if t[0] == "op" and t[1] == "^":
            self._next()
            e = self._peek()
            if e[0] != "num":
                self._err("exponent must be a nonnegative integer literal", e)
            self._next()
            return base ** int(e[1])
        return base

    def _atom(self) -> MultiPoly:
        t = self._next()
        if t[0] == "num":
            return MultiPoly.const(int(t[1]))
        if t[0] == "name":
            if t[1] not in self.symbols:
                self._err(f"undeclared symbol '{t[1]}'", t)
            return self.symbols[t[1]]
        if t[0] == "op" and t[1] == "(":
            v = self._sum()
            t2 = self._next()
            if t2[:2] != ("op", ")"):
                self._err("expected ')'", t2)
            return v
        if t[0] == "op" and t[1] == "-":
            return -self._atom()
        self._err(f"unexpected token {t[1]!r}", t)


def parse_expression(text: str, symbols: Dict[str, MultiPoly], line: int = 1) -> MultiPoly:
    return _ExprParser(text, line, symbols).parse()


# -- file parsing ----------------------------------------------------------

def parse_system(text: str) -> VectorFieldSystem:
    """Parse an .ivf document into a fully resolved VectorFieldSystem."""
    name = None
    variables: List[str] = []
    constants: List[str] = []
    eq_src: Dict[str, Tuple[str, int]] = {}
    inv_src: List[Tuple[str, str, int]] = []
    poisson_src: List[Tuple[int, int, str, int]] = []
    hamiltonian = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "system":
            if not rest:
                raise ParseError("system needs a name", lineno)
            name = rest.split()[0]
        elif head == "vars":
            variables.extend(rest.split())
        elif head == "consts":
            constants.extend(rest.split())
        elif head == "eq":
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                raise ParseError("eq needs '='", lineno)
            v = lhs.strip()
            if v in eq_src:
                raise ParseError(f"duplicate equation for '{v}'", lineno)
            eq_src[v] = (rhs.strip(), lineno)
        elif head == "invariant":
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                raise ParseError("invariant needs '='", lineno)
            inv_src.append((lhs.strip(), rhs.strip(), lineno))
        elif head == "hamiltonian":
            hamiltonian = rest.split()[0] if rest else None
            if hamiltonian is None:
                raise ParseError("hamiltonian needs an invariant name", lineno)
        elif head == "poisson":
            m = re.match(r"(\d+)\s+(\d+)\s*=\s*(.*)$", rest)
            if not m:
                raise ParseError("poisson syntax: poisson I J = expr", lineno)
            poisson_src.append((int(m.group(1)), int(m.group(2)),
                                m.group(3), lineno))
        else:
            raise ParseError(f"unknown section '{head}'", lineno)

    if name is None:
        raise ParseError("missing 'system' line", 1)
    if not variables:
        raise ParseError("missing 'vars' line", 1)
    dup = {v for v in variables if variables.count(v) > 1}
    if dup:
        raise ParseError(f"duplicate variable {dup.pop()!r}", 1)

    symbols = {v: MultiPoly.var(v) for v in variables}
    for c in constants:
        if c in symbols:
            raise ParseError(f"constant '{c}' shadows a variable", 1)
        symbols[c] = MultiPoly.var(c)

    missing = [v for v in variables if v not in eq_src]
    if missing:
        raise ParseError(f"no equation for variable '{missing[0]}'", 1)
    extra = [v for v in eq_src if v not in variables]
    if extra:
        raise ParseError(f"equation for undeclared variable '{extra[0]}'",
                         eq_src[extra[0]][1])

    equations = tuple(parse_expression(eq_src[v][0], symbols, eq_src[v][1])
                      for v in variables)
    invariants: Dict[str, MultiPoly] = {}
    for nm, src, ln in inv_src:
        if nm in invariants:
            raise ParseError(f"duplicate invariant '{nm}'", ln)
        invariants[nm] = parse_expression(src, symbols, ln)
    if hamiltonian is not None and hamiltonian not in invariants:
        raise ParseError(f"hamiltonian '{hamiltonian}' is not a declared invariant", 1)

    poisson = None
    if poisson_src:
        n = len(variables)
        poisson = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
        seen = set()
        for i, j, src, ln in poisson_src:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"poisson index out of range ({i},{j})", ln)
            p = parse_expression(src, symbols, ln)
            if i == j:
                if not p.is_zero:
                    raise ParseError("poisson diagonal entries must be 0", ln)
                continue
            if (i, j) in seen:
                raise ParseError(f"duplicate poisson entry ({i},{j})", ln)
            seen.add((i, j))
            poisson[i - 1][j - 1] = p
        # skew completion from whichever triangle was given; an explicit
        # pair must be consistent
        for i in range(n):
            for j in range(i + 1, n):
                up, lo = poisson[i][j], poisson[j][i]
                if (i + 1, j + 1) in seen and (j + 1, i + 1) in seen:
                    if (up + lo) != MultiPoly.zero():
                        raise ParseError(
                            f"poisson matrix is not skew-symmetric at ({i+1},{j+1})", 1)
                elif (i + 1, j + 1) in seen:
                    poisson[j][i] = -up
                elif (j + 1, i + 1) in seen:
                    poisson[i][j] = -lo

    return VectorFieldSystem(name=name, variables=tuple(variables),
                             constants=tuple(constants), equations=equations,
                             invariants=invariants, poisson=poisson,
                             hamiltonian=hamiltonian)


def parse_system_file(path) -> VectorFieldSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def gradient(H: MultiPoly, variables) -> List[MultiPoly]:
    return [H.diff(v) for v in variables]


def hamiltonian_vector_field(sys: VectorFieldSystem, name: str) -> List[MultiPoly]:
    """J grad(H) for a declared invariant, expanded exactly."""
    if sys.poisson is None:
        raise ValueError("system has no Poisson matrix")
    if name not in sys.invariants:
        raise KeyError(f"unknown invariant '{name}'")
    grad = gradient(sys.invariants[name], sys.variables)
    return [sum((sys.poisson[i][j] * grad[j] for j in range(sys.dim)),
                MultiPoly.zero()) for i in range(sys.dim)]
