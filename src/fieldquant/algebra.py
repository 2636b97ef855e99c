"""Exact symbolic algebra over the noncommuting generators of the problem.

An ``OperatorExpr`` is a finite sum of terms

    rational coefficient * i^(0|1) * parameter monomial * normal-ordered word,

so conservation statements are decided by exact structural equality and never
hide behind a tolerance.  Symbolic parameters are {hbar, m, q, E, wc, c} with
integer exponents; i^2 is folded into the rational coefficient.

Generators and their canonical order: x < y < z < t < px < py < pz < dt.
Only the pairs (x, px), (y, py), (z, pz) and (t, dt) fail to commute:

    px*x = x*px - i*hbar      (same for y, z pairs)
    dt*t = t*dt + 1

so a normal-ordered word x^a y^b z^c t^d px^e py^f pz^g dt^h is fully given
by its eight exponents.  A term is stored as one flat exponent tuple

    (i power, hbar, m, q, E, wc, c, x, y, z, t, px, py, pz, dt) -> Fraction,

canonical by construction.  The product of two terms is the elementwise
exponent sum plus contraction terms, which factorise over the four pairs
into the one-pair closed form

    p^e x^b = sum_k C(e,k) C(b,k) k! (-i*hbar)^k x^(b-k) p^(e-k)

(with +1 in place of -i*hbar for dt, t).  The k = 0 terms of a*b and b*a are
the same exponent sum, so ``commutator`` forms only the contraction terms of
the two orders, and visits only the term pairs that have one.  ``dt`` is the
formal derivative with respect to explicit time; the energy operator is
i*hbar*dt.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from operator import add

from .config import SystemConfig, ConfigError


class Gen(IntEnum):
    X = 0
    Y = 1
    Z = 2
    T = 3
    PX = 4
    PY = 5
    PZ = 6
    DT = 7


GEN_NAMES = {Gen.X: "x", Gen.Y: "y", Gen.Z: "z", Gen.T: "t",
             Gen.PX: "px", Gen.PY: "py", Gen.PZ: "pz", Gen.DT: "dt"}
NAME_TO_GEN = {v: k for k, v in GEN_NAMES.items()}

PARAMS = ("hbar", "m", "q", "E", "wc", "c")
_PARAM_INDEX = {name: k for k, name in enumerate(PARAMS)}

# term key layout: i power, then PARAMS exponents, then Gen exponents
_HBAR = 1 + _PARAM_INDEX["hbar"]
_GEN_BASE = 1 + len(PARAMS)
_KEY_ONE = (0,) * (_GEN_BASE + len(Gen))
_P_BASE = _GEN_BASE + Gen.PX          # first momentum slot

# noncommuting pairs as (position slot, momentum slot, contraction is -i*hbar)
_PAIRS = tuple((_GEN_BASE + x, _GEN_BASE + p, p != Gen.DT)
               for x, p in ((Gen.X, Gen.PX), (Gen.Y, Gen.PY), (Gen.Z, Gen.PZ), (Gen.T, Gen.DT)))


def _key_with(slot: int, power: int):
    return _KEY_ONE[:slot] + (power,) + _KEY_ONE[slot + 1:]


def _accumulate(terms, ka, kb, coeff, contractions_only=False):
    """Add coeff * (term ka) * (term kb), normal ordered, into ``terms``.

    ka = X_a P_a and kb = X_b P_b, so only P_a X_b needs reordering, one
    noncommuting pair at a time.  With ``contractions_only`` the k = 0 term
    (the plain exponent sum, shared by ka*kb and kb*ka) is left out.
    """
    # (exponents, integer weight) per partial contraction; the all-k = 0 entry stays first
    parts = [(list(map(add, ka, kb)), 1)]
    for xs, ps, ihbar in _PAIRS:
        e, b = ka[ps], kb[xs]
        if not (e and b):
            continue
        expanded = []
        for exps, w in parts:
            expanded.append((exps, w))
            c = 1
            for k in range(1, min(e, b) + 1):
                c = c * (e - k + 1) * (b - k + 1) // k     # C(e,k) C(b,k) k!
                new = list(exps)
                new[xs] -= k
                new[ps] -= k
                if ihbar:                                    # (-i*hbar)^k
                    new[0] += k
                    new[_HBAR] += k
                    expanded.append((new, -c * w if k % 2 else c * w))
                else:
                    expanded.append((new, c * w))
        parts = expanded
    for exps, w in parts[1:] if contractions_only else parts:
        ipow = exps[0]
        if ipow > 1:                                         # i^2 = -1
            exps[0] = ipow % 2
            if ipow % 4 > 1:
                w = -w
        key = tuple(exps)
        c = coeff * w if w != 1 else coeff
        terms[key] = terms[key] + c if key in terms else c


class OperatorExpr:
    """Normal-ordered noncommutative polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    # --- constructors ---

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def one(cls) -> "OperatorExpr":
        return cls({_KEY_ONE: Fraction(1)})

    @classmethod
    def generator(cls, g: Gen) -> "OperatorExpr":
        return cls({_key_with(_GEN_BASE + g, 1): Fraction(1)})

    @classmethod
    def parameter(cls, name: str, power: int = 1) -> "OperatorExpr":
        if name == "i":
            sign = -1 if power % 4 > 1 else 1
            return cls({_key_with(0, power % 2): Fraction(sign)})
        return cls({_key_with(1 + _PARAM_INDEX[name], power): Fraction(1)})

    @classmethod
    def rational(cls, value) -> "OperatorExpr":
        return cls({_KEY_ONE: Fraction(value)})

    # --- ring operations ---

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return OperatorExpr(terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr({k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                _accumulate(terms, ka, kb, ca * cb)
        return OperatorExpr(terms)

    def __pow__(self, n: int) -> "OperatorExpr":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = OperatorExpr.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, value) -> "OperatorExpr":
        c = Fraction(value)
        return OperatorExpr({k: c * v for k, v in self.terms.items()})

    # --- predicates ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def contains_generator(self, g: Gen) -> bool:
        return any(key[_GEN_BASE + g] for key in self.terms)

    def __repr__(self):
        return f"OperatorExpr({to_text(self)!r})"

    def __str__(self):
        return to_text(self)


# module-level generator/parameter shorthands
def gen(g: Gen) -> OperatorExpr:
    return OperatorExpr.generator(g)


def sym(name: str, power: int = 1) -> OperatorExpr:
    return OperatorExpr.parameter(name, power)


IMAG = OperatorExpr.parameter("i")


def _with_pair_masks(expr: OperatorExpr):
    """(key, coeff, positions, momenta) per term; bit j of a mask is set when
    the term carries the position, or the momentum, of ``_PAIRS[j]``."""
    out = []
    for key, coeff in expr.terms.items():
        positions = momenta = 0
        for bit, (xs, ps, _) in enumerate(_PAIRS):
            if key[xs]:
                positions |= 1 << bit
            if key[ps]:
                momenta |= 1 << bit
        out.append((key, coeff, positions, momenta))
    return out


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """a*b - b*a, from the contraction terms of the two orders alone.

    ka*kb has contraction terms only where a momentum of ka meets its own
    position in kb, so a pair whose masks share no pair in either order
    contributes nothing and is skipped before its coefficient is formed."""
    terms = {}
    b_masked = _with_pair_masks(b)
    for ka, ca, xa, pa in _with_pair_masks(a):
        for kb, cb, xb, pb in b_masked:
            ab, ba = pa & xb, pb & xa
            if ab or ba:
                c = ca * cb
                if ab:
                    _accumulate(terms, ka, kb, c, contractions_only=True)
                if ba:
                    _accumulate(terms, kb, ka, -c, contractions_only=True)
    return OperatorExpr(terms)


def partial_t(expr: OperatorExpr) -> OperatorExpr:
    """Formal derivative with respect to the explicit-time generator t."""
    slot = _GEN_BASE + Gen.T
    terms = {}
    for key, coeff in expr.terms.items():
        k = key[slot]
        if k:
            terms[key[:slot] + (k - 1,) + key[slot + 1:]] = k * coeff
    return OperatorExpr(terms)


def heisenberg_residual(f: OperatorExpr, H: OperatorExpr) -> OperatorExpr:
    """(1/(i*hbar)) [f, H] + df/dt; the zero expression iff f is conserved."""
    if H.contains_generator(Gen.DT):
        raise ValueError("Hamiltonian must be time-local (no dt generator)")
    inv_ihbar = OperatorExpr.parameter("hbar", -1) * IMAG.scale(-1)  # 1/(i*hbar) = -i/hbar
    return inv_ihbar * commutator(f, H) + partial_t(f)


def adjoint(expr: OperatorExpr) -> OperatorExpr:
    """Formal adjoint: reverse words, conjugate i, generators self-adjoint
    except dt, which is anti-self-adjoint (so i*hbar*dt is Hermitian).

    The reversed word of x-part * p-part is p-part * x-part, normal ordered
    by the product kernel."""
    terms = {}
    for key, coeff in expr.terms.items():
        sign = -1 if key[0] == 1 else 1                # conjugate i
        if key[_GEN_BASE + Gen.DT] % 2 == 1:           # dt^\dagger = -dt
            sign = -sign
        momenta = key[:_GEN_BASE] + _KEY_ONE[_GEN_BASE:_P_BASE] + key[_P_BASE:]
        positions = _KEY_ONE[:_GEN_BASE] + key[_GEN_BASE:_P_BASE] + _KEY_ONE[_P_BASE:]
        _accumulate(terms, momenta, positions, sign * coeff)
    return OperatorExpr(terms)


# --- named operators of the two systems ---

def momentum_minus_force_time() -> OperatorExpr:
    """px - q*E*t, the conserved linear-potential momentum."""
    return gen(Gen.PX) - sym("q") * sym("E") * gen(Gen.T)


def energy_operator() -> OperatorExpr:
    """i*hbar*dt."""
    return IMAG * sym("hbar") * gen(Gen.DT)


def gauge_momentum_y() -> OperatorExpr:
    """py - m*wc*z, conserved in the parallel-field geometry."""
    return gen(Gen.PY) - sym("m") * sym("wc") * gen(Gen.Z)


def momentum_z() -> OperatorExpr:
    return gen(Gen.PZ)


def hamiltonian_1d(cfg: SystemConfig) -> OperatorExpr:
    """px^2/(2m) - q*E*x for the one-dimensional constant-force system."""
    if cfg.geometry != "electric_1d":
        raise ConfigError("geometry", "hamiltonian_1d requires geometry electric_1d")
    kinetic = (gen(Gen.PX) ** 2).scale(Fraction(1, 2)) * sym("m", -1)
    return kinetic - sym("q") * sym("E") * gen(Gen.X)


def hamiltonian_parallel(cfg: SystemConfig) -> OperatorExpr:
    """(px^2 + py^2 + (pz - m*wc*y)^2)/(2m) - q*E*x, fully expanded."""
    if cfg.geometry != "parallel_eb":
        raise ConfigError("geometry", "hamiltonian_parallel requires geometry parallel_eb")
    half_inv_m = OperatorExpr.rational(Fraction(1, 2)) * sym("m", -1)
    gauge = gen(Gen.PZ) - sym("m") * sym("wc") * gen(Gen.Y)
    kinetic = half_inv_m * (gen(Gen.PX) ** 2 + gen(Gen.PY) ** 2 + gauge * gauge)
    return kinetic - sym("q") * sym("E") * gen(Gen.X)


def system_hamiltonian(cfg: SystemConfig) -> OperatorExpr:
    if cfg.hamiltonian_override is not None:
        return parse_operator(cfg.hamiltonian_override)
    if cfg.geometry == "electric_1d":
        return hamiltonian_1d(cfg)
    return hamiltonian_parallel(cfg)


def conserved_operators(cfg: SystemConfig) -> dict[str, OperatorExpr]:
    """The conserved operators claimed for the configured geometry."""
    if cfg.geometry == "electric_1d":
        return {
            "px - q*E*t": momentum_minus_force_time(),
            "i*hbar*dt": energy_operator(),
        }
    return {
        "px - q*E*t": momentum_minus_force_time(),
        "py - m*wc*z": gauge_momentum_y(),
        "pz": momentum_z(),
        "i*hbar*dt": energy_operator(),
    }


def eigen_ladder_check(j: int, depth: int = 6) -> OperatorExpr:
    """Residual of [f, E^(j+1)] = i*hbar*q*E*(j+1)*E^j; zero iff the ladder
    commutation identity holds at order j."""
    if j > depth:
        raise ValueError(f"ladder order {j} exceeds configured depth {depth}")
    f = momentum_minus_force_time()
    e_op = energy_operator()
    lhs = commutator(f, e_op ** (j + 1))
    rhs = (IMAG * sym("hbar") * sym("q") * sym("E") * (e_op ** j)).scale(j + 1)
    return lhs - rhs


# --- text form -----------------------------------------------------------

class ParseError(ValueError):
    """Syntax error in operator text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_ATOM_NAMES = dict(NAME_TO_GEN)

# parentheses deeper than this are refused; each level costs the recursive
# descent four stack frames, so the limit stays well inside Python's default
MAX_NESTING = 100
# exponents above this are refused: a power is that many exact products
MAX_POWER = 1000


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            num = int(text[start:pos])
            den = 1
            if pos < n and text[pos] == "/" and pos + 1 < n and text[pos + 1].isdigit():
                pos += 1
                dstart = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                den = int(text[dstart:pos])
                if den == 0:
                    raise ParseError("zero denominator", dstart)
            tokens.append(("number", Fraction(num, den), start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.next()

    def parse(self) -> OperatorExpr:
        expr = self.parse_expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return expr

    def parse_expr(self) -> OperatorExpr:
        kind, val, off = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        out = self.parse_term()
        if negate:
            out = -out
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.parse_term()
                out = out - term if val == "-" else out + term
            else:
                return out

    def parse_term(self) -> OperatorExpr:
        out = self.parse_factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> OperatorExpr:
        base = self.parse_atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, off = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponent", off)
            if kind != "number":
                raise ParseError("expected integer exponent", off)
            self.next()
            if val.denominator != 1:
                raise ParseError("exponent must be an integer", off)
            if val > MAX_POWER:
                raise ParseError(f"exponent too large (limit {MAX_POWER})", off)
            return base ** int(val)
        return base

    def parse_atom(self) -> OperatorExpr:
        kind, val, off = self.next()
        if kind == "number":
            return OperatorExpr.rational(val)
        if kind == "name":
            if val in _ATOM_NAMES:
                return OperatorExpr.generator(_ATOM_NAMES[val])
            if val in _PARAM_INDEX or val == "i":
                return OperatorExpr.parameter(val)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nested too deeply (limit {MAX_NESTING})", off)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}", off)


def parse_operator(text: str) -> OperatorExpr:
    """Parse operator text over atoms {x,y,z,t,px,py,pz,dt,hbar,m,q,E,wc,c,i}
    and rational literals, with operators + - * ^ and parentheses nested at
    most ``MAX_NESTING`` deep; an exponent is an integer up to ``MAX_POWER``."""
    return _Parser(text).parse()


def _format_term(key, coeff: Fraction) -> str:
    parts = []
    mag = abs(coeff)
    if mag != 1 or key == _KEY_ONE:
        parts.append(str(mag))
    if key[0] == 1:
        parts.append("i")
    for name, exp in zip(PARAMS + tuple(GEN_NAMES.values()), key[1:]):
        if exp == 1:
            parts.append(name)
        elif exp != 0:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def _text_order(key):
    # terms print by their expanded word, then i power, then parameter exponents
    word = tuple(g for g in Gen for _ in range(key[_GEN_BASE + g]))
    return len(word), word, key[0], key[1:_GEN_BASE]


def to_text(expr: OperatorExpr) -> str:
    """Canonical normal-ordered text form.

    Reparses to the same expression whenever every parameter exponent is
    nonnegative; negative exponents (e.g. 1/m in a Hamiltonian built
    programmatically) print as name^-k for display only, since the grammar
    has no division.
    """
    if expr.is_zero:
        return "0"
    out = []
    for key in sorted(expr.terms, key=_text_order):
        coeff = expr.terms[key]
        body = _format_term(key, coeff)
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)
