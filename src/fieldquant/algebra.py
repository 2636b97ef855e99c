"""Exact symbolic algebra over the noncommuting generators of the problem.

A normal-ordered term is one flat exponent tuple

    (i power, hbar, m, q, E, wc, c, x, y, z, t, px, py, pz, dt) -> Fraction,

canonical by construction, with i^2 folded into the coefficient, so a
conservation statement is decided by structural equality.  Terms keep
``Fraction`` coefficients, while a product, a power, a commutator, a
Heisenberg residual and an adjoint take each operand's terms as integer
numerators over one common denominator, so their inner loops add integers
from operands to result, and divide each output term once.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import lcm, prod
from operator import add

from .config import SystemConfig, require_geometry


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
# the pairs of each 4-bit mask over _PAIRS, bit j for _PAIRS[j]
_CONTRACTING = [()]
for _pair in _PAIRS:
    _CONTRACTING += [pairs + (_pair,) for pairs in _CONTRACTING]


def _key_with(slot: int, power: int):
    return _KEY_ONE[:slot] + (power,) + _KEY_ONE[slot + 1:]


def _accumulate(terms, ka, kb, coeff, budget, pairs, contractions_only=False):
    """Add the integer coeff times (term ka) * (term kb), normal ordered, into
    the integer coefficients ``terms``, and return the number of parts formed,
    one per partial contraction.

    ka = X_a P_a and kb = X_b P_b, so only P_a X_b needs reordering, one
    noncommuting pair at a time, by p^e x^b = sum_k C(e,k) C(b,k) k!
    (-i*hbar)^k x^(b-k) p^(e-k) (+1 for -i*hbar with dt, t), over the
    ``pairs`` that contract (none costs one exponent sum and the i-power fold,
    which takes any i power); a pair with exponents e and b multiplies the
    parts by min(e, b) + 1, and an expansion past ``budget`` parts is refused
    before it is formed.  With ``contractions_only`` the k = 0 term (the plain
    exponent sum, shared by ka*kb and kb*ka) is left out.
    """
    # (exponents, integer weight) per partial contraction; the all-k = 0 entry stays first
    parts = [(list(map(add, ka, kb)), 1)]
    for xs, ps, ihbar in pairs:
        e, b = ka[ps], kb[xs]
        if len(parts) * (min(e, b) + 1) > budget:
            raise _too_large(f"more than {MAX_PRODUCT_PARTS} normal-ordered parts")
        expanded = []
        for exps, w in parts:
            expanded.append((exps, w))
            c = w
            for k in range(1, min(e, b) + 1):
                c = c * (e - k + 1) * (b - k + 1) // k     # w C(e,k) C(b,k) k!
                new = list(exps)
                new[xs] -= k
                new[ps] -= k
                new[0] += 3 * ihbar * k                      # (-i*hbar)^k = i^3k hbar^k
                new[_HBAR] += ihbar * k
                expanded.append((new, c))
        parts = expanded
    for exps, w in parts[contractions_only:]:
        ipow = exps[0]
        if ipow > 1:                                         # i^2 = -1
            exps[0] = ipow % 2
            if ipow % 4 > 1:
                w = -w
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff * w
    return len(parts)


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
        den, a, b = _numerators(self, other)
        return _over(_product(a, b, MAX_PRODUCT_PARTS)[0], den)

    def __pow__(self, n: int) -> "OperatorExpr":
        """n products in integer numerators over d^n (d: self's common denominator),
        divided once; they refuse as n ``*`` would, but share one parts budget."""
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        d, rows = _numerators(self)
        rows, acc, budget = list(rows), {_KEY_ONE: 1}, MAX_PRODUCT_PARTS
        for _ in range(n):
            _refuse_pairs(sum(map(bool, acc.values())), len(rows))
            acc, budget = _product(_masked(acc.items()), rows, budget)
        return _over(acc, d ** n)

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


def _too_large(what: str) -> ValueError:
    return ValueError(f"operator product too large: {what}")


def _refuse_pairs(m, n):
    if m * n > MAX_TERM_PAIRS:
        raise _too_large(f"{m} x {n} term pairs exceed the budget of {MAX_TERM_PAIRS}")


def _numerators(*exprs: OperatorExpr):
    """The product of the operands' common denominators, then per operand its
    ``_masked`` rows over its own: an iterator for the first operand, which
    the outer loop reads once, so its rows are never all held, and a list for
    each other one.  Two operands of more than ``MAX_TERM_PAIRS`` term pairs
    are refused first."""
    if len(exprs) == 2:
        _refuse_pairs(len(exprs[0].terms), len(exprs[1].terms))
    dens = [lcm(*(c.denominator for c in expr.terms.values())) for expr in exprs]
    rows = [_masked(expr.terms.items(), d) for expr, d in zip(exprs, dens)]
    return [prod(dens), rows[0], *map(list, rows[1:])]


def _masked(items, d=1):
    """Nonzero (key, coefficient) items as rows (key, coefficient * d,
    positions, momenta), the masks' bit j set for the x, y, z, t of _PAIRS[j]."""
    for key, c in items:
        if c:
            x, y, z, t, px, py, pz, dt = key[_GEN_BASE:]
            yield (key, c.numerator * (d // c.denominator),
                   (x and 1) | (y and 2) | (z and 4) | (t and 8),
                   (px and 1) | (py and 2) | (pz and 4) | (dt and 8))


def _product(a_rows, b_rows, budget):
    """a*b's integer numerators from masked rows, and what is left of ``budget``."""
    terms = {}
    for ka, na, _, pa in a_rows:
        for kb, nb, xb, _ in b_rows:
            budget -= _accumulate(terms, ka, kb, na * nb, budget, _CONTRACTING[pa & xb])
    return terms, budget


def _contractions(a_rows, b_rows):
    """The integer numerators of a*b - b*a from masked rows.

    ka*kb has contraction terms only where a momentum of ka meets its own
    position in kb, so a pair whose masks share no pair in either order
    contributes nothing and is skipped before its coefficient is formed."""
    terms, budget = {}, MAX_PRODUCT_PARTS
    for ka, na, xa, pa in a_rows:
        for kb, nb, xb, pb in b_rows:
            if ab := pa & xb:
                budget -= _accumulate(terms, ka, kb, na * nb, budget, _CONTRACTING[ab], True)
            if ba := pb & xa:
                budget -= _accumulate(terms, kb, ka, -na * nb, budget, _CONTRACTING[ba], True)
    return terms


def _over(terms: dict, den: int) -> OperatorExpr:
    """The nonzero integer numerators ``terms`` over ``den``."""
    out = OperatorExpr()
    for key, v in terms.items():
        if v:
            out.terms[key] = Fraction(v, den)
    return out


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """a*b - b*a, from the contraction terms of the two orders alone."""
    den, a_rows, b_rows = _numerators(a, b)
    return _over(_contractions(a_rows, b_rows), den)


def _dt_rows(items, den):
    # d/dt of (key, coefficient) items, as integer numerators over den: t^k -> k t^(k-1)
    slot = _GEN_BASE + Gen.T
    for key, c in items:
        if k := key[slot]:
            yield key[:slot] + (k - 1,) + key[slot + 1:], k * c.numerator * (den // c.denominator)


def partial_t(expr: OperatorExpr) -> OperatorExpr:
    """Formal derivative with respect to the explicit-time generator t."""
    den = _numerators(expr)[0]
    return _over(dict(_dt_rows(expr.terms.items(), den)), den)


def heisenberg_residual(f: OperatorExpr, H: OperatorExpr) -> OperatorExpr:
    """(1/(i*hbar)) [f, H] + df/dt; the zero expression iff f is conserved.

    The commutator's loop runs with 1/(i*hbar) = i^3 hbar^-1 on each key of f
    (hbar is key slot 1), df/dt's numerators are added over the same
    denominator, and each term is divided once."""
    if H.contains_generator(Gen.DT):
        raise ValueError("Hamiltonian must be time-local (no dt generator)")
    den, f_rows, h_rows = _numerators(f, H)
    terms = _contractions((((k[0] + 3, k[1] - 1) + k[2:], n, x, p) for k, n, x, p in f_rows),
                          h_rows)
    _refuse_pairs(1, sum(map(bool, terms.values())))   # as the product by 1/(i*hbar) did
    for key, n in _dt_rows(f.terms.items(), den):
        terms[key] = terms.get(key, 0) + n
    return _over(terms, den)


def adjoint(expr: OperatorExpr) -> OperatorExpr:
    """Formal adjoint: reverse words, conjugate i, generators self-adjoint
    except dt, which is anti-self-adjoint (so i*hbar*dt is Hermitian).

    The reversed word of x-part * p-part is p-part * x-part, normal ordered
    by the product kernel."""
    den, rows = _numerators(expr)
    terms, budget = {}, MAX_PRODUCT_PARTS
    for key, n, x, p in rows:
        sign = (-1) ** (key[0] + key[_GEN_BASE + Gen.DT])   # conjugate i; dt^\dagger = -dt
        momenta = key[:_GEN_BASE] + _KEY_ONE[_GEN_BASE:_P_BASE] + key[_P_BASE:]
        positions = _KEY_ONE[:_GEN_BASE] + key[_GEN_BASE:_P_BASE] + _KEY_ONE[_P_BASE:]
        budget -= _accumulate(terms, momenta, positions, sign * n, budget, _CONTRACTING[p & x])
    return _over(terms, den)


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
    require_geometry(cfg, "electric_1d", "hamiltonian_1d")
    kinetic = (gen(Gen.PX) ** 2).scale(Fraction(1, 2)) * sym("m", -1)
    return kinetic - sym("q") * sym("E") * gen(Gen.X)


def hamiltonian_parallel(cfg: SystemConfig) -> OperatorExpr:
    """(px^2 + py^2 + (pz - m*wc*y)^2)/(2m) - q*E*x, fully expanded."""
    require_geometry(cfg, "parallel_eb", "hamiltonian_parallel")
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
        raise ValueError(f"ladder order {j} exceeds depth {depth}")
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
# products and commutators of operands with more term pairs than this are
# refused: the exponent cap alone does not bound the work of a power
MAX_TERM_PAIRS = 20_000
# nor does the pair count bound the work of one pair, which forms one part per
# partial contraction: a product, a commutator, an adjoint or a whole power
# that would form more normal-ordered parts than this is refused
MAX_PRODUCT_PARTS = 100_000


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
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def next(self):
        self.k += 1
        return self.tokens[self.k - 1]

    def take(self, ops):
        # the next token's operator, consumed, if it is one of ops; else ''
        kind, val, _ = self.tokens[self.k]
        if kind == "op" and val in ops:
            self.k += 1
            return val
        return ""

    def parse(self) -> OperatorExpr:
        expr = self.parse_expr()
        kind, val, off = self.tokens[self.k]
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return expr

    def parse_expr(self) -> OperatorExpr:
        sign = self.take("+-")
        out = self.parse_term()
        if sign == "-":
            out = -out
        while sign := self.take("+-"):
            term = self.parse_term()
            out = out - term if sign == "-" else out + term
        return out

    def parse_term(self) -> OperatorExpr:
        out = self.parse_factor()
        while self.take("*"):
            out = out * self.parse_factor()
        return out

    def parse_factor(self) -> OperatorExpr:
        base = self.parse_atom()
        if not self.take("^"):
            return base
        kind, val, off = self.next()
        if kind == "op" and val == "-":
            raise ParseError("negative exponent", off)
        if kind != "number":
            raise ParseError("expected integer exponent", off)
        if val.denominator != 1:
            raise ParseError("exponent must be an integer", off)
        if val > MAX_POWER:
            raise ParseError(f"exponent too large (limit {MAX_POWER})", off)
        return base ** int(val)

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
            if not self.take(")"):
                raise ParseError("expected ')'", self.tokens[self.k][2])
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
