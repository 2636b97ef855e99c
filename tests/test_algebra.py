"""Exact symbolic algebra: normal ordering, conservation, ladders, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fieldquant import algebra as A
from fieldquant.algebra import Gen, OperatorExpr, gen, sym, IMAG
from fieldquant.config import natural_config

CFG_1D = natural_config()
CFG_PAR = natural_config(B=1.0, geometry="parallel_eb")

X, T, PX, DT = gen(Gen.X), gen(Gen.T), gen(Gen.PX), gen(Gen.DT)
IHBAR = IMAG * sym("hbar")


def _key(ipow=0, params=(0,) * len(A.PARAMS), word=()):
    """Term key in the storage layout: i power, PARAMS exponents, Gen exponents."""
    return (ipow,) + tuple(params) + tuple(word.count(g) for g in Gen)


def _split_key(key):
    """(i power, parameter exponents, normal-ordered word) of a term key."""
    n = len(A.PARAMS)
    return key[0], key[1:1 + n], tuple(g for g in Gen for _ in range(key[1 + n + g]))


# --- reference rewriter ------------------------------------------------------------
# The stack rewriter the library used before its closed-form product kernel.  It
# applies the defining relations one adjacent swap at a time, so it is slow but
# independent of the kernel, and serves as the oracle for products of words.

_MONO_ONE = (0, (0,) * len(A.PARAMS))
_MONO_IHBAR = (1, (1, 0, 0, 0, 0, 0))
_CANON_PAIR = {Gen.PX: Gen.X, Gen.PY: Gen.Y, Gen.PZ: Gen.Z}


def _mono_mul(a, b):
    """Product of two (i power, parameter exponents) monomials; (sign, monomial)."""
    ipow = a[0] + b[0]
    sign = 1
    if ipow >= 2:       # i^2 = -1
        ipow -= 2
        sign = -1
    return sign, (ipow, tuple(x + y for x, y in zip(a[1], b[1])))


def _normalize_word(word):
    """Rewrite a generator word into canonical order.

    Returns a dict {(monomial, sorted_word): Fraction} equal to the input
    word as an operator.
    """
    out = {}
    stack = [(Fraction(1), _MONO_ONE, tuple(word))]
    while stack:
        coeff, mono, w = stack.pop()
        # find the first out-of-order adjacent pair
        k = -1
        for j in range(len(w) - 1):
            if w[j] > w[j + 1]:
                k = j
                break
        if k < 0:
            key = (mono, w)
            out[key] = out.get(key, Fraction(0)) + coeff
            continue
        a, b = w[k], w[k + 1]
        swapped = w[:k] + (b, a) + w[k + 2:]
        if a in _CANON_PAIR and _CANON_PAIR[a] == b:
            # p*x = x*p - i*hbar
            stack.append((coeff, mono, swapped))
            sign, mono2 = _mono_mul(mono, _MONO_IHBAR)
            stack.append((-sign * coeff, mono2, w[:k] + w[k + 2:]))
        elif a == Gen.DT and b == Gen.T:
            # dt*t = t*dt + 1
            stack.append((coeff, mono, swapped))
            stack.append((coeff, mono, w[:k] + w[k + 2:]))
        else:
            stack.append((coeff, mono, swapped))
    return {k: v for k, v in out.items() if v != 0}


def _reference(word):
    """The word as an expression, normal ordered by the reference rewriter."""
    return OperatorExpr({_key(mono[0], mono[1], w): c
                         for (mono, w), c in _normalize_word(word).items()})


def _word_expr(word):
    expr = OperatorExpr.one()
    for g in word:
        expr = expr * gen(g)
    return expr


@given(st.lists(st.sampled_from(list(Gen)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_product_and_adjoint_match_reference_rewriting(word):
    product = _word_expr(word)
    assert product == _reference(word)
    sign = -1 if word.count(Gen.DT) % 2 else 1      # dt is anti-self-adjoint
    assert A.adjoint(product) == _reference(tuple(reversed(word))).scale(sign)


# --- normal ordering ----------------------------------------------------------

def test_px_x_reorders_with_commutator():
    assert PX * X == X * PX - IHBAR


def test_x_px_is_fixed_point():
    expr = X * PX
    assert list(expr.terms) == [_key(word=(Gen.X, Gen.PX))]


def test_canonical_commutators():
    assert A.commutator(X, PX) == IHBAR
    assert A.commutator(gen(Gen.Y), gen(Gen.PY)) == IHBAR
    assert A.commutator(gen(Gen.Z), gen(Gen.PZ)) == IHBAR
    assert A.commutator(DT, T) == OperatorExpr.one()
    assert A.commutator(X, gen(Gen.PY)).is_zero
    assert A.commutator(X, T).is_zero


def test_x_px_eighth_power_squared():
    square = (X * PX) ** 8 * (X * PX) ** 8
    assert square == (X * PX) ** 16
    assert len(square.terms) == 16


def test_dt_t_squared():
    # dt t^2 = t^2 dt + 2 t
    assert DT * T * T == T * T * DT + T.scale(2)


def _apply_word_to_t_poly(word, coeffs):
    """Oracle: act with a word over {t, dt} on a polynomial in t.

    coeffs[k] multiplies t^k; generators act right to left.
    """
    poly = list(coeffs)
    for g in reversed(word):
        if g == Gen.T:
            poly = [0] + poly
        elif g == Gen.DT:
            poly = [k * poly[k] for k in range(1, len(poly))] or [0]
        else:
            raise AssertionError("oracle only handles t and dt")
    return poly


def _expr_applied_to_t_poly(expr, coeffs):
    out = [0] * 16
    for key, coeff in expr.terms.items():
        ipow, params, word = _split_key(key)
        assert ipow == 0 and not any(params), "oracle is parameter-free"
        part = _apply_word_to_t_poly(word, coeffs)
        for k, c in enumerate(part):
            out[k] += coeff * c
    return out


def test_dt_t_squared_against_polynomial_action():
    # acting on t^3: d/dt (t^2 * t^3) = 5 t^4
    lhs = _expr_applied_to_t_poly(DT * T * T, [0, 0, 0, 1])
    assert lhs == _expr_applied_to_t_poly(T * T * DT + T.scale(2), [0, 0, 0, 1])
    assert lhs[4] == 5 and sum(map(abs, lhs)) == 5


@given(st.lists(st.sampled_from([Gen.T, Gen.DT]), min_size=0, max_size=5),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_normal_ordering_preserves_action_on_polynomials(word, coeffs):
    raw = _word_expr(word)
    got = _expr_applied_to_t_poly(raw, coeffs)
    want = _apply_word_to_t_poly(word, coeffs)
    want = want + [0] * (len(got) - len(want))
    assert got == want


# --- derivatives and conservation ----------------------------------------------

def test_partial_t_of_conserved_momentum():
    f = A.momentum_minus_force_time()
    assert A.partial_t(f) == -(sym("q") * sym("E"))
    assert A.partial_t(PX).is_zero


def test_partial_t_quadratic():
    # d/dt (q^2 E^2 t^2 / 2m) = q^2 E^2 t / m
    expr = (sym("q", 2) * sym("E", 2) * T * T).scale(Fraction(1, 2)) * sym("m", -1)
    expected = sym("q", 2) * sym("E", 2) * sym("m", -1) * T
    assert A.partial_t(expr) == expected


CONSERVED_PAIRS = [
    ("f under H_1d", A.momentum_minus_force_time(), A.hamiltonian_1d(CFG_1D)),
    ("E under H_1d", A.energy_operator(), A.hamiltonian_1d(CFG_1D)),
    ("pi_x under H_par", A.momentum_minus_force_time(), A.hamiltonian_parallel(CFG_PAR)),
    ("pi_y under H_par", A.gauge_momentum_y(), A.hamiltonian_parallel(CFG_PAR)),
    ("pi_z under H_par", A.momentum_z(), A.hamiltonian_parallel(CFG_PAR)),
    ("E under H_par", A.energy_operator(), A.hamiltonian_parallel(CFG_PAR)),
]


@pytest.mark.parametrize("label, op, ham", CONSERVED_PAIRS, ids=[p[0] for p in CONSERVED_PAIRS])
def test_heisenberg_residual_exactly_zero(label, op, ham):
    assert A.heisenberg_residual(op, ham).is_zero


def test_residual_of_conserved_products_is_zero():
    # the residual is a derivation, so products of conserved operators are conserved
    f, e_op = A.momentum_minus_force_time(), A.energy_operator()
    h = A.hamiltonian_parallel(CFG_PAR)
    for k in range(5):
        for l in range(5):
            assert A.heisenberg_residual(f ** k * e_op ** l, h).is_zero, (k, l)


def _contracting_orders(ka, kb):
    """Orders (ka*kb, kb*ka) of a term pair that have a contraction term."""
    def meets(left, right):
        return any(left[ps] and right[xs] for xs, ps, _ in A._PAIRS)
    return meets(ka, kb) + meets(kb, ka)


def test_commutator_visits_only_pairs_that_contract(monkeypatch):
    # P is a combination of the parallel-field conserved operators with
    # nonzero rational coefficients, as in the symbolic benchmark
    ops = (A.momentum_minus_force_time(), A.gauge_momentum_y(), A.momentum_z(),
           A.energy_operator())
    poly = OperatorExpr.zero()
    for c, op in zip((Fraction(3, 7), Fraction(-2, 5), Fraction(5, 3), Fraction(-1, 9)), ops):
        poly = poly + op.scale(c)
    a, h = poly ** 5, A.hamiltonian_parallel(CFG_PAR)
    contracting = sum(_contracting_orders(ka, kb) for ka in a.terms for kb in h.terms)
    assert (contracting, 2 * len(a.terms) * len(h.terms)) == (855, 4584)
    calls = []
    accumulate = A._accumulate
    monkeypatch.setattr(A, "_accumulate",
                        lambda *args, **kw: calls.append(1) or accumulate(*args, **kw))
    result = A.commutator(a, h)
    monkeypatch.undo()
    assert len(calls) <= contracting
    assert result == a * h - h * a


def test_bare_momentum_is_not_conserved():
    residual = A.heisenberg_residual(PX, A.hamiltonian_1d(CFG_1D))
    assert residual == sym("q") * sym("E")


def test_residual_rejects_time_nonlocal_hamiltonian():
    with pytest.raises(ValueError, match="time-local"):
        A.heisenberg_residual(PX, A.energy_operator())


def test_hamiltonian_1d_structure():
    h = A.hamiltonian_1d(CFG_1D)
    expected = (PX * PX).scale(Fraction(1, 2)) * sym("m", -1) - sym("q") * sym("E") * X
    assert h == expected
    with pytest.raises(Exception):
        A.hamiltonian_1d(CFG_PAR)


def test_hamiltonian_parallel_cross_term():
    h = A.hamiltonian_parallel(CFG_PAR)
    # the gauge square contributes -wc * y * pz (y and pz commute: no reorder term)
    assert h.terms[_key(params=(0, 0, 0, 0, 1, 0), word=(Gen.Y, Gen.PZ))] == Fraction(-1)


def test_parallel_reduces_to_1d_at_zero_field():
    wc_slot = 1 + A.PARAMS.index("wc")
    h = OperatorExpr({key: c for key, c in A.hamiltonian_parallel(CFG_PAR).terms.items()
                      if key[wc_slot] == 0})
    free_yz = ((gen(Gen.PY) ** 2) + (gen(Gen.PZ) ** 2)).scale(Fraction(1, 2)) * sym("m", -1)
    assert h == A.hamiltonian_1d(CFG_1D) + free_yz


# --- ladder -----------------------------------------------------------------------

@pytest.mark.parametrize("j", range(17))
def test_eigen_ladder_identity(j):
    assert A.eigen_ladder_check(j, depth=16).is_zero


def test_ladder_commutator_explicit():
    f = A.momentum_minus_force_time()
    e_op = A.energy_operator()
    for j in (0, 1, 2):
        lhs = A.commutator(f, e_op ** (j + 1))
        rhs = (IHBAR * sym("q") * sym("E") * e_op ** j).scale(j + 1)
        assert lhs == rhs


def test_ladder_depth_guard():
    with pytest.raises(ValueError, match="depth"):
        A.eigen_ladder_check(7, depth=6)


# --- adjoint ------------------------------------------------------------------------

def test_generators_self_adjoint_energy_hermitian():
    for g in (X, T, PX, gen(Gen.PY)):
        assert A.adjoint(g) == g
    assert A.adjoint(A.energy_operator()) == A.energy_operator()
    assert A.adjoint(A.momentum_minus_force_time()) == A.momentum_minus_force_time()


def test_product_of_hermitians_not_hermitian():
    f = A.momentum_minus_force_time()
    e_op = A.energy_operator()
    prod = f * e_op
    assert A.adjoint(prod) != prod
    assert prod - A.adjoint(prod) == A.commutator(f, e_op)


def test_adjoint_is_antihomomorphism():
    a = X * PX + T.scale(2)
    b = PX * PX - IMAG * DT
    assert A.adjoint(a * b) == A.adjoint(b) * A.adjoint(a)


# --- parser and printer ----------------------------------------------------------------

def test_parse_conserved_momentum():
    assert A.parse_operator("px - q*E*t") == A.momentum_minus_force_time()


def test_parse_canonical_commutator():
    assert A.parse_operator("x*px - px*x") == IHBAR


def test_parse_rational_literals_and_powers():
    assert A.parse_operator("1/2*px^2") == (PX * PX).scale(Fraction(1, 2))
    assert A.parse_operator("3/4") == OperatorExpr.rational(Fraction(3, 4))
    assert A.parse_operator("(px - q*E*t)^2") == A.momentum_minus_force_time() ** 2


@pytest.mark.parametrize("text, offset_char", [
    ("px^2/ x", "/"),
    ("px + @", "@"),
    ("px^2 2", "2"),
])
def test_parse_errors_carry_offsets(text, offset_char):
    with pytest.raises(A.ParseError) as err:
        A.parse_operator(text)
    assert text[err.value.offset] == offset_char


def test_parse_unknown_identifier():
    with pytest.raises(A.ParseError, match="unknown identifier 'F'"):
        A.parse_operator("px - q*F*t")


def test_parse_negative_exponent():
    with pytest.raises(A.ParseError, match="negative exponent"):
        A.parse_operator("px^-2")


def test_parse_zero_denominator():
    with pytest.raises(A.ParseError, match="zero denominator"):
        A.parse_operator("1/0*px")


def test_parse_refuses_nesting_past_the_limit():
    assert A.parse_operator("(" * A.MAX_NESTING + "x" + ")" * A.MAX_NESTING) == X
    deep = 300
    text = "(" * deep + "x" + ")" * deep
    with pytest.raises(A.ParseError, match="nested too deeply") as err:
        A.parse_operator(text)
    assert err.value.offset == A.MAX_NESTING


def test_parse_refuses_exponents_past_the_limit():
    assert A.parse_operator(f"x^{A.MAX_POWER}") == X ** A.MAX_POWER
    for text in (f"x^{A.MAX_POWER + 1}", "x^99999999999999999999"):
        with pytest.raises(A.ParseError, match="exponent too large") as err:
            A.parse_operator(text)
        assert err.value.offset == 2


ROUND_TRIP_SAMPLES = [
    "px - q*E*t",
    "i*hbar*dt",
    "x*px - px*x",
    "1/2*px^2 - q*E*x",
    "py - m*wc*z",
    "(x + t)^3 - 2/7*pz",
    "0",
    "hbar^2*c - i*E^3",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_parse_print_parse_fixed_point(text):
    once = A.parse_operator(text)
    printed = A.to_text(once)
    assert A.parse_operator(printed) == once
    assert A.to_text(A.parse_operator(printed)) == printed


# --- ring properties (randomized) --------------------------------------------------------

_GEN_EXPRS = [gen(g) for g in Gen]
_ATOMS = _GEN_EXPRS + [sym("hbar"), sym("q"), sym("E"), sym("m", -1), sym("wc"), IMAG,
                       OperatorExpr.rational(Fraction(1, 2)), OperatorExpr.rational(-2)]


_TIME_LOCAL_ATOMS = [a for a in _ATOMS if not a.contains_generator(Gen.DT)]


@st.composite
def small_exprs(draw, atoms=_ATOMS):
    n_terms = draw(st.integers(1, 3))
    expr = OperatorExpr.zero()
    for _ in range(n_terms):
        term = OperatorExpr.rational(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * draw(st.sampled_from(atoms))
        expr = expr + term
    return expr


@given(small_exprs(), small_exprs(), small_exprs())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a * OperatorExpr.zero()).is_zero


@given(small_exprs(), small_exprs())
@settings(max_examples=100, deadline=None)
def test_commutator_equals_product_difference(a, b):
    assert A.commutator(a, b) == a * b - b * a


@given(small_exprs(), small_exprs(_TIME_LOCAL_ATOMS))
@settings(max_examples=100, deadline=None)
def test_heisenberg_residual_equals_its_definition(f, h):
    minus_i_over_hbar = (IMAG * sym("hbar", -1)).scale(-1)
    assert A.heisenberg_residual(f, h) == minus_i_over_hbar * (f * h - h * f) + A.partial_t(f)


@given(st.lists(st.sampled_from(list(Gen)), min_size=1, max_size=3),
       st.lists(st.sampled_from(list(Gen)), min_size=1, max_size=3),
       st.lists(st.sampled_from(list(Gen)), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_jacobi_identity(wa, wb, wc):
    a, b, c = _word_expr(wa), _word_expr(wb), _word_expr(wc)
    total = (A.commutator(A.commutator(a, b), c)
             + A.commutator(A.commutator(b, c), a)
             + A.commutator(A.commutator(c, a), b))
    assert total.is_zero
