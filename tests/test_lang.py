"""Operator-expression language: tokenizer, parser, lowering, printer
round-trips, error reporting, and fuzzing."""

import pickle
import random
import string

import pytest

import reference
from spinsplit import scalars
from spinsplit.algebra import (
    OperatorExpr,
    VectorExpr,
    commutator,
    gen_J,
    gen_K,
    op_H,
    op_scalar,
)
from spinsplit.identities import (
    CATALOG,
    MASSLESS_CATALOG,
    TEXT_CATALOG,
    boost_connection,
    newton_wigner,
    perpendicular_angular_momentum,
    rotation_connection,
)
from spinsplit.lang import (
    FormatError,
    LangError,
    LowerError,
    ParseError,
    _fmt_component,
    format_expr,
    lower,
    parse,
)
from spinsplit.poly import Poly
from spinsplit.scalars import _SCREEN_POINT, Ring
from test_cli import EVAL_PINS, TWO_LARGE_FACTORS


@pytest.fixture(scope="module")
def ring():
    return Ring()


# -- parsing and lowering ----------------------------------------------------


def test_basic_expression(ring):
    e = lower(parse("Comm(J[1],J[2]) - i*J[3]"), ring)
    assert e.is_zero()


def test_whitespace_and_newlines(ring):
    e = lower(parse("Comm( J[1] ,\n  J[2] )\n - i * J[3]"), ring)
    assert e.is_zero()


def test_rational_powers(ring):
    e = lower(parse("Pow(Dot(P,P),1/2)"), ring)
    f = lower(parse("Pow(Dot(P,P),-1/2)"), ring)
    assert (e * f - op_scalar(ring, 1)).is_zero()


def test_vector_results(ring):
    v = lower(parse("Cross(P,J)"), ring)
    assert isinstance(v, VectorExpr)
    w = lower(parse("Dot(P,Cross(P,J))"), ring)
    assert w.is_zero()


def test_scalar_literals(ring):
    e = lower(parse("2*H - H - H"), ring)
    assert e.is_zero()
    e = lower(parse("(1/2)*H + (1/2)*H - H"), ring)
    assert e.is_zero()


def test_unary_minus(ring):
    e = lower(parse("-J[1] + J[1]"), ring)
    assert e.is_zero()
    e = lower(parse("--J[1] - J[1]"), ring)
    assert e.is_zero()


def test_adjoint_call(ring):
    e = lower(parse("Adjoint(i*H) + i*H"), ring)
    assert e.is_zero()


def test_massless_mode():
    r = Ring(massless=True)
    e = lower(parse("H - Pow(Dot(P,P),1/2)"), r)
    assert e.is_zero()


# -- printer round-trip -------------------------------------------------------


def _components(e):
    return list(e) if isinstance(e, VectorExpr) else [e]


def test_catalog_round_trip(ring):
    for src in TEXT_CATALOG:
        for comp in _components(lower(parse(src), ring)):
            printed = format_expr(comp)
            again = lower(parse(printed), ring)
            assert again == comp, (src, printed)


def test_structured_round_trip(ring):
    # random normal-form operators built programmatically round-trip
    # through the printer
    rng = random.Random(20240817)
    atoms = [lambda r=ring: gen_J(r, rng.randrange(3)),
             lambda r=ring: op_scalar(r, "I"),
             lambda r=ring: lower(parse("H"), r),
             lambda r=ring: lower(parse("K[2]"), r),
             lambda r=ring: lower(parse("Pow(H,-1)"), r)]
    for _ in range(60):
        e = atoms[rng.randrange(len(atoms))]()
        for _ in range(rng.randrange(4)):
            other = atoms[rng.randrange(len(atoms))]()
            op = rng.randrange(3)
            e = (e + other if op == 0
                 else e * other if op == 1
                 else commutator(e, other))
        printed = format_expr(e)
        assert lower(parse(printed), ring) == e, printed


def _coefficients():
    """Every coefficient of the massive boost, rotation and Newton-Wigner
    operators and of the massless perpendicular angular momentum."""
    massive, massless = Ring(), Ring(massless=True)
    for ring, vec in ((massive, boost_connection(massive)),
                      (massive, rotation_connection(massive)),
                      (massive, newton_wigner(massive)),
                      (massless, perpendicular_angular_momentum(massless))):
        for comp in vec:
            yield from comp.terms.values()


def test_equal_coefficients_print_the_same():
    # printed text depends on the value alone, not on the operation that
    # produced it
    count = 0
    for c in _coefficients():
        text = format_expr(OperatorExpr.from_scalar(c))
        assert format_expr(OperatorExpr.from_scalar(-c)) == \
            format_expr(OperatorExpr.from_scalar(c * -1)), text
        assert format_expr(
            OperatorExpr.from_scalar(c.conjugate().conjugate())) == text
        count += 1
    assert count >= 40


# A factor outside m, |P|^2 and H^2 is kept whole, and it may be
# reducible: each pair is one value held over different factors.
_REDUCIBLE_PAIRS = [
    ("(P[1]-P[2])*Pow(P[1]*P[1]-P[2]*P[2],-1)", "Pow(P[1]+P[2],-1)"),
    ("(P[2]-i*P[3])*Pow(Pow(Dot(P,P),1/2)+P[1],-1)",
     "(Pow(Dot(P,P),1/2) - P[1])*Pow(P[2]+i*P[3],-1)"),
]


def _factor_pairs(ring, value):
    """(numerator, f**e) for each factor f outside the basis in each
    component of a scalar: the pairs whose gcd the printer takes."""
    return [(n, f**e) for n, _, d in value._c.values()
            for f, e in d.items() if f not in ring._basis]


@pytest.mark.parametrize("massless", [False, True])
@pytest.mark.parametrize("a,b", _REDUCIBLE_PAIRS)
def test_equal_values_over_reducible_factors_print_the_same(
        monkeypatch, massless, a, b):
    ring = Ring(massless=massless)
    va, vb = lower(parse(a), ring), lower(parse(b), ring)
    assert va == vb
    assert va.terms[()]._c != vb.terms[()]._c
    # the numerator shares a factor with the reducible one, so the
    # coprimality screen cannot settle the pair, and printing takes the
    # fallback to sympy's gcd
    shared = _factor_pairs(ring, va.terms[()])
    assert shared and not any(ring._coprime(n, f) for n, f in shared)
    calls = []
    fallback = scalars._sympy_gcd

    def counting(n, f):
        calls.append((n, f))
        return fallback(n, f)

    monkeypatch.setattr(scalars, "_sympy_gcd", counting)
    for c in va.terms[()]._c.values():
        _fmt_component(ring, c)
    assert calls
    assert format_expr(va) == format_expr(vb)


# -- the printer against its sympy view ---------------------------------------


def _printer_atoms(ring):
    """Atoms of the random scalars: the momenta, H and |P|, Gaussian
    constants (with 2 and 5, whose Gaussian factors they share), complex
    and mixed linear forms, |P| + P_a, and the inverse of each."""
    i, p = ring.i(), [ring.P(a) for a in range(3)]
    atoms = p + [ring.H(), ring.R(), i, ring.from_expr(2),
                 ring.from_expr(5), 1 + i, 2 - i,
                 ring.from_expr("2/5 + 3*I/5"), p[0] + i * p[1],
                 ring.R() + p[0], ring.R() + p[2]]
    if not ring.massless:
        atoms += [ring.m(), ring.m() + p[0], i * ring.m() - 2 * p[1]]
    return atoms + [a.inverse() for a in atoms]


def _random_scalars(ring, seed, count):
    """Sums and products of two or three atoms."""
    rng = random.Random(seed)
    atoms = _printer_atoms(ring)
    out = []
    for _ in range(count):
        value = rng.choice(atoms)
        for _ in range(rng.randrange(1, 3)):
            other = rng.choice(atoms)
            value = value * other if rng.randrange(3) else value + other
        out.append(value)
    return out


# massive values that reach each rule of the printer's tree: a sum
# ordered as a positive number and a negative multiple, Gaussian
# coefficients and their inverses in monomial denominators, equal
# Gaussian factors merged into a power, a rational distributed over a sum
_PRINTER_CASES = [
    "(2 - P[3])*Pow(P[1]+P[2],-1)", "(5 - 3*P[2])*Pow(2+m,-1)",
    "P[1]*Pow((1+2*i)*m*P[2],-1)", "(3+4*i)*Pow((2+i)*m,-1)",
    "(2-i)*(P[1]+P[2])*Pow(2+i,-1)", "(1+i+P[1])*(1/3)",
    "Pow(2*i*m,-1)", "(P[1]+1)*Pow(1-P[1],-1)*Pow(m,-3)",
]


def _printer_corpus():
    """(ring, component) over both catalogs, every pinned ``eval`` input,
    the cases above and seeded random scalars in both modes."""
    corpus = []
    for massless, catalog in ((False, CATALOG), (True, MASSLESS_CATALOG)):
        ring = Ring(massless=massless)
        values = [side for name in sorted(catalog)
                  for pair in catalog[name](ring) for side in pair]
        values += [lower(parse(src), ring) for mode, src, _ in EVAL_PINS
                   if mode.startswith("massless") == massless]
        if not massless:
            values += [lower(parse(src), ring) for src in _PRINTER_CASES]
        corpus += [(ring, c) for v in values for s in v.terms.values()
                   for c in s._c.values()]
        corpus += [(ring, c) for s in _random_scalars(ring, 35 + massless,
                                                      250)
                   for c in s._c.values()]
    return corpus


def test_printer_matches_its_sympy_view():
    """Each component prints as its sympy view, the ``cancel`` normal form
    of num/(q*den) printed from sympy's tree, does: the same text and the
    same is-a-sum flag."""
    corpus = _printer_corpus()
    mismatches = [(c, got, want) for ring, c in corpus
                  if (got := _fmt_component(ring, c))
                  != (want := reference.component_text(c))]
    assert len(corpus) >= 1200
    assert mismatches == []


# -- the printer's coprimality screen ------------------------------------------


def _atom_polys(ring):
    """The non-constant numerators and denominator factors of the printer
    atoms, complex ones included."""
    polys = []
    for atom in _printer_atoms(ring):
        for n, _, d in atom._c.values():
            polys += [p for p in (n, *d) if not p.is_ground
                      and p not in polys]
    return polys


def _screen_triples(ring, seed, count=150):
    """Seeded triples of atom polynomials, each times a Gaussian constant,
    half of them a product of two plus a third."""
    polys = _atom_polys(ring)
    units = [Poly.constant(k)
             for k in ((1, 0), (0, 1), (2, -1), (1, 1), (-3, 2))]
    rng = random.Random(seed)

    def poly():
        p = rng.choice(units) * rng.choice(polys)
        if rng.randrange(2):
            p = p * rng.choice(polys) + rng.choice(units) * rng.choice(polys)
        return p

    return [(poly(), poly(), poly()) for _ in range(count)]


def _sympy_gcd_is_ground(a, b):
    return reference.to_sympy(a).gcd(reference.to_sympy(b)).is_ground


@pytest.mark.parametrize("massless", [False, True])
def test_screen_never_settles_a_shared_factor(massless):
    """f*g and f*h share f, so the screen never calls them coprime; on g
    and h it says coprime only where sympy's gcd is constant, and it
    settles most of them."""
    ring = Ring(massless=massless)
    settled = 0
    for f, g, h in _screen_triples(ring, 72 + massless):
        assert not ring._coprime(f * g, f * h), (f, g, h)
        if ring._coprime(g, h):
            assert _sympy_gcd_is_ground(g, h), (g, h)
            settled += 1
    assert settled >= 100


def _catalog_pairs(ring, catalog):
    """(numerator, f**e) for every denominator factor f, basis factors
    included, of every component of both sides of a catalog."""
    return [(n, f**e)
            for name in sorted(catalog) for pair in catalog[name](ring)
            for side in pair for scalar in side.terms.values()
            for n, _, d in scalar._c.values() for f, e in d.items()]


@pytest.mark.parametrize("massless", [False, True])
def test_screen_mod_p_settles_what_the_screen_over_gaussians_settles(
        massless):
    """Reducing the images mod a prime loses no pair that the same screen
    over the Gaussian integers, with sympy's univariate gcd, settles: on
    every catalog component, on the printer's pairs of the sum over two
    large factors, and on the coprime pairs of the shared-factor test."""
    ring = Ring(massless=massless)
    catalog = MASSLESS_CATALOG if massless else CATALOG
    pairs = _catalog_pairs(ring, catalog)
    if not massless:
        pairs += _factor_pairs(ring, lower(parse(TWO_LARGE_FACTORS),
                                           ring).terms[()])
    pairs += [(g, h) for _, g, h in _screen_triples(ring, 72 + massless)
              if _sympy_gcd_is_ground(g, h)]
    settled = [reference.sympy_screen(a, b) for a, b in pairs]
    missed = [(a, b) for (a, b), ok in zip(pairs, settled)
              if ok and not ring._coprime(a, b)]
    assert missed == []
    assert sum(settled) >= (220 if massless else 640)


def test_screen_is_undecided_where_a_leading_coefficient_vanishes():
    """The numerator's coefficient of P2 vanishes at the screen's P1, so
    the screen cannot tell, sympy's gcd decides, and the text is the
    sympy view's."""
    ring = Ring()
    src = f"((P[1]-{_SCREEN_POINT[0]})*P[2] + 1)*Pow(P[2]+P[3],-1)"
    value = lower(parse(src), ring).terms[()]
    ((n, f),) = _factor_pairs(ring, value)
    assert not ring._coprime(n, f)
    assert _sympy_gcd_is_ground(n, f)
    (c,) = value._c.values()
    assert _fmt_component(ring, c) == reference.component_text(c)


def test_printing_the_catalogs_takes_no_four_variable_gcd(monkeypatch):
    """The screen settles every gcd of printing both catalogs and the sum
    over two large factors: the fallback to sympy's four-variable gcd
    fails at once, as it does for a shared factor."""
    def refusing(a, b):
        raise AssertionError("four-variable gcd")

    monkeypatch.setattr(scalars, "_sympy_gcd", refusing)
    printed = 0
    for massless, catalog in ((False, CATALOG), (True, MASSLESS_CATALOG)):
        ring = Ring(massless=massless)
        values = [side for name in sorted(catalog)
                  for pair in catalog[name](ring) for side in pair]
        if not massless:
            values.append(lower(parse(TWO_LARGE_FACTORS), ring))
        for value in values:
            for scalar in value.terms.values():
                for c in scalar._c.values():
                    printed += bool(_fmt_component(ring, c)[0])
    assert printed >= 600
    ring = Ring()
    reducible = lower(parse(_REDUCIBLE_PAIRS[0][0]), ring).terms[()]
    with pytest.raises(AssertionError, match="four-variable"):
        _fmt_component(ring, next(iter(reducible._c.values())))


# -- long input ----------------------------------------------------------------


def test_chain_keeps_left_to_right_order(ring):
    # flat chains lower in a loop; the operators still apply left to right
    assert lower(parse("K[1]*J[2]*K[3] - J[1]/H - K[2]"), ring) == \
        (gen_K(ring, 0) * gen_J(ring, 1) * gen_K(ring, 2)
         - gen_J(ring, 0) / op_H(ring) - gen_K(ring, 1))
    assert lower(parse("12/3/2"), ring) == op_scalar(ring, 2)


def test_long_integer_literal_is_parse_error():
    # past the interpreter's str -> int limit a literal is a ParseError at
    # its position, not a ValueError
    with pytest.raises(ParseError) as err:
        parse("H +\n  " + "9" * 5000)
    assert (err.value.line, err.value.col) == (2, 3)
    assert "5000 digits" in err.value.message


def test_pow_exponent_is_bounded(ring):
    # a power multiplies its base once per unit of the exponent, so the
    # exponent's magnitude is bounded instead of the work
    assert lower(parse("Pow(2,64)"), ring) == op_scalar(ring, 2**64)
    for text, col in (("Pow(10,65)", 8), ("Pow(H,-65)", 7),
                      ("Pow(Dot(P,P),129/2)", 17), ("Pow(10,4400)", 8)):
        with pytest.raises(LowerError) as err:
            lower(parse(text), ring)
        assert (err.value.line, err.value.col) == (1, col)
        assert "[-64, 64]" in err.value.message


def test_huge_coefficient_is_format_error(ring):
    # past the interpreter's int -> str limit the printer raises a
    # LangError, not a ValueError
    for text in ("Pow(Pow(Pow(10,64),64),2)",
                 "K[1]/Pow(Pow(Pow(10,64),64),2)"):
        value = lower(parse(text), ring)
        with pytest.raises(FormatError) as err:
            format_expr(value)
        assert (err.value.line, err.value.col) == (1, 1)
        assert "4300 digits" in err.value.message


# -- error reporting -----------------------------------------------------------


def test_truncated_input_position():
    with pytest.raises(LangError) as err:
        parse("Comm(J[1],")
    assert err.value.line == 1
    assert err.value.col >= 10


def test_error_line_tracking():
    with pytest.raises(LangError) as err:
        parse("H +\n  @")
    assert err.value.line == 2


def test_unknown_name(ring):
    with pytest.raises(LangError):
        lower(parse("Q[1]"), ring)


def test_bad_index(ring):
    with pytest.raises(LangError):
        lower(parse("J[4]"), ring)


def test_arity_mismatch(ring):
    with pytest.raises(LangError):
        lower(parse("Comm(J[1])"), ring)


def test_depth_guard_no_recursion_error():
    deep = "(" * 5000 + "H" + ")" * 5000
    with pytest.raises(LangError):
        parse(deep)


@pytest.mark.parametrize("cls", [LangError, ParseError, LowerError,
                                 FormatError])
def test_errors_pickle_with_their_position(cls):
    # a suite worker sends its error back to the caller pickled
    exc = pickle.loads(pickle.dumps(cls("bad token", 3, 4)))
    assert type(exc) is cls
    assert (exc.message, exc.line, exc.col) == ("bad token", 3, 4)
    assert str(exc) == str(cls("bad token", 3, 4))


def test_division_by_zero_literal(ring):
    with pytest.raises(LangError):
        lower(parse("H/0"), ring)


def test_division_multiplies_on_the_left(ring):
    # "/" has one meaning in the language and in the Python operators:
    # K[1]/H is Pow(H,-1)*K[1], which differs from K[1]*Pow(H,-1) by a
    # nonzero derivation term
    k1, h = gen_K(ring, 0), op_H(ring)
    assert lower(parse("K[1]/H"), ring) == k1 / h
    assert k1 / h == lower(parse("Pow(H,-1)*K[1]"), ring)
    assert k1 / h != lower(parse("K[1]*Pow(H,-1)"), ring)


# -- fuzzing --------------------------------------------------------------------


_FUZZ_ALPHABET = (
    list("HKJPim()[],+-*/ ")
    + ["Comm", "Dot", "Cross", "Pow", "Adjoint", "Phat",
       "1", "2", "3", "0", "1/2", "H", "J[1]", "K[2]", "P[3]"]
)


def test_fuzz_parser_never_crashes():
    # random token soup: the only permitted failure mode is LangError
    rng = random.Random(1234)
    n_parsed = 0
    for _ in range(20000):
        n = rng.randrange(1, 24)
        text = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(n))
        try:
            ast = parse(text)
        except LangError:
            continue
        n_parsed += 1
        try:
            lower(ast, Ring())
        except LangError:
            continue
    assert n_parsed > 100  # the soup does hit the happy path sometimes


def test_fuzz_printable_garbage():
    rng = random.Random(99)
    chars = string.printable
    for _ in range(5000):
        text = "".join(rng.choice(chars)
                       for _ in range(rng.randrange(1, 40)))
        try:
            parse(text)
        except LangError:
            pass
