"""Operator-expression language: tokenizer, parser, lowering, printer
round-trips, error reporting, and fuzzing."""

import random
import string

import pytest

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
    TEXT_CATALOG,
    boost_connection,
    newton_wigner,
    perpendicular_angular_momentum,
    rotation_connection,
)
from spinsplit.lang import LangError, ParseError, format_expr, lower, parse
from spinsplit.scalars import Ring


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
