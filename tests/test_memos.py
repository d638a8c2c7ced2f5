"""The exact engine's memos are invisible: a memo hit returns what the call
would compute, in both ring modes, and a cold process prints what a warm
one prints."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spinsplit
from spinsplit import algebra, identities, scalars
from spinsplit.algebra import (
    commutator,
    gen_J,
    gen_K,
    op_H,
    op_m,
    op_P,
    op_Pmag,
    op_scalar,
)
from spinsplit.identities import CATALOG, MASSLESS_CATALOG
from spinsplit.lang import format_expr
from spinsplit.scalars import CoefficientError, Ring

# the memos added to skip repeated exact arithmetic, and the older two
_VALUE_MEMOS = ((scalars, "_product_memo"), (scalars, "_inverse_memo"),
                (scalars, "_derivation_memo"), (algebra, "_word_memo"))
_ALL_MEMOS = _VALUE_MEMOS + ((scalars, "_cancel_memo"),
                             (algebra, "_insert_memo"))


class _NoStore(dict):
    """A memo that forgets every entry, so each call computes."""

    def __setitem__(self, key, value):
        pass


def _clear_builders():
    """The catalog's connection builders cache their result per ring."""
    for value in vars(identities).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _snapshot(expr):
    """The exact representation of an expression and its printed text."""
    return ({w: c._c for w, c in expr.terms.items()}, format_expr(expr))


def _catalog(massless):
    ring = Ring(massless=massless)
    catalog = MASSLESS_CATALOG if massless else CATALOG
    return {(name, i): (_snapshot(lhs), _snapshot(rhs))
            for name in sorted(catalog)
            for i, (lhs, rhs) in enumerate(catalog[name](ring))}


def _atom(ring, which, axis):
    if which == 0:
        return gen_J(ring, axis)
    if which == 1:
        return gen_K(ring, axis)
    if which == 2:
        return op_P(ring, axis) / (op_H(ring) + op_P(ring, (axis + 1) % 3))
    if which == 3:
        return op_scalar(ring, "I") * op_Pmag(ring) + op_m(ring)
    return op_H(ring) ** -1


def _random_expressions(massless, seed, count=16):
    """Seeded sums, products and commutators of J, K and coefficients with
    non-trivial denominators."""
    rng = random.Random(seed)
    ring = Ring(massless=massless)
    out = []
    for _ in range(count):
        e = _atom(ring, rng.randrange(5), rng.randrange(3))
        for _ in range(rng.randrange(1, 3)):
            other = _atom(ring, rng.randrange(5), rng.randrange(3))
            op = rng.randrange(3)
            e = (e + other if op == 0 else e * other if op == 1
                 else commutator(e, other))
        out.append(_snapshot(e))
    return out


def _work():
    return ([_catalog(massless) for massless in (False, True)]
            + [_random_expressions(massless, seed)
               for massless in (False, True) for seed in (11, 12)])


def test_memo_hits_return_what_the_call_computes(monkeypatch):
    """The catalogs and seeded expressions in both modes come out with the
    same components and text computed without the value memos, from
    cleared memos, and again from the memos that pass left warm."""
    for module, name in _VALUE_MEMOS:
        monkeypatch.setattr(module, name, _NoStore())
    _clear_builders()
    uncached = _work()
    for module, name in _ALL_MEMOS:
        monkeypatch.setattr(module, name, {})
    _clear_builders()
    cold = _work()
    for module, name in _VALUE_MEMOS:
        assert getattr(module, name), f"{name} was never filled"
    _clear_builders()
    warm = _work()
    assert cold == uncached
    assert warm == cold


def test_warm_memos_keep_the_modes_apart():
    massive, massless = Ring(), Ring(massless=True)
    # equal components in the two modes, under different keys
    assert massive.P(0)._c == massless.P(0)._c
    assert massive.P(0)._memo_key() != massless.P(0)._memo_key()
    for _ in range(2):
        # H*H is |P|^2 + m^2 in one mode and |P|^2 in the other
        psq = sum((massive.P(a) ** 2 for a in range(3)), massive.zero())
        assert massive.H() * massive.H() == psq + massive.m() ** 2
        hh = massless.H() * massless.H()
        assert hh.ring == massless
        assert hh == sum((massless.P(a) ** 2 for a in range(3)),
                         massless.zero())
        # [K_1, P_1] = i*H: H folds to R only in the massless mode
        assert massive.P(0).boost_derivative(0)._c.keys() == {(1, 0)}
        assert massless.P(0).boost_derivative(0)._c.keys() == {(0, 1)}
        z = massive.P(0) + massive.i() * massive.H()
        assert z.inverse().ring == massive
        assert (massless.P(0) + massless.i() * massless.H()).inverse() \
            * (massless.P(0) + massless.i() * massless.R()) == massless.one()
        with pytest.raises(ValueError):
            massive.H() * massless.H()
        with pytest.raises(ValueError):
            massless.P(0) * massive.P(1)


def test_warm_memos_keep_scalars_unhashable_and_zero_uninvertible():
    ring = Ring()
    a = ring.H() + ring.P(2)
    assert a.inverse() is a.inverse()
    with pytest.raises(TypeError):
        hash(a)
    zero = a - a
    for _ in range(3):
        with pytest.raises(CoefficientError):
            zero.inverse()
    assert zero._memo_key() not in scalars._inverse_memo


# Every command's stdout and stderr, with its exit code: the symbolic
# suite's normalized report, then ``eval`` of each TEXT_CATALOG string.
_TRANSCRIPT = """
import contextlib, io
from spinsplit.cli import main
from spinsplit.identities import TEXT_CATALOG


def transcript():
    out = io.StringIO()
    commands = ([["run", "--suite", "symbolic", "--normalize"]]
                + [["eval", src] for src in TEXT_CATALOG])
    for argv in commands:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        out.write(f"exit {code}\\n")
    return out.getvalue()
"""


def test_a_cold_process_prints_what_warm_memos_print():
    """The symbolic suite and ``eval`` run in a fresh interpreter, every
    memo empty, give the bytes they give here once the memos are warm."""
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cold = subprocess.run(
        [sys.executable, "-c",
         _TRANSCRIPT + "print(transcript(), end='')\n"],
        env=env, capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    namespace = {}
    exec(_TRANSCRIPT, namespace)
    namespace["transcript"]()
    warm = namespace["transcript"]()
    assert "symbolic-identities-massless" in warm
    assert warm.count("exit 0\n") == 1 + len(identities.TEXT_CATALOG)
    assert cold.stdout == warm
