"""Text syntax for operator expressions: lexer, recursive-descent parser,
lowering to algebra values, and a canonical pretty-printer.

Grammar (see docs/grammar.md for the EBNF):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := INT | atom | call | '(' expr ')'
    atom    := 'H' | 'm' | 'i' | ('P'|'J'|'K'|'Phat') ('[' INT ']')?
    call    := ('Comm'|'Adjoint'|'Dot'|'Cross'|'Pow') '(' expr (',' expr)* ')'

Division q / s multiplies q by the inverse of the scalar-valued s on the
left (q / s == Pow(s,-1) * q), which matches the usual way connection
coefficients like K[1]/H are written.  Pow accepts exponents of magnitude
at most 64: integers, and half-integers only on the base Dot(P,P) (so
Pow(Dot(P,P),1/2) is the momentum magnitude).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp

from .algebra import (
    GENERATOR_NAMES,
    OperatorExpr,
    VectorExpr,
    commutator,
    gen_J,
    gen_K,
    op_H,
    op_P,
    op_Pmag,
    op_m,
    op_scalar,
    vec_J,
    vec_K,
    vec_P,
    vec_Phat,
)
from .scalars import CoefficientError, Ring
from .scalars import M as _M_SYM
from .scalars import P_SYMS as _P_SYMS

__all__ = ["OpAst", "LangError", "ParseError", "LowerError", "FormatError",
           "parse", "lower", "format_expr"]

_VECTOR_ATOMS = ("P", "J", "K", "Phat")
_SCALAR_ATOMS = ("H", "m", "i")
_CALLS = {"Comm": 2, "Adjoint": 1, "Dot": 2, "Cross": 2, "Pow": 2}


class LangError(ValueError):
    """Structured syntax/lowering error with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class ParseError(LangError):
    pass


class LowerError(LangError):
    pass


class FormatError(LangError):
    """A value the printer cannot write; it refers to the whole
    expression, so its position is line 1, column 1."""


@dataclass(frozen=True)
class OpAst:
    """Expression-tree node.

    kind: 'int' | 'atom' | 'neg' | '+' | '-' | '*' | '/' | 'call'
    value: integer for 'int'; (name, index or None) for 'atom';
           call name for 'call'; None otherwise.
    args: child nodes.
    span: (line, column) of the construct's first token.
    """

    kind: str
    value: object = None
    args: tuple = field(default_factory=tuple)
    span: tuple = (1, 1)


# -- lexer --------------------------------------------------------------------

_PUNCT = "+-*/()[],"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                # the interpreter caps str -> int conversion (4300 digits
                # by default)
                raise ParseError(f"integer literal of {j - i} digits is "
                                 f"too long", line, col) from None
            tokens.append(("INT", value, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", None, line, col))
    return tokens


# -- parser -------------------------------------------------------------------


_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "EOF"
                else f"expected {kind!r}, found end of input",
                tok[2], tok[3],
            )
        return self.advance()

    def parse(self) -> OpAst:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}",
                             tok[2], tok[3])
        return node

    def expr(self) -> OpAst:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError(
                f"expression nesting exceeds {_MAX_DEPTH} levels",
                tok[2], tok[3],
            )
        try:
            node = self.term()
            while self.peek()[0] in ("+", "-"):
                op = self.advance()
                rhs = self.term()
                node = OpAst(op[0], None, (node, rhs), (op[2], op[3]))
            return node
        finally:
            self.depth -= 1

    def term(self) -> OpAst:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            node = OpAst(op[0], None, (node, rhs), (op[2], op[3]))
        return node

    def unary(self) -> OpAst:
        tok = self.peek()
        if tok[0] == "-":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError(
                    f"expression nesting exceeds {_MAX_DEPTH} levels",
                    tok[2], tok[3],
                )
            try:
                self.advance()
                return OpAst("neg", None, (self.unary(),), (tok[2], tok[3]))
            finally:
                self.depth -= 1
        return self.primary()

    def primary(self) -> OpAst:
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            return OpAst("int", tok[1], (), (tok[2], tok[3]))
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "NAME":
            self.advance()
            name = tok[1]
            span = (tok[2], tok[3])
            if name in _CALLS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                arity = _CALLS[name]
                if len(args) != arity:
                    raise ParseError(
                        f"{name} takes {arity} arguments, got {len(args)}",
                        *span,
                    )
                return OpAst("call", name, tuple(args), span)
            if name in _SCALAR_ATOMS:
                return OpAst("atom", (name, None), (), span)
            if name in _VECTOR_ATOMS:
                index = None
                if self.peek()[0] == "[":
                    self.advance()
                    idx_tok = self.expect("INT")
                    self.expect("]")
                    index = idx_tok[1]
                    if index not in (1, 2, 3):
                        raise ParseError(
                            f"index {index} out of range (must be 1..3)",
                            idx_tok[2], idx_tok[3],
                        )
                return OpAst("atom", (name, index), (), span)
            raise ParseError(f"unknown identifier {name!r}", *span)
        if tok[0] == "EOF":
            raise ParseError("unexpected end of input", tok[2], tok[3])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse(text: str) -> OpAst:
    """Parse source text into an :class:`OpAst`."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 1, 1)
    return _Parser(text).parse()


# -- lowering -----------------------------------------------------------------


def _atom_value(name, index, ring):
    if name == "H":
        return op_H(ring)
    if name == "m":
        return op_m(ring)
    if name == "i":
        return OperatorExpr.from_scalar(ring.i())
    builders = {
        "P": (op_P, vec_P),
        "J": (gen_J, vec_J),
        "K": (gen_K, vec_K),
        "Phat": (lambda r, a: OperatorExpr.from_scalar(r.Phat(a)), vec_Phat),
    }
    comp, whole = builders[name]
    if index is None:
        return whole(ring)
    return comp(ring, index - 1)


def _literal_rational(ast: OpAst):
    """Extract an integer or rational literal from an exponent subtree.  A
    chain a/b/c/... is divided out in a loop, left to right."""
    divisors = []
    while ast.kind == "/":
        divisors.append(ast.args[1])
        ast = ast.args[0]
    if ast.kind == "int":
        value = Fraction(ast.value)
    elif ast.kind == "neg":
        inner = _literal_rational(ast.args[0])
        if inner is None:
            return None
        value = -inner
    else:
        return None
    for den_ast in reversed(divisors):
        den = _literal_rational(den_ast)
        if den is None or den == 0:
            return None
        value /= den
    return value


def _require_scalar_inverse(value, span):
    """Inverse coefficient of a scalar-valued operand (for division)."""
    if isinstance(value, VectorExpr):
        raise LowerError("division by a vector-valued expression", *span)
    if not value.is_scalar_valued():
        raise LowerError("division by an operator-valued expression", *span)
    try:
        inv = value.scalar_part().inverse()
    except CoefficientError as exc:
        raise LowerError(str(exc), *span) from exc
    return OperatorExpr.from_scalar(inv)


def lower(ast: OpAst, ring: Ring):
    """Lower an AST to an :class:`OperatorExpr` or :class:`VectorExpr`
    over ``ring``."""
    return _lower(ast, ring)


_BINARY = ("+", "-", "*", "/")


def _lower(ast: OpAst, ring: Ring):
    kind = ast.kind
    if kind in _BINARY:
        # a left-deep chain a op b op c ... lowers in a loop, left to
        # right, so its length is not bounded by the recursion limit
        spine = []
        while ast.kind in _BINARY:
            spine.append(ast)
            ast = ast.args[0]
        value = _lower(ast, ring)
        for node in reversed(spine):
            value = _binary(node, value, _lower(node.args[1], ring))
        return value
    if kind == "int":
        return op_scalar(ring, ast.value)
    if kind == "atom":
        return _atom_value(ast.value[0], ast.value[1], ring)
    if kind == "neg":
        return -_lower(ast.args[0], ring)
    if kind == "call":
        return _lower_call(ast, ring)
    raise LowerError(f"malformed AST node {kind!r}", *ast.span)


def _binary(ast: OpAst, lhs, rhs):
    """Apply the operator of a binary node to its lowered operands."""
    kind = ast.kind
    if kind in ("+", "-"):
        if isinstance(lhs, VectorExpr) != isinstance(rhs, VectorExpr):
            raise LowerError(
                "cannot add a vector-valued and a scalar-valued expression",
                *ast.span,
            )
        return lhs + rhs if kind == "+" else lhs - rhs
    if kind == "*":
        if isinstance(lhs, VectorExpr) and isinstance(rhs, VectorExpr):
            raise LowerError(
                "use Dot or Cross to multiply two vectors", *ast.span
            )
        if isinstance(lhs, VectorExpr):
            return VectorExpr(c * rhs for c in lhs)
        if isinstance(rhs, VectorExpr):
            return VectorExpr(lhs * c for c in rhs)
        return lhs * rhs
    inv = _require_scalar_inverse(rhs, ast.span)
    if isinstance(lhs, VectorExpr):
        return VectorExpr(inv * c for c in lhs)
    return inv * lhs


def _lower_call(ast: OpAst, ring: Ring):
    name = ast.value
    if name == "Pow":
        return _lower_pow(ast, ring)
    args = [_lower(a, ring) for a in ast.args]
    if name == "Adjoint":
        (x,) = args
        if isinstance(x, VectorExpr):
            return VectorExpr(c.adjoint() for c in x)
        return x.adjoint()
    if name == "Comm":
        a, b = args
        if isinstance(a, VectorExpr) or isinstance(b, VectorExpr):
            raise LowerError(
                "Comm takes scalar-component operands; index the vectors",
                *ast.span,
            )
        return commutator(a, b)
    if name == "Dot":
        a, b = args
        if not (isinstance(a, VectorExpr) and isinstance(b, VectorExpr)):
            raise LowerError("Dot requires two vector-valued operands",
                             *ast.span)
        return a.dot(b)
    if name == "Cross":
        a, b = args
        if not (isinstance(a, VectorExpr) and isinstance(b, VectorExpr)):
            raise LowerError("Cross requires two vector-valued operands",
                             *ast.span)
        return a.cross(b)
    raise LowerError(f"unknown call {name!r}", *ast.span)


_MAX_EXPONENT = 64


def _lower_pow(ast: OpAst, ring: Ring):
    base_ast, exp_ast = ast.args
    exponent = _literal_rational(exp_ast)
    if exponent is None:
        raise LowerError(
            "Pow exponent must be an integer or half-integer literal",
            *exp_ast.span,
        )
    if abs(exponent) > _MAX_EXPONENT:
        # a power multiplies its base once per unit of the exponent
        raise LowerError(
            f"Pow exponent {exponent} is outside [-{_MAX_EXPONENT}, "
            f"{_MAX_EXPONENT}]", *exp_ast.span)
    base = _lower(base_ast, ring)
    if isinstance(base, VectorExpr):
        raise LowerError("Pow base must be scalar-component", *ast.span)
    if exponent.denominator == 1:
        try:
            return base ** int(exponent)
        except CoefficientError as exc:
            raise LowerError(str(exc), *ast.span) from exc
    if exponent.denominator == 2:
        # half-integer exponents are reserved for the momentum magnitude
        psq = op_Pmag(ring) ** 2
        if base.is_scalar_valued() and (base - psq).is_zero():
            return op_Pmag(ring) ** int(2 * exponent)
        raise LowerError(
            "half-integer Pow is only defined on the base Dot(P,P)",
            *ast.span,
        )
    raise LowerError(
        "Pow exponent must be an integer or half-integer literal",
        *exp_ast.span,
    )


# -- printer ------------------------------------------------------------------

_SYMBOL_NAMES = {
    _P_SYMS[0]: "P[1]",
    _P_SYMS[1]: "P[2]",
    _P_SYMS[2]: "P[3]",
    _M_SYM: "m",
}


def _int_text(n: int) -> str:
    """Decimal text of an integer of a coefficient."""
    try:
        return str(n)
    except ValueError:
        # the interpreter caps int -> str conversion (4300 digits by
        # default)
        raise FormatError(
            f"a coefficient integer has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's "
            f"limit for printing an integer", 1, 1) from None


def _fmt_sym(expr) -> str:
    """Print a sympy coefficient expression in the operator grammar."""
    if expr is sp.I:
        return "i"
    if expr in _SYMBOL_NAMES:
        return _SYMBOL_NAMES[expr]
    if expr.is_Integer:
        return _int_text(int(expr))
    if expr.is_Rational:
        return f"({_int_text(expr.p)}/{_int_text(expr.q)})"
    if expr.is_Add:
        parts = [_fmt_sym(a) for a in
                 sorted(expr.args, key=sp.default_sort_key)]
        return "(" + " + ".join(parts) + ")"
    if expr.is_Mul:
        coeff, rest = expr.as_coeff_mul()
        factors = [_fmt_sym(f) for f in sorted(rest, key=sp.default_sort_key)]
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return _fmt_sym(coeff) + "*" + body
    if expr.is_Pow:
        base, expo = expr.args
        if expo.is_Integer:
            return f"Pow({_fmt_sym(base)},{int(expo)})"
    raise ValueError(f"coefficient not printable in the grammar: {expr}")


def _fmt_scalar(scalar) -> str:
    """Print a coefficient-ring element; H and |P| carry the basis tags."""
    if scalar.is_zero():
        return "0"
    bits = []
    for (h, r) in sorted(scalar.parts):
        expr = scalar.parts[(h, r)]
        tags = []
        if h:
            tags.append("H")
        if r:
            tags.append("Pow(Dot(P,P),1/2)")
        if expr == 1 and tags:
            bits.append("*".join(tags))
        elif expr == -1 and tags:
            bits.append("-" + "*".join(tags))
        else:
            bits.append("*".join([_fmt_sym(expr)] + tags))
    return " + ".join(bits)


def _one_part(scalar) -> bool:
    """True when the scalar prints as a single product (no top-level sum)."""
    if len(scalar.parts) != 1:
        return False
    ((_, _), expr), = scalar.parts.items()
    return not expr.is_Add


def format_expr(value) -> str:
    """Canonical text for an OperatorExpr; parsing the output and lowering
    it reproduces the same normal form."""
    if isinstance(value, VectorExpr):
        raise TypeError(
            "format_expr prints one component at a time; index the vector"
        )
    if not isinstance(value, OperatorExpr):
        raise TypeError("expected OperatorExpr")
    if value.is_zero():
        return "0"
    terms = []
    for word in sorted(value.terms):
        coeff = value.terms[word]
        gens = "*".join(GENERATOR_NAMES[g] for g in word)
        if not word:
            terms.append(_fmt_scalar(coeff))
        elif coeff.is_one():
            terms.append(gens)
        elif _one_part(coeff):
            terms.append(_fmt_scalar(coeff) + "*" + gens)
        else:
            terms.append("(" + _fmt_scalar(coeff) + ")*" + gens)
    return " + ".join(terms)
