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

    def __reduce__(self):
        # rebuild from the three constructor arguments, so an error raised
        # in a suite worker crosses back to the caller intact
        return type(self), (self.message, self.line, self.col)


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


# A coefficient component prints as the tree sympy would hold for the
# ``cancel`` normal form of its value, P.as_expr()/Q.as_expr(), with each
# sum's terms and each product's factors in ``default_sort_key`` order.
# The nodes below stand for that tree: numbers, i, the symbols, powers,
# products and sums, each carrying its text and the key sympy sorts it
# by.  A key is (class key, (number of arguments, arguments), exponent
# key, rational coefficient), as ``Expr.sort_key`` builds it.

_NUMBER = (1, 0, "Number")
_ATOM_I = (2, 0, "ImaginaryUnit")
_ATOM_SYMBOL = (2, 0, "Symbol")
_MUL = (3, 0, "Mul")
_ADD = (3, 1, "Add")


def _number_key(r):
    return (_NUMBER, (0, ()), (), r)


_ONE_KEY = _number_key(1)
_CONSTANT = (0, 0, 0, 0)


class _Node:
    """One node of the coefficient tree.  ``kind`` is 'number', 'atom',
    'pow', 'mul' or 'add'; a product keeps its rational ``coeff`` and its
    number of other ``factors``, a sum keeps its ``terms`` as (monomial,
    rational, x, y) for r*(x + y*i)*monomial."""

    __slots__ = ("kind", "key", "text", "coeff", "factors", "terms")

    def __init__(self, kind, key, text, coeff=1, factors=0, terms=()):
        self.kind = kind
        self.key = key
        self.text = text
        self.coeff = coeff
        self.factors = factors
        self.terms = terms


def _rational_text(r) -> str:
    if r.denominator == 1:
        return _int_text(r.numerator)
    return f"({_int_text(r.numerator)}/{_int_text(r.denominator)})"


def _number(r) -> _Node:
    return _Node("number", _number_key(r), _rational_text(r), coeff=r)


def _atom(cls, name, text) -> _Node:
    return _Node("atom", (cls, (1, (name,)), _ONE_KEY, 1), text)


_I_NODE = _atom(_ATOM_I, "I", "i")
# the generators in the ring's order, which is also sympy's order of
# their names
_GEN_NODES = tuple(_atom(_ATOM_SYMBOL, name, text) for name, text in
                   (("P1", "P[1]"), ("P2", "P[2]"), ("P3", "P[3]"),
                    ("m", "m")))


def _power(base: _Node, e: int) -> _Node:
    """base**e for an integer e != 0; sympy keys a power as its base with
    the exponent in the third slot."""
    if e == 1:
        return base
    return _Node("pow", base.key[:2] + (_number_key(e), 1),
                 f"Pow({base.text},{e})")


def _product(coeff, i_exp, factors) -> _Node:
    """Mul(coeff, I**i_exp, *(b**e for b, e in factors)) as sympy
    evaluates it: the factors' bases are distinct, I**2 folds into the
    sign, and a rational times a single sum is distributed over it."""
    if i_exp % 4 >= 2:
        coeff = -coeff
    args = [_power(b, e) for b, e in factors if e]
    if i_exp % 2:
        args.append(_I_NODE)
    if not args:
        return _number(coeff)
    if coeff == 1 and len(args) == 1:
        return args[0]
    if len(args) == 1 and args[0].kind == "add":
        return _sum([(mono, r * coeff, x, y)
                     for mono, r, x, y in args[0].terms])
    args.sort(key=lambda a: a.key)
    body = "*".join(a.text for a in args)
    if coeff == 1:
        text = body
    elif coeff == -1:
        text = "-" + body
    else:
        text = _rational_text(coeff) + "*" + body
    if len(args) == 1:
        key = args[0].key[:3] + (coeff,)
    else:
        key = (_MUL, (len(args), tuple(a.key for a in args)), _ONE_KEY,
               coeff)
    return _Node("mul", key, text, coeff=coeff, factors=len(args))


def _monomial(mono, x, y):
    """(x + y*i)*prod(gen**e) as (rational, power of i, {base id: (base,
    exponent)}); a Gaussian integer with two nonzero parts is a factor,
    the sum (x + y*i)."""
    bases = {k: (g, e) for k, (g, e) in enumerate(zip(_GEN_NODES, mono))
             if e}
    if not y:
        return x, 0, bases
    if not x:
        return y, 1, bases
    bases[("i", x, y)] = (_gaussian(x, y), 1)
    return 1, 0, bases


def _term(mono, r, x, y) -> _Node:
    """The node of r*(x + y*i)*prod(gen**e), r rational, x and y
    integers."""
    k, i_exp, bases = _monomial(mono, x, y)
    return _product(r * k, i_exp, bases.values())


def _sum(terms) -> _Node:
    """The sum of the terms (monomial, r, x, y), distinct monomials; a
    constant term with two nonzero parts is two terms, as in sympy."""
    split = []
    for mono, r, x, y in terms:
        if mono == _CONSTANT and x and y:
            split += [(mono, r, x, 0), (mono, r, 0, y)]
        else:
            split.append((mono, r, x, y))
    nodes = [_term(*t) for t in split]
    text = "(" + " + ".join(n.text for n in
                            sorted(nodes, key=lambda n: n.key)) + ")"
    return _Node("add", (_ADD, (len(nodes), _ordered_keys(split, nodes)),
                         _ONE_KEY, 1),
                 text, terms=split)


def _ordered_keys(terms, nodes):
    """The keys of a sum's terms in the order sympy gives its terms when
    it keys the sum: a positive number before a negative multiple of one
    factor, else descending lex monomial over the generators sorted by
    name, then the coefficient as ((im != 0, im), (re, im))."""
    if len(nodes) == 2:
        num = [n for n in nodes if n.kind == "number"]
        if len(num) == 1 and num[0].coeff > 0:
            other = nodes[1] if nodes[0] is num[0] else nodes[0]
            if (other.kind == "mul" and other.factors == 1
                    and other.coeff < 0):
                return (num[0].key, other.key)

    def order(pair):
        (mono, r, x, y), _ = pair
        re, im = r * x, r * y
        return tuple(-e for e in mono), ((im != 0, im), (re, im))

    return tuple(n.key for _, n in sorted(zip(terms, nodes), key=order))


def _gaussian(x, y) -> _Node:
    """The sum x + y*i of a Gaussian integer with two nonzero parts."""
    return _sum([(_CONSTANT, 1, x, y)])


def _factors(p, inverse):
    """p, or 1/p, as (rational, power of i, {base id: (base, exponent)}):
    a single term as its coefficient and monomial, several terms as one
    sum."""
    if len(p) > 1:
        node = _sum([(mono, 1, c.x, c.y) for mono, c in p.items()])
        return 1, 0, {"sum" + "PQ"[inverse]: (node, -1 if inverse else 1)}
    ((mono, c),) = p.items()
    if not inverse:
        return _monomial(mono, c.x, c.y)
    # 1/(x + y*i) = (x - y*i)/(x^2 + y^2), left unreduced
    k, i_exp, bases = _monomial(tuple(-e for e in mono), c.x, -c.y)
    return Fraction(k, c.x**2 + c.y**2), i_exp, bases


def _fmt_component(ring, c):
    """(text, is a sum) of a component (num, q, den): a constant over q
    alone is the expanded Gaussian rational, anything else P/Q as
    ``Ring._cancelled`` gives them."""
    n, q, d = c
    if n.is_ground and not d:
        k, r = n.LC, Fraction(1, q)
        node = (_sum([(_CONSTANT, r, k.x, k.y)]) if k.x and k.y
                else _term(_CONSTANT, r, k.x, k.y))
        return node.text, node.kind == "add"
    p, den = ring._cancelled(c)
    coeff, i_exp, bases = _factors(p, False)
    c2, i2, b2 = _factors(den, True)
    for k, (b, e) in b2.items():
        bases[k] = (b, bases[k][1] + e if k in bases else e)
    node = _product(coeff * c2, i_exp + i2, bases.values())
    return node.text, node.kind == "add"


def _component_texts(scalar) -> dict:
    """{(eH, eR): (text, is a sum)} of a scalar's components, built once
    and kept in its ``_parts`` slot."""
    if scalar._parts is None:
        scalar._parts = {k: _fmt_component(scalar.ring, c)
                         for k, c in scalar._c.items()}
    return scalar._parts


def _fmt_scalar(scalar) -> str:
    """Print a coefficient-ring element; H and |P| carry the basis tags."""
    if scalar.is_zero():
        return "0"
    bits = []
    for (h, r), (text, _) in sorted(_component_texts(scalar).items()):
        tags = []
        if h:
            tags.append("H")
        if r:
            tags.append("Pow(Dot(P,P),1/2)")
        if text == "1" and tags:
            bits.append("*".join(tags))
        elif text == "-1" and tags:
            bits.append("-" + "*".join(tags))
        else:
            bits.append("*".join([text] + tags))
    return " + ".join(bits)


def _one_part(scalar) -> bool:
    """True when the scalar prints as a single product (no top-level sum)."""
    texts = _component_texts(scalar)
    if len(texts) != 1:
        return False
    ((_, is_sum),) = texts.values()
    return not is_sum


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
