"""Text front end for operator expressions and moment inequalities.

Grammar (whitespace insensitive; ``-`` also accepts the unicode minus):

    query    := compare | arith
    compare  := arith (">=" | "<") arith
    arith    := aterm (("+" | "-") aterm)*
    aterm    := afact (("*" | "/") afact)*
    afact    := "E" "[" expr "]" | "Var" "[" expr "]"
              | "abs2" "(" arith ")" | number | "(" arith ")"
    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := primary ("^" posint)? | "-" factor
    primary  := "a" | "ad" | "b" | "bd" | "xa" | "pa" | "xb" | "pb"
              | "i" | number | "(" expr ")"

Operator symbols do not commute under "*"; all commutation rewriting
happens in the lowering pass.  Division is only defined by complex
scalars and is folded into coefficients.  ``i`` is the imaginary unit and
``abs2(z)`` is |z|^2.  Numbers, parentheses and ``+ - * /`` parse into the
same nodes at both levels.
"""

import cmath
import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass

from . import algebra
from .algebra import OperatorPoly, expectation_poly, variance
from .errors import DimensionError, EntcertError, LexError, ParseError
from .fock import Cutoff, State, fires

OPERATOR_SYMBOLS = ("a", "ad", "b", "bd", "xa", "pa", "xb", "pb")


class LoweringError(EntcertError):
    """Expression is grammatical but has no operator-polynomial meaning."""


# -- AST ----------------------------------------------------------------

class _Node:
    """Mixin for the AST nodes and tokens, which are namedtuples: a node is
    equal only to one of its own type, so Add(x, y) != Sub(x, y)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple(self)))


class ComplexLiteral(_Node, namedtuple("ComplexLiteral", "value")):
    __slots__ = ()


class Symbol(_Node, namedtuple("Symbol", "name")):  # name: one of OPERATOR_SYMBOLS or "i"
    __slots__ = ()


class Neg(_Node, namedtuple("Neg", "operand")):
    __slots__ = ()


class Add(_Node, namedtuple("Add", "left right")):
    __slots__ = ()


class Sub(_Node, namedtuple("Sub", "left right")):
    __slots__ = ()


class Mul(_Node, namedtuple("Mul", "left right")):
    __slots__ = ()


class Div(_Node, namedtuple("Div", "left right")):
    __slots__ = ()


class Pow(_Node, namedtuple("Pow", "base exponent")):
    __slots__ = ()


class Paren(_Node, namedtuple("Paren", "inner")):
    __slots__ = ()


class EQuery(_Node, namedtuple("EQuery", "expr")):
    __slots__ = ()


class VarQuery(_Node, namedtuple("VarQuery", "expr")):
    __slots__ = ()


class Abs2(_Node, namedtuple("Abs2", "arg")):
    __slots__ = ()


# Both levels share the arithmetic nodes and fold +, - and * alike: operator
# expressions into polynomials, query arithmetic into complex numbers.
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_RING_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
# Query nodes that take an operator expression in brackets.
_OPERATOR_QUERIES = {"E": EQuery, "Var": VarQuery}


class Compare(_Node, namedtuple("Compare", "left relation right")):  # relation: ">=" or "<"
    __slots__ = ()


@dataclass(frozen=True)
class CompareResult:
    lhs: float
    rhs: float
    holds: bool
    relation: str


# -- lexer --------------------------------------------------------------

# Every alternative consumes a character, and "bad" takes any non-space one
# that starts no token, so the matches cover the text up to trailing space.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<geq>>=)"
    r"|(?P<punct>[+*/^()\[\]<]|-|−)"
    r"|(?P<bad>\S)"
    r")"
)


# kind: "number", "name", or the punctuation itself
class Token(_Node, namedtuple("Token", "kind text pos")):
    __slots__ = ()


def tokenize(text: str) -> list[Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        if group == "bad":
            raise LexError(f"unexpected character {match.group(group)!r}", match.start(group))
        # A number or a name takes its group as kind; ">=" and punctuation
        # are their own kind, with the unicode minus read as "-".
        lexeme = match.group(group).replace("−", "-")
        kind = group if group in ("number", "name") else lexeme
        tokens.append(Token(kind, lexeme, match.start(group)))
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _fail(self, expected: str):
        tok = self.current
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected {expected}, found {what}", tok.pos)

    def _expect(self, kind: str, expected: str) -> Token:
        if self.current.kind != kind:
            self._fail(expected)
        return self._advance()

    def _number(self) -> ComplexLiteral:
        tok = self._advance()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"number {tok.text!r} is too large", tok.pos)
        return ComplexLiteral(complex(value))

    def _closed(self, inner, closing: str):
        """inner's node, which the closing bracket must follow."""
        node = inner()
        self._expect(closing, f"'{closing}'")
        return node

    def _chain(self, operand, ops):
        """operand ((op) operand)*, folded left into Add/Sub/Mul/Div nodes."""
        node = operand()
        while self.current.kind in ops:
            node = _BINARY[self._advance().kind](node, operand())
        return node

    # query level ----------------------------------------------------

    def parse_query(self):
        left = self.parse_arith()
        if self.current.kind not in (">=", "<"):
            return left
        relation = self._advance().kind
        return Compare(left, relation, self.parse_arith())

    def parse_arith(self):
        return self._chain(self.parse_aterm, ("+", "-"))

    def parse_aterm(self):
        return self._chain(self.parse_afact, ("*", "/"))

    def parse_afact(self):
        tok = self.current
        if tok.kind == "name" and tok.text in _OPERATOR_QUERIES:
            self._advance()
            self._expect("[", f"'[' after {tok.text}")
            return _OPERATOR_QUERIES[tok.text](self._closed(self.parse_expr, "]"))
        if tok.kind == "name" and tok.text == "abs2":
            self._advance()
            self._expect("(", "'(' after abs2")
            return Abs2(self._closed(self.parse_arith, ")"))
        if tok.kind == "number":
            return self._number()
        if tok.kind == "(":
            self._advance()
            return Paren(self._closed(self.parse_arith, ")"))
        self._fail("E[...], Var[...], abs2(...), a number, or '('")

    # operator-expression level ---------------------------------------

    def parse_expr(self):
        return self._chain(self.parse_term, ("+", "-"))

    def parse_term(self):
        return self._chain(self.parse_factor, ("*", "/"))

    def parse_factor(self):
        if self.current.kind == "-":
            self._advance()
            return Neg(self.parse_factor())
        base = self.parse_primary()
        if self.current.kind == "^":
            self._advance()
            tok = self._expect("number", "a positive integer exponent")
            try:  # int() refuses more digits than Python's int_max_str_digits
                exponent = int(tok.text) if tok.text.isdigit() else 0
            except ValueError:
                raise ParseError(f"{len(tok.text)}-digit exponent is too large", tok.pos) from None
            if exponent < 1:
                raise ParseError(f"exponent must be a positive integer, got {tok.text!r}", tok.pos)
            return Pow(base, exponent)
        return base

    def parse_primary(self):
        tok = self.current
        if tok.kind == "name":
            if tok.text in OPERATOR_SYMBOLS or tok.text == "i":
                self._advance()
                return Symbol(tok.text)
            self._fail("an operator symbol (a, ad, b, bd, xa, pa, xb, pb) or i")
        if tok.kind == "number":
            return self._number()
        if tok.kind == "(":
            self._advance()
            return Paren(self._closed(self.parse_expr, ")"))
        self._fail("an operator symbol, i, a number, or '('")


def parse(text: str):
    """Parse a query (or a bare arithmetic expression over E/Var results)."""
    return _parse(text, _Parser.parse_query, "end of input, an arithmetic operator, '>=' or '<'")


def parse_operator(text: str):
    """Parse text as a pure operator expression (the inside of E[...])."""
    return _parse(text, _Parser.parse_expr, "end of input or an operator")


def _parse(text: str, rule, follows: str):
    """rule's node for the whole text, where follows names what may come after
    it; nesting past the recursion limit is a ParseError at the token where
    the parser stopped."""
    parser = _Parser(text)
    try:
        node = rule(parser)
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.current.pos) from None
    if parser.current.kind != "end":
        parser._fail(follows)
    return node


# -- printing (round-trip) ------------------------------------------------

_INFIX = {node_type: op for op, node_type in _BINARY.items()}
_QUERY_NAMES = {node_type: name for name, node_type in _OPERATOR_QUERIES.items()}


def format_expr(node) -> str:
    """Text that parses back to ``node``, at either level."""
    if type(node) in _INFIX:
        return f"{format_expr(node.left)}{_INFIX[type(node)]}{format_expr(node.right)}"
    if isinstance(node, Compare):
        return f"{format_expr(node.left)}{node.relation}{format_expr(node.right)}"
    if isinstance(node, ComplexLiteral):
        return _format_number(node.value)
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Neg):
        return "-" + format_expr(node.operand)
    if isinstance(node, Pow):
        return f"{format_expr(node.base)}^{node.exponent}"
    if isinstance(node, Paren):
        return f"({format_expr(node.inner)})"
    if type(node) in _QUERY_NAMES:
        return f"{_QUERY_NAMES[type(node)]}[{format_expr(node.expr)}]"
    if isinstance(node, Abs2):
        return f"abs2({format_expr(node.arg)})"
    raise TypeError(f"not an expression or query node: {node!r}")


format_query = format_expr


def _format_number(value: complex) -> str:
    real = value.real
    if real == int(real) and abs(real) < 1e15:
        return str(int(real))
    return repr(real)


# -- lowering -------------------------------------------------------------

_SYMBOL_POLYS = {
    "a": algebra.A,
    "ad": algebra.AD,
    "b": algebra.B,
    "bd": algebra.BD,
    "i": OperatorPoly.scalar(1j),
    **algebra.QUADRATURES,
}


def lower(node, cutoff: Cutoff | None = None) -> OperatorPoly:
    """Translate an operator-expression AST to its canonical polynomial; given
    a cutoff, a power whose top degree reaches it raises PowerGuardError
    before it is expanded (see _check_power)."""
    if isinstance(node, ComplexLiteral):
        return OperatorPoly.scalar(node.value)
    if isinstance(node, Symbol):
        return _SYMBOL_POLYS[node.name]
    if isinstance(node, Neg):
        return -lower(node.operand, cutoff)
    if type(node) in _RING_OPS:
        return _RING_OPS[type(node)](lower(node.left, cutoff), lower(node.right, cutoff))
    if isinstance(node, Div):
        divisor = lower(node.right, cutoff)
        scalar = _as_scalar(divisor)
        if scalar is None:
            raise LoweringError(f"division is only defined by complex scalars, got {divisor!r}")
        if scalar == 0:
            raise LoweringError("division by zero")
        return lower(node.left, cutoff) * (1.0 / scalar)
    if isinstance(node, Pow):
        base = lower(node.base, cutoff)
        scalar = _as_scalar(base)
        if scalar is not None:
            return OperatorPoly.scalar(_scalar_power(scalar, node.exponent))
        if cutoff is not None:
            _check_power(base, node.exponent, cutoff)
        return base**node.exponent
    if isinstance(node, Paren):
        return lower(node.inner, cutoff)
    raise TypeError(f"not an operator-expression node: {node!r}")


def _check_power(base: OperatorPoly, exponent: int, cutoff: Cutoff) -> None:
    """The moment power guard, applied to base^exponent before it is expanded.

    Normal ordering only removes ladder pairs, and the commuted top-degree
    parts of the factors multiply without cancelling, so base^exponent has
    per-mode power exactly exponent times base's.  Its expectation would
    reach the guard anyway, after an expansion that takes as long as the
    exponent is large.  Only an expression that cancels the power again,
    such as a^3 - a^3 or 0*a^3, is refused here rather than evaluated to 0,
    and the guard comes before Var's Hermiticity check.  A scalar base never
    gets here: lower takes its power directly.
    """
    for m, n, p, q in base.terms:
        algebra._check_power_guard(exponent * (m + n), exponent * (p + q), cutoff)


def _scalar_power(value: complex, exponent: int) -> complex:
    """value ** exponent by repeated squaring, in about log2(exponent)
    products; powers of 1, -1 and i stay exact, and an overflow gives a
    non-finite value that evaluate rejects."""
    out = 1 + 0j
    while exponent:
        if exponent & 1:
            out *= value
        value *= value
        exponent >>= 1
    return out


def _as_scalar(poly: OperatorPoly):
    """The complex value of a scalar polynomial, or None if it has ladder terms."""
    if not poly.terms:
        return 0j
    if set(poly.terms) == {algebra.IDENTITY_MONO}:
        return poly.terms[algebra.IDENTITY_MONO]
    return None


# -- evaluation ------------------------------------------------------------

_COMPARE_REAL_TOL = 1e-9


def evaluate(node, rho: State):
    """Evaluate a query AST against a state (pure or density operator).

    Returns a complex number for value queries and a CompareResult for
    comparisons.  Comparisons are evaluated on the real parts after
    checking the imaginary parts are negligible, with the witnesses' rule
    fock.fires: lhs < rhs only when it fires, so a state that saturates
    a bound holds it whatever the round-off.
    A value or a side of a comparison that overflows is a LoweringError, as
    is a query nested too deeply to lower or to evaluate.
    A batched PureState is refused: a query reads one state.
    """
    if rho.batch:
        raise DimensionError(f"a query reads one state, got a batch of shape {rho.batch}")
    try:
        if isinstance(node, Compare):
            lhs = _to_real(_evaluate_value(node.left, rho), "left side of comparison")
            rhs = _to_real(_evaluate_value(node.right, rho), "right side of comparison")
            fired = fires(lhs, rhs)
            holds = fired if node.relation == "<" else not fired
            return CompareResult(lhs=lhs, rhs=rhs, holds=holds, relation=node.relation)
        return _finite(_evaluate_value(node, rho), "value")
    except OverflowError as exc:
        raise LoweringError("query value overflows a float") from exc
    except RecursionError:
        raise LoweringError("query nests too deeply to evaluate") from None


def _evaluate_value(node, rho: State) -> complex:
    if isinstance(node, ComplexLiteral):
        return node.value
    if isinstance(node, Paren):
        return _evaluate_value(node.inner, rho)
    if isinstance(node, EQuery):
        return expectation_poly(rho, lower(node.expr, rho.cutoff))
    if isinstance(node, VarQuery):
        poly = lower(node.expr, rho.cutoff)
        if not poly.is_hermitian():
            raise LoweringError(f"Var requires a Hermitian operator, got {poly!r}")
        return complex(variance(rho, poly))
    if isinstance(node, Abs2):
        return complex(abs(_evaluate_value(node.arg, rho)) ** 2)
    if isinstance(node, (Add, Sub, Mul, Div)):
        left = _evaluate_value(node.left, rho)
        right = _evaluate_value(node.right, rho)
        if type(node) in _RING_OPS:
            return _RING_OPS[type(node)](left, right)
        if right == 0:
            raise LoweringError("division by zero in query arithmetic")
        return left / right
    raise TypeError(f"not a query node: {node!r}")


def _finite(value: complex, label: str) -> complex:
    if not cmath.isfinite(value):
        raise LoweringError(f"{label} is not finite: {value!r}")
    return value


def _to_real(value: complex, label: str) -> float:
    _finite(value, label)
    if abs(value.imag) > _COMPARE_REAL_TOL * max(1.0, abs(value)):
        raise LoweringError(f"{label} is not real: {value!r}")
    return value.real


def evaluate_text(text: str, rho: State):
    """Parse and evaluate in one step."""
    return evaluate(parse(text), rho)
