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
import re
from dataclasses import dataclass

from . import algebra
from .algebra import OperatorPoly, expectation_poly, variance
from .criteria import DETECTION_MARGIN
from .errors import EntcertError, LexError, ParseError
from .fock import Cutoff, State

OPERATOR_SYMBOLS = ("a", "ad", "b", "bd", "xa", "pa", "xb", "pb")


class LoweringError(EntcertError):
    """Expression is grammatical but has no operator-polynomial meaning."""


# -- AST ----------------------------------------------------------------

@dataclass(frozen=True)
class ComplexLiteral:
    value: complex


@dataclass(frozen=True)
class Symbol:
    name: str  # one of OPERATOR_SYMBOLS or "i"


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Paren:
    inner: object


@dataclass(frozen=True)
class EQuery:
    expr: object


@dataclass(frozen=True)
class VarQuery:
    expr: object


@dataclass(frozen=True)
class Abs2:
    arg: object


# Both levels share the arithmetic nodes: operator expressions fold them
# into polynomials, query arithmetic into complex numbers.
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}


@dataclass(frozen=True)
class Compare:
    left: object
    relation: str  # ">=" or "<"
    right: object


@dataclass(frozen=True)
class CompareResult:
    lhs: float
    rhs: float
    holds: bool
    relation: str


# -- lexer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<geq>>=)"
    r"|(?P<punct>[+*/^()\[\]<]|-|−)"
    r")"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "name", or the punctuation itself
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            # skip leading whitespace manually to report the right offset
            stripped = len(text) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise LexError(f"unexpected character {text[stripped]!r}", stripped)
        if match.lastgroup == "number":
            tokens.append(Token("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(Token("name", match.group("name"), match.start("name")))
        elif match.lastgroup == "geq":
            tokens.append(Token(">=", ">=", match.start("geq")))
        else:
            ch = match.group("punct")
            if ch == "−":
                ch = "-"
            tokens.append(Token(ch, ch, match.start("punct")))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def _chain(self, operand, ops):
        """operand ((op) operand)*, folded left into Add/Sub/Mul/Div nodes."""
        node = operand()
        while self.current.kind in ops:
            node = _BINARY[self._advance().kind](node, operand())
        return node

    # query level ----------------------------------------------------

    def parse_query(self):
        left = self.parse_arith()
        if self.current.kind in (">=", "<"):
            relation = self._advance().kind
            right = self.parse_arith()
            node = Compare(left, relation, right)
        else:
            node = left
        if self.current.kind != "end":
            self._fail("end of input, an arithmetic operator, '>=' or '<'")
        return node

    def parse_arith(self):
        return self._chain(self.parse_aterm, ("+", "-"))

    def parse_aterm(self):
        return self._chain(self.parse_afact, ("*", "/"))

    def parse_afact(self):
        tok = self.current
        if tok.kind == "name" and tok.text == "E":
            self._advance()
            self._expect("[", "'[' after E")
            expr = self.parse_expr()
            self._expect("]", "']'")
            return EQuery(expr)
        if tok.kind == "name" and tok.text == "Var":
            self._advance()
            self._expect("[", "'[' after Var")
            expr = self.parse_expr()
            self._expect("]", "']'")
            return VarQuery(expr)
        if tok.kind == "name" and tok.text == "abs2":
            self._advance()
            self._expect("(", "'(' after abs2")
            arg = self.parse_arith()
            self._expect(")", "')'")
            return Abs2(arg)
        if tok.kind == "number":
            return self._number()
        if tok.kind == "(":
            self._advance()
            inner = self.parse_arith()
            self._expect(")", "')'")
            return Paren(inner)
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
            if not tok.text.isdigit() or int(tok.text) < 1:
                raise ParseError(f"exponent must be a positive integer, got {tok.text!r}", tok.pos)
            return Pow(base, int(tok.text))
        return base

    def parse_primary(self):
        tok = self.current
        if tok.kind == "name":
            if tok.text in OPERATOR_SYMBOLS:
                self._advance()
                return Symbol(tok.text)
            if tok.text == "i":
                self._advance()
                return Symbol("i")
            self._fail("an operator symbol (a, ad, b, bd, xa, pa, xb, pb) or i")
        if tok.kind == "number":
            return self._number()
        if tok.kind == "(":
            self._advance()
            inner = self.parse_expr()
            self._expect(")", "')'")
            return Paren(inner)
        self._fail("an operator symbol, i, a number, or '('")


def parse(text: str):
    """Parse a query (or a bare arithmetic expression over E/Var results)."""
    return _Parser(text).parse_query()


def parse_operator(text: str):
    """Parse text as a pure operator expression (the inside of E[...])."""
    parser = _Parser(text)
    node = parser.parse_expr()
    if parser.current.kind != "end":
        parser._fail("end of input or an operator")
    return node


# -- printing (round-trip) ------------------------------------------------

_INFIX = {node_type: op for op, node_type in _BINARY.items()}


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
    if isinstance(node, EQuery):
        return f"E[{format_expr(node.expr)}]"
    if isinstance(node, VarQuery):
        return f"Var[{format_expr(node.expr)}]"
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


def lower(node) -> OperatorPoly:
    """Translate an operator-expression AST to its canonical polynomial."""
    return _lower(node, None)


def _lower(node, cutoff: Cutoff | None) -> OperatorPoly:
    """lower(node); given a cutoff, a power whose top degree reaches it raises
    PowerGuardError before it is expanded (see _check_power)."""
    if isinstance(node, ComplexLiteral):
        return OperatorPoly.scalar(node.value)
    if isinstance(node, Symbol):
        return _SYMBOL_POLYS[node.name]
    if isinstance(node, Neg):
        return -_lower(node.operand, cutoff)
    if isinstance(node, Add):
        return _lower(node.left, cutoff) + _lower(node.right, cutoff)
    if isinstance(node, Sub):
        return _lower(node.left, cutoff) - _lower(node.right, cutoff)
    if isinstance(node, Mul):
        return _lower(node.left, cutoff) * _lower(node.right, cutoff)
    if isinstance(node, Div):
        divisor = _lower(node.right, cutoff)
        scalar = _as_scalar(divisor)
        if scalar is None:
            raise LoweringError(f"division is only defined by complex scalars, got {divisor!r}")
        if scalar == 0:
            raise LoweringError("division by zero")
        return _lower(node.left, cutoff) * (1.0 / scalar)
    if isinstance(node, Pow):
        base = _lower(node.base, cutoff)
        scalar = _as_scalar(base)
        if scalar is not None:
            return OperatorPoly.scalar(_scalar_power(scalar, node.exponent))
        if cutoff is not None:
            _check_power(base, node.exponent, cutoff)
        return base**node.exponent
    if isinstance(node, Paren):
        return _lower(node.inner, cutoff)
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
    gets here: _lower takes its power directly.
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
    checking the imaginary parts are negligible, with the witnesses' rule:
    lhs < rhs only when lhs falls below rhs by more than DETECTION_MARGIN,
    so a state that saturates a bound holds it whatever the round-off.
    A value or a side of a comparison that overflows is a LoweringError.
    """
    try:
        if isinstance(node, Compare):
            lhs = _to_real(_evaluate_value(node.left, rho), "left side of comparison")
            rhs = _to_real(_evaluate_value(node.right, rho), "right side of comparison")
            bound = rhs - DETECTION_MARGIN
            holds = lhs >= bound if node.relation == ">=" else lhs < bound
            return CompareResult(lhs=lhs, rhs=rhs, holds=holds, relation=node.relation)
        return _finite(_evaluate_value(node, rho), "value")
    except OverflowError as exc:
        raise LoweringError("query value overflows a float") from exc


def _evaluate_value(node, rho: State) -> complex:
    if isinstance(node, ComplexLiteral):
        return node.value
    if isinstance(node, Paren):
        return _evaluate_value(node.inner, rho)
    if isinstance(node, EQuery):
        return expectation_poly(rho, _lower(node.expr, rho.cutoff))
    if isinstance(node, VarQuery):
        poly = _lower(node.expr, rho.cutoff)
        if not poly.is_hermitian():
            raise LoweringError(f"Var requires a Hermitian operator, got {poly!r}")
        return complex(variance(rho, poly))
    if isinstance(node, Abs2):
        return complex(abs(_evaluate_value(node.arg, rho)) ** 2)
    if isinstance(node, (Add, Sub, Mul, Div)):
        left = _evaluate_value(node.left, rho)
        right = _evaluate_value(node.right, rho)
        if isinstance(node, Add):
            return left + right
        if isinstance(node, Sub):
            return left - right
        if isinstance(node, Mul):
            return left * right
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
