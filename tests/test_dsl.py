"""Parser, lowering pass, and query evaluation."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import Cutoff, LexError, Monomial, OperatorPoly, ParseError, PowerGuardError
from entcert import bell_xp_state
from entcert import density_from_pure, product_coherent
from entcert import dsl
from entcert.algebra import A, AD, B, BD, IDENTITY_MONO, ONE, QUADRATURES, quadrature_poly
from entcert.criteria import BUILTIN_OPERATORS, BUILTIN_QUERIES
from entcert.dsl import (
    Add,
    Compare,
    CompareResult,
    ComplexLiteral,
    EQuery,
    LoweringError,
    Mul,
    Neg,
    Paren,
    Pow,
    Sub,
    Symbol,
    Token,
    VarQuery,
    evaluate,
    evaluate_text,
    format_expr,
    format_query,
    lower,
    parse,
    parse_operator,
)

SQRT_HALF = 2.0**-0.5

# Each builtin operator built by hand from the elementary polynomials,
# independently of the parser and the lowering pass: the exact oracle for
# the polynomials criteria lowers from the DSL text.
_XA, _PA, _XB, _PB = (QUADRATURES[s] for s in ("xa", "pa", "xb", "pb"))
HAND_BUILT = {
    "S_x": (AD * B + A * BD) * 0.5,
    "S_y": (AD * B - A * BD) * (1.0 / 2j),
    "S_z": (AD * A - BD * B) * 0.5,
    "K_x": (AD * BD + A * B) * 0.5,
    "K_y": (AD * BD - A * B) * (1.0 / 2j),
    "K_z": (AD * A + BD * B + ONE) * 0.5,
    "K_x_quad": (_XA * _XB - _PA * _PB) * 0.5,
    "K_y_quad": -(_XA * _PB + _PA * _XB) * 0.5,
    "K_z_quad": (_XA**2 + _PA**2 + _XB**2 + _PB**2) * 0.25,
    "u_sum": quadrature_poly({"xa": 1.0, "xb": 1.0}),
    "v_diff": quadrature_poly({"pa": 1.0, "pb": -1.0}),
}


@pytest.fixture
def vacuum():
    return density_from_pure(product_coherent(0.0, 0.0, Cutoff(3, 3))[0])


@pytest.fixture
def bell_half():
    return density_from_pure(bell_xp_state(SQRT_HALF, SQRT_HALF, Cutoff(3, 3)))


class TestParsing:
    def test_expectation_of_number_operator(self):
        ast = parse("E[ad*a]")
        assert ast == EQuery(Mul(Symbol("ad"), Symbol("a")))

    def test_var_of_pair_creation(self):
        ast = parse("Var[(ad*bd+a*b)/2]")
        assert isinstance(ast, VarQuery)
        inner = ast.expr
        assert isinstance(inner.left, Paren)
        assert inner.left.inner == Add(Mul(Symbol("ad"), Symbol("bd")), Mul(Symbol("a"), Symbol("b")))

    def test_unclosed_bracket_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("E[ad*a*b*bd")
        assert excinfo.value.position == len("E[ad*a*b*bd")
        assert "']'" in str(excinfo.value)

    def test_dangling_product_reports_end_of_input(self):
        with pytest.raises(ParseError) as excinfo:
            parse("E[ad*")
        assert excinfo.value.position == 5

    def test_unknown_character(self):
        with pytest.raises(LexError) as excinfo:
            parse("E[ad # a]")
        assert excinfo.value.position == 5

    def test_unknown_name_inside_expr(self):
        with pytest.raises(ParseError):
            parse("E[ad*q]")

    def test_precedence_pow_before_neg(self):
        ast = parse_operator("-a^2")
        assert ast == Neg(Pow(Symbol("a"), 2))

    def test_precedence_mul_before_add(self):
        ast = parse_operator("a+b*bd")
        assert ast == Add(Symbol("a"), Mul(Symbol("b"), Symbol("bd")))

    def test_exponent_must_be_positive_integer(self):
        with pytest.raises(ParseError):
            parse_operator("a^0")
        with pytest.raises(ParseError):
            parse_operator("a^1.5")

    def test_unicode_minus_accepted(self):
        assert parse_operator("a−b") == parse_operator("a-b")

    def test_compare_operators(self):
        ast = parse("E[ad*a] >= 1")
        assert isinstance(ast, Compare) and ast.relation == ">="
        ast = parse("E[ad*a] < 1")
        assert isinstance(ast, Compare) and ast.relation == "<"

    @pytest.mark.parametrize(
        "text, column",
        [
            ("1e999", 0),
            ("E[1e999*ad*a]", 2),
            ("E[a] >= 2e400", 8),
            # More digits than int() converts: a ValueError, exit 3 from the CLI.
            pytest.param("E[a^" + "9" * 5000 + "]", 4, id="5000-digit-exponent"),
        ],
    )
    def test_overflowing_number_is_positioned_parse_error(self, text, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == column

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("E[ad*a] 3")


class TestNodes:
    def test_equality_is_distinct_by_type(self):
        x, y = Symbol("a"), Symbol("b")
        assert Add(x, y) == Add(Symbol("a"), Symbol("b"))
        assert Add(x, y) != Sub(x, y)
        assert not Add(x, y) == Sub(x, y)
        assert EQuery(x) != VarQuery(x)
        assert Add(x, y) != (x, y)
        assert Token("name", "a", 0) != Symbol("a")

    def test_equal_nodes_hash_alike(self):
        text = "Var[xa+xb]*Var[pa-pb] >= 1"
        assert parse(text) is not parse(text)
        assert hash(parse(text)) == hash(parse(text))
        assert len({parse(text), parse(text), parse("Var[xa+xb]*Var[pa-pb] < 1")}) == 2
        assert len({Add(Symbol("a"), Symbol("b")), Sub(Symbol("a"), Symbol("b"))}) == 2

    def test_nodes_are_immutable(self):
        node = Pow(Symbol("a"), 2)
        with pytest.raises(AttributeError):
            node.exponent = 3
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            dsl.tokenize("a")[0].pos = 1
        assert node == Pow(Symbol("a"), 2)

    def test_fields_and_repr(self):
        node = Compare(EQuery(Symbol("a")), ">=", ComplexLiteral(1 + 0j))
        assert (node.left, node.relation, node.right) == tuple(node)
        assert repr(Pow(Symbol("a"), 2)) == "Pow(base=Symbol(name='a'), exponent=2)"
        with pytest.raises(TypeError):
            Add(Symbol("a"))


ROUND_TRIP_CORPUS = [
    "E[ad*a]",
    "E[a*ad]",
    "Var[(ad*bd+a*b)/2]",
    "Var[(ad*bd-a*b)/(2*i)]",
    "Var[xa+xb]",
    "Var[pa-pb]",
    "E[(ad*a+bd*b+1)/2]",
    "E[ad^2*b^2]",
    "E[a^2*bd^2]",
    "E[ad*b+a*bd]",
    "E[ad*b-a*bd]",
    "E[-a^2]",
    "E[2.5*xa]",
    "E[(xa+xb)^2]",
    "E[xa*pa-pa*xa]",
    "abs2(E[ad*b])",
    "E[ad*a]*E[bd*b]",
    "E[ad*a]+E[bd*b]-1",
    "Var[xa]*Var[pa] >= 0.25",
    "E[ad*a*bd*b] < 1",
    "(E[ad*a]+E[bd*b])*(E[ad*a]-E[bd*b])",
    "abs2(E[ad*bd])/4",
    "E[1.5e-3*xa]",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_print_then_reparse_is_identity(self, text):
        ast = parse(text)
        assert parse(format_query(ast)) == ast

    @pytest.mark.parametrize("name", sorted(BUILTIN_OPERATORS))
    def test_builtin_operator_strings(self, name):
        _, text = BUILTIN_OPERATORS[name]
        ast = parse_operator(text)
        assert parse_operator(format_expr(ast)) == ast

    @pytest.mark.parametrize("name", sorted(BUILTIN_QUERIES))
    def test_builtin_query_strings(self, name):
        ast = parse(BUILTIN_QUERIES[name])
        assert parse(format_query(ast)) == ast


class TestLowering:
    def test_commutator_rewrite(self):
        poly = lower(parse_operator("a*ad"))
        assert poly == OperatorPoly({Monomial(1, 1, 0, 0): 1.0, IDENTITY_MONO: 1.0})

    def test_quadrature_symbol(self):
        poly = lower(parse_operator("xa"))
        expected = (A + AD) * (1.0 / np.sqrt(2))
        assert poly == expected

    def test_division_by_two_i_gives_ky(self):
        poly = lower(parse_operator("(ad*bd-a*b)/(2*i)"))
        assert poly == OperatorPoly({Monomial(1, 0, 1, 0): -0.5j, Monomial(0, 1, 0, 1): 0.5j})

    def test_division_by_operator_rejected(self):
        with pytest.raises(LoweringError):
            lower(parse_operator("2/a"))

    def test_division_by_zero_rejected(self):
        with pytest.raises(LoweringError):
            lower(parse_operator("a/0"))

    def test_builtins_lower_to_hardcoded_polys_exactly(self):
        assert set(BUILTIN_OPERATORS) == set(HAND_BUILT)
        for name, (poly, text) in BUILTIN_OPERATORS.items():
            lowered = lower(parse_operator(text))
            assert lowered.terms == HAND_BUILT[name].terms, name  # exact canonical form
            assert poly.terms == HAND_BUILT[name].terms, name

    def test_power_lowering(self):
        assert lower(parse_operator("a^2")) == A * A
        assert lower(parse_operator("(xa+xb)^2")) == (
            lower(parse_operator("xa+xb")) * lower(parse_operator("xa+xb"))
        )

    def test_power_past_any_cutoff_lowers_without_a_state(self):
        assert lower(parse_operator("a^40")) == OperatorPoly({Monomial(0, 40, 0, 0): 1.0})

    def test_power_past_the_given_cutoff_is_refused(self):
        with pytest.raises(PowerGuardError, match=r"\(a:40, b:0\)"):
            lower(parse_operator("a^40"), Cutoff(3, 3))
        assert lower(parse_operator("a^2"), Cutoff(3, 3)) == A * A

    def test_evaluate_lowers_through_the_public_lower(self, monkeypatch):
        calls = []

        def counting(node, cutoff=None):
            calls.append(cutoff)
            return lower(node, cutoff)

        monkeypatch.setattr(dsl, "lower", counting)
        psi = bell_xp_state(1.0, 0.0, Cutoff(3, 3))
        assert evaluate_text("E[ad*a]", psi) == 1.0
        assert calls and calls[0] == Cutoff(3, 3)


class TestPowerGuard:
    def test_exponent_past_cutoff_raises_before_expanding(self, bell_half):
        with pytest.raises(PowerGuardError, match=r"\(a:3, b:0\)"):
            evaluate_text("E[a^3]", bell_half)
        with pytest.raises(PowerGuardError, match=r"\(a:3, b:3\)"):
            evaluate_text("Var[(a*b)^3]", bell_half)

    @pytest.mark.parametrize("text", ["E[0*a^3]", "E[a^3-a^3]", "Var[a^3]"])
    def test_guard_comes_before_cancellation_and_hermiticity(self, bell_half, text):
        with pytest.raises(PowerGuardError, match=r"\(a:3, b:0\)"):
            evaluate_text(text, bell_half)

    @pytest.mark.parametrize(
        "text, value",
        [("(a-a)^5", 0), ("(-1)^100000001", -1), ("i^7", -1j), ("(1+i)^4", -4), ("2^10", 1024)],
    )
    def test_scalar_base_power(self, bell_half, text, value):
        # Exact powers: the only rounding left is the state's trace.
        trace = evaluate_text("E[1]", bell_half)
        assert evaluate_text(f"E[{text}]", bell_half) == value * trace

    def test_power_within_cutoff_unchanged(self, bell_half):
        product = evaluate_text("E[(xa+xb)*(xa+xb)]", bell_half)
        assert evaluate_text("E[(xa+xb)^2]", bell_half) == product


class TestEvaluation:
    def test_number_expectation_on_vacuum(self, vacuum):
        assert evaluate_text("E[ad*a]", vacuum) == 0.0

    def test_k_uncertainty_holds_on_vacuum(self, vacuum):
        result = evaluate_text(BUILTIN_QUERIES["k_uncertainty"], vacuum)
        assert isinstance(result, CompareResult)
        assert result.holds
        assert result.lhs == pytest.approx(result.rhs)  # vacuum saturates it

    def test_su11_query_detects_bell_state(self, bell_half):
        result = evaluate_text(BUILTIN_QUERIES["su11_pt"], bell_half)
        assert result.holds is False
        assert result.lhs == pytest.approx(2.0)
        assert result.rhs == pytest.approx(4.0)

    def test_su2_query_holds_on_bell_state(self, bell_half):
        result = evaluate_text(BUILTIN_QUERIES["su2_pt"], bell_half)
        assert result.holds is True

    @pytest.mark.parametrize("relation, holds", [(">=", True), ("<", False)])
    def test_comparison_uses_detection_margin(self, relation, holds):
        # <ad a> = 1 on |1,0>; a bound 5e-11 above it sits inside the margin
        one_zero = bell_xp_state(1.0, 0.0, Cutoff(3, 3))
        result = evaluate_text(f"E[ad*a] {relation} 1.00000000005", one_zero)
        assert result.lhs == 1.0
        assert result.holds is holds

    def test_var_requires_hermitian(self, vacuum):
        with pytest.raises(LoweringError):
            evaluate_text("Var[a]", vacuum)

    def test_query_arithmetic(self, bell_half):
        value = evaluate_text("2*E[ad*a]+1", bell_half)
        assert value == pytest.approx(2.0)
        value = evaluate_text("abs2(E[ad*b])", bell_half)
        assert value == pytest.approx(0.25)

    def test_query_division(self, bell_half):
        value = evaluate_text("E[ad*a]/2", bell_half)
        assert value == pytest.approx(0.25)

    def test_comparison_requires_real_sides(self):
        rho = density_from_pure(bell_xp_state(SQRT_HALF, 1j * SQRT_HALF, Cutoff(3, 3)))
        with pytest.raises(LoweringError):
            evaluate_text("E[ad*b-a*bd] >= 0", rho)  # expectation is i

    @pytest.mark.parametrize(
        "text",
        [
            "E[ad*a]*1e300*1e300 >= 0",
            "0 < E[ad*a]*1e300*1e300",
            "E[1e300*1e300*ad*a]",
            "abs2(E[ad*a]*1e200)",
            "E[ad*a]*1e300*1e300-E[ad*a]*1e300*1e300",
        ],
    )
    def test_non_finite_value_is_lowering_error(self, bell_half, text):
        with pytest.raises(LoweringError, match="finite|overflows"):
            evaluate_text(text, bell_half)

    def test_evaluate_matches_hand_composition(self, bell_half):
        from entcert import expectation_poly

        direct = expectation_poly(bell_half, lower(parse_operator("ad*a+bd*b")))
        assert evaluate_text("E[ad*a+bd*b]", bell_half) == pytest.approx(direct, abs=1e-12)


class TestParserTotality:
    def test_fuzz_random_strings_parse_or_raise_positioned(self):
        rng = np.random.default_rng(99)
        alphabet = list("Ea Vr abs2[]()+-*/^<>=bdxp.0123456789i\t−#&")
        for _ in range(500):
            length = int(rng.integers(0, 24))
            text = "".join(rng.choice(alphabet) for _ in range(length))
            try:
                parse(text)
            except (ParseError, LexError) as exc:
                assert 0 <= exc.position <= len(text)

    def test_fuzz_random_bytes(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            length = int(rng.integers(1, 16))
            text = bytes(rng.integers(1, 256, size=length).tolist()).decode(
                "latin-1"
            )
            try:
                parse(text)
            except (ParseError, LexError) as exc:
                assert 0 <= exc.position <= len(text)


# Ten times the depth at which each input first overflowed the recursion
# limit, with no other error in it.
_DEEP_PARENS = "(" * 1650 + "E[a]" + ")" * 1650
_DEEP_PARENS_IN_E = "E[" + "(" * 1410 + "a" + ")" * 1410 + "]"
_DEEP_MINUS = "E[" + "-" * 9800 + "a]"
_LONG_OPERATOR_SUM = "E[" + "+".join(["a"] * 9900) + "]"
_LONG_QUERY_SUM = "+".join(["E[ad*a]"] * 9900)


class TestDepth:
    """Input that nests past Python's recursion limit is the package's own
    error, not a RecursionError."""

    @pytest.mark.parametrize(
        "text, opener",
        [(_DEEP_PARENS, "("), (_DEEP_PARENS_IN_E, "("), (_DEEP_MINUS, "-")],
        ids=["parens", "parens-in-E", "unary-minus"],
    )
    def test_deep_nesting_is_a_positioned_parse_error(self, text, opener):
        with pytest.raises(ParseError, match="nests too deeply") as info:
            parse(text)
        assert 0 < info.value.position < len(text)
        assert text[info.value.position] == opener

    @pytest.mark.parametrize(
        "text", ["(" * 1410 + "a" + ")" * 1410, "-" * 9800 + "a"], ids=["parens", "unary-minus"]
    )
    def test_deep_operator_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_operator(text)

    @pytest.mark.parametrize(
        "text", [_LONG_OPERATOR_SUM, _LONG_QUERY_SUM], ids=["operator-sum", "query-sum"]
    )
    def test_long_sum_is_a_lowering_error(self, bell_half, text):
        query = parse(text)  # the parser folds a sum in a loop
        with pytest.raises(LoweringError, match="nests too deeply"):
            evaluate(query, bell_half)

    def test_shallow_input_still_evaluates(self, bell_half):
        text = "(" * 50 + "E[" + "(" * 50 + "ad*a" + ")" * 50 + "]" + ")" * 50
        assert evaluate_text(text, bell_half) == pytest.approx(0.5)
        assert evaluate_text("+".join(["E[ad*a]"] * 100), bell_half) == pytest.approx(50.0)


# Characters that open a token on their own; "." opens one before a digit
# and ">" before "=".  Spelled out here, apart from the lexer's pattern.
_TOKEN_STARTS = set(string.ascii_letters + "_" + string.digits + "+-*/^()[]<−")
_LEX_ALPHABET = (
    "".join(sorted(_TOKEN_STARTS)) + ".>="  # token characters
    + " \t\n\r\x0b\x0c\u00a0\u3000"  # whitespace, ASCII and unicode
    + "!#$%&{}|~`'\",;:?\\é\x00λ"  # characters that start no token
)


def _starts_token(text: str, pos: int) -> bool:
    char, after = text[pos], text[pos + 1 : pos + 2]
    if char == ".":
        return after.isdigit()
    if char == ">":
        return after == "="
    return char in _TOKEN_STARTS


class TestTokenize:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_LEX_ALPHABET, max_size=40))
    def test_tokens_rebuild_the_text_or_lexing_stops_at_the_first_stranger(self, text):
        try:
            tokens = dsl.tokenize(text)
        except LexError as exc:
            pos = exc.position
            assert not text[pos].isspace() and not _starts_token(text, pos)
            assert repr(text[pos]) in str(exc)
            dsl.tokenize(text[:pos])  # nothing before it is refused
            return
        assert tokens[-1] == Token("end", "", len(text))
        end = 0
        for tok in tokens[:-1]:
            assert tok.pos >= end and text[end : tok.pos].strip() == ""
            assert text[tok.pos : tok.pos + len(tok.text)].replace("−", "-") == tok.text
            end = tok.pos + len(tok.text)
        assert text[end:].strip() == ""
        rebuilt = "".join(tok.text for tok in tokens)
        assert rebuilt == "".join(text.split()).replace("−", "-")
