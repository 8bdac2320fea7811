"""Tests for nldyn.exprparse: parsing, evaluation, symbolic differentiation
and integration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldyn import (
    EvalDomainError,
    ExprSyntaxError,
    ModelValidationError,
    UnknownIdentifierError,
    build_model,
    builtin_model,
    differentiate,
    evaluate,
    parse,
    unparse,
)
from nldyn import exprparse
from nldyn.exprparse import Binary, Const, Unary, Var, antiderivative, to_callable
from nldyn.quad import adaptive_simpson

RNG = np.random.default_rng(2024)


class TestParse:
    def test_logistic_shape(self):
        ast = parse("u*(1-u)")
        assert isinstance(ast, Binary) and ast.op == "*"
        assert isinstance(ast.left, Var)
        assert isinstance(ast.right, Binary) and ast.right.op == "-"
        assert evaluate(ast, 0.5) == 0.25

    def test_power(self):
        assert evaluate(parse("u^3"), 2.0) == 8.0

    def test_power_right_associative(self):
        # exponents fold to constants at parse time: u^2^3 = u^(2^3)
        ast = parse("u^2^3")
        assert isinstance(ast.right, Const) and ast.right.value == 8.0

    def test_precedence_pow_over_unary_minus(self):
        assert evaluate(parse("-u^2"), 3.0) == -9.0

    def test_unary_minus_binds_below_mul(self):
        assert evaluate(parse("-u*u"), 3.0) == -9.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("u*(1-")
        assert info.value.offset == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("u*(1-u")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse("u + v")
        assert info.value.name == "v"
        assert info.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("sinh(u)")

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("u^u")

    def test_custom_variable_name(self):
        assert evaluate(parse("1 + x", var="x"), 0.5) == 1.5

    def test_constants_folded_to_compiled_values(self):
        ast = parse("u*(2+3) - exp(1)")
        assert ast == Binary("-", Binary("*", Var("u"), Const(5.0)), Const(math.e))
        # the folded value is the compiled one, bit for bit
        assert ast.right.value == to_callable(Unary("exp", Const(1.0)))(0.0)

    def test_folding_keeps_compiled_bits(self):
        """A tree and its parsed, folded text compile to the same values, on
        a scalar and an array, non-finite constants (left in place) included."""
        rng = np.random.default_rng(8)
        xs = np.linspace(-2.0, 2.0, 9)
        folded = 0
        for _ in range(300):
            ast = _random_ast(depth=4, rng=rng, extremes=(1e308,))
            try:
                ast2 = parse(unparse(ast))
            except EvalDomainError:
                continue
            folded += ast2 != ast
            want, got = to_callable(ast)(xs), to_callable(ast2)(xs)
            assert all(map(_same_float, want.tolist(), got.tolist())), unparse(ast)
            assert _same_float(to_callable(ast2)(0.5), to_callable(ast)(0.5)), unparse(ast)
        assert folded > 50

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("u + (1/0)^0", 6),
            ("u + 0.1*sin(1e308^2)", 8),
            ("u + 1/(1-1)", 5),
            ("u*log(1-1)", 2),
            ("tanh(1/0) + u", 6),
        ],
    )
    def test_constant_fault_refused_at_parse(self, text, offset):
        with pytest.raises(EvalDomainError) as info:
            parse(text)
        assert info.value.offset == offset

    def test_nonfinite_constant_stays_in_place(self):
        # numpy's rules decide it, and validation refuses the model later
        ast = parse("u + 1e308*10")
        assert ast.right == Binary("*", Const(1e308), Const(10.0))
        assert to_callable(ast)(1.0) == math.inf
        np.testing.assert_array_equal(to_callable(parse("1e308*10"))(np.zeros((2, 3))), np.inf)

    def test_constant_fault_in_exponent_is_syntax_error(self):
        for text in ("u^(1/0)", "u^log(0)", "u^(1e308*10)"):
            with pytest.raises(ExprSyntaxError):
                parse(text)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_totality(self, text):
        """Any input either parses or raises a structured error; a constant
        fault such as 1/0 is refused at parse with EvalDomainError."""
        try:
            parse(text)
        except (ExprSyntaxError, UnknownIdentifierError, EvalDomainError):
            pass


class TestEvaluate:
    def test_constant(self):
        assert evaluate(parse("3"), 17.0) == 3.0

    def test_exp_of_zero_product(self):
        assert evaluate(parse("exp(0*u)"), 5.0) == 1.0

    def test_tanh_origin(self):
        assert evaluate(parse("tanh(u)"), 0.0) == 0.0

    def test_log_domain_error_carries_offset(self):
        with pytest.raises(EvalDomainError) as info:
            evaluate(parse("log(u)"), -1.0)
        assert info.value.offset == 0

    def test_log(self):
        assert evaluate(parse("log(u)"), 2.0) == math.log(2.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/(u-1)"), 1.0)

    def test_exp_overflow_is_ieee_infinity(self):
        assert evaluate(parse("exp(u)"), 1e4) == math.inf

    def test_sin_cos_of_infinity_are_domain_errors(self):
        for text in ("sin(1e308^2)", "cos(-exp(1000))"):
            with pytest.raises(EvalDomainError):
                evaluate(parse(text), 0.0)
        # so constant folding leaves them in place: no constant exponent
        with pytest.raises(ExprSyntaxError):
            parse("u^sin(1e999)")

    def test_callable_matches_scalar_eval(self):
        """The compiled callable is numpy's arithmetic throughout: it never
        raises, on a scalar or an array, and a scalar gets its array entry's
        bits. Node by node, on the same operands, it agrees with ``evaluate``
        to 1e-15 where that is finite and is non-finite where that raises
        EvalDomainError. A whole tree is compared on one smooth expression
        only: an absorbed fault (tanh(1/0) is 1 here) or a libm ulp grown
        through exp and cos parts the two elsewhere."""
        ast = parse("u*(1-u) + tanh(u)")
        fn = to_callable(ast)
        for x in RNG.uniform(-2, 2, size=50):
            assert fn(float(x)) == pytest.approx(evaluate(ast, float(x)), rel=1e-15)
        rng = np.random.default_rng(21)
        for _ in range(200):
            ast = _random_ast(depth=4, rng=rng, extremes=(math.inf, -math.inf, math.nan, 1e308))
            fn = to_callable(ast)
            xs = rng.uniform(-2.0, 2.0, size=8)
            block = fn(xs)
            assert block.shape == xs.shape
            for x, entry in zip(xs.tolist(), block.tolist()):
                for arg in (x, np.float64(x), np.array(x)):
                    got = fn(arg)
                    assert type(got) is float and _same_float(got, entry), (unparse(ast), x)
                assert _same_float(_compiled_nodewise(ast, x), entry), (unparse(ast), x)

    def test_no_floating_point_warning(self):
        """Overflow, zero division and invalid values give inf or nan under
        numpy's strictest error state: the compiled callable and the closed
        form P ignore floating-point errors themselves."""
        x = np.array([1e300, 0.0, -1e300, 800.0])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = to_callable(parse("exp(u) + u*u/u"))(x)
            assert not np.isfinite(out).any() and np.isnan(out[1])
            assert np.isinf(to_callable(parse("1/u"))(0.0))
            assert np.isinf(to_callable(parse("1e308*10 + 0*u"))(x)).all()
            for text in ("u^5+u", "2*exp(0.5*u-1)", "tanh(u)+2*u", "u+0.1*sin(u)"):
                P = antiderivative(parse(text))
                block = P(x.reshape(2, 2))
                assert block.shape == (2, 2) and not np.isfinite(block).all(), text
                assert not math.isfinite(P(1e300)), text

    def test_callable_vectorized(self):
        fn = to_callable(parse("u^2"))
        np.testing.assert_allclose(fn(np.array([1.0, 2.0, 3.0])), [1.0, 4.0, 9.0])


# random expression generator over the full grammar; exp nesting kept shallow
# so values stay in floating range on [-2, 2]. A quarter of the constant
# leaves are drawn from ``extremes`` when it is given.
def _random_ast(depth, allow_exp=True, rng=RNG, extremes=()):
    roll = rng.integers(0, 10)
    if depth <= 0 or roll < 2:
        if roll % 2 == 0:
            if extremes and rng.random() < 0.25:
                return Const(float(rng.choice(extremes)))
            return Const(float(rng.integers(0, 4)) + float(rng.random() < 0.5) * 0.5)
        return Var("u")
    sub = lambda allow: _random_ast(depth - 1, allow, rng, extremes)
    if roll < 4:
        op = rng.choice(["neg", "tanh", "sin", "cos"] + (["exp"] if allow_exp else []))
        return Unary(str(op), sub(allow_exp and op != "exp"))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    if op == "^":
        return Binary("^", sub(allow_exp), Const(float(rng.integers(0, 4))))
    return Binary(op, sub(allow_exp), sub(allow_exp))


def _same_float(a, b):
    """Equal bits, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _compiled_nodewise(ast, x):
    """The compiled value of ast at x, one node at a time: each node is
    compiled with its operands' compiled values as constants, and checked
    against ``evaluate`` on those same operands."""
    if isinstance(ast, Unary):
        ast = Unary(ast.op, Const(_compiled_nodewise(ast.arg, x)))
    elif isinstance(ast, Binary):
        left, right = (Const(_compiled_nodewise(a, x)) for a in (ast.left, ast.right))
        ast = Binary(ast.op, left, right)
    got = to_callable(ast)(x)
    try:
        want = evaluate(ast, x)
    except EvalDomainError:
        assert not math.isfinite(got), (unparse(ast), got)
    else:
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-15), unparse(ast)
    return got


def _finite_difference(ast, x, h=1e-6):
    return (evaluate(ast, x + h) - evaluate(ast, x - h)) / (2.0 * h)


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("u^2"))
        assert evaluate(d, 3.0) == 6.0

    def test_logistic_derivative(self):
        """d/du u(1-u) = 1 - 2u, zero at the hump midpoint."""
        d = differentiate(parse("u*(1-u)"))
        assert evaluate(d, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(d, 0.5) == pytest.approx(_finite_difference(parse("u*(1-u)"), 0.5), abs=1e-8)

    def test_unsimplified_tree(self):
        # every factor of the power and chain rules, nothing folded
        assert unparse(differentiate(parse("u^2"))) == "2.0*u^1.0*1.0"

    def test_constant_power_derivative_is_zero(self):
        # 0 * (u - 1)^-1 would be nan at u = 1
        p_prime = to_callable(differentiate(parse("u + (u - 1)^0")))
        assert p_prime(1.0) == 1.0
        np.testing.assert_array_equal(p_prime(np.array([0.0, 1.0, 2.0])), [1.0, 1.0, 1.0])

    def test_constant_derivative(self):
        assert evaluate(differentiate(parse("42")), 1.0) == 0.0

    def test_chain_rule_tanh(self):
        d = differentiate(parse("tanh(u^2)"))
        x = 0.7
        expected = (1.0 - math.tanh(x * x) ** 2) * 2.0 * x
        assert evaluate(d, x) == pytest.approx(expected, rel=1e-12)

    def test_log_quotient_rule(self):
        d = differentiate(parse("log(u^2 + 1)"))
        assert evaluate(d, 0.5) == pytest.approx(2.0 * 0.5 / (0.5**2 + 1.0), rel=1e-12)

    def test_hundred_random_expressions_match_finite_differences(self):
        """Symbolic derivative vs central differences at random points.

        Points where the expression or its shifted evaluations are
        non-finite or numerically stiff (large second difference) are
        resampled: central differences are only a valid oracle on
        locally smooth graphs.
        """
        checked_expressions = 0
        attempts = 0
        while checked_expressions < 100 and attempts < 1000:
            attempts += 1
            ast = _random_ast(depth=3)
            try:
                d = differentiate(ast)
            except Exception:  # pragma: no cover - generator sanity
                raise
            points = 0
            tries = 0
            while points < 20 and tries < 200:
                tries += 1
                x = float(RNG.uniform(-2.0, 2.0))
                try:
                    f0 = evaluate(ast, x)
                    fp = evaluate(ast, x + 1e-6)
                    fm = evaluate(ast, x - 1e-6)
                    df = evaluate(d, x)
                except EvalDomainError:
                    continue
                if not all(map(math.isfinite, (f0, fp, fm, df))):
                    continue
                if abs(fp - 2.0 * f0 + fm) > 1e-4 * max(1.0, abs(f0)):
                    continue  # curvature too large for the FD oracle step
                fd = (fp - fm) / 2e-6
                assert df == pytest.approx(fd, rel=1e-6, abs=1e-6 * max(1.0, abs(df)))
                points += 1
            if points >= 5:
                checked_expressions += 1
        assert checked_expressions == 100


class TestUnparseRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "u*(1-u)",
            "-u^2",
            "u - (1 - u)",
            "u - 1 - u",
            "u/(1+u^2)",
            "u^2^3",
            "tanh(u) + 2*u",
            "-(u + 1)",
            "exp(0*u) - cos(u)*sin(u)",
            # folds to a negative constant base under a power left unfolded
            "(-1e200)^2 + u",
            # an infinite constant, and the negation of one, left unfolded
            "u + 1e999",
            "-1e999*u",
        ],
    )
    def test_specific_texts(self, text):
        t1 = parse(text)
        assert parse(unparse(t1)) == t1

    def test_random_trees(self):
        for _ in range(300):
            t1 = _random_ast(depth=4)
            text = unparse(t1)
            try:
                t2 = parse(text)
            except EvalDomainError:
                # a constant fault such as 1.0/0.0 is refused at parse, as
                # ``evaluate`` refuses the whole tree
                with pytest.raises(EvalDomainError):
                    evaluate(t1, 0.5)
                continue
            assert parse(unparse(t2)) == t2


_CLOSED_FORM_TABLE = [
    "u",
    "u^3+u",
    "u^5+u",
    "tanh(u)+2*u",
    "u+0.1*sin(u)",
    "2*exp(0.5*u-1)",
]
_POLYNOMIAL_TABLE = ["u", "u^3+u", "u^5+u"]
_GRID = np.linspace(-4.0, 4.0, 33)

# polynomial trees from their own generator, so that the shared RNG's
# stream (which the acceptance suite also draws from) is left alone
_POLY_RNG = np.random.default_rng(77)


def _random_polynomial(depth):
    roll = _POLY_RNG.integers(0, 10)
    if depth <= 0 or roll < 2:
        if roll % 2 == 0:
            return Const(float(_POLY_RNG.integers(-3, 4)) + 0.5 * float(_POLY_RNG.random() < 0.5))
        return Var("u")
    if roll < 4:
        return Unary("neg", _random_polynomial(depth - 1))
    op = str(_POLY_RNG.choice(["+", "-", "*", "^"]))
    if op == "^":
        return Binary("^", _random_polynomial(depth - 1), Const(float(_POLY_RNG.integers(0, 4))))
    return Binary(op, _random_polynomial(depth - 1), _random_polynomial(depth - 1))


def _assert_matches_quadrature(ast):
    P, p = antiderivative(ast), to_callable(ast)
    assert P is not None, unparse(ast)
    for s in _GRID.tolist():
        quad = adaptive_simpson(lambda t: float(p(t)), 0.0, s)
        assert abs(P(s) - quad) <= 1e-11 * max(1.0, abs(quad)), (unparse(ast), s)


class TestAntiderivative:
    @pytest.mark.parametrize("text", _CLOSED_FORM_TABLE)
    def test_matches_quadrature(self, text):
        _assert_matches_quadrature(parse(text))

    @pytest.mark.parametrize("text", _CLOSED_FORM_TABLE)
    def test_exactly_zero_at_origin(self, text):
        P = antiderivative(parse(text))
        assert P(0.0) == 0.0
        assert np.all(P(np.zeros((2, 3))) == 0.0)

    @pytest.mark.parametrize("text", _CLOSED_FORM_TABLE)
    def test_block_keeps_its_shape(self, text):
        # the record path takes P of a whole record block as it comes
        P = antiderivative(parse(text))
        block = _GRID.reshape(3, 11)
        out = P(block)
        assert out.shape == block.shape and out.dtype == np.float64
        np.testing.assert_array_equal(out, P(_GRID).reshape(block.shape))

    @pytest.mark.parametrize("text", _POLYNOMIAL_TABLE)
    def test_polynomial_block_equals_scalar_calls(self, text):
        P = antiderivative(parse(text))
        block = _GRID.reshape(3, 11)
        scalar = np.array([P(s) for s in block.ravel().tolist()]).reshape(block.shape)
        np.testing.assert_array_equal(P(block), scalar)

    def test_random_polynomials(self):
        for _ in range(40):
            ast = _random_polynomial(depth=4)
            _assert_matches_quadrature(ast)
            P = antiderivative(ast)
            assert P(0.0) == 0.0
            scalar = np.array([P(s) for s in _GRID.tolist()])
            np.testing.assert_array_equal(P(_GRID), scalar)

    def test_scalar_calls_equal_block_bitwise(self):
        """A float, a numpy float or a 0-d array takes the block's path on
        one float64 and returns a float, bit for bit the block's entry,
        overflow and signed zeros included."""
        grid = np.concatenate([_GRID, [-0.0, 5e-324, 1e80, -1e80, 1e200, -1e200]])
        for _ in range(40):
            P = antiderivative(_random_polynomial(depth=4))
            block = P(grid)
            for s, expected in zip(grid.tolist(), block.tolist()):
                for arg in (s, np.float64(s), np.array(s)):
                    got = P(arg)
                    assert type(got) is float
                    assert np.array(got).tobytes() == np.array(expected).tobytes(), (s, arg)

    def test_cubic_agrees_with_builtin(self):
        builtin = builtin_model("logistic-cubic").antideriv_P(_GRID)
        closed = antiderivative(parse("u^3+u"))(_GRID)
        assert np.all(np.abs(closed - builtin) <= 4.0 * np.spacing(np.abs(builtin)))

    @pytest.mark.parametrize("text", ["u + 0.1*u*exp(u)", "u + 1/(4+u^2)"])
    def test_no_closed_form(self, text):
        assert antiderivative(parse(text)) is None


class TestBuildModel:
    def test_matches_builtin_at_samples(self, logistic):
        pair = build_model("u*(1-u)", "u")
        s = np.linspace(-2.0, 2.0, 10_000)
        np.testing.assert_allclose(pair.g(s), logistic.g(s), atol=1e-15)
        np.testing.assert_allclose(pair.p(s), logistic.p(s), atol=1e-15)

    def test_closed_form_antiderivative(self):
        pair = build_model("u*(1-u)", "u^3 + u")
        # P = s^4/4 + s^2/2
        assert pair.antideriv_P(2.0) == pytest.approx(6.0, abs=1e-11)
        assert pair.closed_form_P is True

    def test_quadrature_antiderivative(self):
        pair = build_model("u*(1-u)", "u + 0.1*u*exp(u)")
        # P = s^2/2 + 0.1 ((s - 1) e^s + 1)
        assert pair.antideriv_P(2.0) == pytest.approx(2.0 + 0.1 * (math.e**2 + 1.0), abs=1e-11)
        assert pair.closed_form_P is False

    def test_quadrature_scalar_is_one_simpson_integral(self):
        pair = build_model("u*(1-u)", "u + 0.1*u*exp(u)")
        p = lambda t: float(pair.p(t))
        for s in (-1.5, 0.0, 0.3, 2.0):
            got = pair.antideriv_P(s)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(adaptive_simpson(p, 0.0, s)).tobytes()
            # the array path gives a lone value the same bits
            assert pair.antideriv_P(np.array([[s]])).tobytes() == np.array([[got]]).tobytes()

    def test_quadrature_block_matches_per_value_simpson(self):
        pair = build_model("u*(1-u)", "u + 0.1*u*exp(u)")
        p = lambda t: float(pair.p(t))
        block = np.random.default_rng(5).uniform(-8.0, 3.0, size=(4, 30))
        block[0, :3] = (0.0, 0.3, 0.3)  # 0 and a repeated value
        per_value = [adaptive_simpson(p, 0.0, s) for s in block.ravel().tolist()]
        got = pair.antideriv_P(block)
        assert got.shape == block.shape
        np.testing.assert_allclose(got.ravel(), per_value, rtol=1e-12, atol=0.0)

    def test_cross_check_cost_does_not_grow_with_the_range(self, monkeypatch):
        """The closed form meets quadrature at fixed points: at the ends of
        +-28,000 the check took millions of evaluations of an oscillating p."""
        from nldyn import quad

        simpson = quad.adaptive_simpson
        evals = [0]

        def counted(f, *args, **kwargs):
            def counted_f(t):
                evals[0] += 1
                return f(t)

            return simpson(counted_f, *args, **kwargs)

        monkeypatch.setattr(quad, "adaptive_simpson", counted)
        counts = []
        for r in (4.0, 28_000.0):
            before = evals[0]
            assert build_model("u*(1-u)", "u + 0.1*sin(u)", (-r, r)).closed_form_P
            counts.append(evals[0] - before)
        assert counts[0] == counts[1] > 0

    def test_wrong_closed_form_rejected(self, monkeypatch):
        # a jump at 1.1 keeps P(0) = 0 and the derivative at validate_pair's
        # difference points; only the comparison with quadrature sees it
        closed = exprparse.antiderivative

        def jumping(ast):
            P = closed(ast)
            return lambda s: P(s) + 1e-3 * (np.asarray(s) >= 1.1)

        monkeypatch.setattr(exprparse, "antiderivative", jumping)
        with pytest.raises(ModelValidationError) as info:
            build_model("u*(1-u)", "u^3 + u")
        assert "quadrature" in info.value.check

    def test_decreasing_p_rejected_with_witness(self):
        with pytest.raises(ModelValidationError) as info:
            build_model("u*(1-u)", "-u")
        assert "p'" in info.value.check
        # the witness value prints as a float, not as a numpy repr
        assert str(info.value).endswith("p' = -1.0")

    def test_wrong_g_root_rejected(self):
        with pytest.raises(ModelValidationError) as info:
            build_model("u", "u")
        assert "g(1)" in info.value.check

    @pytest.mark.parametrize("g", ["u*(1-u)/0", "u*(1-u)*1e999"])
    def test_constant_fault_in_g_rejected(self, g):
        # g(0) = 0 * inf is nan, and g = inf keeps the sign pattern
        with pytest.raises(ModelValidationError) as info:
            build_model(g, "u")
        assert info.value.check == "g(0) = 0"
