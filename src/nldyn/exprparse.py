"""Small expression language for user-defined rate functions.

Grammar (operator precedence, loosest first)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?        # right-associative, binds above '-'
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Power exponents must reduce to constants (checked at parse time by
constant folding), which keeps symbolic differentiation closed-form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, EvalDomainError

FUNCTIONS = ("exp", "log", "tanh", "sin", "cos")


def _syntax_error(offset: int, expected: set[str], found: str) -> ConfigError:
    return ConfigError(
        f"syntax error at offset {offset}: expected {', '.join(sorted(expected))}, "
        f"found {found!r}"
    )


def _unknown_identifier(name: str, offset: int, known: tuple[str, ...]) -> ConfigError:
    return ConfigError(
        f"unknown identifier {name!r} at offset {offset}; known names: {', '.join(known)}"
    )


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a name from FUNCTIONS
    arg: "ExprAst"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    offset: int = field(default=-1, compare=False)


ExprAst = Union[Const, Var, Unary, Binary]


# ------------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip trailing whitespace before declaring a bad character
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            at = pos + (len(rest) - len(stripped))
            raise _syntax_error(at, {"number", "identifier", "operator"}, stripped[0])
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ------------------------------------------------------------------ parser

class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: set[str]):
        kind, value, offset = self.peek()
        found = value if kind != "end" else "end of input"
        raise _syntax_error(offset, expected, found)

    def parse(self) -> ExprAst:
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail({"operator", "end of input"})
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, offset = self.advance()
            node = Binary(op, node, self.term(), offset)
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, offset = self.advance()
            node = Binary(op, node, self.unary(), offset)
        return node

    def unary(self) -> ExprAst:
        if self.peek()[:2] == ("op", "-"):
            _, _, offset = self.advance()
            return Unary("neg", self.unary(), offset)
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            _, _, offset = self.advance()
            exponent = self.unary()
            try:
                folded = _fold(exponent)[0]
            except EvalDomainError:
                folded = exponent
            if not isinstance(folded, Const) or not math.isfinite(folded.value):
                raise _syntax_error(
                    exponent.offset,
                    {"finite constant exponent"},
                    "non-constant expression",
                )
            return Binary("^", base, folded, offset)
        return base

    def atom(self) -> ExprAst:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(value), offset)
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise _unknown_identifier(value, offset, FUNCTIONS)
                self.advance()
                arg = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail({")"})
                self.advance()
                return Unary(value, arg, offset)
            if value != self.var:
                raise _unknown_identifier(value, offset, (self.var,) + FUNCTIONS)
            return Var(value, offset)
        if (kind, value) == ("op", "("):
            self.advance()
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail({")"})
            self.advance()
            return node
        self.fail({"number", "identifier", "(", "-"})


def parse(text: str, var: str = "u") -> ExprAst:
    """Parse expression text into an AST over the single variable ``var``.

    Malformed text or an unknown name raises ConfigError with its offset.
    Every all-constant subtree is folded once, here (``_fold``): a constant
    fault that ``evaluate`` refuses, such as ``(1/0)^0``, raises
    EvalDomainError at its node's offset.
    """
    return _fold(_Parser(text, var).parse())[0]


# -------------------------------------------------------------- evaluation

def evaluate(ast: ExprAst, u: float) -> float:
    """Strict scalar evaluation; domain faults raise with the node offset."""
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        return float(u)
    if isinstance(ast, Unary):
        x = evaluate(ast.arg, u)
        if ast.op == "neg":
            return -x
        if ast.op == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                return math.inf
        if ast.op == "log":
            if x <= 0.0:
                raise EvalDomainError(f"log of non-positive value {x!r}", ast.offset)
            return math.log(x)
        if ast.op == "tanh":
            return math.tanh(x)
        if ast.op in ("sin", "cos"):
            if math.isinf(x):
                raise EvalDomainError(f"{ast.op} of {x!r}", ast.offset)
            return getattr(math, ast.op)(x)
        raise AssertionError(f"bad unary op {ast.op!r}")
    if isinstance(ast, Binary):
        a = evaluate(ast.left, u)
        b = evaluate(ast.right, u)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero", ast.offset)
            return a / b
        if ast.op == "^":
            try:
                return math.pow(a, b)
            except OverflowError:
                return math.inf
            except ValueError:
                raise EvalDomainError(
                    f"invalid power {a!r} ^ {b!r}", ast.offset
                ) from None
        raise AssertionError(f"bad binary op {ast.op!r}")
    raise AssertionError(f"bad node {ast!r}")


def to_callable(ast: ExprAst, var: str = "u") -> Callable:
    """Compile the AST to a closure over scalars or arrays (a float for a scalar).

    Constants are float64 values held by the closure and a scalar comes in
    as a float64, so every value follows numpy's rules: a zero divisor or
    a non-finite literal gives inf or nan, never an exception or a
    warning. The strict ``evaluate`` above is the error-reporting path.
    """
    consts: list[float] = []
    source = _codegen(ast, var, consts)
    namespace = {"np": np, **{f"c{k}": np.float64(c) for k, c in enumerate(consts)}}
    fn = np.errstate(all="ignore")(eval(f"lambda {var}: {source}", namespace))  # noqa: S307 - generated from our own AST

    def compiled(u):
        if np.ndim(u) == 0:
            return float(fn(np.float64(u)))
        out = fn(u)
        # a constant expression gives one value for the whole array
        return out if np.ndim(out) else np.full(np.shape(u), out)

    return compiled


def _codegen(ast: ExprAst, var: str, consts: list[float]) -> str:
    if isinstance(ast, Const):
        consts.append(ast.value)
        return f"c{len(consts) - 1}"
    if isinstance(ast, Var):
        return var
    if isinstance(ast, Unary):
        inner = _codegen(ast.arg, var, consts)
        if ast.op == "neg":
            return f"(-({inner}))"
        return f"np.{ast.op}({inner})"
    if isinstance(ast, Binary):
        a = _codegen(ast.left, var, consts)
        b = _codegen(ast.right, var, consts)
        if ast.op == "^":
            return f"np.power({a}, {b})"
        return f"(({a}) {ast.op} ({b}))"
    raise AssertionError(f"bad node {ast!r}")


# --------------------------------------------------------- differentiation

def differentiate(ast: ExprAst) -> ExprAst:
    """Exact symbolic derivative: the unsimplified product- and chain-rule tree.

    Nothing is folded or cancelled, so the tree carries every factor of
    the rules: ``differentiate(parse("u^2"))`` is the tree of
    ``(2.0 * u^1.0) * 1.0``. The derivative of a constant power ``a^0`` is
    exactly 0.
    """
    if isinstance(ast, Const):
        return Const(0.0)
    if isinstance(ast, Var):
        return Const(1.0)
    if isinstance(ast, Unary):
        dx = differentiate(ast.arg)
        x = ast.arg
        if ast.op == "neg":
            return Unary("neg", dx)
        if ast.op == "exp":
            return Binary("*", Unary("exp", x), dx)
        if ast.op == "log":
            return Binary("/", dx, x)
        if ast.op == "tanh":
            one_minus_t2 = Binary(
                "-", Const(1.0), Binary("^", Unary("tanh", x), Const(2.0))
            )
            return Binary("*", one_minus_t2, dx)
        if ast.op == "sin":
            return Binary("*", Unary("cos", x), dx)
        if ast.op == "cos":
            return Unary("neg", Binary("*", Unary("sin", x), dx))
        raise AssertionError(f"bad unary op {ast.op!r}")
    if isinstance(ast, Binary):
        da = differentiate(ast.left)
        db = differentiate(ast.right)
        a, b = ast.left, ast.right
        if ast.op == "+":
            return Binary("+", da, db)
        if ast.op == "-":
            return Binary("-", da, db)
        if ast.op == "*":
            return Binary("+", Binary("*", da, b), Binary("*", a, db))
        if ast.op == "/":
            num = Binary("-", Binary("*", da, b), Binary("*", a, db))
            return Binary("/", num, Binary("^", b, Const(2.0)))
        if ast.op == "^":
            # exponent is a Const by construction; a^0 is constant, and
            # 0 * a^-1 would be nan where a = 0
            c = b.value  # type: ignore[union-attr]
            if c == 0.0:
                return Const(0.0)
            return Binary(
                "*",
                Binary("*", Const(c), Binary("^", a, Const(c - 1.0))),
                da,
            )
        raise AssertionError(f"bad binary op {ast.op!r}")
    raise AssertionError(f"bad node {ast!r}")


def _fold(ast: ExprAst) -> tuple[ExprAst, bool]:
    """The tree with every all-constant subtree folded to its compiled value,
    and whether the whole tree is constant.

    A constant subtree that ``evaluate`` refuses raises its EvalDomainError;
    one whose value is inf or nan stays in place, under numpy's rules.
    """
    if isinstance(ast, Unary):
        arg, constant = _fold(ast.arg)
        node = Unary(ast.op, arg, ast.offset)
    elif isinstance(ast, Binary):
        (left, left_const), (right, right_const) = _fold(ast.left), _fold(ast.right)
        node, constant = Binary(ast.op, left, right, ast.offset), left_const and right_const
    else:
        return ast, isinstance(ast, Const)
    if constant:
        evaluate(node, 0.0)
        value = to_callable(node)(0.0)
        if math.isfinite(value):
            return Const(value, ast.offset), True
    return node, constant


# ---------------------------------------------------------- antiderivative
# p is split into a linear combination: polynomial coefficients c_0..c_N
# (ascending) and terms c * f(a*u + b) for f in _INTEGRABLE with a != 0.

_INTEGRABLE = ("exp", "sin", "cos", "tanh")
# polynomial terms above this degree keep quadrature
_MAX_DEGREE = 32

_Terms = tuple[list[float], list[tuple[float, str, float, float]]]


def antiderivative(ast: ExprAst) -> Callable | None:
    """Closed form of s -> integral of p over [0, s], or None.

    p has one when it is a linear combination of polynomial terms
    (constant non-negative integer exponents) and of exp, sin, cos and
    tanh of an affine argument a*u + b with a != 0. The result accepts a
    scalar or an array of any shape, returns that shape, and is exactly
    0.0 at s = 0: polynomials by Horner's rule, the other terms written
    with a factor that vanishes at 0 (expm1, sin) or as a difference of
    log cosh values taken with np.logaddexp, which cannot overflow.
    """
    terms = _linear_terms(ast)
    if terms is None:
        return None
    poly, funcs = _trim(terms[0]), terms[1]
    # coefficients of s^1 .. s^(N+1)
    integ = [c / (k + 1) for k, c in enumerate(poly)]

    @np.errstate(all="ignore")
    def P(s):
        x = np.float64(s) if np.ndim(s) == 0 else np.asarray(s, dtype=float)
        acc = np.zeros_like(x)
        for c in reversed(integ):
            acc = (acc + c) * x
        for c, op, a, b in funcs:
            if op == "exp":
                acc = acc + c / a * np.exp(b) * np.expm1(a * x)
            elif op == "tanh":
                y = a * x + b
                acc = acc + c / a * (np.logaddexp(y, -y) - np.logaddexp(b, -b))
            else:
                h = 0.5 * a * x
                outer = np.sin(h + b) if op == "sin" else np.cos(h + b)
                acc = acc + 2.0 * c / a * outer * np.sin(h)
        return float(acc) if np.ndim(acc) == 0 else acc

    return P


def _linear_terms(ast: ExprAst) -> _Terms | None:
    if isinstance(ast, Const):
        return [ast.value], []
    if isinstance(ast, Var):
        return [0.0, 1.0], []
    if isinstance(ast, Unary):
        arg = _linear_terms(ast.arg)
        if arg is None:
            return None
        if ast.op == "neg":
            return _mapped(arg, lambda c: -c)
        inner = _polynomial(arg)
        if inner is None or len(inner) > 2:
            return None
        b, a = (inner + [0.0, 0.0])[:2]
        if a == 0.0:
            return _folded(Unary(ast.op, Const(b)))
        if ast.op not in _INTEGRABLE:
            return None
        return [], [(1.0, ast.op, a, b)]
    assert isinstance(ast, Binary)
    left = _linear_terms(ast.left)
    right = _linear_terms(ast.right)
    if left is None or right is None:
        return None
    if ast.op == "+":
        return _sum(left, right)
    if ast.op == "-":
        return _sum(left, _mapped(right, lambda c: -c))
    lc, rc = _constant_value(left), _constant_value(right)
    if ast.op == "*":
        if lc is not None:
            return _mapped(right, lambda c: lc * c)
        if rc is not None:
            return _mapped(left, lambda c: c * rc)
        lp, rp = _polynomial(left), _polynomial(right)
        if lp is None or rp is None or len(lp) + len(rp) - 2 > _MAX_DEGREE:
            return None
        return _poly_product(lp, rp), []
    if ast.op == "/":
        if rc is None or rc == 0.0:
            return None
        return _mapped(left, lambda c: c / rc)
    assert ast.op == "^"
    e = ast.right.value  # type: ignore[union-attr]  # a Const by construction
    if lc is not None:
        return _folded(Binary("^", Const(lc), Const(e)))
    base = _polynomial(left)
    if base is None or e != int(e) or e < 0 or (len(base) - 1) * e > _MAX_DEGREE:
        return None
    out = [1.0]
    for _ in range(int(e)):
        out = _poly_product(out, base)
    return out, []


def _trim(poly: list[float]) -> list[float]:
    poly = list(poly)
    while poly and poly[-1] == 0.0:
        poly.pop()
    return poly


def _polynomial(terms: _Terms) -> list[float] | None:
    """The coefficients when the terms are a pure polynomial, trailing zeros cut."""
    poly, funcs = terms
    return None if funcs else _trim(poly)


def _constant_value(terms: _Terms) -> float | None:
    poly = _polynomial(terms)
    if poly is None or len(poly) > 1:
        return None
    return poly[0] if poly else 0.0


def _folded(node: ExprAst) -> _Terms | None:
    """The value of one operation on constants, or None where ``evaluate`` refuses it."""
    try:
        return [evaluate(node, 0.0)], []
    except EvalDomainError:
        return None


def _mapped(terms: _Terms, scale: Callable[[float], float]) -> _Terms:
    poly, funcs = terms
    return [scale(c) for c in poly], [(scale(c), op, a, b) for c, op, a, b in funcs]


def _sum(left: _Terms, right: _Terms) -> _Terms:
    (lp, lf), (rp, rf) = left, right
    n = max(len(lp), len(rp))
    lp, rp = lp + [0.0] * (n - len(lp)), rp + [0.0] * (n - len(rp))
    return [x + y for x, y in zip(lp, rp)], lf + rf


def _poly_product(a: list[float], b: list[float]) -> list[float]:
    if not a or not b:
        return []
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def build_model(g_text: str, p_text: str, working_range: tuple[float, float] = (-2.0, 2.0)):
    """Assemble a validated nonlinearity pair from expression texts.

    The pair is validated once, on the working range (``validate_pair``).
    The antiderivative of p is ``antiderivative``'s closed form when p has
    one (``closed_form_P`` True), checked once against adaptive quadrature
    at the fixed points -2, -1, 1 and 2, which every working range the
    command line builds contains, so that the check costs the same on any
    range (quadrature to 1e-12 of an oscillating p out to 28,000 takes
    millions of evaluations). Any other p gets a quadrature
    that accepts arrays: adaptive Simpson over each gap between the sorted
    distinct values and 0, to the gap's share of 1e-12, summed outward
    from 0, as a Python float for a scalar (the one gap [0, s] to 1e-12).
    Violations of the structural requirements (roots of g, sign
    pattern, strict monotonicity of p, a closed form that disagrees with
    quadrature) raise ConfigError with a witness point.
    """
    from . import model as _model
    from .quad import adaptive_simpson

    g_ast = parse(g_text)
    p_ast = parse(p_text)
    g = to_callable(g_ast)
    p = to_callable(p_ast)
    p_prime = to_callable(differentiate(p_ast))
    closed = antiderivative(p_ast)

    def quadrature(s):
        x = np.asarray(s, dtype=float)
        knots, where = np.unique(np.append(x.ravel(), 0.0), return_inverse=True)
        pts, zero = knots.tolist(), int(np.searchsorted(knots, 0.0))
        span = pts[-1] - pts[0]
        gaps = [
            adaptive_simpson(lambda t: float(p(t)), a, b, abs_tol=1e-12 * ((b - a) / span))
            for a, b in zip(pts, pts[1:])
        ]
        left, right = np.cumsum(gaps[:zero][::-1]), np.cumsum(gaps[zero:])
        out = np.concatenate([-left[::-1], [0.0], right])[where[:-1]].reshape(x.shape)
        return out if out.ndim else float(out)

    pair = _model.NonlinearityPair(
        g=g,
        p=p,
        p_prime=p_prime,
        antideriv_P=quadrature if closed is None else closed,
        closed_form_P=closed is not None,
    )
    _model.validate_pair(pair, working_range)
    if closed is not None:
        for s in (-2.0, -1.0, 1.0, 2.0):
            exact, quad = closed(s), quadrature(s)
            # a wrong closed form is off by O(1); both sides are good to ~1e-12
            if not abs(exact - quad) <= 1e-9 * max(1.0, abs(quad)):
                raise _model.validation_error(
                    "closed-form antiderivative agrees with quadrature",
                    s,
                    f"closed form {exact!r} vs quadrature {quad!r}",
                )
    return pair
