"""A small expression language for scalar functions of one variable.

Grammar (EBNF):

    expr    := term { ('+'|'-') term }
    term    := factor { ('*'|'/') factor }
    factor  := unary [ '^' factor ]          -- '^' is right-associative
    unary   := '-' unary | primary
    primary := NUMBER | IDENT | IDENT '(' expr {',' expr} ')' | '(' expr ')'

NUMBER is a decimal with optional exponent.  An IDENT that is not in the
builtin table is a parameter; the reserved variable is 't' (an alternative
variable name, e.g. 's' for nonlinearity profiles H, can be chosen at parse
time).  Note that the grammar attaches unary minus below '^', so '-x^2'
parses as '(-x)^2'; write '-(x^2)' when the other reading is meant.

Evaluation is pure: a parsed ScalarExpr is immutable, evaluating it twice
with the same binding gives bit-identical results (unless the binding was
changed in place in between to an equal value of another sign of zero or
type, such as 0.0 to -0.0: see ScalarExpr), and the exact first
derivative d/dt comes from dual-number propagation through every builtin.
An expression is compiled into closures lazily, once per binding and mode
(value or dual).  Each maximal subtree free of the variable is then folded
into the value or Dual it has under that binding, which purity makes exact;
a subtree that raises is left to raise at evaluation.
Division by zero and log of a nonpositive number are hard errors rather
than IEEE infinities, so certification never silently saturates; overflow
of exp/sinh/cosh saturates to inf (such terms only ever appear in positions
where their reciprocal is taken).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import geometry as _geo
from . import specfun as _sf
from .errors import (
    EvalError,
    ExprSyntaxError,
    HardykitError,
    UnboundParameterError,
    UnsupportedDerivativeError,
)

__all__ = [
    "ScalarExpr",
    "ParamBinding",
    "Dual",
    "parse",
    "BUILTIN_ARITY",
]

ParamBinding = Mapping[str, float]

# ---------------------------------------------------------------------------
# dual numbers


class Dual:
    """Value plus first derivative with respect to the expression variable."""

    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float = 0.0):
        self.v = v
        self.d = d

    def __repr__(self):
        return f"Dual({self.v!r}, {self.d!r})"


def _dual_mul(a: Dual, b: Dual) -> Dual:
    return Dual(a.v * b.v, a.d * b.v + a.v * b.d)


def _dual_div(a: Dual, b: Dual) -> Dual:
    if b.v == 0.0:
        raise EvalError("division by zero")
    v = a.v / b.v
    return Dual(v, (a.d - v * b.d) / b.v)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow_value(x: float, y: float) -> float:
    if x > 0.0:
        try:
            return x**y
        except OverflowError:
            return math.inf
    if x == 0.0:
        if y > 0.0:
            return 0.0
        raise EvalError(f"0.0 raised to nonpositive power {y!r}")
    if y != round(y):
        raise EvalError(f"negative base {x!r} with non-integer exponent {y!r}")
    try:
        return x**y
    except (OverflowError, ZeroDivisionError):
        raise EvalError(f"power overflow at {x!r}^{y!r}")


def _pow_dual(a: Dual, b: Dual) -> Dual:
    v = _pow_value(a.v, b.v)
    d = 0.0
    if a.d != 0.0:
        if a.v == 0.0:
            if b.v < 1.0:
                raise EvalError(f"derivative of 0^{b.v!r} is unbounded")
            d += 0.0 if b.v > 1.0 else a.d
        else:
            d += b.v * _pow_value(a.v, b.v - 1.0) * a.d
    if b.d != 0.0:
        if a.v <= 0.0:
            raise EvalError(f"derivative through exponent needs positive base, got {a.v!r}")
        d += v * math.log(a.v) * b.d
    return Dual(v, d)


# ---------------------------------------------------------------------------
# builtin table

def _coth_value(x: float) -> float:
    if x == 0.0:
        raise EvalError("coth(0) undefined")
    return _geo._coth(x) if x > 0.0 else -_geo._coth(-x)


def _need_kappa(binding: ParamBinding) -> float:
    try:
        return binding["kappa"]
    except KeyError:
        raise UnboundParameterError("builtin needs 'kappa' in the binding") from None


def _const_arg(d: Dual, what: str) -> float:
    if d.d != 0.0:
        raise UnsupportedDerivativeError(f"no derivative rule through the {what} argument")
    return d.v


def _bj_value(args, binding):
    return _sf.bessel_j(args[0], args[1])


def _bj_dual(args, binding):
    nu = _const_arg(args[0], "besselj order")
    x = args[1]
    v = _sf.bessel_j(nu, x.v)
    if x.d == 0.0:
        return Dual(v, 0.0)
    if x.v == 0.0:
        if nu == 1.0:
            return Dual(v, 0.5 * x.d)
        if nu == 0.0 or nu > 1.0:
            return Dual(v, 0.0)
        raise EvalError(f"besselj({nu}, x) has unbounded derivative at x=0")
    return Dual(v, _sf._bessel_j_dx(nu, x.v, v) * x.d)


def _br_value(args, binding):
    return _sf.bessel_ratio(args[0], args[1])


def _br_dual(args, binding):
    nu = _const_arg(args[0], "besselratio order")
    x = args[1]
    r = _sf.bessel_ratio(nu, x.v)
    return Dual(r, _sf.bessel_ratio_dx(nu, x.v, r) * x.d)


def _hyp_value(args, binding):
    return _sf.hyp2f1(args[0], args[1], args[2], args[3])


def _hyp_dual(args, binding):
    a = _const_arg(args[0], "hyp2f1 parameter")
    b = _const_arg(args[1], "hyp2f1 parameter")
    c = _const_arg(args[2], "hyp2f1 parameter")
    z = args[3]
    if z.d == 0.0:
        return Dual(_sf.hyp2f1(a, b, c, z.v), 0.0)
    v, dz = _sf.hyp2f1_with_dz(a, b, c, z.v)
    return Dual(v, dz * z.d)


def _gamma_dual(args, binding):
    x = args[0]
    if x.d != 0.0:
        raise UnsupportedDerivativeError("gamma is excluded from differentiation paths")
    return Dual(_sf.gamma(x.v), 0.0)


def _u1(fv: Callable[[float], float], fd: Callable[[float, float], float]):
    """Make a (value, dual) implementation pair for a unary chain rule fd(x, v)."""

    def value(args, binding):
        return fv(args[0])

    def dual(args, binding):
        x = args[0]
        v = fv(x.v)
        d = fd(x.v, v) * x.d if x.d != 0.0 else 0.0
        return Dual(v, d)

    return value, dual


def _log_v(x: float) -> float:
    if x <= 0.0:
        raise EvalError(f"log of nonpositive value {x!r}")
    return math.log(x)


def _sqrt_v(x: float) -> float:
    if x < 0.0:
        raise EvalError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _sqrt_d(x: float, v: float) -> float:
    if x == 0.0:
        raise EvalError("derivative of sqrt is unbounded at 0")
    return 0.5 / v


def _sinh_v(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cosh_v(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _ct_pair():
    def value(args, binding):
        return _geo.ct_value(_need_kappa(binding), args[0])

    def dual(args, binding):
        kappa = _need_kappa(binding)
        x = args[0]
        v = _geo.ct_value(kappa, x.v)
        return Dual(v, (-kappa - v * v) * x.d if x.d != 0.0 else 0.0)

    return value, dual


def _s_pair():
    def value(args, binding):
        return _geo.s_value(_need_kappa(binding), args[0])

    def dual(args, binding):
        kappa = _need_kappa(binding)
        x = args[0]
        v = _geo.s_value(kappa, x.v)
        return Dual(v, _geo.s_value_dt(kappa, x.v) * x.d if x.d != 0.0 else 0.0)

    return value, dual


def _d_pair():
    def value(args, binding):
        return _geo.deficit_value(_need_kappa(binding), args[0])

    def dual(args, binding):
        kappa = _need_kappa(binding)
        x = args[0]
        v = _geo.deficit_value(kappa, x.v)
        return Dual(v, _geo.deficit_value_dt(kappa, x.v) * x.d if x.d != 0.0 else 0.0)

    return value, dual


def _pow_fn_value(args, binding):
    return _pow_value(args[0], args[1])


def _pow_fn_dual(args, binding):
    return _pow_dual(args[0], args[1])


_abs = _u1(abs, lambda x, v: math.copysign(1.0, x) if x != 0.0 else 0.0)
_sqrt = _u1(_sqrt_v, _sqrt_d)
_exp = _u1(_safe_exp, lambda x, v: v)
_log = _u1(_log_v, lambda x, v: 1.0 / x)
_sin = _u1(math.sin, lambda x, v: math.cos(x))
_cos = _u1(math.cos, lambda x, v: -math.sin(x))
_sinh = _u1(_sinh_v, lambda x, v: _cosh_v(x))
_cosh = _u1(_cosh_v, lambda x, v: _sinh_v(x))
_tanh = _u1(math.tanh, lambda x, v: 1.0 - v * v)
_coth = _u1(_coth_value, lambda x, v: 1.0 - v * v)

# name -> (arity, value implementation, dual implementation)
_BUILTINS = {
    "abs": (1, *_abs),
    "sqrt": (1, *_sqrt),
    "exp": (1, *_exp),
    "log": (1, *_log),
    "pow": (2, _pow_fn_value, _pow_fn_dual),
    "sin": (1, *_sin),
    "cos": (1, *_cos),
    "sinh": (1, *_sinh),
    "cosh": (1, *_cosh),
    "tanh": (1, *_tanh),
    "coth": (1, *_coth),
    "ct": (1, *_ct_pair()),
    "s": (1, *_s_pair()),
    "D": (1, *_d_pair()),
    "besselj": (2, _bj_value, _bj_dual),
    "besselratio": (2, _br_value, _br_dual),
    "hyp2f1": (4, _hyp_value, _hyp_dual),
    "gamma": (1, lambda args, binding: _sf.gamma(args[0]), _gamma_dual),
}

BUILTIN_ARITY = {name: spec[0] for name, spec in _BUILTINS.items()}

_KAPPA_BUILTINS = frozenset({"ct", "s", "D"})


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    span: tuple[int, int] = field(repr=False)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Param(Node):
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    operand: Node = None


@dataclass(frozen=True)
class Bin(Node):
    op: str = ""
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    name: str = ""
    args: tuple[Node, ...] = ()


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+\-*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos", "line", "col")

    def __init__(self, kind, text, pos, line, col):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.line = line
        self.col = col


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                line_start = m.end() - (len(m.group()) - m.group().rfind("\n") - 1)
            continue
        col = m.start() - line_start + 1
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", line, col)
        tokens.append(_Token(m.lastgroup, m.group(), m.start(), line, col))
    tokens.append(_Token("eof", "", len(source), line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str, var: str):
        self.source = source
        self.var = var
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.col)
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            node = Bin((node.span[0], rhs.span[1]), op, node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.advance().text
            rhs = self.factor()
            node = Bin((node.span[0], rhs.span[1]), op, node, rhs)
        return node

    def factor(self) -> Node:
        node = self.unary()
        if self.at_op("^"):
            self.advance()
            rhs = self.factor()  # right associative
            node = Bin((node.span[0], rhs.span[1]), "^", node, rhs)
        return node

    def unary(self) -> Node:
        if self.at_op("-"):
            tok = self.advance()
            inner = self.unary()
            return Neg((tok.pos, inner.span[1]), inner)
        return self.primary()

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num((tok.pos, tok.pos + len(tok.text)), float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.at_op("("):
                return self.call(tok)
            if tok.text == self.var:
                return Var((tok.pos, tok.pos + len(tok.text)))
            if tok.text in _BUILTINS:
                raise ExprSyntaxError(f"builtin {tok.text!r} used without arguments",
                                      tok.line, tok.col)
            return Param((tok.pos, tok.pos + len(tok.text)), tok.text)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            closing = self.expect(")")
            return type(node)(**{**_node_fields(node), "span": (tok.pos, closing.pos + 1)})
        raise ExprSyntaxError(f"expected a number, name or '(', found {tok.text or 'end of input'!r}",
                              tok.line, tok.col)

    def call(self, name_tok: _Token) -> Node:
        name = name_tok.text
        if name not in _BUILTINS:
            raise ExprSyntaxError(f"unknown function {name!r}", name_tok.line, name_tok.col)
        arity = _BUILTINS[name][0]
        self.expect("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        closing = self.expect(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                name_tok.line, name_tok.col)
        return Call((name_tok.pos, closing.pos + 1), name, tuple(args))


def _node_fields(node: Node) -> dict:
    return {f: getattr(node, f) for f in node.__dataclass_fields__}


# ---------------------------------------------------------------------------
# evaluation


def _collect_params(node: Node, out: set[str]) -> None:
    if isinstance(node, Param):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_params(node.operand, out)
    elif isinstance(node, Bin):
        _collect_params(node.left, out)
        _collect_params(node.right, out)
    elif isinstance(node, Call):
        if node.name in _KAPPA_BUILTINS:
            out.add("kappa")
        for a in node.args:
            _collect_params(a, out)


def _value_div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


# What distinguishes value from dual evaluation; _compile's node walk is shared.
# const lifts a number (at compile time) or a parameter value, var is the leaf
# closure for the expression variable, builtin indexes the _BUILTINS entries.
# A lifted number is one object shared by every call, so a Dual is never mutated.
_VALUE = {
    "const": lambda c: c, "var": lambda t, binding: t, "neg": operator.neg,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _value_div,
    "^": _pow_value, "builtin": 1,
}
_DUAL = {
    "const": lambda c: Dual(c, 0.0), "var": lambda t, binding: Dual(t, 1.0),
    "neg": lambda a: Dual(-a.v, -a.d),
    "+": lambda a, b: Dual(a.v + b.v, a.d + b.d), "-": lambda a, b: Dual(a.v - b.v, a.d - b.d),
    "*": _dual_mul, "/": _dual_div, "^": _pow_dual, "builtin": 2,
}

# errors from an operator or builtin are rewrapped with the node's source fragment
_REWRAPPED = (HardykitError, ArithmeticError)


def _rewrap(exc: Exception, fragment: str) -> EvalError:
    if isinstance(exc, EvalError) and exc.fragment:
        return exc
    kind = type(exc) if isinstance(exc, EvalError) else EvalError
    return kind(str(exc), fragment)


def _compile(node: Node, source: str, mode: dict, binding: ParamBinding) -> Callable:
    """Compile an AST into a closure (t, binding) -> float or Dual, per mode,
    for one binding.

    Each maximal subtree that does not contain the variable is folded into the
    object its own closure returns for this binding, so the closure returns
    exactly what the unfolded one would.  A subtree whose evaluation raises
    here stays unfolded, and raises at evaluation with its fragment.
    """
    fn, free = _build(node, source, mode, binding)
    return _fold(fn, binding) if free else fn


def _fold(fn: Callable, binding: ParamBinding) -> Callable:
    try:
        c = fn(0.0, binding)
    except Exception:  # deferred: the unfolded closure raises it again at evaluation
        return fn
    return lambda t, binding: c


def _build(node: Node, source: str, mode: dict, binding: ParamBinding) -> tuple[Callable, bool]:
    """The closure of a node and whether it is free of the variable; only the
    variable-free children of a node that is not are folded."""
    if isinstance(node, Num):
        c = mode["const"](node.value)
        return (lambda t, binding: c), True
    if isinstance(node, Var):
        return mode["var"], False
    if isinstance(node, Param):
        name, lift = node.name, mode["const"]

        def param(t, binding):
            try:
                return lift(binding[name])
            except KeyError:
                raise UnboundParameterError(f"unbound parameter {name!r}") from None

        return param, True
    if isinstance(node, Neg):
        (operand,), free = _build_children((node.operand,), source, mode, binding)
        neg = mode["neg"]
        return (lambda t, binding: neg(operand(t, binding))), free
    fragment = source[node.span[0]:node.span[1]]
    if isinstance(node, Bin):
        (left, right), free = _build_children((node.left, node.right), source, mode, binding)
        op = mode[node.op]

        def binary(t, binding):
            a = left(t, binding)
            b = right(t, binding)
            try:
                return op(a, b)
            except _REWRAPPED as exc:
                raise _rewrap(exc, fragment) from None

        return binary, free
    if isinstance(node, Call):
        args, free = _build_children(node.args, source, mode, binding)
        impl = _BUILTINS[node.name][mode["builtin"]]

        def call(t, binding):
            values = [f(t, binding) for f in args]
            try:
                return impl(values, binding)
            except _REWRAPPED as exc:
                raise _rewrap(exc, fragment) from None

        return call, free
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _build_children(nodes, source, mode, binding) -> tuple[tuple[Callable, ...], bool]:
    built = [_build(n, source, mode, binding) for n in nodes]
    if all(free for _, free in built):
        return tuple(fn for fn, _ in built), True
    return tuple(_fold(fn, binding) if free else fn for fn, free in built), False


# the compile modes, by their index in a ScalarExpr's cache entry
_MODES = (_VALUE, _DUAL)
_NO_KEY = object()


@dataclass(frozen=True)
class ScalarExpr:
    """Parsed, immutable expression over one variable and named parameters.

    The AST is compiled lazily, once per binding and mode (value or dual),
    with its variable-free subtrees folded for that binding.  A one-entry
    cache keeps the closures of the last binding, matched by the values of
    the parameters the expression reads (``params_required``).  The same
    binding object matches while those values compare equal, so one changed
    in place recompiles.  Another binding object matches only if its values
    are equal and of one type, with zeros of one sign (0.0 and -0.0 differ
    under a division), so a freshly built but equal binding does not
    recompile.  The one case that keeps stale closures is a binding changed
    in place to a value that compares equal but is not the same, such as
    0.0 to -0.0.
    """

    ast: Node
    source: str
    var: str
    params_required: frozenset[str]
    _key: Callable = field(init=False, repr=False, compare=False)
    _cache: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = sorted(self.params_required)
        key = operator.itemgetter(*names) if names else (lambda binding: None)
        object.__setattr__(self, "_key", key)
        # [the last binding, its key, its value closure, its dual closure]; a
        # binding with another key starts a new list
        object.__setattr__(self, "_cache", [None, _NO_KEY, None, None])

    def _closure(self, binding: ParamBinding, mode: int) -> Callable:
        try:
            key = self._key(binding)
        except KeyError:  # an unbound parameter: it raises at evaluation
            return _compile(self.ast, self.source, _MODES[mode], binding)
        entry = self._cache
        if binding is not entry[0] or key != entry[1]:
            # repr tells 0.0 from -0.0 and 1 from 1.0, which compare equal
            if key == entry[1] and repr(key) == repr(entry[1]):
                entry[0] = binding
            else:
                entry = [binding, key, None, None]
                object.__setattr__(self, "_cache", entry)
        fn = entry[2 + mode]
        if fn is None:
            fn = entry[2 + mode] = _compile(self.ast, self.source, _MODES[mode], binding)
        return fn

    def eval(self, t: float, binding: ParamBinding | None = None) -> float:
        binding = binding or {}
        return self._closure(binding, 0)(t, binding)

    def eval_d(self, t: float, binding: ParamBinding | None = None) -> tuple[float, float]:
        binding = binding or {}
        out = self._closure(binding, 1)(t, binding)
        return out.v, out.d

    def to_source(self) -> str:
        """Canonical fully parenthesized printout; re-parses to the same values."""
        return _print(self.ast, self.var)

    def __repr__(self):
        return f"ScalarExpr({self.source!r})"


def parse(source: str, var: str = "t") -> ScalarExpr:
    """Parse an expression; unknown identifiers become parameter references."""
    node = _Parser(source, var).parse()
    names: set[str] = set()
    _collect_params(node, names)
    return ScalarExpr(ast=node, source=source, var=var, params_required=frozenset(names))


def _print(node: Node, var: str) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return var
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_print(node.operand, var)})"
    if isinstance(node, Bin):
        return f"({_print(node.left, var)} {node.op} {_print(node.right, var)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_print(a, var) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover
