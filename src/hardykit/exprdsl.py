"""A small expression language for scalar functions of one variable.

Grammar (EBNF):

    expr    := term { ('+'|'-') term }
    term    := factor { ('*'|'/') factor }
    factor  := unary [ '^' factor ]          -- '^' is right-associative
    unary   := '-' unary | primary
    primary := NUMBER | IDENT | IDENT '(' expr {',' expr} ')' | '(' expr ')'

NUMBER is a decimal with optional exponent; one that overflows a float is a
syntax error.  An IDENT that is not in the builtin table is a parameter;
the reserved variable is 't' (an alternative variable name, e.g. 's' for
nonlinearity profiles H, can be chosen at parse time).  ct, s and D take
one argument, and the parser gives each the parameter kappa as a last
one.  Note that the grammar attaches unary minus below '^', so '-x^2'
parses as '(-x)^2'; write '-(x^2)' when the other reading is meant.
Parentheses, call arguments, unary minus and the right operand of '^'
nest at most MAX_NESTING (100) levels deep; sums and products of any
length are fine.

Evaluation is pure: a parsed ScalarExpr is immutable, evaluating it twice
with the same parameter values gives bit-identical results, and the exact
first derivative d/dt is carried beside the value through every node: one
table, _BUILTINS, describes each builtin by its value and its dual-mode
statements, and the operators have theirs beside it.
An expression is compiled lazily, once per binding and mode (value or
dual), into one generated Python function of t alone: a flat run of
statements, one local per AST node, the derivative carried as a second
float local in dual mode.  The function reads a snapshot of the binding
taken when it is compiled, and the compile is cached under the repr of
the parameter values it read, so a binding changed in place recompiles
whenever a value's repr changes, 0.0 to -0.0 included.  The maximal
subtrees free of the variable are first folded, by one call of one
function, into the values (and derivatives) they have under that binding,
which purity makes exact; if that call raises, the function is compiled
unfolded and raises at evaluation, as the language has no branches.  The
source is generated from the shape of the tree alone (node kinds,
operators, builtin and parameter names, folded subtrees), as the one slot
of a fixed template, and compiled once per shape and mode; numbers,
folded constants, the binding snapshot and source fragments are bound as
default arguments of the function made for each binding.  What a compile
takes from the tree alone is done once per process: parse memoizes the
tree of each (source, var), and a plan per tree and mode holds the fold
function's code and the folded function's code and layout; so a compile
for a new binding only calls the fold and makes the function.  These
caches, and the one cache of generated code, are bounded and filled
lazily, never at import.  fill_template inlines the same statements in a
caller's template (riccati's certify loop, verifier's margin panel); a
positive base's power runs inline.
Every operator and builtin call sits in its own try, so an error is
rewrapped as an EvalError naming the fragment of the source it came from.
Division by zero and log of a nonpositive number are hard errors rather
than IEEE infinities, so certification never silently saturates; overflow
of exp/sinh/cosh saturates to inf (such terms only ever appear in positions
where their reciprocal is taken).
"""

from __future__ import annotations

import functools
import math
import operator
import re
import types
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
    "parse",
    "evaluator",
    "fill_template",
]

# ---------------------------------------------------------------------------
# the functions the generated code calls


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


def _pow_dual(av: float, ad: float, bv: float, bd: float) -> tuple[float, float]:
    v = _pow_value(av, bv)
    d = 0.0
    if ad != 0.0:
        if av == 0.0:
            if bv < 1.0:
                raise EvalError(f"derivative of 0^{bv!r} is unbounded")
            d += 0.0 if bv > 1.0 else ad
        else:
            d += bv * _pow_value(av, bv - 1.0) * ad
    if bd != 0.0:
        if av <= 0.0:
            raise EvalError(f"derivative through exponent needs positive base, got {av!r}")
        d += v * math.log(av) * bd
    return v, d


# ---------------------------------------------------------------------------
# builtin table

def _coth_value(x: float) -> float:
    if x == 0.0:
        raise EvalError("coth(0) undefined")
    return _geo._coth(x) if x > 0.0 else -_geo._coth(-x)


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


def _unary(value: str, derivative: str, arity: int = 1) -> tuple[int, str, str]:
    """The entry of a builtin differentiable in its first argument alone (the
    others are kappa): its dual statements are its value, then the chain
    rule, f'(x) times dx/dt where that is nonzero."""
    chain = f"{{v}} = {value}\n{{d}} = ({derivative}) * {{d0}} if {{d0}} != 0.0 else 0.0"
    return arity, value, chain


def _refuse(moving: str, message: str) -> str:
    """Dual statements that raise first if an argument that admits no
    derivative moves."""
    return f"if {moving}:\n    raise UnsupportedDerivativeError({message!r})\n"


# The dual statements of the builtins with arguments that admit no
# derivative: each refuses a moving one before it computes the value.
_BESSELJ_DUAL = _refuse("{d0} != 0.0", "no derivative rule through the besselj order argument") + (
    "if {d1} == 0.0:\n    {v} = _sf.bessel_j({0}, {1})\n    {d} = 0.0\n"
    "elif {1} != 0.0:\n    {v}, {d} = _sf._bessel_j_with_dx({0}, {1})\n    {d} = {d} * {d1}\n"
    "else:\n    {v} = _sf.bessel_j({0}, {1})\n"
    "    if {0} == 1.0:\n        {d} = 0.5 * {d1}\n"
    "    elif {0} == 0.0 or {0} > 1.0:\n        {d} = 0.0\n"
    "    else:\n        raise EvalError(f'besselj({{{0}}}, x) has unbounded derivative at x=0')")
_BESSELRATIO_DUAL = _refuse(
    "{d0} != 0.0", "no derivative rule through the besselratio order argument") + (
    "{v} = _sf.bessel_ratio({0}, {1})\n{d} = _sf.bessel_ratio_dx({0}, {1}, {v}) * {d1}")


def _z_dual(name: str) -> str:
    """Dual statements of a builtin f(a, b, c, z) differentiable in z alone:
    one series pass gives f and df/dz where z moves; f alone where it does
    not."""
    return _refuse("{d0} != 0.0 or {d1} != 0.0 or {d2} != 0.0",
                   f"no derivative rule through the {name} parameter argument") + (
        f"if {{d3}} == 0.0:\n    {{v}} = _sf.{name}({{0}}, {{1}}, {{2}}, {{3}})\n    {{d}} = 0.0\n"
        f"else:\n    {{v}}, {{d}} = _sf.{name}_with_dz({{0}}, {{1}}, {{2}}, {{3}})\n"
        "    {d} = {d} * {d3}")


_GAMMA_DUAL = _refuse("{d0} != 0.0", "gamma is excluded from differentiation paths") + (
    "{v} = _sf.gamma({0})\n{d} = 0.0")

# name -> (arity, value, dual statements), as Python source over this
# module's names: the one description of each builtin.  The value is an
# expression in the argument values {0}, {1}, ...  The dual statements,
# over the same and the arguments' derivatives {d0}, {d1}, ..., assign the
# value to {v} and the derivative to {d}; a unary builtin's are the chain
# rule of its f'(x), in terms of {0} = x and {v} = f(x).  The arity counts
# the arguments of the tree: ct, s and D take kappa as their last, {1},
# which the parser supplies.  specfun and geometry are reached through
# their module attributes, so each call looks the function up when it runs.
_BUILTINS = {
    "abs": _unary("abs({0})", "math.copysign(1.0, {0}) if {0} != 0.0 else 0.0"),
    "sqrt": _unary("_sqrt_v({0})", "_sqrt_d({0}, {v})"),
    "exp": _unary("_safe_exp({0})", "{v}"),
    "log": _unary("_log_v({0})", "1.0 / {0}"),
    "pow": (2, "_pow_value({0}, {1})", "{v}, {d} = _pow_dual({0}, {d0}, {1}, {d1})"),
    "sin": _unary("math.sin({0})", "math.cos({0})"),
    "cos": _unary("math.cos({0})", "-math.sin({0})"),
    "sinh": _unary("_sinh_v({0})", "_cosh_v({0})"),
    "cosh": _unary("_cosh_v({0})", "_sinh_v({0})"),
    "tanh": _unary("math.tanh({0})", "1.0 - {v} * {v}"),
    "coth": _unary("_coth_value({0})", "1.0 - {v} * {v}"),
    "ct": _unary("_geo.ct_value({1}, {0})", "-{1} - {v} * {v}", 2),
    "s": _unary("_geo.s_value({1}, {0})", "_geo.s_value_dt({1}, {0})", 2),
    "D": _unary("_geo.deficit_value({1}, {0})", "_geo.deficit_value_dt({1}, {0})", 2),
    "besselj": (2, "_sf.bessel_j({0}, {1})", _BESSELJ_DUAL),
    "besselratio": (2, "_sf.bessel_ratio({0}, {1})", _BESSELRATIO_DUAL),
    "hyp2f1": (4, "_sf.hyp2f1({0}, {1}, {2}, {3})", _z_dual("hyp2f1")),
    "hyp2f1ratio": (4, "_sf.hyp2f1ratio({0}, {1}, {2}, {3})", _z_dual("hyp2f1ratio")),
    "gamma": (1, "_sf.gamma({0})", _GAMMA_DUAL),
}

# the builtins of the curvature bound: users write their one argument, and
# the parser adds the parameter kappa as the last
_KAPPA_BUILTINS = frozenset(("ct", "s", "D"))


# Statements of each operator and builtin, for value and for dual mode,
# over the argument values {0}, {1}, ... and their derivatives {d0}, {d1},
# ...; they assign the value to {v} and, in dual mode, the derivative to {d}.
_DIVIDE = "if {1} == 0.0:\n    raise EvalError('division by zero')\n{v} = {0} / {1}"
_STATEMENTS = {
    "+": ("{v} = {0} + {1}", "{v} = {0} + {1}\n{d} = {d0} + {d1}"),
    "-": ("{v} = {0} - {1}", "{v} = {0} - {1}\n{d} = {d0} - {d1}"),
    "*": ("{v} = {0} * {1}", "{v} = {0} * {1}\n{d} = {d0} * {1} + {0} * {d1}"),
    "/": (_DIVIDE, _DIVIDE + "\n{d} = ({d0} - {v} * {d1}) / {1}"),
}
_STATEMENTS.update((name, ("{v} = " + value, dual))
                   for name, (_, value, dual) in _BUILTINS.items())
# x ** y inline for x > 0 (in dual mode, where y does not move); else _pow_*
_POW_INLINE = "    try:\n        {v} = {0} ** {1}\n"
_STATEMENTS["^"] = _STATEMENTS["pow"] = (
    "if {0} > 0.0:\n" + _POW_INLINE + "    except OverflowError:\n        {v} = math.inf\n"
    "else:\n    {v} = _pow_value({0}, {1})",
    "if {0} > 0.0 and {d1} == 0.0:\n" + _POW_INLINE
    + "        {d} = 0.0 + {1} * {0} ** ({1} - 1.0) * {d0} if {d0} != 0.0 else 0.0\n"
    "    except OverflowError:\n        {v}, {d} = _pow_dual({0}, {d0}, {1}, {d1})\n"
    "else:\n    {v}, {d} = _pow_dual({0}, {d0}, {1}, {d1})")
_PARAM = ("try:\n    {v} = {b}[{name}]\nexcept KeyError:\n"
          "    raise UnboundParameterError('unbound parameter ' + repr({name})) from None")
_TRY = "try:\n    {}\nexcept _REWRAPPED as exc:\n    raise _rewrap(exc, {f}[{}]) from None"


# ---------------------------------------------------------------------------
# AST


# nodes compare and hash by identity: a tree is the key of its compile plans
@dataclass(frozen=True, eq=False)
class Node:
    span: tuple[int, int] = field(repr=False)

    def _children(self) -> tuple[Node, ...]:
        return ()


@dataclass(frozen=True, eq=False)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True, eq=False)
class Var(Node):
    pass


@dataclass(frozen=True, eq=False)
class Param(Node):
    name: str = ""


@dataclass(frozen=True, eq=False)
class Neg(Node):
    operand: Node = None

    def _children(self) -> tuple[Node, ...]:
        return (self.operand,)


@dataclass(frozen=True, eq=False)
class Bin(Node):
    op: str = ""
    left: Node = None
    right: Node = None

    def _children(self) -> tuple[Node, ...]:
        return self.left, self.right


@dataclass(frozen=True, eq=False)
class Call(Node):
    name: str = ""
    args: tuple[Node, ...] = ()

    def _children(self) -> tuple[Node, ...]:
        return self.args


# ---------------------------------------------------------------------------
# tokenizer / parser

# parentheses, call arguments, unary minus and the right operand of '^' each
# nest one level; the parser recurses once per level
MAX_NESTING = 100

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
        self.depth = 0

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
            rhs = self.nested(self.factor)  # right associative
            node = Bin((node.span[0], rhs.span[1]), "^", node, rhs)
        return node

    def unary(self) -> Node:
        if self.at_op("-"):
            tok = self.advance()
            inner = self.nested(self.unary)
            return Neg((tok.pos, inner.span[1]), inner)
        return self.primary()

    def nested(self, rule: Callable[[], Node]) -> Node:
        """Parse one level deeper, within MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                  tok.line, tok.col)
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {tok.text!r} overflows a float",
                                      tok.line, tok.col)
            return Num((tok.pos, tok.pos + len(tok.text)), value)
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
            node = self.nested(self.expr)
            closing = self.expect(")")
            return type(node)(**{**_node_fields(node), "span": (tok.pos, closing.pos + 1)})
        raise ExprSyntaxError(f"expected a number, name or '(', found {tok.text or 'end of input'!r}",
                              tok.line, tok.col)

    def call(self, name_tok: _Token) -> Node:
        name = name_tok.text
        if name not in _BUILTINS:
            raise ExprSyntaxError(f"unknown function {name!r}", name_tok.line, name_tok.col)
        kappa = name in _KAPPA_BUILTINS
        arity = _BUILTINS[name][0] - kappa
        self.expect("(")
        args = [self.nested(self.expr)]
        while self.at_op(","):
            self.advance()
            args.append(self.nested(self.expr))
        closing = self.expect(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                name_tok.line, name_tok.col)
        span = (name_tok.pos, closing.pos + 1)
        if kappa:
            args.append(Param(span, "kappa"))
        return Call(span, name, tuple(args))


def _node_fields(node: Node) -> dict:
    return {f: getattr(node, f) for f in node.__dataclass_fields__}


# ---------------------------------------------------------------------------
# evaluation


def _postorder(root: Node, leaves=()) -> list[Node]:
    """The nodes of a tree, each after its children, left to right; the
    nodes whose id is in ``leaves`` are not entered.  Iterative, so a long
    expression does not exhaust the interpreter's stack."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if id(node) not in leaves:
            stack.extend(node._children())
    out.reverse()
    return out


# the compile modes, by their index in a ScalarExpr's cache entry
_VALUE, _DUAL = "value", "dual"
_MODES = (_VALUE, _DUAL)

# errors from an operator or builtin are rewrapped with the node's source fragment
_REWRAPPED = (HardykitError, ArithmeticError)


def _rewrap(exc: Exception, fragment: str) -> EvalError:
    if isinstance(exc, EvalError) and exc.fragment:
        return exc
    kind = type(exc) if isinstance(exc, EvalError) else EvalError
    return kind(str(exc), fragment)


def _compile(node: Node, source: str, mode: str, binding: Mapping[str, float]) -> Callable:
    """Compile an AST into one function t -> value, or (value, d/dt) in
    dual mode, over a snapshot of the binding taken here.

    The maximal subtrees that do not contain the variable are folded into
    what the plan's fold function returns for this binding, so the function
    returns exactly what the unfolded one would.  If that call raises, the
    tree is compiled unfolded: having no branches, it raises the same first
    error, with its fragment, at every evaluation.  All that does not
    depend on the binding comes from the tree's _Plan.
    """
    binding = dict(binding)
    plan = _plan(node, source, mode)
    layout, pool = plan.folded, plan.numbers
    if plan.fold is not None:
        code, numbers, fragments = plan.fold
        try:
            values = types.FunctionType(code, globals(), "expr",
                                        numbers + (binding, fragments))(0.0)
        except Exception:  # deferred: the unfolded function raises it again at evaluation
            layout = plan.unfolded
        else:
            pool += values if mode is _DUAL or len(plan.heads) > 1 else (values,)
    code, shape, picks, fragments = layout
    fn = types.FunctionType(code, globals(), "expr",
                            tuple([pool[i] for i in picks]) + (binding, fragments))
    fn.shape = shape
    return fn


class _Plan:
    """What compiling one tree in one mode takes from the tree alone: its
    numbers, its maximal variable-free subtrees other than numbers (the
    heads), the fold function that returns all their values (and
    derivatives) with its numbers and fragments, the layout of the tree's
    function with the heads as constant leaves, and, built when a fold
    raises, the layout of the unfolded function."""

    def __init__(self, root: Node, source: str, mode: str):
        order = _postorder(root)
        free: set[int] = set()
        heads: list[Node] = []
        for n in order:
            children = n._children()
            if not isinstance(n, Var) and all(id(c) in free for c in children):
                free.add(id(n))
            else:
                heads += (c for c in children if id(c) in free and not isinstance(c, Num))
        nums = [n for n in order if isinstance(n, Num)]
        self.root, self.source, self.mode = root, source, mode
        self.heads = [root] if id(root) in free else heads
        self.numbers = tuple(n.value for n in nums)
        self.index = {id(n): i for i, n in enumerate(nums)}
        self.fold = None
        if not self.heads:
            self.folded = self.unfolded
            return
        code, _, picks, fragments = _layout([n for h in self.heads for n in _postorder(h)],
                                            source, mode, self.index, {})
        self.fold = code, tuple(self.numbers[i] for i in picks), fragments
        step = 2 if mode is _DUAL else 1
        folded = {id(h): len(self.numbers) + step * i for i, h in enumerate(self.heads)}
        self.folded = _layout(_postorder(root, folded), source, mode, self.index, folded)

    @functools.cached_property
    def unfolded(self) -> tuple:
        return _layout(_postorder(self.root), self.source, self.mode, self.index, {})


# keyed on the tree's identity (nodes compare by identity) and held by it
_plan = functools.lru_cache(maxsize=512)(_Plan)


def _layout(order: list[Node], source: str, mode: str, numbers: dict,
            folded: dict) -> tuple:
    """The code and shape of a tree (or a run of trees) given in post-order,
    the positions of its constants in a pool (by node id: numbers, and
    folded subtrees, two each in dual mode), and its source fragments.  The function's default
    arguments are those constants, then the binding, then the fragments of
    its operators and calls, in order.

    A token is '#' for a number, '=' for a folded subtree, '@' for the
    variable, '$' and the name for a parameter, '~' for unary minus, and the
    operator or builtin name otherwise; so it holds no number or fragment of
    the source, and the shape, with the arities, fixes the tree."""
    shape, picks, spans = [], [], []
    for node in order:
        if id(node) in folded:
            shape.append("=")
            picks += range(folded[id(node)], folded[id(node)] + (2 if mode is _DUAL else 1))
        elif isinstance(node, Num):
            shape.append("#")
            picks.append(numbers[id(node)])
        elif isinstance(node, Var):
            shape.append("@")
        elif isinstance(node, Param):
            shape.append("$" + node.name)
        elif isinstance(node, Neg):
            shape.append("~")
        else:
            shape.append(node.op if isinstance(node, Bin) else node.name)
            spans.append(node.span)
    shape = tuple(shape)
    code = _template_code(_EXPR, (), (("e", mode, shape),))
    return code, shape, tuple(picks), _Fragments(source, tuple(spans))


@dataclass(frozen=True)
class _Fragments:
    """The source fragments of a function's operators and calls, by index;
    each is sliced only when an error needs it."""

    source: str
    spans: tuple

    def __getitem__(self, i: int) -> str:
        start, end = self.spans[i]
        return self.source[start:end]


# the template of an expression's function, and of a plan's fold function:
# one slot, the shape's statements
_EXPR = "def expr(t):\n    r = e(t)\n    return r\n"


def _body(mode: str, shape: tuple, prefix: str) -> tuple[list[str], list[str], str]:
    """The parameters, statements and result expression of a shape's
    function: one flat run of statements in evaluation order, with a local
    per node, or two (value and derivative) in dual mode, and a try around
    each operator and builtin call.  The result lists the value (and
    derivative) of each tree the shape holds in turn: one tree, or a plan's
    heads in its fold function.  Every local and parameter name starts
    with the prefix.  Parameter names enter the text through repr();
    numbers, folded constants, the binding and fragments are the parameters,
    whose values are the default arguments _compile gives."""
    dual = mode is _DUAL
    binding, fragments = prefix + "binding", prefix + "fragments"
    names, body, n_fragments = [], [], 0
    atoms: list[tuple[str, str]] = []  # (value, derivative) expressions of pending nodes
    for i, tok in enumerate(shape):
        v, d, c, e = (f"{prefix}{x}{i}" for x in "vdce")
        if tok == "#":
            names.append(c)
            atoms.append((c, "0.0"))
        elif tok == "=":
            names += (c, e) if dual else (c,)
            atoms.append((c, e))
        elif tok == "@":
            atoms.append(("t", "1.0"))
        elif tok[0] == "$":
            body.append(_PARAM.format(v=v, name=repr(tok[1:]), b=binding))
            atoms.append((v, "0.0"))
        elif tok == "~":
            a, ad = atoms.pop()
            body.append(f"{v} = -{a}\n{d} = -{ad}" if dual else f"{v} = -{a}")
            atoms.append((v, d))
        else:
            n = _BUILTINS[tok][0] if tok in _BUILTINS else 2
            args = atoms[len(atoms) - n:]
            del atoms[len(atoms) - n:]
            op = _STATEMENTS[tok][dual].format(*(a for a, _ in args), v=v, d=d,
                                               **{f"d{j}": ad for j, (_, ad) in enumerate(args)})
            body.append(_TRY.format(op.replace("\n", "\n    "), n_fragments, f=fragments))
            n_fragments += 1
            atoms.append((v, d))
    result = ", ".join(f"{v}, {d}" if dual else v for v, d in atoms)
    return names + [binding, fragments], body, result


def fill_template(template: str, slots: Mapping[str, tuple[object, bool]],
                  binding: Mapping[str, float], env: Mapping[str, object]) -> Callable:
    """The function a template (Python source) defines; its free names are
    env's keys and those of slots, each mapped to (evaluable, dual).  Its
    line `<targets> = <name>(t)` becomes the statements of a ScalarExpr
    slot for the binding, raising the EvalErrors eval would, or calls any
    other evaluable's evaluator.  Compiled once per template and shapes."""
    key, defaults = [], list(env.values())
    for name, (e, dual) in slots.items():
        if isinstance(e, ScalarExpr):
            fn = e._compiled(binding, int(dual))
            key.append((name, _MODES[dual], fn.shape))
            defaults += fn.__defaults__
        else:
            key.append((name, None, None))
            defaults.append(evaluator(e, binding, dual))
    code = _template_code(template, tuple(env), tuple(key))
    return types.FunctionType(code, globals(), None, tuple(defaults))


@functools.lru_cache(maxsize=576)
def _template_code(template: str, env: tuple, slots: tuple) -> types.CodeType:
    """The template's code with the slots' statements inlined, their names
    prefixed with the slot's; env's and their parameters come last.  The one
    cache of generated code: expressions' functions, fold functions and
    callers' templates."""
    params = list(env)
    for name, mode, shape in slots:
        if shape is None:
            params.append(name)
            continue
        names, body, result = _body(mode, shape, name + "_")
        params += names

        def inline(m: re.Match) -> str:
            indent, targets = m.groups()
            return indent + "\n".join(body + [f"{targets} = {result}"]).replace(
                "\n", "\n" + indent)

        template = re.sub(rf"^( *)(\S.*) = {name}\(t\)$", inline, template, flags=re.M)
    module = compile(template.replace("):\n", f", {', '.join(params)}):\n", 1),
                     "<hardykit.exprdsl>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


@dataclass(frozen=True)
class ScalarExpr:
    """Parsed, immutable expression over one variable and named parameters.

    The AST is compiled lazily, once per binding and mode (value or dual),
    into one generated function of t (see the module docstring) with its
    variable-free subtrees folded for that binding; ``eval`` returns its
    value and ``eval_d`` its (value, d/dt).  A one-entry cache keeps the
    functions of the last binding, keyed on the repr of the values of the
    parameters the expression reads (``params_required``).  The repr tells
    apart values that compare equal but evaluate differently, such as 0.0
    and -0.0 under a division, or 1.0 and 1.  So a fresh binding with
    values of the same repr reuses the functions, and a binding changed in
    place to a value of another repr recompiles.  A binding that lacks a
    parameter is compiled afresh at each call, and the evaluation raises
    UnboundParameterError.
    """

    # equality and hash read (source, var), which fix the tree: comparing
    # the tree itself would recurse once per level of a long sum
    ast: Node = field(compare=False)
    source: str
    var: str
    params_required: frozenset[str] = field(compare=False)
    _key: Callable = field(init=False, repr=False, compare=False)
    _cache: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = sorted(self.params_required)
        key = operator.itemgetter(*names) if names else (lambda binding: None)
        object.__setattr__(self, "_key", key)
        # [the repr of the last key, its value function, its dual function]; a
        # binding with another key starts a new list
        object.__setattr__(self, "_cache", [None, None, None])

    def _compiled(self, binding: Mapping[str, float], mode: int) -> Callable:
        try:
            key = repr(self._key(binding))
        except KeyError:  # an unbound parameter: it raises at evaluation
            return _compile(self.ast, self.source, _MODES[mode], binding)
        entry = self._cache
        if key != entry[0]:
            entry = [key, None, None]
            object.__setattr__(self, "_cache", entry)
        fn = entry[1 + mode]
        if fn is None:
            fn = entry[1 + mode] = _compile(self.ast, self.source, _MODES[mode], binding)
        return fn

    def eval(self, t: float, binding: Mapping[str, float] | None = None) -> float:
        return self._compiled(binding or {}, 0)(t)

    def eval_d(self, t: float, binding: Mapping[str, float] | None = None) -> tuple[float, float]:
        return self._compiled(binding or {}, 1)(t)

    def __repr__(self):
        return f"ScalarExpr({self.source!r})"


def evaluator(e, binding: Mapping[str, float] | None = None, dual: bool = False) -> Callable:
    """The function t -> e.eval(t, binding), or e.eval_d(t, binding) when
    dual, resolved once for a loop over t under one binding.  For a
    ScalarExpr it is the generated function eval/eval_d call, compiled
    against a snapshot of the binding; for an evaluable with an
    ``_evaluator(binding, dual)`` (riccati.FuncEval), what that returns;
    for any other, its method with the binding passed along.  Every
    evaluation error raises at a call, not here."""
    binding = binding or {}
    if isinstance(e, ScalarExpr):
        return e._compiled(binding, int(dual))
    direct = getattr(e, "_evaluator", None)
    if direct is not None:
        return direct(binding, dual)
    method = e.eval_d if dual else e.eval
    return lambda t: method(t, binding)


def parse(source: str, var: str = "t") -> ScalarExpr:
    """Parse an expression; unknown identifiers become parameter references.
    The tree is memoized per (source, var); each call returns a new
    ScalarExpr over it, with a compile cache of its own."""
    node, names = _parse_tree(source, var)
    return ScalarExpr(ast=node, source=source, var=var, params_required=names)


@functools.lru_cache(maxsize=256)
def _parse_tree(source: str, var: str) -> tuple[Node, frozenset[str]]:
    """The tree of a source and the parameters it reads; a syntax error
    raises, and is not cached."""
    node = _Parser(source, var).parse()
    return node, frozenset(n.name for n in _postorder(node) if isinstance(n, Param))
