import math
import random
import re

import pytest

from hardykit.errors import (EvalError, ExprSyntaxError, UnboundParameterError,
                             UnsupportedDerivativeError)
from hardykit import exprdsl, specfun
from hardykit.exprdsl import ScalarExpr, parse
from oracles import (REFERENCE_UNARY, central_diff, coth_exp, reference_eval,
                     reference_eval_d)


class TestParse:
    def test_simple_eval(self):
        assert parse("1/t").eval(2.0) == 0.5

    def test_comparison_expression(self):
        e = parse("(n-1)*ct(t)")
        assert e.eval(1.0, {"n": 3.0, "kappa": 0.0}) == 2.0

    def test_bessel_pythagoras_at_zero(self):
        e = parse("besselj(0, t)^2 + besselj(1, t)^2")
        assert e.eval(0.0) == 1.0

    def test_unknown_identifier_is_parameter(self):
        e = parse("c")
        assert e.params_required == frozenset({"c"})
        assert e.eval(123.0, {"c": 0.25}) == 0.25

    def test_kappa_is_implicit_for_geometry_builtins(self):
        assert "kappa" in parse("s(t) + 1").params_required
        assert "kappa" in parse("D(t)").params_required
        assert "kappa" not in parse("sinh(t)").params_required

    def test_unbound_kappa_raises_as_any_unbound_parameter(self):
        e = parse("1 + ct(t)")
        for evaluate in (e.eval, e.eval_d):
            with pytest.raises(UnboundParameterError) as err:
                evaluate(1.0, {"a": 1.0})
            assert str(err.value) == "unbound parameter 'kappa'" and err.value.fragment == ""

    def test_number_formats(self):
        assert parse("1.5e-3").eval(0.0) == 1.5e-3
        assert parse(".5").eval(0.0) == 0.5
        assert parse("2.").eval(0.0) == 2.0
        assert parse("1E4").eval(0.0) == 1e4

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + * 2")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("t $ 2")

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError):
            parse("besselj(t)")
        with pytest.raises(ExprSyntaxError):
            parse("exp(1, 2)")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("frobnicate(t)")

    def test_builtin_without_call_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("exp + 1")

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 3")

    def test_alternative_variable(self):
        e = parse("s^2/2", var="s")
        assert e.eval(3.0) == 4.5
        # with var = s, the builtin s(...) is shadowed for bare identifiers
        # but calls still resolve to the builtin
        e2 = parse("s(s)", var="s")
        assert e2.eval(2.0, {"kappa": 0.0}) == 2.0


class TestGrammarShape:
    def test_power_right_associative(self):
        # 2^3^2 = 2^(3^2) = 512
        assert parse("2^3^2").eval(0.0) == 512.0

    def test_unary_minus_binds_below_power(self):
        # grammar: factor := unary ['^' factor], so -2^2 = (-2)^2 = 4
        assert parse("-2^2").eval(0.0) == 4.0
        assert parse("-(2^2)").eval(0.0) == -4.0

    def test_multiplication_division_left_associative(self):
        assert parse("8/4/2").eval(0.0) == 1.0
        assert parse("2-3-4").eval(0.0) == -5.0

    def test_builtin_table_contents(self):
        # name -> the arity users write; ct, s and D take kappa from the binding
        expected = {**dict.fromkeys(("abs", "sqrt", "exp", "log", "sin", "cos", "sinh",
                                     "cosh", "tanh", "coth", "ct", "s", "D", "gamma"), 1),
                    "pow": 2, "besselj": 2, "besselratio": 2, "hyp2f1": 4, "hyp2f1ratio": 4}
        assert set(exprdsl._BUILTINS) == set(expected)
        for name, arity in expected.items():
            assert parse(f"{name}({', '.join(['t'] * arity)})").ast.name == name
            with pytest.raises(ExprSyntaxError, match=f"^{name} takes {arity} argument"):
                parse(f"{name}({', '.join(['1'] * (arity + 1))})")


class TestEval:
    def test_deficit_expression_matches_oracle(self):
        e = parse("t*ct(t) - 1")
        assert e.eval(1.0, {"kappa": -1.0}) == pytest.approx(coth_exp(1.0) - 1.0,
                                                             abs=1e-13)

    def test_log_reciprocal(self):
        assert parse("log(1/t)").eval(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-15)

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            parse("a*t").eval(1.0, {})

    def test_division_by_zero_is_hard_error(self):
        with pytest.raises(EvalError):
            parse("1/(t-1)").eval(1.0)

    def test_log_of_nonpositive_is_hard_error(self):
        with pytest.raises(EvalError):
            parse("log(t)").eval(0.0)
        with pytest.raises(EvalError):
            parse("log(t - 2)").eval(1.0)

    def test_negative_base_integer_power_ok(self):
        assert parse("(-2)^3").eval(0.0) == -8.0
        assert parse("t^2").eval(-3.0) == 9.0

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(EvalError):
            parse("t^0.5").eval(-1.0)

    def test_zero_to_nonpositive_rejected(self):
        with pytest.raises(EvalError):
            parse("t^(-1)").eval(0.0)
        with pytest.raises(EvalError):
            parse("t^0").eval(0.0)

    def test_pow_builtin_matches_caret(self):
        assert parse("pow(t, 3)").eval(2.0) == parse("t^3").eval(2.0)

    def test_coth_of_zero_rejected(self):
        with pytest.raises(EvalError):
            parse("coth(t)").eval(0.0)

    def test_builtin_domain_errors_propagate(self):
        # past the first positive zero the ratio is undefined
        with pytest.raises(EvalError):
            parse("besselratio(0, t)").eval(3.0)
        with pytest.raises(EvalError):
            parse("sqrt(t - 2)").eval(1.0)

    def test_error_identifies_subexpression(self):
        e = parse("1 + log(1 - t)")
        for evaluate in (e.eval, e.eval_d):
            with pytest.raises(EvalError) as err:
                evaluate(2.0)
            assert "log(1 - t)" in str(err.value)
            assert err.value.fragment == "log(1 - t)"

    def test_referential_transparency(self):
        e = parse("exp(sinh(t)/2) + besselj(1, t) - c*t^3")
        b = {"c": 0.7}
        vals = {e.eval(1.234, b) for _ in range(5)}
        assert len(vals) == 1
        duals = {e.eval_d(1.234, b) for _ in range(5)}
        assert len(duals) == 1


class TestDerivatives:
    def test_square(self):
        assert parse("t^2").eval_d(3.0) == (9.0, 6.0)

    def test_reciprocal(self):
        v, d = parse("1/(2*t)").eval_d(1.0)
        assert v == 0.5 and d == -0.5

    def test_bessel_ratio_expression(self):
        e = parse("besselj(1, t)/besselj(0, t)")
        v, d = e.eval_d(1.0)
        fd = central_diff(lambda x: e.eval(x), 1.0, 1e-6)
        assert d == pytest.approx(fd, abs=1e-7)

    def test_parameters_are_constants(self):
        v, d = parse("a*t + a^2").eval_d(2.0, {"a": 3.0})
        assert v == 15.0 and d == 3.0

    def test_gamma_blocks_derivative(self):
        with pytest.raises(UnsupportedDerivativeError):
            parse("gamma(t)").eval_d(2.5)
        # gamma of a constant subexpression is fine on the derivative path
        v, d = parse("gamma(a) * t").eval_d(2.0, {"a": 5.0})
        assert v == 48.0 and d == 24.0

    def test_bessel_order_must_be_constant(self):
        with pytest.raises(UnsupportedDerivativeError):
            parse("besselj(t, 1)").eval_d(0.5)

    def test_geometry_builtin_derivatives(self):
        b = {"kappa": -1.0}
        for src, ref in (("ct(t)", lambda x: 1.0 / math.tanh(x)),
                         ("s(t)", math.sinh),
                         ("D(t)", lambda x: x / math.tanh(x) - 1.0)):
            e = parse(src)
            v, d = e.eval_d(0.8, b)
            fd = central_diff(ref, 0.8, 1e-7)
            assert d == pytest.approx(fd, rel=1e-7)


# random-expression generator for the derivative property suite
_UNARY = ["exp", "log", "sinh", "cosh", "coth", "sqrt"]
_GEOM = ["ct", "s"]


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        return rng.choice(["t", "t", "a", "b", f"{rng.uniform(0.3, 2.5):.4f}"])
    kind = rng.randrange(8)
    if kind < 4:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if kind == 4:
        return f"({_random_expr(rng, depth - 1)})^{rng.choice([2, 3])}"
    if kind < 7:
        fn = rng.choice(_UNARY)
        return f"{fn}({_random_expr(rng, depth - 1)})"
    return f"{rng.choice(_GEOM)}({_random_expr(rng, depth - 1)})"


class TestDerivativePropertySuite:
    def test_thousand_random_expressions_match_finite_differences(self):
        rng = random.Random(20240817)
        binding = {"a": 1.3, "b": 0.6, "kappa": -1.0}
        checked = 0
        attempts = 0
        failures = []
        value_mismatches = []
        while checked < 1000 and attempts < 40000:
            attempts += 1
            src = _random_expr(rng, rng.choice([2, 3, 4]))
            t = rng.uniform(0.3, 2.5)
            try:
                e = parse(src)
                h = 1e-6 * (1.0 + abs(t))
                v, d = e.eval_d(t, binding)
                v0 = e.eval(t, binding)
                vm = e.eval(t - h, binding)
                vp = e.eval(t + h, binding)
            except EvalError:
                continue
            # the value and dual evaluators agree bitwise on the value
            if repr(v0) != repr(v):
                value_mismatches.append((src, t, v0, v))
            if not all(map(math.isfinite, (v, d, vm, vp))):
                continue
            if max(abs(v), abs(vm), abs(vp)) > 1e6 or abs(d) > 1e8:
                continue  # keep the finite-difference truncation error meaningful
            fd = (vp - vm) / (2.0 * h)
            if abs(d - fd) > 1e-6 * (1.0 + abs(d)):
                failures.append((src, t, d, fd))
            checked += 1
        assert checked == 1000, f"could not generate 1000 valid samples ({checked})"
        assert not failures, f"{len(failures)} derivative mismatches, first: {failures[0]}"
        assert not value_mismatches, f"eval differs from eval_d: {value_mismatches[0]}"


class TestParserFuzz:
    def test_garbage_never_crashes_with_foreign_exceptions(self):
        # any input either parses or raises the structured syntax error
        rng = random.Random(1312)
        alphabet = "ts+-*/^(), .0123456789abcexploghint_"
        for _ in range(3000):
            src = "".join(rng.choice(alphabet)
                          for _ in range(rng.randrange(1, 24)))
            try:
                parse(src)
            except ExprSyntaxError:
                pass

    def test_deep_nesting_parses(self):
        src = "(" * 60 + "t" + ")" * 60
        assert parse(src).eval(2.5) == 2.5


def _outcomes(e, t, binding):
    """Value, dual and error type, message and fragment, as exact reprs."""
    out = []
    for evaluate in (e.eval, e.eval_d):
        try:
            out.append(repr(evaluate(t, binding)))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc), getattr(exc, "fragment", None)))
    return out


def _any_builtin_expr(rng: random.Random, depth: int) -> str:
    # every builtin, parameters bound to zero or missing, and error-prone forms
    if depth <= 0:
        return rng.choice(["t", "t", "a", "b", "q", f"{rng.uniform(-1.0, 2.5):.4f}"])
    kind = rng.randrange(10)
    sub = lambda: _any_builtin_expr(rng, depth - 1)  # noqa: E731
    if kind < 4:
        return f"({sub()} {rng.choice(['+', '-', '*', '/', '^'])} {sub()})"
    if kind == 4:
        return f"-{sub()}"
    if kind < 8:
        fn = rng.choice(["exp", "log", "sinh", "cosh", "coth", "sqrt", "abs", "sin", "cos",
                         "tanh", "ct", "s", "D", "gamma"])
        return f"{fn}({sub()})"
    if kind == 8:
        return f"besselj({rng.choice(['0', '1', '2.5', 't', 'a'])}, {sub()})"
    return rng.choice([f"besselratio(1, {sub()})", f"hyp2f1(0.5, b, 1.5, -{sub()})",
                       f"hyp2f1(a, 1, 2, -(t^2 + {sub()}))", f"pow({sub()}, {sub()})",
                       f"hyp2f1ratio(b, 0.75, 1, -{sub()})",
                       f"hyp2f1ratio(a - 1.3, 1.5, 1, -(t^2 + {sub()}))"])


def _unfolding_plan(node, source, mode):
    # a plan whose folded layout is the unfolded one: folding switched off
    plan = exprdsl._Plan(node, source, mode)
    plan.folded = plan.unfolded
    return plan


class TestBindTimeFolding:
    def test_folded_equals_unfolded_over_random_expressions(self, monkeypatch):
        # the reference compiles the same ASTs with folding switched off
        rng = random.Random(5150)
        bindings = ({"a": 1.3, "b": 0.6, "q": -0.7, "kappa": -1.0},
                    {"a": 2.0, "b": -0.5, "q": 0.0, "kappa": 0.0},
                    {"a": 1.3, "b": 0.6})
        cases = []
        for _ in range(600):
            e = parse(_any_builtin_expr(rng, rng.choice([1, 2, 3, 4])))
            for binding in bindings:
                for t in (rng.uniform(-1.0, 3.0), 0.0, 1.0):
                    cases.append((e, t, binding, _outcomes(e, t, binding)))
        monkeypatch.setattr(exprdsl, "_plan", _unfolding_plan)
        errors = 0
        for e, t, binding, folded in cases:
            plain = ScalarExpr(ast=e.ast, source=e.source, var=e.var,
                               params_required=e.params_required)
            assert _outcomes(plain, t, binding) == folded, (e.source, t, binding)
            errors += sum(isinstance(o, tuple) for o in folded)
        assert errors > 1000  # the error paths are exercised, not only values

    def test_error_in_a_variable_free_subtree_raises_at_eval(self):
        e = parse("t + log(a - 1)")
        for _ in range(2):  # the cached compile raises again, each time
            for evaluate in (e.eval, e.eval_d):
                with pytest.raises(EvalError) as err:
                    evaluate(2.0, {"a": 0.5})
                assert err.value.fragment == "log(a - 1)"
        assert e.eval(2.0, {"a": 3.0}) == 2.0 + math.log(2.0)

    def test_unbound_parameter_still_raises(self):
        e = parse("t*c + exp(c)")
        for _ in range(2):
            with pytest.raises(UnboundParameterError):
                e.eval(1.0, {"d": 1.0})
            with pytest.raises(UnboundParameterError):
                e.eval_d(1.0)
        assert e.eval(1.0, {"c": 0.0}) == 1.0

    def test_alternating_and_mutated_bindings(self):
        e = parse("a*t + exp(a) + hyp2f1(a, 1, 2, -t)")

        def fresh(t, binding):
            plain = ScalarExpr(ast=e.ast, source=e.source, var=e.var,
                               params_required=e.params_required)
            return plain.eval(t, binding), plain.eval_d(t, binding)

        b1, b2 = {"a": 0.5}, {"a": 2.0}
        for t in (0.3, 1.7, 4.0):
            for b in (b1, b2, b1, b2):
                assert (e.eval(t, b), e.eval_d(t, b)) == fresh(t, b)
        b = {"a": 0.5}
        first = e.eval(1.0, b)
        b["a"] = 2.0  # changed in place: the cached compile is not reused
        assert e.eval(1.0, b) == fresh(1.0, {"a": 2.0})[0] != first

    def test_signed_zero_and_type_are_part_of_the_binding(self):
        # equal values that differ in the sign of zero or in type compile apart
        for src, bindings in (("a*t", ({"a": 0.0}, {"a": -0.0}, {"a": 0.0})),
                              ("a", ({"a": 1.0}, {"a": 1}, {"a": 1.0}))):
            e = parse(src)
            for b in bindings:
                plain = ScalarExpr(ast=e.ast, source=e.source, var=e.var,
                                   params_required=e.params_required)
                assert _outcomes(e, 2.0, b) == _outcomes(plain, 2.0, b), (src, b)

    def test_binding_changed_in_place_to_an_equal_value_recompiles(self):
        # 0.0 and -0.0, 1.0 and 1 compare equal but evaluate apart
        for src, before, after, expected in (("a*t", 0.0, -0.0, -0.0), ("a", 1.0, 1, 1)):
            e = parse(src)
            b = {"a": before}
            e.eval(2.0, b), e.eval_d(2.0, b)
            b["a"] = after
            plain = ScalarExpr(ast=e.ast, source=e.source, var=e.var,
                               params_required=e.params_required)
            for got, fresh in ((e.eval(2.0, b), plain.eval(2.0, b)),
                               (e.eval_d(2.0, b)[0], plain.eval_d(2.0, b)[0])):
                assert repr(got) == repr(fresh) == repr(expected), (src, got)

    def test_evaluator_is_a_function_of_t_over_a_snapshot(self):
        from hardykit.riccati import FuncEval

        b = {"a": 2.0}
        value = exprdsl.evaluator(parse("a*t"), b)
        dual = exprdsl.evaluator(parse("a*t^2"), b, dual=True)
        b["a"] = 3.0  # resolved functions keep the binding they were given
        assert (value(1.5), dual(1.5)) == (3.0, (4.5, 6.0))
        f = FuncEval(lambda t: t + 1.0, lambda t: (t + 1.0, 1.0))
        assert (exprdsl.evaluator(f, b)(2.0), exprdsl.evaluator(f, b, dual=True)(2.0)) == (
            3.0, (3.0, 1.0))

    def test_one_compile_per_expression_binding_and_mode(self, monkeypatch):
        # a certify and a margin on one instance: each (expression, mode)
        # compiles once, the margin's equal binding reuses the certify's
        from hardykit.catalog import instantiate
        from hardykit.geometry import ModelGeometry
        from hardykit.riccati import certify
        from hardykit.testfuncs import random_bumps
        from hardykit.verifier import additive_margin

        compiled = []
        compile_ = exprdsl._compile

        def counting(node, source, mode, binding):
            compiled.append((source, mode is exprdsl._DUAL))
            return compile_(node, source, mode, binding)

        monkeypatch.setattr(exprdsl, "_compile", counting)
        inst = instantiate("ghoussoub_moradifam", ModelGeometry(0.0, 4, 2.0),
                           {"a": 0.8, "b": 1.7, "alpha": 0.9, "beta": 0.6, "m": 0.1})
        assert certify(inst.spec, inst.G).verdict == "certified"
        after_certify = len(compiled)
        additive_margin(None, inst, random_bumps(1, 3)[0])
        assert len(compiled) == len(set(compiled))
        assert after_certify >= 4


def _elementary_expr(rng: random.Random, depth: int) -> str:
    # the operators and builtins the reference evaluator covers; the large
    # literals reach the overflow of exp, sinh, cosh and '^'
    if depth <= 0:
        return rng.choice(["t", "t", "a", "b", "q", f"{rng.uniform(-1.0, 2.5):.4f}",
                           f"{rng.uniform(700.0, 760.0):.2f}"])
    kind = rng.randrange(9)
    sub = lambda: _elementary_expr(rng, depth - 1)  # noqa: E731
    if kind < 4:
        return f"({sub()} {rng.choice(['+', '-', '*', '/', '^'])} {sub()})"
    if kind == 4:
        return f"-{sub()}"
    if kind == 5:
        return f"pow({sub()}, {sub()})"
    return f"{rng.choice(sorted(REFERENCE_UNARY))}({sub()})"


def _reference_outcomes(e, t, binding):
    out = []
    for evaluate in (reference_eval, reference_eval_d):
        try:
            out.append(repr(evaluate(e, t, binding)))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc), getattr(exc, "fragment", None)))
    return out


class TestReferenceEvaluator:
    def test_generated_functions_match_a_recursive_walk(self):
        # bitwise values and derivatives, and the same error class, message
        # and fragment, against tests/oracles.py, which shares no code with
        # the code generator
        rng = random.Random(8086)
        bindings = ({"a": 1.3, "b": 0.6, "q": -0.7},
                    {"a": 2.0, "b": -0.5, "q": 0.0},
                    {"a": 1.3, "b": 0.6})
        errors = values = 0
        for _ in range(600):
            e = parse(_elementary_expr(rng, rng.choice([1, 2, 3, 4])))
            for binding in bindings:
                for t in (rng.uniform(-1.0, 3.0), 0.0, 1.0):
                    got = _outcomes(e, t, binding)
                    assert got == _reference_outcomes(e, t, binding), (e.source, t, binding)
                    errors += sum(isinstance(o, tuple) for o in got)
                    values += sum(isinstance(o, str) for o in got)
        assert errors > 1000 and values > 4000  # both paths are exercised

    def test_every_builtin_matches_a_recursive_walk(self):
        # the same comparison over expressions drawn from every builtin, with
        # and without kappa in the binding, plus the special cases by hand
        rng = random.Random(2718)
        bindings = ({"a": 1.3, "b": 0.6, "q": -0.7, "kappa": -1.0},
                    {"a": 2.0, "b": -0.5, "q": 0.0, "kappa": 0.0},
                    {"a": 1.3, "b": 0.6})
        sources = [_any_builtin_expr(rng, rng.choice([1, 2, 3, 4])) for _ in range(600)]
        sources += ["besselj(1, t)", "besselj(0, t)", "besselj(2.5, t)", "besselj(0.5, t)",
                    "besselj(1, 2*t)", "besselj(a, t)", "besselj(t, 1)", "besselratio(t, 1)",
                    "besselratio(0.5, t)", "hyp2f1(t, 1, 2, -1)", "hyp2f1(1, t, 2, -1)",
                    "hyp2f1(1, 1, t, -1)", "hyp2f1(a, b, 2, -t)", "hyp2f1(a, b, 2, -a)*t",
                    "hyp2f1ratio(t, 1, 2, -1)", "hyp2f1ratio(a, b, 1, -t)",
                    "hyp2f1ratio(q, b, 1, -t)", "hyp2f1ratio(a, b, 2, -a)*t",
                    "gamma(t)", "gamma(a)*t", "ct(t)", "s(t)", "D(t)", "coth(t)", "coth(-t)"]
        seen: dict[str, int] = {}
        for src in sources:
            e = parse(src)
            names = {n.name for n in exprdsl._postorder(e.ast) if isinstance(n, exprdsl.Call)}
            for binding in bindings:
                for t in (rng.uniform(-1.0, 3.0), 0.0, 1.0, 0.5):
                    got = _outcomes(e, t, binding)
                    assert got == _reference_outcomes(e, t, binding), (src, t, binding)
                    for o in got:
                        kind = o[0] if isinstance(o, tuple) else "value"
                        seen[kind] = seen.get(kind, 0) + 1
                    for name in names:
                        seen[name] = seen.get(name, 0) + 1
        assert set(exprdsl._BUILTINS) <= set(seen)
        assert seen["value"] > 4000
        # kernel errors (range, domain, pole) are rewrapped as EvalError
        for kind in ("EvalError", "UnsupportedDerivativeError", "UnboundParameterError"):
            assert seen.get(kind, 0) > 100, (kind, seen.get(kind))

    def test_builtin_special_cases(self):
        # the cases the reference must reproduce, pinned by value
        assert parse("besselj(1, t)").eval_d(0.0) == (0.0, 0.5)
        assert parse("besselj(0, t)").eval_d(0.0) == (1.0, 0.0)
        assert repr(parse("besselj(2.5, -t)").eval_d(0.0)) == "(0.0, 0.0)"
        with pytest.raises(EvalError, match=r"besselj\(0.5, x\) has unbounded") as err:
            parse("besselj(0.5, t)").eval_d(0.0)
        assert err.value.fragment == "besselj(0.5, t)"
        with pytest.raises(UnsupportedDerivativeError, match="gamma is excluded"):
            parse("gamma(t)").eval_d(0.0)  # refused before the pole is reached
        for src in ("besselj(t, 1)", "besselratio(t, 1)", "hyp2f1(1, t, 2, -1)"):
            with pytest.raises(UnsupportedDerivativeError, match="no derivative rule"):
                parse(src).eval_d(0.5)

    def test_besselj_derivative_above_10_is_one_recurrence(self, monkeypatch):
        # J' = (nu/x) J_nu - J_(nu+1) from one _bessel_pair pass; the value
        # stays bessel_j's, and J' is within 1e-15 of 40-digit mpmath (the
        # neighbouring order's recurrence made it two)
        import mpmath

        calls = []
        pair = specfun._bessel_pair

        def counting(nu, x):
            calls.append(nu)
            return pair(nu, x)

        monkeypatch.setattr(specfun, "_bessel_pair", counting)
        for nu, x in ((2.5, 50.0), (0.0, 10.5), (1.0, 37.0), (50.0, 199.0), (17.5, 12.0)):
            calls.clear()
            v, d = parse(f"besselj({nu}, t)").eval_d(x)
            assert calls == [nu]
            assert v == pair(nu, x)[0]
            with mpmath.workdps(40):
                assert abs(d - float(mpmath.besselj(nu, x, derivative=1))) <= 1e-15, (nu, x)


class TestLongExpressions:
    def test_two_thousand_term_sum(self):
        e = parse(" + ".join(["t"] * 2000))
        assert e.eval(1.0) == 2000.0
        assert e.eval_d(1.0) == (2000.0, 2000.0)
        assert e.eval_d(0.5) == (1000.0, 2000.0)

    def test_two_thousand_term_sum_compares_and_hashes(self):
        src = " + ".join(["t"] * 2000)
        e, e2 = parse(src), parse(src)
        assert e == e2 and hash(e) == hash(e2)
        assert len({e, e2}) == 1
        assert e != parse(src + " + t") and e != parse(src, var="s")

    def test_long_product_with_parameters_and_errors(self):
        e = parse(" * ".join(["(t + a)"] * 1500) + " / (t - 1)")
        assert e.params_required == {"a"}
        assert e.eval(0.0, {"a": 1.0}) == -1.0
        with pytest.raises(EvalError) as err:
            e.eval_d(1.0, {"a": 0.0})
        assert err.value.fragment == e.source

    def test_deep_nesting_is_a_syntax_error(self):
        n = exprdsl.MAX_NESTING
        assert parse("(" * n + "t" + ")" * n).eval(2.0) == 2.0
        expected = 0.5
        for _ in range(n):
            expected = math.sin(expected)
        assert parse("sin(" * n + "t" + ")" * n).eval(0.5) == expected
        for depth in (n + 1, 250, 5000):
            for src in ("(" * depth + "t" + ")" * depth, "-" * depth + "t",
                        "^".join(["t"] * (depth + 1)), "sin(" * depth + "t" + ")" * depth):
                with pytest.raises(ExprSyntaxError, match="nested deeper than"):
                    parse(src)


class TestLiterals:
    def test_overflowing_literal_is_rejected_at_its_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1e999*t + 2")
        assert (err.value.line, err.value.col) == (1, 1)
        with pytest.raises(ExprSyntaxError) as err:
            parse("t +\n  3.5e308")
        assert (err.value.line, err.value.col) == (2, 3)


class TestParseMemoAndPlans:
    """Each parse returns a new ScalarExpr over a memoized tree, and the
    binding-independent part of each compile comes from the tree's plan."""

    def test_each_parse_is_a_new_expression_over_one_tree(self):
        src = "a*t + exp(-b*t)"
        e1, e2 = parse(src), parse(src)
        assert e1 is not e2 and e1 == e2
        assert e1.ast is e2.ast and e1.params_required == {"a", "b"}
        e1.eval(1.0, {"a": 1.0, "b": 2.0})
        assert e2._cache == [None, None, None]  # the compile cache is not shared
        assert parse(src, var="s").ast is not e1.ast

    def test_two_live_instances_of_one_entry_compile_once_each(self, monkeypatch):
        from hardykit.catalog import instantiate
        from hardykit.geometry import ModelGeometry
        from hardykit.riccati import certify

        compiled = []
        compile_ = exprdsl._compile

        def counting(node, source, mode, binding):
            compiled.append(source)
            return compile_(node, source, mode, binding)

        monkeypatch.setattr(exprdsl, "_compile", counting)
        geo = ModelGeometry(0.0, 4, 2.5)
        insts = [instantiate("hardy", geo, {"alpha": a, "C": 3.0}) for a in (1.0, 0.5)]
        first = [certify(i.spec, i.G).residuals for i in insts]
        after_first = len(compiled)
        for _ in range(2):
            assert [certify(i.spec, i.G).residuals for i in insts] == first
        assert first[0] != first[1]
        assert after_first >= 8 and len(compiled) == after_first

    def test_equal_values_of_another_sign_or_type_compile_apart(self):
        # the instances share a tree and its plan, never a fold
        cases = (("a*t", 0.0, "0.0"), ("a*t", -0.0, "-0.0"), ("a", 1.0, "1.0"), ("a", 1, "1"))
        exprs = [parse(src) for src, _, _ in cases]
        for _ in range(2):
            for e, (_, value, expected) in zip(exprs, cases):
                assert repr(e.eval(2.0 if e.source == "a*t" else 0.5, {"a": value})) == expected
                assert repr(e.eval_d(2.0, {"a": value})[0]) == expected

    def test_fold_that_raises_under_one_binding_only(self):
        exprs = [parse("t + 1/(a-1)") for _ in range(2)]
        for _ in range(2):
            for e in exprs:
                assert e.eval(1.0, {"a": 2.0}) == 2.0
                assert e.eval_d(1.0, {"a": 3.0}) == (1.5, 1.0)
                for evaluate in (e.eval, e.eval_d):
                    with pytest.raises(EvalError) as err:
                        evaluate(1.0, {"a": 1.0})
                    assert err.value.fragment == "1/(a-1)"

    def test_syntax_error_raises_every_time(self):
        before = exprdsl._parse_tree.cache_info()
        for _ in range(3):
            with pytest.raises(ExprSyntaxError, match="expected a number"):
                parse("t + * 2")
        after = exprdsl._parse_tree.cache_info()
        assert after.misses - before.misses == 3 and after.hits == before.hits


class TestCodeCache:
    def test_literals_and_parameter_values_share_one_code_object(self):
        e1 = parse("2.5*t + exp(-a*t) + log(a + 1.5)")
        e2 = parse("0.125*t + exp(-a*t) + log(a + 7)")
        e1.eval_d(1.0, {"a": 1.0}), e1.eval(1.0, {"a": 1.0})
        e2.eval_d(2.0, {"a": 3.0}), e2.eval(2.0, {"a": 3.0})
        for mode in (0, 1):
            assert e1._cache[1 + mode].__code__ is e2._cache[1 + mode].__code__
        assert e1.eval(1.0, {"a": 1.0}) != e2.eval(1.0, {"a": 1.0})

    def test_cache_is_bounded(self):
        rng = random.Random(17)
        code = exprdsl._template_code
        code.cache_clear()
        for _ in range(10_000):  # greene_wu_psi profiles, psi = t*exp(c*t)
            psi = parse(f"t*exp({rng.uniform(-3.0, 3.0)!r}*t)")
            psi.eval_d(rng.uniform(0.01, 5.0), {"kappa": -1.0})
        # three dual shapes: c >= 0, c < 0 with -c folded, and the fold of -c
        assert code.cache_info().misses == 3
        for j in range(code.cache_info().maxsize + 50):  # distinct shapes
            parse(f"t*p{j}").eval(1.0, {f"p{j}": 1.0})
        for cache in (code, exprdsl._parse_tree, exprdsl._plan):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize < code.cache_info().maxsize + 50

    # the refusals and the besselj message of the special builtins' dual rules
    FIXED_MESSAGES = {"no derivative rule through the besselj order argument",
                      "no derivative rule through the besselratio order argument",
                      "no derivative rule through the hyp2f1 parameter argument",
                      "no derivative rule through the hyp2f1ratio parameter argument",
                      "gamma is excluded from differentiation paths",
                      "besselj(", ", x) has unbounded derivative at x=0"}

    def test_generated_source_holds_no_number_or_fragment(self, monkeypatch):
        import ast as pyast
        import builtins

        texts = []

        def compile_and_keep(text, *args):
            texts.append(text)
            return compile(text, *args)

        monkeypatch.setattr(exprdsl, "compile", compile_and_keep, raising=False)
        exprdsl._template_code.cache_clear()
        src = ("0.4173*t^2.25 + exp(-alpha_9*t)/(t + 17.75) + besselj(3, 3.625*t) "
               "- sqrt(exc*binding) + hyp2f1(0.3125, 1.5, 2.875, -t) + ct(t)")
        e = parse(src)
        binding = {"alpha_9": 0.5, "exc": 2.0, "binding": 3.0, "kappa": -1.0}
        e.eval(1.5, binding), e.eval_d(1.5, binding)
        for evaluate in (e.eval, e.eval_d):  # sqrt(exc*binding) is not folded
            with pytest.raises(EvalError):
                evaluate(1.5, {**binding, "exc": -2.0})
        plain = ScalarExpr(ast=e.ast, source=e.source, var=e.var,
                           params_required=e.params_required)
        monkeypatch.setattr(exprdsl, "_plan", _unfolding_plan)
        plain.eval(1.5, binding), plain.eval_d(1.5, binding)
        assert len(texts) >= 6
        # the fold function of -alpha_9, sqrt(exc*binding) and ct's kappa in each mode
        assert sum(text.endswith(("r = e_v1, e_v5, e_v6\n    return r\n",
                                  "r = e_v1, e_d1, e_v5, e_d5, e_v6, 0.0\n    return r\n"))
                   for text in texts) == 2
        fragments = {src[n.span[0]:n.span[1]] for n in exprdsl._postorder(e.ast)
                     if isinstance(n, (exprdsl.Bin, exprdsl.Call))}
        for text in texts:
            for literal in ("0.4173", "2.25", "17.75", "3.625", "0.3125", "2.875", "1.5"):
                assert literal not in text
            assert not any(f in text for f in fragments)
            for node in pyast.walk(pyast.parse(text)):
                if isinstance(node, pyast.Constant):
                    # floats come from the dual rules, ints index the fragments,
                    # strings are parameter names and fixed messages
                    assert (node.value in (0.0, 0.5, 1.0, None) or type(node.value) is int
                            or node.value in {*binding, "division by zero",
                                              "unbound parameter ", *self.FIXED_MESSAGES}), node.value
                elif isinstance(node, pyast.Name):
                    # locals, arguments, exprdsl's names and builtins; never alpha_9
                    assert (re.fullmatch(r"e_[vdce]\d+", node.id) or hasattr(exprdsl, node.id)
                            or hasattr(builtins, node.id)
                            or node.id in {"t", "r", "e_binding", "e_fragments", "exc"}), node.id
