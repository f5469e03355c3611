"""The straight-line float code of ``algebra.Stage``, generated by running
a stage body once on traced floats.

A traced float (``_Sym``) records each operation on it, and a traced
multivector (``_Traced``) runs each step through the same ``_Code`` tables
that a Multivector step runs, so the recorded operations are those of the
step, on the same operands and in the same order: the generated text is the
trace of the Multivector program, which stays the single source.  Only
``algebra.Stage`` imports this module, when it generates its first function.
"""

from __future__ import annotations

import math
from typing import Callable

from .algebra import _NOT_FINITE, Multivector, Signature

__all__ = ["generate", "largest_abs"]


class _Sym:
    """A traced float: the local of the generated function that holds it.
    In every run that passes the stage's finiteness tests, it is finite if
    ``finite`` (a multivector input's coefficient, a tested step result, or
    a sum, difference or product of finite values, one of them zero) and
    +-0.0 if ``zero``."""

    __slots__ = ("trace", "name", "finite", "zero")

    def __init__(self, trace: "_Trace", name: str, finite: bool, zero: bool) -> None:
        self.trace, self.name, self.finite, self.zero = trace, name, finite, zero

    def __str__(self) -> str:
        return self.name

    def __bool__(self):
        raise TypeError("a traced float is not known until the stage runs")

    def __neg__(self):
        return self.trace.record(f"-{self}", (self,), self.finite, self.zero)

    __add__ = lambda self, y: _binary(self, "+", y)
    __radd__ = lambda self, x: _binary(x, "+", self)
    __sub__ = lambda self, y: _binary(self, "-", y)
    __rsub__ = lambda self, x: _binary(x, "-", self)
    __mul__ = lambda self, y: _binary(self, "*", y)
    __rmul__ = lambda self, x: _binary(x, "*", self)
    __truediv__ = lambda self, y: _binary(self, "/", y)


def _binary(x, op: str, y):
    """x op y, at least one of them a _Sym and the other a _Sym or a constant:
    recorded, except x * 1.0 (x) and x * -1.0 (-x), which are exact."""
    if not all(isinstance(v, (_Sym, int, float)) for v in (x, y)):
        return NotImplemented
    x, y = (v if isinstance(v, _Sym) else float(v) for v in (x, y))
    trace = (x if isinstance(x, _Sym) else y).trace
    if op == "*":
        for a, b in ((x, y), (y, x)):
            if isinstance(b, float) and abs(b) == 1.0:
                return a if b > 0.0 else -a
    (fx, zx), (fy, zy) = ((v.finite, v.zero) if isinstance(v, _Sym) else (True, v == 0.0)
                          for v in (x, y))
    if op == "/":
        # a division by 0.0 raises only after the steps before it passed
        # their tests; once one division by y has run, y is not 0.0
        if isinstance(y, _Sym) and y.name not in trace.divisors:
            trace.divisors.add(y.name)
            trace.test()
        finite = zero = False
    else:
        finite, zero = fx and fy and (zx or zy), (zx or zy) if op == "*" else zx and zy
    return trace.record(f"{x} {op} {y}", (x, y), finite, zero)


class _Trace:
    """The float operations of one run of a stage body on traced inputs, in
    program order, each recorded once, and the finiteness tests that
    today's steps make."""

    def __init__(self) -> None:
        self.ops: list = []       # (result, text, operands), or (None, tested, ())
        self.tested: list = []    # step results since the last test
        self.divisors: set = set()
        self.results: dict = {}   # text -> its result

    def record(self, text: str, operands: tuple, finite: bool, zero: bool) -> _Sym:
        sym = self.results.get(text)
        if sym is None:
            sym = self.results[text] = _Sym(self, f"t{len(self.ops)}", finite, zero)
            self.ops.append((sym, text, operands))
        return sym

    def step(self, c: tuple) -> None:
        """c is a step's result, which today's step tests: test each value
        of it that may not be finite, and from then on it is."""
        for x in c:
            if isinstance(x, _Sym) and not x.finite:
                self.tested.append(x)
                x.finite = True

    def test(self) -> None:
        """Test every step result so far, before what follows may raise."""
        if self.tested:
            self.ops.append((None, self.tested, ()))
            self.tested = []

    def source(self, params: list[str], head: list[str], returns: str, outputs) -> str:
        """The generated function: only the operations that an output or a
        test reads, in program order."""
        self.test()
        live = {id(x) for x in outputs if isinstance(x, _Sym)}
        body = []
        for result, text, operands in reversed(self.ops):
            if result is None:  # the step's test, inline
                live.update(id(x) for x in text)
                body.append(f"    _t = ({''.join(f'{x}, ' for x in text)})\n"
                            "    if not _isfinite(_sum(_t)):\n        _check_finite(_t)\n")
            elif id(result) in live:
                live.update(id(x) for x in operands if isinstance(x, _Sym))
                body.append(f"    {result} = {text}\n")
        return (f"def f({', '.join(params)}):\n{''.join(head)}{''.join(reversed(body))}"
                f"    return {returns}\n")


class _Traced(Multivector):
    """A multivector whose coefficients are traced floats and constants:
    each step records its float operations.  A stage body's other
    multivectors are constants, which enter through products and sums with
    traced ones (a float minus a traced multivector is Multivector's
    (-x) + s)."""

    __slots__ = ()

    @classmethod
    def _of_floats(cls, sig: Signature, c: tuple, support: int) -> "_Traced":
        return _step(sig, c, support)

    def _product(self, other, sign_key):
        return _traced_product(self, other, sign_key)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return _traced_product(other, self, "gp_sign")
        return _step(self.sig, self.sig._code.scale(self._c, _scalar(other)), self._support)

    def __add__(self, other):
        code = self.sig._code
        if isinstance(other, Multivector):
            return _step(self.sig, code.add(self._c, other._c), self._support | other._support)
        return _step(self.sig, code.add_scalar(self._c, _scalar(other)), self._support | 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return _step(self.sig, self.sig._code.sub(self._c, other._c),
                         self._support | other._support)
        return self + -_scalar(other)

    def __truediv__(self, other):
        return _step(self.sig, self.sig._code.div(self._c, _scalar(other)), self._support)


def _check_finite(values: tuple) -> None:
    """The rest of a step's test, for values whose sum is not finite: a sum
    past the largest float is not finite either."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(_NOT_FINITE)


def _scalar(x):
    return x if isinstance(x, _Sym) else float(x)


def _step(sig: Signature, c: tuple, support: int) -> "_Traced":
    """The result of a traced step, which today's step tests: traced even
    where every coefficient is a constant, as a traced float may scale it."""
    for x in c:
        if isinstance(x, _Sym):
            x.trace.step(c)
            break
    else:
        Multivector._of_floats(sig, c, support)  # a constant that overflows
    return _Traced._of(sig, c, support)


def _traced_product(x: Multivector, y: Multivector, sign_key: str) -> Multivector:
    """x y of sign table sign_key, term by term as its kernel sums it."""
    if x.sig is not y.sig:
        x._check_sig(y)
    rows, support = x.sig._code.terms(sign_key, x._support, y._support)
    a, b, c = x._c, y._c, []
    for row in rows:
        total = 0.0
        for s, i, j in row:
            term = a[i] * b[j]
            total = total + term if s > 0 else total - term if s < 0 else total + 0.0 * term
        c.append(total)
    return _step(x.sig, tuple(c), support)


def largest_abs(values: list) -> float:
    """max(map(abs, values)) of finite values, some of them traced: one max
    over the traced values and the largest constant, where that is not 0.0
    (every value is at least +0.0, so the maximum keeps its bits)."""
    traced = [x for x in values if isinstance(x, _Sym)]
    if not traced:
        return max(map(abs, values))
    top = max(map(abs, (x for x in values if not isinstance(x, _Sym))), default=0.0)
    terms = [f"abs({x})" for x in traced] + ([repr(top)] if top else [])
    text = f"max({', '.join(terms)})" if len(terms) > 1 else terms[0]
    return traced[0].trace.record(text, tuple(traced), False, False)


def generate(body: Callable, n_mv: int, args: tuple) -> Callable:
    """The function of ``Stage(body, n_mv)`` for the supports of args' multivectors."""
    trace, params, head, inputs = _Trace(), [], [], []
    for i, arg in enumerate(args):
        if i < n_mv:
            names = [f"m{i}_{m}" for m in range(arg.sig.dim)]
            head.append(f"    {', '.join(names)}, = m{i}._c\n")
            inputs.append(_Traced._of(arg.sig, tuple(_Sym(trace, n, True, False) for n in names),
                                      arg._support))
            params.append(f"m{i}")
        else:
            params.append(f"s{i}")
            inputs.append(_Sym(trace, f"s{i}", False, False))
    outputs, namespace, values = body(*inputs), {}, []
    returns = []
    for out in outputs:
        if isinstance(out, Multivector):
            sig = namespace.setdefault(f"_sig{out.sig.p}{out.sig.q}", out.sig)
            returns.append(f"_of(_sig{sig.p}{sig.q}, ({''.join(f'{x}, ' for x in out._c)}), "
                           f"{out._support})")
            values += out._c
        else:
            returns.append(str(out))
            values.append(out)
    namespace.update(_of=Multivector._of, _check_finite=_check_finite, _isfinite=math.isfinite,
                     _sum=sum)
    src = trace.source(params, head, f"({''.join(f'{r}, ' for r in returns)})", values)
    exec(compile(src, "<rotoreig stage>", "exec"), namespace)
    return namespace["f"]


