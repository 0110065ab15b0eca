"""Tiny expression language for coefficient functions.

Grammar (documented contract, see README):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'

with func one of sin, cos, exp.  Variables are x1..xn for arity n; the
usual short names (x, y, z, th) are accepted for low arities, and callers
may pass an explicit name table.  Expressions are immutable trees; eval is
vectorized over numpy point batches and derivatives are exact trees, never
finite differences.  compile_kernel turns a set of trees into one
straight-line numpy function for repeated evaluation.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, fields

import numpy as np

FUNCS = ("sin", "cos", "exp")


class ExprError(ValueError):
    """Parse failure, carries the 0-based offset in .position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvalError(ValueError):
    """Non-finite evaluation, carries the offending point in .point."""

    def __init__(self, message, point):
        super().__init__(message)
        self.point = tuple(float(v) for v in np.atleast_1d(point))


class Expression:
    """An immutable expression tree.

    Each node class defines its operation once: _ev applies its numpy
    operation to its children's values (the four binary classes share one
    _ev through their op), label names the operation in an EvalError (None
    for Num, Var and Neg, which are not checked), and symbol and level are
    its operator and precedence for printing and compile_kernel.  derive
    holds the derivative rules.
    """

    __slots__ = ()
    label = None

    def __str__(self):
        return _print(self, 0)

    def __call__(self, pts):
        return evaluate(self, pts)


@dataclass(frozen=True, eq=True)
class Num(Expression):
    value: float

    def _ev(self, cols):
        return self.value


@dataclass(frozen=True, eq=True)
class Var(Expression):
    index: int

    def _ev(self, cols):
        return cols[self.index]


@dataclass(frozen=True, eq=True)
class _Binary(Expression):
    a: Expression
    b: Expression

    def _ev(self, cols):
        return self.op(self.a._ev(cols), self.b._ev(cols))


class Add(_Binary):
    op, symbol, level, label = operator.add, "+", 1, "addition"


class Sub(_Binary):
    op, symbol, level, label = operator.sub, "-", 1, "subtraction"


class Mul(_Binary):
    op, symbol, level, label = operator.mul, "*", 2, "multiplication"


class Div(_Binary):
    op, symbol, level, label = operator.truediv, "/", 2, "division"


@dataclass(frozen=True, eq=True)
class Pow(Expression):
    base: Expression
    exponent: int
    symbol, level, label = "^", 3, "integer power"

    def _ev(self, cols):
        return self.base._ev(cols) ** self.exponent


@dataclass(frozen=True, eq=True)
class Neg(Expression):
    a: Expression
    symbol, level = "-", 1

    def _ev(self, cols):
        return -self.a._ev(cols)


@dataclass(frozen=True, eq=True)
class Call(Expression):
    func: str
    a: Expression

    @property
    def label(self):
        return self.func

    def _ev(self, cols):
        return getattr(np, self.func)(self.a._ev(cols))


def _nodes(e):
    """Every node of e, children first, left to right."""
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, Expression):
            yield from _nodes(child)
    yield e


def _finite(e, cols):
    try:
        return bool(np.isfinite(e._ev(cols)))
    except ArithmeticError:  # Python-float arithmetic on constants: 1/0, 10.0**400
        return False


# Smart constructors.  Constant folding only; this is derivative hygiene,
# not a simplification engine.


def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _settled(e):
    """Does e read a variable or is it a finite literal?  Only then may 0*e,
    0/e and e^0 fold: a non-finite literal, or constant arithmetic such as
    1/0, is left for evaluate to report."""
    if isinstance(e, Num):
        return bool(np.isfinite(e.value))
    return any(isinstance(n, Var) for n in _nodes(e))


def _fold(node, a, b):
    """node(a, b), as one literal when a and b are literals and the
    arithmetic stays finite; otherwise evaluate names the operation."""
    if _is_num(a) and _is_num(b):
        try:
            value = node.op(a.value, b.value)
            if math.isfinite(value):
                return Num(value)
        except ArithmeticError:  # 1/0
            pass
    return node(a, b)


def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return _fold(Add, a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return _fold(Sub, a, b)
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if (_is_num(a, 0.0) and _settled(b)) or (_is_num(b, 0.0) and _settled(a)):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return _fold(Mul, a, b)


def div(a, b):
    if _is_num(a, 0.0) and _settled(b) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return _fold(Div, a, b)


def pow_(base, k):
    k = int(k)
    if k == 0 and _settled(base):
        return Num(1.0)
    if k == 1:
        return base
    if _is_num(base):
        try:
            return Num(base.value**k)
        except ArithmeticError:  # 10^400, 0^-1: left for evaluate to report
            pass
    return Pow(base, k)


def neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def default_names(arity: int) -> dict:
    """Name table mapping accepted identifiers to variable positions."""
    names = {}
    for i in range(arity):
        names[f"x{i + 1}"] = i
        names[f"u{i + 1}"] = i
    if arity <= 4:
        for pos, alias in enumerate(("x", "y", "z")):
            if pos < arity:
                names[alias] = pos
    if arity == 4:
        for alias in ("th", "theta", "θ"):
            names[alias] = 3
    if arity == 1:
        names["t"] = 0
    if 1 <= arity <= 2:
        names["u"] = 0
        if arity == 2:
            names["v"] = 1
    return names


# Tokenizer


def _tokens(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            out.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                float(tok)
            except ValueError:
                raise ExprError(f"malformed number '{tok}'", i) from None
            out.append(("num", tok, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character '{c}'", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text, arity, names):
        self.text = text
        self.arity = arity
        self.names = names
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind}, found '{tok[1] or 'end of input'}'", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input '{tok[1]}'", tok[2])
        return e

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        e = self.term()
        if negate:
            e = neg(e)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self):
        e = self.base()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("num")
            if "." in tok[1] or "e" in tok[1] or "E" in tok[1]:
                raise ExprError("integer exponent required", tok[2])
            e = pow_(e, sign * int(tok[1]))
        return e

    def base(self):
        kind, text, at = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "ident":
            self.take()
            if text in FUNCS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(text, arg)
            if text in self.names:
                return Var(self.names[text])
            if text in ("inf", "nan"):
                return Num(float(text))
            raise ExprError(f"unknown variable '{text}' for arity {self.arity}", at)
        raise ExprError(f"expected a value, found '{text or 'end of input'}'", at)


def parse(text: str, arity: int, names=None) -> Expression:
    """Parse text into an Expression over `arity` variables.

    `names` maps variable names to 0-based slots; a plain sequence of
    names is taken positionally.  `inf` and `nan` are literals wherever no
    variable has that name, so a printed non-finite literal parses back.
    """
    if names is None:
        names = default_names(arity)
    else:
        if not isinstance(names, dict):
            names = {n: i for i, n in enumerate(names)}
        bad = [n for n, i in names.items() if not 0 <= i < arity]
        if bad:
            raise ValueError(f"name table indices out of range: {bad}")
    return _Parser(text, arity, names).parse()


def derive(e: Expression, i: int) -> Expression:
    """Exact partial derivative with respect to variable i (0-based)."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.index == i else Num(0.0)
    if isinstance(e, Add):
        return add(derive(e.a, i), derive(e.b, i))
    if isinstance(e, Sub):
        return sub(derive(e.a, i), derive(e.b, i))
    if isinstance(e, Mul):
        return add(_dmul(derive(e.a, i), e.b), _dmul(e.a, derive(e.b, i)))
    if isinstance(e, Div):
        num = sub(_dmul(derive(e.a, i), e.b), _dmul(e.a, derive(e.b, i)))
        return Num(0.0) if _is_num(num, 0.0) else div(num, _dmul(e.b, e.b))
    if isinstance(e, Pow):
        return _dmul(_dmul(Num(float(e.exponent)), pow_(e.base, e.exponent - 1)), derive(e.base, i))
    if isinstance(e, Neg):
        return neg(derive(e.a, i))
    if isinstance(e, Call):
        da = derive(e.a, i)
        if e.func == "sin":
            return _dmul(Call("cos", e.a), da)
        if e.func == "cos":
            return neg(_dmul(Call("sin", e.a), da))
        return _dmul(e, da)  # exp
    raise TypeError(f"not an Expression: {e!r}")


def _dmul(a, b):
    """mul for derivative trees, where a literal zero is the exact partial
    of a constant: the product folds to 0 whatever the other factor is (and
    derive's quotient rule folds a 0 numerator the same way)."""
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    return mul(a, b)


def evaluate(e: Expression, pts):
    """Evaluate at one point (1d array) or a batch (m, arity).

    Raises EvalError on any non-finite result, naming the offending point
    and the failing operation: the label of the first checked node, children
    first and left to right, whose _ev is non-finite at that point.
    """
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    m = pts.shape[0]
    cols = tuple(np.ascontiguousarray(pts[:, i]) for i in range(pts.shape[1]))
    with np.errstate(all="ignore"):
        try:
            out = np.broadcast_to(np.asarray(e._ev(cols), dtype=float), (m,))
        except ArithmeticError:  # Python-float arithmetic on constants: 1/0, 10.0**400
            out = np.full(m, np.nan)
    bad = ~np.isfinite(out)
    if bad.any():
        point = pts[int(np.argmax(bad))]
        cols = tuple(np.float64(v) for v in point)
        with np.errstate(all="ignore"):
            label = next((n.label for n in _nodes(e) if n.label and not _finite(n, cols)),
                         "evaluation")
        raise EvalError(
            f"non-finite result from {label} at point {tuple(float(v) for v in point)}",
            point,
        )
    if single:
        return float(out[0])
    return np.array(out, dtype=float)


# Compiled evaluation, in the manner of SymPy's cse + lambdify.  Nodes are
# hash-consed on (operation, operand names), so a subtree shared between
# entries runs once; constants are keyed by their float bits, so 0.0 and
# -0.0 stay apart.  Every node runs the numpy operation its _ev applies, on
# the same contiguous columns and Python-float constants, and nothing is
# rewritten, so kernel results are bitwise those of evaluate.


def compile_kernel(slots, shape):
    """Compile a list of (slot, tree) pairs into kernel(pts) -> (m, *shape) array.

    pts is a 2d float array (m, arity).  The kernel sets out[:, *slot] to
    the tree's value for every pair and leaves unlisted slots 0.0.  When
    any entry is non-finite, or Python arithmetic on constants raises, it
    re-runs evaluate slot by slot in slot order, which raises the
    EvalError naming the first failing entry's operation and point.

    kernel.constant is true when no tree reads a variable.
    """
    namespace = {f: getattr(np, f) for f in FUNCS}
    names = {}  # structural key -> local name
    by_id = {}  # id(node) -> local name, shortcut for shared node objects
    lines = []

    def emit(node):
        name = by_id.get(id(node))
        if name is not None:
            return name
        if isinstance(node, Num):
            key, code = ("num", struct.pack("<d", node.value)), None
        elif isinstance(node, Var):
            key = code = f"cols[{node.index}]"
        elif isinstance(node, Neg):
            a = emit(node.a)
            key, code = ("neg", a), f"-{a}"
        elif isinstance(node, Pow):
            a = emit(node.base)
            key, code = ("pow", a, node.exponent), f"{a} ** ({node.exponent})"
        elif isinstance(node, Call):
            a = emit(node.a)
            key, code = (node.func, a), f"{node.func}({a})"
        elif isinstance(node, _Binary):
            a, b = emit(node.a), emit(node.b)
            key, code = (node.symbol, a, b), f"{a} {node.symbol} {b}"
        else:
            raise TypeError(f"not an Expression: {node!r}")
        name = names.get(key)
        if name is None:
            if code is None:
                name = f"c{len(names)}"
                namespace[name] = node.value
            else:
                name = f"t{len(names)}"
                lines.append(f"    {name} = {code}")
            names[key] = name
        by_id[id(node)] = name
        return name

    for slot, tree in slots:
        value = emit(tree)
        lines.append(f"    out[:, {', '.join(str(i) for i in slot)}] = {value}")
    source = "def fill(cols, out):\n" + ("\n".join(lines) or "    pass") + "\n"
    exec(compile(source, "<poissat kernel>", "exec"), namespace)
    fill = namespace["fill"]
    shape = tuple(shape)

    def kernel(pts):
        out = np.zeros((pts.shape[0],) + shape)
        cols = pts.T.copy()  # row i is the contiguous column of variable i
        try:
            with np.errstate(all="ignore"):
                fill(cols, out)
            if np.isfinite(out).all():
                return out
        except ArithmeticError:
            pass
        for slot, tree in slots:
            out[(slice(None), *slot)] = evaluate(tree, pts)
        return out

    kernel.source = source
    kernel.constant = "cols[" not in source
    return kernel


# Printing.  Parenthesization reproduces the exact tree on re-parse, so a
# round trip is bitwise faithful.


def _print(e, parent_level, right=False):
    if isinstance(e, Num):
        v = e.value
        if abs(v) < 1e16 and v == int(v):  # a non-finite value fails the first test
            s = str(int(v))
        else:
            s = repr(v)
        if v < 0 and parent_level > 0:
            return f"({s})"
        return s
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.a, 0)})"
    level = e.level
    if isinstance(e, Neg):
        s = e.symbol + _print(e.a, 2)
    elif isinstance(e, Pow):
        # exponentiation does not chain in the grammar, so any compound
        # base must be parenthesized
        s = f"{_print(e.base, 4)}{e.symbol}{e.exponent}"
    else:
        op = f" {e.symbol} " if level == 1 else e.symbol
        s = _print(e.a, level) + op + _print(e.b, level, right=True)
    if level < parent_level or (level == parent_level and right):
        return f"({s})"
    return s
