"""Behavioral-block intermediate representation (IR).

The Verilog translator (paper Section III-B) and the SimJIT
specializers (Section IV) both need to understand the *translatable
subset* of Python used inside ``@combinational`` / ``@tick_rtl`` /
``@tick_cl`` blocks.  This module defines a small statement/expression
IR plus :class:`BlockTranslator`, which lowers a block's Python AST
into the IR by resolving names against the *live elaborated model* —
Python attribute chains become signal references, elaboration-time
constants fold away, and anything outside the subset raises
:class:`TranslationError` naming the offending construct.
:mod:`.bodies` is the one module that runs it: one lowering per block
body, whatever backend or tool asks.  The translator walks a block's
AST once and judges no value's size: :func:`infer_types` makes the IR
``Bits``-exact, and its range pass (:class:`_Spans`, over the span
arithmetic of :mod:`.ranges`) is the one judge of how big a value may
be — every fact a printer reads (an ``and`` / ``or`` that is 0/1 among
them) and why C cannot run the body (``BlockIR.refused``), each
recorded once, by one walk.

Subset summary:

- reads/writes of signals via ``.value`` / ``.next`` / ``.uint()`` /
  bare signal truthiness, including bit slices, BitStruct fields, and
  (possibly dynamically) indexed lists of signals;
- integer arithmetic/bitwise/comparison/boolean operators, ternary
  expressions, ``int()`` coercions, ``concat`` and ``zext`` / ``sext``
  (as functions or as methods: ``x.zext(n)``);
- ``if``/``elif``/``else``; ``for`` over ``range()`` with
  elaboration-time-constant bounds; ``break``/``continue``;
- local integer variables and fixed-size local integer arrays
  (``xs = [0] * N``);
- in CL blocks only: plain integer attributes and fixed-size lists of
  integers on the model, mutated in place (``s.count += 1``).

RTL blocks treat scalar int attributes on the model as elaboration-time
constants (RTL state must live in ``Wire``s); CL blocks treat them as
mutable state.
"""

from __future__ import annotations

import ast
import copy
import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .elaboration import block_shape
from .model import _CombBlock
from .ranges import ANY, TRUTH, Span, arith, hull, within
from .signals import Signal, _SignalSlice


class TranslationError(Exception):
    """Raised when a behavioral block falls outside the translatable
    subset.  ``reason`` is why, without the block's name; a refusal of
    the translator's own says where, ``(line N): why``, and its message
    puts first the block's name as the translator knew it (its model's
    class before elaboration, its path after).  A report names the block
    itself (:func:`repro.core.bodies.named`)."""

    def __init__(self, reason, block=None):
        super().__init__(f"{block} {reason}" if block else reason)
        self.reason = reason


# -- expression nodes -----------------------------------------------------------


@dataclass
class Const:
    value: int


@dataclass
class SigRef:
    """Reference to a signal (or a slice of one), possibly an element
    of a signal list selected by a dynamic index expression."""

    signals: list                  # all candidate Signal objects
    index: object = None           # expr IR; None = scalar reference
    lo: int = 0
    hi: int = None                 # None = full width

    @property
    def signal(self):
        if self.index is not None:
            raise TranslationError("dynamic SigRef has no single signal")
        return self.signals[0]

    @property
    def width(self):
        base = self.signals[0].nbits
        hi = base if self.hi is None else self.hi
        return hi - self.lo

    def is_dynamic(self):
        return self.index is not None


@dataclass
class StateRef:
    """Reference to plain Python int state on the model (CL blocks)."""

    model: object
    name: str
    index: object = None           # expr IR for array state


@dataclass
class SigRead:
    ref: SigRef
    #: What the source read evaluates to in Python, which lowering to
    #: an unsigned value otherwise throws away: ``"int"`` (``.uint()``,
    #: ``int(...)``), ``"bits"`` (``.value``, so arithmetic wraps at the
    #: operand's width), ``"sig"`` (the bare signal or slice: ``Bits``
    #: arithmetic, but no ``//``, ``%`` or unary ``-``) or ``"struct"``
    #: (a ``BitStruct`` instance: no arithmetic at all).
    #: :func:`infer_types` uses it up: the printers read the ``Wrap``
    #: nodes it leaves, never this.
    vtype: str = "int"


@dataclass
class StateRead:
    ref: StateRef


@dataclass
class LocalRead:
    name: str
    index: object = None           # expr IR for local arrays


@dataclass
class BinOp:
    op: str                        # + - * // % & | ^ << >>
    left: object
    right: object
    #: ``//`` / ``%`` of non-negative operands, one 64 bits or wider,
    #: which C divides as ``u128`` (:meth:`_Typer.divide` decides).
    unsigned: bool = False
    #: ``//`` / ``%`` whose operands the range pass places in ``[0,
    #: 2**63)``, where C's ``/`` / ``%`` on ``int64_t`` are Python's
    #: (:class:`_Spans` decides).
    nonneg: bool = False


@dataclass
class UnOp:
    op: str                        # ~ - !
    operand: object


@dataclass
class Cmp:
    op: str                        # == != < <= > >=
    left: object
    right: object


@dataclass
class BoolOp:
    op: str                        # && ||
    values: list
    #: Its value is 0/1, by the range pass: it is tested for truth, or
    #: every operand lies in ``[0, 2)`` (:class:`_Spans` decides).  Else
    #: it is the operand Python yields, which C and Verilog print as
    #: :meth:`select`.
    zero_one: bool = False
    #: 0/1, and no operand after the first can fault, by the range pass:
    #: every dynamic index under it stays inside its array or table,
    #: every divisor is non-zero — so C may evaluate them all,
    #: branch-free (:class:`_Spans` decides).
    eager: bool = False

    def select(self):
        """The operand Python yields, as conditionals: ``b if a else a``
        for ``and``, ``a if a else b`` for ``or``."""
        ir = self.values[-1]
        for value in reversed(self.values[:-1]):
            ir = IfExp(value, ir, value) if self.op == "&&" \
                else IfExp(value, value, ir)
        return ir


@dataclass
class IfExp:
    cond: object
    then: object
    orelse: object


@dataclass
class Concat:
    """Verilog-style concatenation: parts MSB-first, each (expr, width)."""

    parts: list


@dataclass
class Wrap:
    """``expr`` modulo ``2**width``: where ``Bits`` arithmetic wraps
    (:func:`infer_types` puts it there).  Every printer prints a mask."""

    expr: object
    width: int


# -- statement nodes --------------------------------------------------------------


@dataclass
class AssignSig:
    ref: SigRef
    expr: object
    is_next: bool                  # True: registered (.next) write
    #: an int in ``[0, 2**width)`` is written, which needs no mask
    #: (:class:`_Spans` decides; not part of the IR's shape)
    fits: bool = field(default=False, compare=False)


@dataclass
class AssignState:
    ref: StateRef
    expr: object


@dataclass
class AssignLocal:
    name: str
    expr: object
    index: object = None           # expr IR for array element store


@dataclass
class DeclLocalArray:
    name: str
    size: int
    init: object                   # Const fill value


@dataclass
class If:
    cond: object
    body: list
    orelse: list


@dataclass
class For:
    var: str
    start: int
    stop: int
    step: int
    body: list


@dataclass
class Break:
    pass


@dataclass
class Continue:
    pass


@dataclass
class BlockIR:
    """Lowered behavioral block."""

    name: str
    kind: str                      # 'comb' | 'tick_rtl' | 'tick_cl'
    model: object
    body: list = field(default_factory=list)
    locals: dict = field(default_factory=dict)    # name -> 'int'|('array', n)
    sig_reads: list = field(default_factory=list)
    sig_writes: list = field(default_factory=list)
    state_names: list = field(default_factory=list)
    #: ``id(expression node) -> None | N`` for a node the source passed
    #: through ``int()`` / ``.uint()`` (a Python int from there on) or
    #: ``zext`` / ``sext`` (``Bits(N)``) — the value is unchanged, so
    #: only :func:`infer_types` reads it, and uses it up.  Reads record
    #: the same fact in ``SigRead.vtype``.
    casts: dict = field(default_factory=dict)
    #: why C cannot run the body, or None: :class:`_Spans` found a value
    #: C's ``u128`` / ``int64_t`` arithmetic may compute wrong — given to
    #: a local (C's are ``int64_t``), else to CL state (``int64_t``
    #: too), else made into a signal write, a condition or an index
    refused: str = None
    #: ``id`` of each constant hole a range fact (``BinOp.nonneg``,
    #: ``BoolOp.zero_one`` / ``eager``, ``AssignSig.fits``, a value C
    #: computes right)
    #: read as in ``[0, 2**n)`` -> ``n`` (63, or ``_NARROW_BITS``), or
    #: at its value -> None: a sibling shares the facts where it holds
    #: such a value, so :mod:`.bodies` guards that
    fact_holes: dict = field(default_factory=dict)


def walk_stmts(stmts):
    """Every statement under ``stmts``, nested bodies included."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.body)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, For):
            yield from walk_stmts(stmt.body)


_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}
_UNOPS = {ast.Invert: "~", ast.USub: "-", ast.Not: "!"}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}
_FOLD = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "//": operator.floordiv, "%": operator.mod,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
}


class BlockTranslator:
    """Lowers one behavioral block into :class:`BlockIR`."""

    def __init__(self, model, func, kind):
        self.model = model
        self.func = func
        self.kind = kind           # 'comb' | 'tick_rtl' | 'tick_cl'
        # The parse (one FunctionDef per code object, never mutated)
        # and the names that denote the model are the elaborator's.
        shape = block_shape(func, model)
        if shape is None:
            raise TranslationError(
                f"cannot retrieve source for {func.__qualname__}")
        self.func_def, self.root_names = shape
        if not self.root_names:
            # Every signal is reached through the model (a SimJIT
            # wrapper's comb block calls into its engine instead).
            raise TranslationError(
                f"{func.__qualname__} does not name its model")
        self._env = self._build_env()
        self.ir = BlockIR(name=self.func.__name__, kind=self.kind,
                          model=self.model)
        # The read trace: everything this lowering took from the live
        # model or the block's environment, as the AST expression it
        # came through.  A *hole* reached the IR only as a leaf — a
        # signal (its net), a dynamically indexed signal list (the
        # candidates' nets; the third entry is the Subscript with the
        # dynamic index), an int ``Const`` or a CL state attribute (a
        # ``StateRef``, through ``s.<name>``) — so a sibling instance
        # can fill it with its own; a *guard* is an int a translator
        # decision folded into the IR's shape (range and slice bounds,
        # array sizes, static list indices, ``len()``), so a sibling
        # must evaluate it equal.  A body (:mod:`.bodies`), one lowering
        # per block body, prints both as a ``bind``.
        self.holes = []            # (Const | SigRef, AST node, Subscript)
        self.guards = []           # AST nodes
        self._struct_refs = set()  # id(SigRef) of BitStruct-typed ranges

    # -- environment ---------------------------------------------------------

    def _build_env(self):
        """Names visible to the block: closure vars and globals that
        hold plain constants."""
        env = dict(self.func.__globals__)
        for var, cell in zip(self.func.__code__.co_freevars,
                             self.func.__closure__ or ()):
            try:
                env[var] = cell.cell_contents
            except ValueError:
                pass
        return env

    def fail(self, node, why):
        line = getattr(node, "lineno", "?")
        raise TranslationError(f"(line {line}): {why}",
                               f"{self.model.full_name()}.{self.ir.name}")

    # -- entry point --------------------------------------------------------------

    def translate(self):
        self.ir.body = self.stmt_list(self.func_def.body)
        return self.ir

    # -- statements ------------------------------------------------------------------

    def stmt_list(self, nodes):
        return [stmt for stmt in map(self.stmt, nodes) if stmt is not None]

    def stmt(self, node):
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                self.fail(node, "chained assignment unsupported")
            return self.assign(node.targets[0], node.value, node)
        if isinstance(node, ast.AugAssign):
            read = self.expr(_copy_as_load(node.target))
            value = BinOp(_BINOPS.get(type(node.op)) or self.fail(
                node, f"augmented op {type(node.op).__name__}"),
                read, self.expr(node.value))
            return self.assign(node.target, None, node, value)
        if isinstance(node, ast.If):
            return If(self.expr(node.test), self.stmt_list(node.body),
                      self.stmt_list(node.orelse))
        if isinstance(node, ast.For):
            return self.for_stmt(node)
        if isinstance(node, ast.Expr):
            # Docstrings and bare constant expressions are no-ops.
            if isinstance(node.value, ast.Constant):
                return None
            self.fail(node, "expression statements unsupported "
                            "(method calls are not translatable)")
        if isinstance(node, ast.Pass):
            return None
        if isinstance(node, ast.Break):
            return Break()
        if isinstance(node, ast.Continue):
            return Continue()
        if isinstance(node, ast.Return):
            self.fail(node, "early return unsupported" if node.value is None
                      else "return with value unsupported")
        self.fail(node, f"statement {type(node).__name__} unsupported")

    def for_stmt(self, node):
        if not (isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"):
            self.fail(node, "for loops must iterate over range()")
        args = [self.static_int(a, node) for a in node.iter.args]
        start, stop, step = (0, *args, 1) if len(args) == 1 else \
            (*args, 1) if len(args) == 2 else args
        if step == 0:
            self.fail(node, "range() step must not be zero")
        if not isinstance(node.target, ast.Name):
            self.fail(node, "for target must be a simple name")
        var = node.target.id
        self.ir.locals.setdefault(var, "int")
        return For(var, start, stop, step, self.stmt_list(node.body))

    def assign(self, target, value_node, node, value=None):
        # Local array declaration: xs = [0] * N
        if value is None and isinstance(target, ast.Name) \
                and _is_array_init(value_node):
            size, fill = self._array_init(value_node, node)
            self.ir.locals[target.id] = ("array", size)
            return DeclLocalArray(target.id, size, Const(fill))

        if value is None:
            value = self.expr(value_node)

        # Plain local: name = expr
        if isinstance(target, ast.Name):
            self.ir.locals.setdefault(target.id, "int")
            return AssignLocal(target.id, value)

        # Local array store: name[i] = expr
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.ir.locals):
            return AssignLocal(target.value.id, value,
                               index=self.expr(target.slice))

        # Signal or model-state writes.
        resolved = self.resolve_target(target)
        if isinstance(resolved, tuple):
            ref, is_next = resolved
            if self.kind == "comb" and is_next:
                self.fail(node, ".next write inside combinational block")
            if self.kind != "comb" and not is_next \
                    and isinstance(ref, SigRef):
                self.fail(node, ".value write inside tick block (use .next)")
            if isinstance(ref, SigRef):
                self.ir.sig_writes.append(ref)
                return AssignSig(ref, value, is_next)
            return AssignState(ref, value)
        self.fail(node, "unsupported assignment target")

    def _array_init(self, node, ctx):
        lst, count = (node.left, node.right) if isinstance(
            node.left, ast.List) else (node.right, node.left)
        elt = lst.elts[0] if len(lst.elts) == 1 else None
        neg = isinstance(elt, ast.UnaryOp) and isinstance(elt.op, ast.USub)
        if neg:
            elt = elt.operand
        if not isinstance(elt, ast.Constant):
            self.fail(ctx, "array init must be [const] * N")
        value = int(elt.value)
        return self.static_int(count, ctx), -value if neg else value

    # -- expressions --------------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):        # bools included
                return Const(int(node.value))
            self.fail(node, f"constant {node.value!r} unsupported")
        if isinstance(node, ast.Name):
            return self.name_expr(node)
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            return self.path_expr(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op)) or self.fail(
                node, f"operator {type(node.op).__name__}")
            return BinOp(op, self.expr(node.left), self.expr(node.right))
        if isinstance(node, ast.UnaryOp):
            op = _UNOPS.get(type(node.op)) or self.fail(
                node, f"unary {type(node.op).__name__}")
            return UnOp(op, self.expr(node.operand))
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                self.fail(node, "chained comparisons unsupported")
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                self.fail(node, f"comparison {type(node.ops[0]).__name__}")
            return Cmp(op, self.expr(node.left),
                       self.expr(node.comparators[0]))
        if isinstance(node, ast.BoolOp):
            return BoolOp("&&" if isinstance(node.op, ast.And) else "||",
                          [self.expr(v) for v in node.values])
        if isinstance(node, ast.IfExp):
            return IfExp(self.expr(node.test), self.expr(node.body),
                         self.expr(node.orelse))
        if isinstance(node, ast.Call):
            return self.call_expr(node)
        self.fail(node, f"expression {type(node).__name__} unsupported")

    def name_expr(self, node):
        name = node.id
        if name in self.ir.locals:
            return LocalRead(name)
        if name in self.root_names:
            self.fail(node, "bare model reference in expression")
        if name in self._env:
            value = self._env[name]
            if isinstance(value, int):
                return self._const_hole(value, node)
            self.fail(node, f"name {name!r} is not an int constant")
        self.fail(node, f"unknown name {name!r}")

    def call_expr(self, node):
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute):
            # Accessor methods x.uint(), x.int(); x.zext(n) / x.sext(n)
            # are the zext(x, n) / sext(x, n) functions.
            if func.attr == "uint" and not args:
                return self._cast(self.expr(func.value), None)
            if func.attr == "int" and not args:
                return self._signed_expr(node)
            if func.attr in ("zext", "sext") and len(args) == 1:
                return self._extend_expr(func.attr, func.value, args[0],
                                         node)
        if isinstance(func, ast.Name):
            fname = func.id
            if fname == "int" and len(args) == 1:
                return self._cast(self.expr(args[0]), None)
            if fname == "len" and len(args) == 1:
                inner = args[0]
                static = self.try_static(inner)
                if isinstance(static, list):
                    self.guards.append(node)
                    return Const(len(static))
                self.fail(node, "len() only on static lists")
            if fname == "concat":
                return self._concat_expr(node)
            if fname in ("zext", "sext") and len(args) == 2:
                return self._extend_expr(fname, *args, node)
        self.fail(node, "function/method calls are not translatable "
                        f"({ast.dump(func)[:60]})")

    def _concat_expr(self, node):
        """concat(a, b, ...) with signal/slice arguments (their widths
        are statically known)."""
        parts = []
        for arg in node.args:
            ir = self.expr(arg)
            if not isinstance(ir, SigRead):
                self.fail(node, "concat arguments must be signals or "
                                "slices (static widths)")
            parts.append((ir, ir.ref.width))
        return Concat(parts)

    def _cast(self, ir, width):
        """Record that the source turns ``ir`` into a Python int
        (``width`` None) or a ``Bits(width)``; the value is as it was."""
        if isinstance(ir, SigRead) and width is None:
            ir.vtype = "int"
            self.ir.casts.pop(id(ir), None)
        else:
            self.ir.casts[id(ir)] = width
        return ir

    def _extend_expr(self, how, value_node, width_node, node):
        """zext/sext(x, N).  A zext is a cast: values are stored
        masked, so widening needs no gates.  A sext is desugared into a
        sign-test ternary so every backend handles it with existing
        nodes."""
        value = self.expr(value_node)
        to_width = self.static_int(width_node, node)
        if how == "zext":
            return self._cast(value, to_width)
        if not isinstance(value, SigRead):
            self.fail(node, "sext argument must be a signal or slice")
        from_width = value.ref.width
        if to_width < from_width:
            self.fail(node, "sext target narrower than source")
        high_bits = ((1 << to_width) - 1) ^ ((1 << from_width) - 1)
        self._cast(value, None)
        sign = BinOp("&", BinOp(">>", value, Const(from_width - 1)),
                     Const(1))
        return self._cast(
            IfExp(sign, BinOp("|", value, Const(high_bits)), value),
            to_width)

    def _signed_expr(self, node):
        """x.int(): the two's-complement reading, as the same kind
        of sign-test ternary — value - 2**width when the top bit is
        set.  The ``// 1`` is the identity that takes the C backend
        from its unsigned nets to ``int64_t`` (``py_floordiv``), so
        that ``x.int() < 0`` compares signed there too."""
        value = self.expr(node.func.value)
        if not isinstance(value, SigRead):
            self.fail(node, ".int() is only translatable on a signal "
                            "or slice (static width)")
        width = value.ref.width
        if width > 64:
            self.fail(node, ".int() of a value wider than 64 bits")
        self._cast(value, None)
        sign = BinOp("&", BinOp(">>", value, Const(width - 1)), Const(1))
        return BinOp("//", IfExp(sign, BinOp("-", value, Const(1 << width)),
                                 value), Const(1))

    # -- attribute-path resolution ------------------------------------------------------

    def path_expr(self, node):
        """Resolve a Load of an attribute/subscript chain."""
        resolved, trailing = self._resolve_chain(node)
        if trailing not in (None, "value", "uint", "int"):
            self.fail(node, f"accessor .{trailing} unsupported in reads")
        if isinstance(resolved, SigRef):
            self.ir.sig_reads.append(resolved)
            return SigRead(
                resolved, "struct" if id(resolved) in self._struct_refs
                else "sig" if trailing is None else "bits")
        if isinstance(resolved, StateRef):
            self.ir.state_names.append(resolved)
            return StateRead(resolved)
        if isinstance(resolved, (Const, LocalRead)):
            return resolved
        self.fail(node, "path does not resolve to a signal, state, or "
                        "constant")

    def resolve_target(self, node):
        """Resolve a Store target; returns (ref, is_next)."""
        resolved, trailing = self._resolve_chain(node)
        if isinstance(resolved, SigRef):
            if trailing == "next":
                return (resolved, True)
            if trailing == "value":
                return (resolved, False)
            self.fail(node, "signal writes must go through "
                            ".value or .next")
        if isinstance(resolved, StateRef):
            if trailing is not None:
                self.fail(node, f"state write with accessor .{trailing}")
            if self.kind != "tick_cl":
                self.fail(node, "plain attribute state is only "
                                "writable in CL blocks (RTL state must "
                                "be a Wire)")
            return (resolved, False)
        if isinstance(resolved, Const):
            self.fail(node, "cannot assign to an elaboration-time "
                            "constant; plain attribute state is only "
                            "writable in CL blocks (RTL state must be "
                            "a Wire)")
        self.fail(node, "unsupported write target")

    def static_int(self, node, ctx):
        value = self.try_static(node)
        if not isinstance(value, (int, bool)):
            self.fail(ctx, "expected an elaboration-time constant")
        self.guards.append(node)
        return int(value)

    def _const_hole(self, value, node):
        const = Const(int(value))
        self.holes.append((const, node, None))
        return const

    def try_static(self, node):
        """Evaluate a subexpression at elaboration time if possible.

        Returns the Python value, or NotImplemented."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.root_names:
                return self.model
            if node.id in self.ir.locals:
                return NotImplemented
            return self._env.get(node.id, NotImplemented)
        if isinstance(node, ast.Attribute):
            base = self.try_static(node.value)
            if base is NotImplemented:
                return NotImplemented
            return getattr(base, node.attr, NotImplemented)
        if isinstance(node, ast.Subscript):
            base, idx = self.try_static(node.value), self.try_static(node.slice)
            if isinstance(idx, (int, bool)) and isinstance(base, list) \
                    and idx < len(base):    # else _index_obj says why not
                return base[idx]
            return NotImplemented
        if isinstance(node, ast.BinOp):
            left, right = self.try_static(node.left), self.try_static(node.right)
            op = _BINOPS.get(type(node.op))
            if op is None or not isinstance(left, (int, bool)) \
                    or not isinstance(right, (int, bool)):
                return NotImplemented
            return _FOLD[op](int(left), int(right))
        if isinstance(node, ast.UnaryOp):
            value = self.try_static(node.operand)
            if isinstance(value, (int, bool)) and isinstance(
                    node.op, (ast.USub, ast.Invert)):
                return -value if isinstance(node.op, ast.USub) else ~value
        return NotImplemented

    def _resolve_chain(self, node):
        """Walk an attribute/subscript chain against the live model.

        Returns (SigRef | StateRef | Const, trailing_accessor).
        """
        # Peel a trailing .value/.next/.uint accessor.
        trailing = None
        if isinstance(node, ast.Attribute) and node.attr in (
                "value", "next"):
            trailing = node.attr
            node = node.value

        # Fast path: fully static chain (elaboration-time constant).
        static = self.try_static(node)
        if isinstance(static, (int, bool)) and self.kind != "tick_cl":
            return self._const_hole(static, node), trailing

        steps = []
        subscripts = {}            # id(index expression) -> Subscript
        cur = node
        while True:
            if isinstance(cur, ast.Attribute):
                steps.append(("attr", cur.attr))
                cur = cur.value
            elif isinstance(cur, ast.Subscript):
                steps.append(("index", cur.slice))
                subscripts[id(cur.slice)] = cur
                cur = cur.value
            elif isinstance(cur, ast.Name):
                steps.append(("name", cur.id))
                break
            else:
                self.fail(node, "path roots must be simple names")
        steps.reverse()

        kind, root = steps[0]
        if root in self.ir.locals:
            # local array read: name[i]
            if len(steps) == 2 and steps[1][0] == "index":
                return LocalRead(root, self.expr(steps[1][1])), trailing
            if len(steps) == 1:
                return LocalRead(root), trailing
            self.fail(node, f"cannot subscript local {root!r} deeply")
        if root not in self.root_names:
            value = self._env.get(root, NotImplemented)
            if isinstance(value, (int, bool)):
                return self._const_hole(value, cur), trailing
            self.fail(node, f"path root {root!r} is not the model")

        obj = self.model
        dyn_index = None           # expr IR once a dynamic index is hit
        dyn_at = None              # the Subscript it indexes
        objs = [obj]               # parallel worlds under dynamic index

        for kind, key in steps[1:]:
            if kind == "attr":
                new_objs = []
                for candidate in objs:
                    if isinstance(candidate, (Signal, _SignalSlice)):
                        new_objs.append(
                            self._struct_field(candidate, key, node))
                    else:
                        try:
                            new_objs.append(getattr(candidate, key))
                        except AttributeError:
                            self.fail(node, f"no attribute {key!r}")
                objs = new_objs
            elif isinstance(key, ast.Slice):
                lo = self.static_int(key.lower, node) \
                    if key.lower is not None else 0
                if key.upper is None:
                    self.fail(node, "open-ended slices need an upper "
                                    "bound in behavioral blocks")
                hi = self.static_int(key.upper, node)
                new_objs = []
                for candidate in objs:
                    if isinstance(candidate, (Signal, _SignalSlice)):
                        new_objs.append(candidate[lo:hi])
                    else:
                        self.fail(node, "slice of a non-signal")
                objs = new_objs
            else:
                static_idx = self.try_static(key)
                if isinstance(static_idx, int):
                    self.guards.append(key)
                    objs = [self._index_obj(o, static_idx, node)
                            for o in objs]
                else:
                    if dyn_index is not None:
                        self.fail(node, "only one dynamic index per path")
                    if len(objs) != 1 or not isinstance(objs[0], list):
                        self.fail(node, "dynamic index on non-list")
                    dyn_index = self.expr(key)
                    dyn_at = subscripts[id(key)]
                    objs = list(objs[0])

        resolved = self._finish_chain(objs, dyn_index, steps, node)
        if isinstance(resolved, SigRef):
            self.holes.append((resolved, node, dyn_at))
            if getattr(objs[0], "_struct", None) is not None:
                self._struct_refs.add(id(resolved))
        return resolved, trailing

    def _struct_field(self, sig, key, node):
        got = getattr(sig, key, None)
        if isinstance(got, _SignalSlice):
            return got
        self.fail(node, f"signal has no field {key!r}")

    def _index_obj(self, obj, idx, node):
        if isinstance(obj, list):
            if idx >= len(obj):
                self.fail(node, f"index {idx} out of range")
            return obj[idx]
        if isinstance(obj, (Signal, _SignalSlice)):
            return obj[idx]        # single-bit slice
        self.fail(node, f"cannot index {type(obj).__name__}")

    def _finish_chain(self, objs, dyn_index, steps, node):
        first = objs[0]
        if isinstance(first, (Signal, _SignalSlice)):
            if dyn_index is None:
                return _sigref_from(first)
            signals = []
            lo, hi = None, None
            for item in objs:
                ref = _sigref_from(item)
                signals.append(ref.signals[0])
                if lo is None:
                    lo, hi = ref.lo, ref.hi
                elif (lo, hi) != (ref.lo, ref.hi):
                    self.fail(node, "heterogeneous slices under "
                                    "dynamic index")
            widths = {sig.nbits for sig in signals}
            if len(widths) != 1:
                self.fail(node, "mixed widths under dynamic index")
            return SigRef(signals, index=dyn_index, lo=lo,
                          hi=hi)
        if isinstance(first, (int, bool)):
            if self.kind == "tick_cl":
                # Mutable CL state (scalar attr or int-list element).
                return self._state_ref(steps, dyn_index, node)
            if dyn_index is None:
                return Const(int(first))
            self.fail(node, "dynamic index into constant list in RTL "
                            "block (use Wires)")
        if isinstance(first, list) and dyn_index is None:
            self.fail(node, "whole-list reference needs an index")
        self.fail(node, f"cannot translate object of type "
                        f"{type(first).__name__}")

    def _state_ref(self, steps, dyn_index, node):
        # steps: [('name', s), ('attr', attrname), maybe ('index', _)]
        attrs = [k for kind, k in steps[1:] if kind == "attr"]
        if len(attrs) != 1:
            self.fail(node, "CL state must be a direct model attribute")
        name = attrs[0]
        attr = getattr(self.model, name)
        if isinstance(attr, list):
            if not all(isinstance(v, (int, bool)) for v in attr):
                self.fail(node, f"state list {name!r} must hold ints")
            index_ir = dyn_index
            if index_ir is None:
                # static index into state array
                idx_step = [k for kind, k in steps[1:] if kind == "index"]
                index_ir = Const(self.try_static(idx_step[0])) \
                    if idx_step else None
            if index_ir is None:
                self.fail(node, f"state list {name!r} needs an index")
            ref = StateRef(self.model, name, index=index_ir)
        elif isinstance(attr, (int, bool)):
            ref = StateRef(self.model, name)
        else:
            self.fail(node, f"attribute {name!r} is not int state")
        while not isinstance(node.value, ast.Name):
            node = node.value       # down to ``s.<name>``
        self.holes.append((ref, node, None))
        return ref


def _sigref_from(obj):
    if isinstance(obj, _SignalSlice):
        return SigRef([obj.signal], lo=obj.lo, hi=obj.hi)
    return SigRef([obj])


def _is_array_init(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and ast.List in (type(node.left), type(node.right))


def _copy_as_load(node):
    """Shallow-copy an assignment target as a Load-context expression."""
    new = copy.deepcopy(node)
    for sub in ast.walk(new):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return new


# -- Python-level types ------------------------------------------------------------


class TypeUndecided(Exception):
    """Raised by :func:`infer_types` for a block whose Python-level
    types cannot be decided statically, or whose closure would raise
    ``TypeError``."""


class Ty(NamedTuple):
    """What an expression evaluates to in the block's Python source:
    ``int`` (bools included), ``bits`` (a ``Bits`` of ``width``),
    ``sig`` (a bare signal or slice of ``width``), ``struct`` (a
    ``BitStruct`` instance) or ``ambig`` — ``Bits`` on one path and an
    int (or another width) on another, which is as good as any type
    wherever only the unsigned value is consumed."""

    kind: str
    width: int = 0


INT = Ty("int")
AMBIG = Ty("ambig")


def _join(a, b):
    if a == b:
        return a
    if "struct" in (a.kind, b.kind):
        return Ty("struct")
    return AMBIG


def infer_types(ir, hole_of, fixed=frozenset()):
    """Make ``ir`` ``Bits``-exact, in place, and return it.

    The types first, by the rules of ``Bits`` (``core/bits.py``): a
    binary operator's result is as wide as its wider ``Bits`` operand,
    with an int operand masked to the ``Bits`` operand's width first;
    ``<<`` and ``>>`` keep the left width; ``~`` and unary ``-`` keep
    the operand's; comparisons, ``not``, ``and`` / ``or`` over ints and
    CL state are ints.  Locals are typed flow-sensitively (joined at
    ``if`` merges and loop heads).  What only consumes the unsigned
    value (a comparison, a truth test, an index, a signal write,
    ``int()``) accepts any type; arithmetic on an ``ambig`` value, and
    what raises ``TypeError`` in Python (``int // Bits``, ``-signal``,
    anything on a ``BitStruct``...), raises :class:`TypeUndecided`.
    Once they settle, a :class:`Wrap` goes wherever ``Bits`` wraps
    (:meth:`_Typer.wrap`), except into a signal write no wider: no
    printer decides a width.  Last, the range pass (:class:`_Spans`)
    records every fact of a value's size a printer reads, and
    ``BlockIR.refused``.  ``hole_of`` names (by ``id``) the ``Const``
    leaves a sibling may fill with another value, ``fixed`` those of
    them a guard holds to this value (the range pass reads both)."""
    typer = _Typer(ir, hole_of)
    typer.stmts(ir.body)
    for node in walk_stmts(ir.body):
        typer.exact(node)
        if isinstance(node, AssignSig):
            node.expr = _absorb(node.expr, node.ref.width)
    _Spans(ir, hole_of, fixed).run()
    return ir


class _Flow:
    """A walk of a body in program order that keeps ``self.env``, a
    fact per scalar local: the facts of two paths meet (``join``) at an
    ``if`` merge and at a loop head, where ``break`` / ``continue``
    bring theirs, to a fixpoint over the back edge (``widen`` makes one
    where the facts could grow without end), or until the walks have
    accounted for every trip (``settled``).  A subclass says how two
    facts of a local meet (``meet``) and what a statement (``simple``),
    a condition (``cond``) and a loop variable at the top of each trip
    (``loop_var``) do to the facts.  After the loop a local holds what
    the head's fixpoint says, the loop variable included: its last
    value, as in Python and in the C ``cgen`` prints."""

    def stmts(self, body):
        for stmt in body:
            self.stmt(stmt)

    def join(self, *envs):
        out = {}
        for env in envs:
            for name, fact in env.items():
                out[name] = self.meet(out[name], fact) if name in out \
                    else fact
        return out

    def stmt(self, node):
        if isinstance(node, If):
            self.cond(node.cond)
            before = dict(self.env)
            self.stmts(node.body)
            then, self.env = self.env, before
            self.stmts(node.orelse)
            self.env = self.join(then, self.env)
        elif isinstance(node, For):
            entry = self.env
            walks = 0
            while True:
                self.env = {**entry, node.var: self.loop_var(node)}
                self.exits.append([])
                self.stmts(node.body)
                merged = self.join(entry, self.env, *self.exits.pop())
                walks += 1
                if merged == entry or self.settled(node, walks):
                    # Walk k starts from the heads of trips 0..k-1, so
                    # after one walk per trip the last walk's facts
                    # hold for every trip and ``merged`` for the exit.
                    entry = merged
                    break
                entry = self.widen(entry, merged, node, walks)
            self.env = entry
        elif isinstance(node, (Break, Continue)):
            self.exits[-1].append(dict(self.env))
        else:
            self.simple(node)

    def settled(self, node, walks):
        return False

    def widen(self, entry, merged, node, walks):
        return merged


class _Typer(_Flow):
    meet = staticmethod(_join)

    def __init__(self, ir, hole_of):
        self.casts = ir.casts
        self.hole_of = hole_of
        self.types = {}
        self.env = {}              # scalar local -> Ty
        self.exits = []            # per enclosing loop: envs at break/continue
        self.done = {}             # id(node) -> (node, its rewrite)

    @staticmethod
    def loop_var(node):
        return INT

    def simple(self, node):
        if isinstance(node, AssignLocal) and node.index is None:
            self.env[node.name] = self.expr(node.expr)
        elif isinstance(node, (AssignLocal, AssignSig, AssignState)):
            ty = [self.expr(holder[key])
                  for holder, key in _operands(node)][-1]
            if isinstance(node, AssignLocal) and ty != INT:
                raise TypeUndecided(
                    f"local array {node.name!r} is given a "
                    f"{ty.kind} value (array elements are ints)")

    def cond(self, node):
        if self.expr(node).kind == "struct":
            raise TypeUndecided("truth of a BitStruct value")

    def expr(self, node):
        ty = self.types[id(node)] = self._expr(node)
        if 0 < (self.casts.get(id(node)) or 0) < ty.width:
            raise TypeUndecided("zext target narrower than source")
        return self.seen(node)

    def seen(self, node):
        """The type a consumer of ``node`` sees: ``casts`` on top."""
        if id(node) not in self.casts:
            return self.types[id(node)]
        width = self.casts[id(node)]
        return INT if width is None else Ty("bits", width)

    def _expr(self, node):
        if isinstance(node, Const):
            return INT
        if isinstance(node, (SigRead, StateRead)):
            if node.ref.index is not None:
                self.expr(node.ref.index)
            return INT if getattr(node, "vtype", "int") == "int" \
                else Ty(node.vtype, node.ref.width)
        if isinstance(node, LocalRead):
            if node.index is not None:
                self.expr(node.index)
                return INT
            # Unbound here: Python raises, whatever the type.
            return self.env.get(node.name, AMBIG)
        if isinstance(node, BinOp):
            return _binop_type(node.op, self.expr(node.left),
                               self.expr(node.right))
        if isinstance(node, UnOp):
            if node.op == "!":
                self.cond(node.operand)
                return INT
            ty = self.expr(node.operand)
            if ty.kind == "bits" or (ty.kind == "sig" and node.op == "~"):
                return Ty("bits", ty.width)
            if ty != INT:
                raise TypeUndecided(f"unary {node.op} on a {ty.kind} value")
            return INT
        if isinstance(node, Cmp):
            left, right = self.expr(node.left), self.expr(node.right)
            if "struct" in (left.kind, right.kind) \
                    and node.op not in ("==", "!="):
                raise TypeUndecided(f"{node.op} on a BitStruct value")
            return INT
        if isinstance(node, BoolOp):
            tys = [self.expr(v) for v in node.values]
            if any(ty.kind == "struct" for ty in tys):
                raise TypeUndecided("truth of a BitStruct value")
            ty = tys[0]
            for other in tys[1:]:
                ty = _join(ty, other)
            return ty
        if isinstance(node, IfExp):
            self.cond(node.cond)
            return _join(self.expr(node.then), self.expr(node.orelse))
        if isinstance(node, Concat):
            for part, _ in node.parts:
                self.expr(part)
            return Ty("bits", sum(width for _, width in node.parts))
        raise TypeUndecided(f"{type(node).__name__} has no Python type")

    # -- the rewrite, once the types settle -----------------------------------

    def exact(self, node):
        """``node`` made ``Bits``-exact: rewritten in place, or a new node
        around it, once (``sext`` and ``.int()`` share their operand)."""
        if id(node) not in self.done:
            sides = isinstance(node, BinOp) and [
                (kid, self.seen(kid)) for kid in (node.left, node.right)]
            for holder, key in _operands(node):
                holder[key] = self.exact(holder[key])
            self.done[id(node)] = node, (
                self.wrap(node, sides)
                if isinstance(node, (BinOp, UnOp)) else node)
        return self.done[id(node)][1]

    def literal(self, node, width=128):
        """Whether ``node`` is a ``Const`` no sibling fills with another
        value (not a hole) in ``[0, 2**width)``."""
        return (isinstance(node, Const) and id(node) not in self.hole_of
                and 0 <= node.value < 1 << width)

    def wrap(self, node, sides):
        """``+ - *``, ``~``, unary ``-``, ``<<`` (by a literal at or past
        the width, ``0``; by any other amount, tested: C's ``<<`` past
        its width is undefined) and ``| ^`` with an int operand other
        than a literal in range wrap.  ``sides``: a ``BinOp``'s operands
        as the source has them, each with the type its consumer sees."""
        ty, op = self.types[id(node)], node.op
        if op in ("//", "%"):
            return self.divide(node, sides)
        if ty.kind != "bits" or op in ("&", ">>") or op in ("|", "^") and all(
                seen.kind != "int" or self.literal(kid, ty.width)
                for kid, seen in sides):
            return node
        if op != "<<" or self.literal(node.right, ty.width):
            return Wrap(node, ty.width)
        if self.literal(node.right):
            return Const(0)
        return IfExp(Cmp("<", node.right, Const(ty.width)),
                     Wrap(node, ty.width), Const(0))

    def divide(self, node, sides):
        """``//`` / ``%``: an int operand of a ``Bits`` one is masked to
        its width.  With an operand 64 bits or wider (a read, or ``Bits``
        computed or seen at that width: ``int()`` keeps the value), both
        must be non-negative reads, wraps or literals, and ``node`` is
        marked ``unsigned``."""
        (_, lseen), (_, rseen) = sides
        if lseen.kind == "bits" and rseen.kind == "int" \
                and not self.literal(node.right, lseen.width):
            node.right = Wrap(node.right, lseen.width)
        widths = [kid.ref.width if isinstance(kid, SigRead) else
                  max(seen.width, self.types[id(kid)].width)
                  for kid, seen in sides]
        if max(widths) >= 64:
            node.left, node.right = map(self.unsigned, (node.left, node.right),
                                        sides, widths)
            node.unsigned = True
        return node

    def unsigned(self, node, side, width):
        """Operand ``node`` of a wide ``//`` / ``%`` as a non-negative
        read, wrap or literal: an int computed and seen may be
        negative."""
        if isinstance(node, (SigRead, Wrap)) or self.literal(node):
            return node
        if side[1].kind == self.types[id(side[0])].kind == "int":
            raise TypeUndecided("// or % of a value 64 bits or wider by an "
                                "int that may be negative")
        return Wrap(node, width)


# -- the range pass -------------------------------------------------------------


#: The trips of a loop the pass walks one by one before it widens.
_TRIP_WALKS = 256
#: Where C needs a bound a constant hole's class ``[0, 2**63)`` does
#: not give, a hole whose value fits this many bits is any value that
#: does, and failing that, its value.
_NARROW_BITS = 32
#: Why C cannot run a body (``BlockIR.refused``), by precedence: a
#: local, CL state, any other value C may compute wrong.
_LOCAL, _STATE, _VALUE = range(3)
_REFUSALS = (
    "local {!r} may hold 64 bits or more (C locals are int64_t)",
    "CL state {!r} may be given 64 bits or more (C holds CL state as "
    "int64_t)",
    "{} may compute a value C's u128 / int64_t arithmetic gets wrong")


class _SpanWalk(_Flow):
    """One walk of a ``Bits``-exact IR, whose every operator is Python's
    on ints, that records one thing: a conservative :class:`Span` of
    each int expression.  Its leaves are signal reads and wraps (``[0,
    2**w)``), constants, ``range()`` loop variables and locals
    (flow-sensitive: joined at merges; at a loop head, walked once per
    trip up to ``_TRIP_WALKS`` trips, past that widened to no bound
    where one grows); a CL state variable, an array element or an unset
    local is unbounded.  A constant hole a guard fixes is its value; any
    other is read at the walk's class: any value in ``[0, 2**bits)``
    where its value fits that, else in ``[0, 2**63)`` (else unbounded),
    or (``bits`` None) its value."""

    meet = staticmethod(hull)

    def __init__(self, ir, hole_of, fixed, bits):
        self.ir, self.hole_of, self.fixed, self.bits = ir, hole_of, fixed, bits
        self.env = {}              # scalar local -> Span
        self.exits = []
        self.spans = {}            # id(expression) -> Span, last walk's
        self.truths = set()        # id of each expression tested for truth

    @staticmethod
    def settled(node, walks):
        return walks >= len(range(node.start, node.stop, node.step))

    @staticmethod
    def widen(entry, merged, node, walks):
        """For ``_TRIP_WALKS`` walks a walk is one trip more and the
        bounds grow as the values do.  Past that a bound that grew is
        none, which the head's fixpoint reaches in a few walks."""
        if walks < _TRIP_WALKS:
            return merged
        out = dict(merged)
        for name, span in merged.items():
            old = entry.get(name)
            if old is not None and span[:2] != old[:2]:
                out[name] = span._replace(
                    lo=None if span.lo != old.lo else span.lo,
                    hi=None if span.hi != old.hi else span.hi)
        return out

    @staticmethod
    def loop_var(node):
        if node.step > 0:
            return Span(node.start, max(node.stop, node.start))
        return Span(node.stop + 1, max(node.start, node.stop) + 1)

    def cond(self, node):
        self.truths.add(id(node))
        self.span(node)

    def simple(self, node):
        if isinstance(node, AssignLocal) and node.index is None:
            span = self.span(node.expr)    # C holds a local as int64_t
            self.env[node.name] = Span(*span[:4])
        else:
            for holder, key in _operands(node):
                self.span(holder[key])

    def span(self, node):
        """``node``'s span, after its operands', with the type C
        computes it in as ``cgen`` prints it: a net read, a mask, a
        concatenation, an unsigned division and a constant past
        ``int64_t`` are ``u128``, and so is an operator with such an
        operand (a shift's left one), a conditional with such an arm
        and an ``and`` / ``or`` C prints as the operand select."""
        # What a truth test takes: a condition, ``not``'s operand and
        # the operands of an ``and`` / ``or`` tested
        if isinstance(node, IfExp):
            self.truths.add(id(node.cond))
        elif isinstance(node, UnOp) and node.op == "!":
            self.truths.add(id(node.operand))
        elif isinstance(node, BoolOp) and id(node) in self.truths:
            self.truths.update(map(id, node.values))
        kids = list(map(self.span, _children(node)))
        ctype = "int64_t"          # a local, CL state, a truth value
        if isinstance(node, Const):
            value = node.value
            bits = self.bits       # a sibling fills a hole: its class
            if id(node) not in self.hole_of or id(node) in self.fixed:
                span = Span(value, value + 1)
            elif bits is None:
                span = Span(value, value + 1, frozenset([(id(node), None)]))
            else:
                bits = bits if 0 <= value < 1 << bits else 63
                span = Span(0, 1 << bits, frozenset([(id(node), bits)])) \
                    if 0 <= value < 1 << bits else ANY
            if value >= 1 << 63:
                ctype = "u128"
        elif isinstance(node, SigRead):
            span, ctype = Span(0, 1 << node.ref.width), "u128"
        elif isinstance(node, LocalRead) and node.index is None:
            span = self.env.get(node.name, ANY)
        elif isinstance(node, Wrap):
            span = kids[0]._replace(truth=False) if within(
                kids[0], 1 << node.width) else Span(0, 1 << node.width)
            ctype = "u128"
        elif isinstance(node, BinOp):
            span = arith(node.op, *kids)
            if node.unsigned if node.op in ("//", "%") else "u128" in (
                    kids[0].ctype, node.op not in ("<<", ">>")
                    and kids[1].ctype):
                ctype = "u128"
        elif isinstance(node, UnOp):
            lo, hi, holes, _, ctype = kids[0]
            if node.op == "!":
                span, ctype = TRUTH, "int64_t"
            elif node.op == "-":
                span = Span(None if hi is None else 1 - hi,
                            None if lo is None else 1 - lo, holes)
            else:
                span = Span(None if hi is None else -hi,
                            None if lo is None else -lo, holes)
        elif isinstance(node, BoolOp):
            if self.zero_one(node) is not None:
                span = Span(0, 2, truth=any(kid.truth for kid in kids))
            else:                  # Python's operand: C's select
                span = functools.reduce(hull, kids)
                if "u128" in [kid.ctype for kid in kids]:
                    ctype = "u128"
        elif isinstance(node, IfExp):
            span = hull(kids[1], kids[2])
            if "u128" in (kids[1].ctype, kids[2].ctype):
                ctype = "u128"
        elif isinstance(node, Concat):
            span = Span(0, 1 << sum(width for _, width in node.parts))
            ctype = "u128"
        else:                      # a comparison, CL state, an array element
            span = TRUTH if isinstance(node, Cmp) else ANY
        if span.ctype != ctype:
            span = Span(*span[:4], ctype)
        self.spans[id(node)] = span
        return span

    def zero_one(self, node):
        """The holes whose classes say ``and`` / ``or`` ``node`` is 0/1 —
        it is tested for truth, or every operand lies in ``[0, 2)``
        (:meth:`judged`) — or None where Python may yield an operand
        of another value."""
        if id(node) in self.truths:
            return frozenset()
        holes = frozenset()
        for value in node.values:
            span = self.judged(value, 2)
            if not within(span, 2):
                return None
            holes |= span.holes
        return holes

    def judged(self, node, high, low=0):
        """``node``'s span as this walk has it (a judge judges again)."""
        return self.spans[id(node)]


class _Spans(_SpanWalk):
    """The range pass: the one judge of a value's size, and the one walk
    that records anything else.  It reads each constant hole at its
    class ``[0, 2**63)``, so siblings that differ in it still share the
    body, unless a fact needs it known closer (:meth:`judged`).  Each
    fact a printer reads — ``AssignSig.fits``, ``BinOp.nonneg``,
    ``BoolOp.zero_one`` (an ``and`` / ``or`` is 0/1) and ``eager`` —
    and each value C may compute wrong (:meth:`exact`), which refuses
    the body (``BlockIR.refused``), is one record (:meth:`fact`).  A
    fact read from a hole's class names it in ``BlockIR.fact_holes``."""

    def __init__(self, ir, hole_of, fixed):
        super().__init__(ir, hole_of, fixed, 63)
        self.rejudged = {}         # bits -> the spans of a walk at them
        self.facts = {}            # (id(node), what) -> holes | None

    def run(self):
        """Walk the body; set the IR's facts, ``refused`` and
        ``fact_holes``."""
        self.stmts(self.ir.body)
        refusals = [what for (_, what), holes in self.facts.items()
                    if holes is None and type(what) is tuple]
        if refusals:               # by precedence, then first walked first
            kind, what = min(refusals, key=lambda refusal: refusal[0])
            self.ir.refused = _REFUSALS[kind].format(what)
        for holes in self.facts.values():
            for hole, bits in holes or ():
                old = self.ir.fact_holes.get(hole, 63)
                self.ir.fact_holes[hole] = None if None in (bits, old) \
                    else min(bits, old)

    def fact(self, node, what, holes):
        """Record that ``what`` holds of ``node``, read from the classes
        of ``holes``, or does not (``holes`` None): the IR field a
        printer reads, set here, or a refusal ``(_LOCAL | _STATE |
        _VALUE, name)`` unless it holds.  A loop's last walk decides."""
        if type(what) is str:
            setattr(node, what, holes is not None)
        self.facts[id(node), what] = holes

    def judged(self, node, high, low=0):
        """``node``'s span, judged again where it is not inside ``[low,
        high)`` and a hole's class supplied a bound: with each hole whose
        value fits ``_NARROW_BITS`` bits in that narrower class, then at
        its value (a walk each, the first time asked); a fact read from
        it has the holes guarded there."""
        span = self.spans[id(node)]
        for bits in (_NARROW_BITS, None):
            if within(span, high, low) or not span.holes:
                break
            if bits not in self.rejudged:
                walk = _SpanWalk(self.ir, self.hole_of, self.fixed, bits)
                walk.stmts(self.ir.body)
                self.rejudged[bits] = walk.spans
            span = self.rejudged[bits][id(node)]
        return span

    def widen(self, entry, merged, node, walks):
        # A local widened so is wide for C: its stores are judged by a
        # span that says nothing of how far the trips left take it.
        out = super().widen(entry, merged, node, walks)
        for name, span in out.items():
            if span is not merged[name]:
                self.fact(node, (_LOCAL, name), None)
        return out

    def cond(self, node):
        super().cond(node)
        self.fact(node, (_VALUE, "a condition"), self.exact(node))

    def simple(self, node):
        super().simple(node)
        if isinstance(node, AssignSig):
            span, width = self.spans[id(node.expr)], node.ref.width
            self.fact(node, "fits", span.holes if within(
                span, 1 << width) and not span.truth else None)
            self.fact(node, (_VALUE, f"a {width}-bit signal write"),
                      self.held(node.expr, 64 if width <= 64 else 128))
        elif isinstance(node, AssignState):
            self.fact(node, (_STATE, node.ref.name),
                      self.exact(node.expr, "int64_t"))
        else:                      # a local, an array element, its init
            self.fact(node, (_LOCAL, node.name),
                      self.exact(_children(node)[-1], "int64_t"))
        index = getattr(getattr(node, "ref", node), "index", None)
        if index is not None:
            self.fact(index, (_VALUE, "an index"), self.exact(index))

    def span(self, node):
        span = super().span(node)
        if isinstance(node, BinOp) and node.op in ("//", "%"):
            left, right = self.spans[id(node.left)], self.spans[id(node.right)]
            self.fact(node, "nonneg", left.holes | right.holes if (
                not node.unsigned and within(left, 1 << 63)
                and within(right, 1 << 63)) else None)
        elif isinstance(node, BoolOp):
            read = self.zero_one(node)
            self.fact(node, "zero_one", read)
            self.fact(node, "eager", None if read is None
                      else self.cannot_fault(node.values[1:]))
        return span

    def exact(self, node, ctype=None):
        """The holes whose classes say C computes ``node``'s value as
        Python does, as ``ctype`` (``"u128"`` or ``"int64_t"``; where
        None, the type C computes it in, ``Span.ctype``), or None where
        it may not: where its span (:meth:`judged`) has a bound outside
        that type that no hole's class supplied, or where C may compute
        it wrong modulo that type's size (:meth:`held`).  A read of a
        local, an array element or CL state is taken to be exact (C
        holds each so)."""
        ctype = ctype or self.spans[id(node)].ctype
        low, high = (0, 1 << 128) if ctype == "u128" else (-1 << 63, 1 << 63)
        span = self.judged(node, high, low)
        lo, hi, holes = span[:3]
        if not within(span, high, low) \
                and not isinstance(node, (LocalRead, StateRead)) \
                and (lo is not None and not low <= lo < high
                     or hi is not None and not low < hi <= high):
            return None
        # inside the type, or unknown, trusted, or a hole's class
        held = self.held(node, 128 if ctype == "u128" else 64)
        return None if held is None else holes | held

    def held(self, node, keep):
        """The holes whose classes say C computes ``node``'s value right
        modulo ``2**keep`` (64 or 128: what a store or a mask keeps), or
        None where it may not.  C wraps modulo its type's size, so a
        ring operator (``+ - * & | ^ ~``, unary ``-``, a ``<<``'s left,
        a mask) keeps what its operands keep; anything else needs them
        :meth:`exact` (:meth:`kept`), and so does an ``int64_t`` value
        C widens to ``u128``.  A shift amount must be less than the
        width of C's type, and a constant one C can print."""
        if isinstance(node, Const):
            return frozenset() if -1 << 63 <= node.value < 1 << 128 \
                else None
        if keep > 64 and self.spans[id(node)].ctype == "int64_t":
            return self.exact(node)
        if isinstance(node, BinOp) and node.op in ("<<", ">>"):
            # C shifts by less than its type's width, or not at all
            _, hi, read = self.spans[id(node.right)][:3]
            if not read and hi is not None and hi > (
                    128 if self.spans[id(node.left)].ctype == "u128" else 64):
                return None
        holes = frozenset()
        for kid, kept in self.kept(node, keep):
            read = self.held(kid, kept) if isinstance(kept, int) \
                else self.exact(kid, kept)
            if read is None:
                return None
            holes |= read
        return holes

    def kept(self, node, keep):
        """``(operand, what C must compute of it)`` for each operand of
        ``node`` when ``node`` is needed modulo ``2**keep``: its value
        modulo ``2**n`` (an int ``n``), or its exact value as a C type (a
        name, or None for its own)."""
        if isinstance(node, Wrap):
            return [(node.expr, 64 if node.width <= 64 else 128)]
        if isinstance(node, Concat):
            return [(part, 64 if width <= 64 else 128)
                    for part, width in node.parts]
        if isinstance(node, BinOp) and node.op in ("+", "-", "*", "&", "|",
                                                   "^"):
            return [(node.left, keep), (node.right, keep)]
        if isinstance(node, BinOp) and node.op == "<<":
            return [(node.left, keep), (node.right, None)]
        if isinstance(node, BinOp) and node.op == "//" and \
                not node.unsigned and self.spans[id(node.right)][:2] == (1, 2):
            # ``x // 1`` (``.int()``'s): C's cast of x to int64_t
            return [(node.left, 64), (node.right, None)]
        if isinstance(node, BinOp) and node.op in ("//", "%"):  # C casts
            ctype = "u128" if node.unsigned else "int64_t"
            return [(node.left, ctype), (node.right, ctype)]
        if isinstance(node, UnOp) and node.op != "!":
            return [(node.operand, keep)]
        if isinstance(node, IfExp):
            return [(node.cond, None), (node.then, keep),
                    (node.orelse, keep)]
        if isinstance(node, BoolOp) and not node.zero_one:
            # the select: each operand but the last is tested, then given
            return [*((value, None) for value in node.values[:-1]),
                    (node.values[-1], keep)]
        if isinstance(node, Cmp):      # C compares both as one type
            ctype = "u128" if "u128" in (
                self.spans[id(node.left)].ctype,
                self.spans[id(node.right)].ctype) else "int64_t"
            return [(node.left, ctype), (node.right, ctype)]
        # ``>>``, ``not``, a 0/1 ``and`` / ``or``, an index: the value itself
        return [(kid, None) for kid in _children(node)]

    def cannot_fault(self, nodes):
        """The holes whose values say evaluating every expression of
        ``nodes`` cannot fault, or None where one may: a dynamic index
        the spans do not place inside its local array, signal table or
        CL state list, or a divisor they do not keep from zero."""
        holes = frozenset()
        stack = list(nodes)
        while stack:
            node = stack.pop()
            stack.extend(_children(node))
            ref = getattr(node, "ref", None)
            if isinstance(node, LocalRead) and node.index is not None:
                index, size = node.index, self.ir.locals[node.name][1]
            elif isinstance(node, SigRead) and ref.index is not None:
                index, size = ref.index, len(ref.signals)
            elif isinstance(node, StateRead) and ref.index is not None:
                index, size = ref.index, len(getattr(ref.model, ref.name))
            elif isinstance(node, BinOp) and node.op in ("//", "%"):
                lo, hi, read = self.spans[id(node.right)][:3]
                if not (lo is not None and lo > 0
                        or hi is not None and hi <= 0):
                    return None
                holes |= read
                continue
            else:
                continue
            span = self.spans[id(index)]
            if not within(span, size):
                return None
            holes |= span.holes
        return holes


#: node class -> the fields of its nodes that may hold an expression
_SLOTS = {}


def _operands(node):
    """Where ``node`` holds each expression it reads directly:
    ``holder[key]``."""
    fields = vars(node)
    keys = _SLOTS.get(type(node))
    if keys is None:               # a list there is a body of statements
        keys = _SLOTS[type(node)] = [
            key for key in ("index", "left", "right", "operand", "cond",
                            "then", "orelse", "expr", "init")
            if key in fields and type(fields[key]) is not list]
    ref = fields.get("ref")
    slots = [(vars(ref), "index")] if getattr(ref, "index", None) else []
    for key in keys:
        if fields[key] is not None:
            slots.append((fields, key))
    if "values" in fields:
        slots += [(node.values, i) for i in range(len(node.values))]
    for part, _ in fields.get("parts", ()):
        slots += _operands(part)
    return slots


def _children(node):
    """The expressions ``node`` reads directly (a ``Concat``'s parts
    included, which ``_operands`` looks through)."""
    if isinstance(node, Concat):
        return [part for part, _ in node.parts]
    return [holder[key] for holder, key in _operands(node)]


def _absorb(node, width):
    """``node`` as a signal write ``width`` bits wide stores it: a wrap
    no narrower than the write is the write's own truncation."""
    if isinstance(node, Wrap) and width <= node.width:
        return node.expr
    if isinstance(node, IfExp):
        return IfExp(node.cond, *(_absorb(arm, width)
                                  for arm in (node.then, node.orelse)))
    return node


def _binop_type(op, left, right):
    kinds = (left.kind, right.kind)
    if kinds == ("int", "int"):
        return INT
    for ty in (left, right):
        if ty.kind in ("ambig", "struct"):
            raise TypeUndecided(
                f"operand of {op} is "
                + ("a BitStruct" if ty.kind == "struct" else
                   "Bits on one path and an int (or another width) "
                   "on another"))
    # At least one operand is Bits-valued.  _ValueOps (a bare signal)
    # has no // and %, and nothing has their reflected forms or the
    # reflected shifts.
    if op in ("//", "%") and (left.kind != "bits" or right.kind == "sig"):
        raise TypeUndecided(f"{left.kind} {op} {right.kind} raises "
                            f"TypeError")
    if op in ("<<", ">>"):
        if left.kind == "int":
            raise TypeUndecided(f"int {op} {right.kind} raises TypeError")
        return Ty("bits", left.width)
    return Ty("bits", max(left.width, right.width))


def block_kind(blk):
    """The IR kind of a block: ``comb``, ``tick_rtl`` for level
    ``rtl``, ``tick_cl`` for every other tick."""
    return ("comb" if isinstance(blk, _CombBlock)
            else "tick_rtl" if blk.level == "rtl" else "tick_cl")
