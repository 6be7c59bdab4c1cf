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
:func:`lower` is the entry point: it takes a block as
``Model.get_comb_blocks()`` / ``get_tick_blocks()`` hand it out.

Subset summary:

- reads/writes of signals via ``.value`` / ``.next`` / ``.uint()`` /
  bare signal truthiness, including bit slices, BitStruct fields, and
  (possibly dynamically) indexed lists of signals;
- integer arithmetic/bitwise/comparison/boolean operators, ternary
  expressions, ``int()`` coercions;
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
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .bitstruct import BitStruct
from .elaboration import block_shape
from .model import _CombBlock
from .portbundle import PortBundle
from .signals import Signal, _SignalSlice


class TranslationError(Exception):
    """Raised when a behavioral block falls outside the translatable
    subset."""


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
    size: int = 0                  # 0 = scalar


@dataclass
class SigRead:
    ref: SigRef
    #: What the source read evaluates to in Python, which lowering to
    #: an unsigned value otherwise throws away: ``"int"`` (``.uint()``,
    #: ``int(...)``), ``"bits"`` (``.value``, so arithmetic wraps at the
    #: operand's width), ``"sig"`` (the bare signal or slice: ``Bits``
    #: arithmetic, but no ``//``, ``%`` or unary ``-``) or ``"struct"``
    #: (a ``BitStruct`` instance: no arithmetic at all).  See
    #: :func:`infer_types`; the C and Verilog printers compute wide and
    #: ignore it.
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


@dataclass
class IfExp:
    cond: object
    then: object
    orelse: object


@dataclass
class Concat:
    """Verilog-style concatenation: parts MSB-first, each (expr, width)."""

    parts: list


# -- statement nodes --------------------------------------------------------------


@dataclass
class AssignSig:
    ref: SigRef
    expr: object
    is_next: bool                  # True: registered (.next) write


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
    #: only :func:`infer_types` reads it.  Reads record the same fact
    #: in ``SigRead.vtype``.
    casts: dict = field(default_factory=dict)


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
        # The parse and the names that denote the model are the
        # elaborator's: both layers read one FunctionDef (never mutated).
        shape = block_shape(func, model)
        if shape is None:
            raise TranslationError(
                f"cannot retrieve source for {func.__qualname__}")
        self.func_def = shape.func_def
        self.root_names = shape.root_names
        self._env = self._build_env()
        # Locals only ever assigned 0/1 values; None until an ``and`` /
        # ``or`` used as a value makes translate() work them out.
        self._bit_locals = None
        self._reset()

    def _reset(self):
        self.ir = BlockIR(name=self.func.__name__, kind=self.kind,
                          model=self.model)
        self._value_boolops = []
        # The read trace: everything this lowering took from the live
        # model or the block's environment, as the AST expression it
        # came through.  A *hole* reached the IR only as a leaf — a
        # signal (its net), a dynamically indexed signal list (the
        # candidates' nets; the third entry is the Subscript with the
        # dynamic index) or an int ``Const`` — so a sibling instance
        # can fill it with its own; a *guard* is an int a translator
        # decision folded into the IR's shape (range and slice bounds,
        # array sizes, static list indices, ``len()``), so a sibling
        # must evaluate it equal.  A backend that keeps one lowering
        # per block body (``pygen``) prints both as a ``bind``.
        self.holes = []            # (Const | SigRef, AST node, Subscript)
        self.guards = []           # AST nodes
        self._struct_refs = set()  # id(SigRef) of BitStruct-typed ranges

    # -- environment ---------------------------------------------------------

    def _build_env(self):
        """Names visible to the block: closure vars and globals that
        hold plain constants."""
        env = {}
        for var, val in self.func.__globals__.items():
            env[var] = val
        code = self.func.__code__
        if self.func.__closure__:
            for var, cell in zip(code.co_freevars, self.func.__closure__):
                try:
                    env[var] = cell.cell_contents
                except ValueError:
                    pass
        return env

    def fail(self, node, why):
        line = getattr(node, "lineno", "?")
        raise TranslationError(
            f"{self.model.full_name()}.{self.ir.name} (line {line}): {why}"
        )

    # -- entry point --------------------------------------------------------------

    def translate(self):
        self.ir.body = self.stmt_list(self.func_def.body)
        if self._value_boolops:
            # ``a and b`` as a value is an operand, not a truth value.
            # It was lowered as the 0/1 BoolOp; that holds when every
            # operand is 0/1-valued — which, through locals, only the
            # whole body can say.  Otherwise lower once more, printing
            # the others as operand selects.
            bits = self._zero_one_locals()
            if not all(_is_bit(v, bits) for node in self._value_boolops
                       for v in node.values):
                self._bit_locals = bits
                self._reset()
                self.ir.body = self.stmt_list(self.func_def.body)
        return self.ir

    def _zero_one_locals(self):
        """Scalar locals only ever assigned 0/1-valued expressions
        (greatest fixpoint: a local may be assigned from another)."""
        assigned = {}
        for stmt in walk_stmts(self.ir.body):
            if isinstance(stmt, AssignLocal):
                assigned.setdefault(stmt.name, []).append(
                    stmt.expr if stmt.index is None else None)
            elif isinstance(stmt, For):
                assigned.setdefault(stmt.var, []).append(None)
        bits = set(assigned)
        while True:
            keep = {name for name in bits
                    if all(e is not None and _is_bit(e, bits)
                           for e in assigned[name])}
            if keep == bits:
                return bits
            bits = keep

    # -- statements ------------------------------------------------------------------

    def stmt_list(self, nodes):
        out = []
        for node in nodes:
            stmt = self.stmt(node)
            if stmt is not None:
                if isinstance(stmt, list):
                    out.extend(stmt)
                else:
                    out.append(stmt)
        return out

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
            return self.assign(node.target, None, node, value_ir=value)
        if isinstance(node, ast.If):
            return If(self.cond(node.test), self.stmt_list(node.body),
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
            if node.value is None:
                # 'return' for early exit maps to nothing translatable.
                self.fail(node, "early return unsupported")
            self.fail(node, "return with value unsupported")
        self.fail(node, f"statement {type(node).__name__} unsupported")

    def for_stmt(self, node):
        if not (isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"):
            self.fail(node, "for loops must iterate over range()")
        args = [self.static_int(a, node) for a in node.iter.args]
        if len(args) == 1:
            start, stop, step = 0, args[0], 1
        elif len(args) == 2:
            start, stop, step = args[0], args[1], 1
        else:
            start, stop, step = args
        if not isinstance(node.target, ast.Name):
            self.fail(node, "for target must be a simple name")
        var = node.target.id
        self.ir.locals.setdefault(var, "int")
        return For(var, start, stop, step, self.stmt_list(node.body))

    def assign(self, target, value_node, node, value_ir=None):
        value = value_ir if value_ir is not None else None

        # Local array declaration: xs = [0] * N  /  [c for _ in range(N)]
        if (value is None and isinstance(target, ast.Name)
                and self._is_array_init(value_node)):
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
                self.fail(
                    node,
                    ".value write inside tick block (use .next)"
                )
            if isinstance(ref, SigRef):
                self.ir.sig_writes.append(ref)
                return AssignSig(ref, value, is_next)
            return AssignState(ref, value)
        self.fail(node, "unsupported assignment target")

    def _is_array_init(self, node):
        if node is None:
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return isinstance(node.left, ast.List) \
                or isinstance(node.right, ast.List)
        return False

    def _array_init(self, node, ctx):
        if isinstance(node.left, ast.List):
            lst, count = node.left, node.right
        else:
            lst, count = node.right, node.left
        if len(lst.elts) != 1:
            self.fail(ctx, "array init must be [const] * N")
        elt = lst.elts[0]
        neg = False
        if isinstance(elt, ast.UnaryOp) and isinstance(elt.op, ast.USub):
            elt, neg = elt.operand, True
        if not isinstance(elt, ast.Constant):
            self.fail(ctx, "array init must be [const] * N")
        value = int(elt.value)
        return self.static_int(count, ctx), -value if neg else value

    # -- expressions --------------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Const(int(node.value))
            if isinstance(node.value, int):
                return Const(node.value)
            self.fail(node, f"constant {node.value!r} unsupported")
        if isinstance(node, ast.Name):
            return self.name_expr(node)
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            return self.path_expr(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                self.fail(node, f"operator {type(node.op).__name__}")
            return BinOp(op, self.expr(node.left), self.expr(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Invert):
                return UnOp("~", self.expr(node.operand))
            if isinstance(node.op, ast.USub):
                return UnOp("-", self.expr(node.operand))
            if isinstance(node.op, ast.Not):
                return UnOp("!", self.cond(node.operand))
            self.fail(node, f"unary {type(node.op).__name__}")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                self.fail(node, "chained comparisons unsupported")
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                self.fail(node, f"comparison {type(node.ops[0]).__name__}")
            return Cmp(op, self.expr(node.left),
                       self.expr(node.comparators[0]))
        if isinstance(node, ast.BoolOp):
            return self._bool_value(node)
        if isinstance(node, ast.IfExp):
            return IfExp(self.cond(node.test), self.expr(node.body),
                         self.expr(node.orelse))
        if isinstance(node, ast.Call):
            return self.call_expr(node)
        self.fail(node, f"expression {type(node).__name__} unsupported")

    def cond(self, node):
        """An expression used as a condition: only its truth matters,
        so ``and`` / ``or`` are the logical operators here."""
        if isinstance(node, ast.BoolOp):
            op = "&&" if isinstance(node.op, ast.And) else "||"
            return BoolOp(op, [self.cond(v) for v in node.values])
        return self.expr(node)

    def _bool_value(self, node):
        """``a and b`` / ``a or b`` used as a value yields an operand.
        That is the logical operator when every operand is 0/1-valued
        (see translate()), else an operand select: ``b if a else a``
        / ``a if a else b``."""
        is_and = isinstance(node.op, ast.And)
        values = [self.expr(v) for v in node.values]
        if self._bit_locals is None or all(
                _is_bit(v, self._bit_locals) for v in values):
            ir = BoolOp("&&" if is_and else "||", values)
            self._value_boolops.append(ir)
            return ir
        ir = values[-1]
        for value in reversed(values[:-1]):
            ir = IfExp(value, ir, value) if is_and \
                else IfExp(value, value, ir)
        return ir

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
        # Unknown name: assume local assigned later? That's a bug in
        # the block; fail loudly.
        self.fail(node, f"unknown name {name!r}")

    def call_expr(self, node):
        # Accessor methods: x.uint(), x.int().
        if isinstance(node.func, ast.Attribute) and not node.args:
            if node.func.attr == "uint":
                return self._cast(self.expr(node.func.value), None)
            if node.func.attr == "int":
                return self._signed_expr(node)
        if isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname == "int" and len(node.args) == 1:
                return self._cast(self.expr(node.args[0]), None)
            if fname == "len" and len(node.args) == 1:
                inner = node.args[0]
                static = self.try_static(inner)
                if isinstance(static, list):
                    self.guards.append(node)
                    return Const(len(static))
                self.fail(node, "len() only on static lists")
            if fname == "concat":
                return self._concat_expr(node)
            if fname == "zext" and len(node.args) == 2:
                # Values are stored masked; widening needs no gates.
                return self._cast(self.expr(node.args[0]),
                                  self.static_int(node.args[1], node))
            if fname == "sext" and len(node.args) == 2:
                return self._sext_expr(node)
        self.fail(node, "function/method calls are not translatable "
                        f"({ast.dump(node.func)[:60]})")

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

    def _sext_expr(self, node):
        """sext(x, N): desugared into a sign-test ternary so every
        backend handles it with existing nodes."""
        value = self.expr(node.args[0])
        if not isinstance(value, SigRead):
            self.fail(node, "sext argument must be a signal or slice")
        from_width = value.ref.width
        to_width = self.static_int(node.args[1], node)
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
        if isinstance(resolved, Const):
            return resolved
        if isinstance(resolved, (LocalRead,)):
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
            if node.id in self._env:
                return self._env[node.id]
            return NotImplemented
        if isinstance(node, ast.Attribute):
            base = self.try_static(node.value)
            if base is NotImplemented:
                return NotImplemented
            try:
                value = getattr(base, node.attr)
            except AttributeError:
                return NotImplemented
            return value
        if isinstance(node, ast.Subscript):
            base = self.try_static(node.value)
            idx = self.try_static(node.slice)
            if base is NotImplemented or idx is NotImplemented:
                return NotImplemented
            if isinstance(idx, (int, bool)) and isinstance(base, list):
                return base[idx]
            return NotImplemented
        if isinstance(node, ast.BinOp):
            left = self.try_static(node.left)
            right = self.try_static(node.right)
            op = _BINOPS.get(type(node.op))
            if NotImplemented in (left, right) or op is None:
                return NotImplemented
            if not isinstance(left, (int, bool)) \
                    or not isinstance(right, (int, bool)):
                return NotImplemented
            return _FOLD[op](int(left), int(right))
        if isinstance(node, ast.UnaryOp):
            value = self.try_static(node.operand)
            if value is NotImplemented or not isinstance(value, (int, bool)):
                return NotImplemented
            if isinstance(node.op, ast.USub):
                return -value
            if isinstance(node.op, ast.Invert):
                return ~value
            return NotImplemented
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
            return StateRef(self.model, name, index=index_ir,
                            size=len(attr))
        if isinstance(attr, (int, bool)):
            return StateRef(self.model, name)
        self.fail(node, f"attribute {name!r} is not int state")


def _sigref_from(obj):
    if isinstance(obj, _SignalSlice):
        return SigRef([obj.signal], lo=obj.lo, hi=obj.hi)
    return SigRef([obj])


def _copy_as_load(node):
    """Shallow-copy an assignment target as a Load-context expression."""
    new = copy.deepcopy(node)
    for sub in ast.walk(new):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return new


def _is_bit(node, bit_locals):
    """Whether ``node`` is statically 0/1-valued, given the locals
    that are."""
    if isinstance(node, Const):
        return node.value in (0, 1)
    if isinstance(node, Cmp):
        return True
    if isinstance(node, UnOp):
        return node.op == "!"
    if isinstance(node, BoolOp):
        return all(_is_bit(v, bit_locals) for v in node.values)
    if isinstance(node, SigRead):
        return node.ref.width == 1
    if isinstance(node, LocalRead):
        return node.index is None and node.name in bit_locals
    if isinstance(node, IfExp):
        return (_is_bit(node.then, bit_locals)
                and _is_bit(node.orelse, bit_locals))
    return False


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


def _join_envs(*envs):
    out = {}
    for env in envs:
        for name, ty in env.items():
            out[name] = _join(out[name], ty) if name in out else ty
    return out


def cast_type(casts, node, ty):
    """The type a consumer of ``node`` sees, given the type ``ty`` it
    computes at: ``BlockIR.casts`` on top of it."""
    if id(node) not in casts:
        return ty
    width = casts[id(node)]
    return INT if width is None else Ty("bits", width)


def infer_types(ir):
    """``{id(node): Ty}`` for every expression of ``ir``, by the rules
    of ``Bits`` (``core/bits.py``): a binary operator's result is as
    wide as its wider ``Bits`` operand, with an int operand masked to
    the ``Bits`` operand's width first; ``<<`` and ``>>`` keep the left
    width; ``~`` and unary ``-`` keep the operand's; comparisons,
    ``not`` and ``and`` / ``or`` over ints are ints.  Locals are typed
    flow-sensitively (joined at ``if`` merges and loop heads).  What
    only consumes the unsigned value — a comparison, a truth test, an
    index, a signal write, ``int()`` — accepts any type; arithmetic on
    an ``ambig`` value, and what raises ``TypeError`` in Python
    (``int // Bits``, ``int << Bits``, ``-signal``, ``signal % n``,
    anything on a ``BitStruct``), raises :class:`TypeUndecided`.

    Backend-neutral: a printer that wants ``Bits``-exact values masks
    at ``types[id(node)].width`` wherever the kind is ``bits``.  That
    is the type a node *computes at*; what consumes it sees
    ``ir.casts`` on top (:func:`cast_type`)."""
    typer = _Typer(ir)
    typer.stmts(ir.body)
    return typer.types


class _Typer:
    def __init__(self, ir):
        self.casts = ir.casts
        self.types = {}
        self.env = {}              # scalar local -> Ty
        self.exits = []            # per enclosing loop: envs at break/continue

    def stmts(self, body):
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node):
        if isinstance(node, AssignSig):
            self.expr(node.expr)
            if node.ref.index is not None:
                self.expr(node.ref.index)
        elif isinstance(node, AssignLocal):
            ty = self.expr(node.expr)
            if node.index is None:
                self.env[node.name] = ty
            else:
                self.expr(node.index)
                if ty != INT:
                    raise TypeUndecided(
                        f"local array {node.name!r} is given a "
                        f"{ty.kind} value (array elements are ints)")
        elif isinstance(node, If):
            self.cond(node.cond)
            before = dict(self.env)
            self.stmts(node.body)
            then, self.env = self.env, before
            self.stmts(node.orelse)
            self.env = _join_envs(then, self.env)
        elif isinstance(node, For):
            # The head's types are a fixpoint over the back edge.
            entry = self.env
            while True:
                self.env = {**entry, node.var: INT}
                self.exits.append([])
                self.stmts(node.body)
                merged = _join_envs(entry, self.env, *self.exits.pop())
                if merged == entry:
                    break
                entry = merged
            self.env = entry
        elif isinstance(node, (Break, Continue)):
            self.exits[-1].append(dict(self.env))
        elif isinstance(node, AssignState):
            raise TypeUndecided("plain-attribute state (CL)")

    def cond(self, node):
        if self.expr(node).kind == "struct":
            raise TypeUndecided("truth of a BitStruct value")

    def expr(self, node):
        ty = self.types[id(node)] = self._expr(node)
        if id(node) in self.casts:
            if 0 < (self.casts[id(node)] or 0) < ty.width:
                raise TypeUndecided("zext target narrower than source")
            ty = cast_type(self.casts, node, ty)
        return ty

    def _expr(self, node):
        if isinstance(node, Const):
            return INT
        if isinstance(node, SigRead):
            if node.ref.index is not None:
                self.expr(node.ref.index)
            return INT if node.vtype == "int" \
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


def lower(blk):
    """Lower one behavioural block (a ``Model.get_comb_blocks()`` /
    ``get_tick_blocks()`` entry) to :class:`BlockIR` — the one entry
    point every backend and tool uses.  The IR kind comes from the
    block itself; a caller that rejects a level does so before
    lowering.

    A pure function, deliberately uncached: keeping mesh64's 832
    ``BlockIR``s alive past specialization costs +12.8 % peak RSS to
    save 0.03-0.2 s.  A caller that needs a block's IR twice keeps it
    for as long as it needs it (``auto_specialize`` hands what its
    translatability walk lowered to the specializer of that subtree,
    and drops it there).  The cache that does not keep instances alive
    is a *body*: one lowering per block body, printed once and bound
    per instance through the translator's read trace
    (``BlockTranslator.holes`` / ``.guards``) — :mod:`.pygen` keeps
    five for mesh64.
    """
    return BlockTranslator(blk.model, blk.func, block_kind(blk)).translate()


def block_kind(blk):
    """The IR kind of a block: ``comb``, ``tick_rtl`` for level
    ``rtl``, ``tick_cl`` for every other tick."""
    return ("comb" if isinstance(blk, _CombBlock)
            else "tick_rtl" if blk.level == "rtl" else "tick_cl")
