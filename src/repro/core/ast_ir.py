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
body, whatever backend or tool asks.

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
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .elaboration import block_shape
from .model import _CombBlock
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
    #: No operand after the first can fault, by the range pass: every
    #: dynamic index under it stays inside its array or table, every
    #: divisor is non-zero — so C may evaluate them all, branch-free
    #: (:class:`_Spans` decides).
    eager: bool = False


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
    #: the first local :class:`_Spans` sees given a value C may not
    #: compute right as an ``int64_t`` (C's locals), or None
    wide_local: str = None
    #: the first CL state attribute it sees given one (C's CL state is
    #: ``int64_t`` too), or None
    wide_state: str = None
    #: what else C may compute wrong, a signal write, a condition or an
    #: index made of a value C's ``u128`` / ``int64_t`` does not hold
    #: (its description), or None
    wide_value: str = None
    #: ``id`` of each constant hole a range fact (``BinOp.nonneg``,
    #: ``BoolOp.eager``, ``AssignSig.fits``, a value C computes right)
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
        raise TranslationError(f"(line {line}): {why}",
                               f"{self.model.full_name()}.{self.ir.name}")

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
            if not all(self._is_bit(v, bits) for node in self._value_boolops
                       for v in node.values):
                decided = self.guards       # what the choice read, too
                self._bit_locals = bits
                self._reset()
                self.guards = decided
                self.ir.body = self.stmt_list(self.func_def.body)
        return self.ir

    def _is_bit(self, node, bit_locals):
        """:func:`_is_bit`, guarding every constant hole it read: C
        prints ``bit and s.k`` by ``s.k``'s value."""
        consts = []
        bit = _is_bit(node, bit_locals, consts)
        for leaf, source, _ in self.holes:
            if any(leaf is const for const in consts):
                self.guards.append(source)
        return bit

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
                    if all(e is not None and self._is_bit(e, bits)
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
        if step == 0:
            self.fail(node, "range() step must not be zero")
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
                self._is_bit(v, self._bit_locals) for v in values):
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
            if isinstance(idx, (int, bool)) and isinstance(base, list) \
                    and idx < len(base):    # else _index_obj says why not
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


def _copy_as_load(node):
    """Shallow-copy an assignment target as a Load-context expression."""
    new = copy.deepcopy(node)
    for sub in ast.walk(new):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return new


def _is_bit(node, bit_locals, consts):
    """Whether ``node`` is statically 0/1-valued, given the locals
    that are; appends every ``Const`` it read to ``consts``."""
    if isinstance(node, Const):
        consts.append(node)
        return node.value in (0, 1)
    if isinstance(node, Cmp):
        return True
    if isinstance(node, UnOp):
        return node.op == "!"
    if isinstance(node, BoolOp):
        return all(_is_bit(v, bit_locals, consts) for v in node.values)
    if isinstance(node, SigRead):
        return node.ref.width == 1
    if isinstance(node, LocalRead):
        return node.index is None and node.name in bit_locals
    if isinstance(node, IfExp):
        return (_is_bit(node.then, bit_locals, consts)
                and _is_bit(node.orelse, bit_locals, consts))
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
    records every fact of a value's size a printer reads.  ``hole_of``
    names (by ``id``) the ``Const`` leaves a sibling may fill with
    another value, ``fixed`` those of them a guard holds to this value
    (the range pass reads both)."""
    typer = _Typer(ir, hole_of)
    typer.stmts(ir.body)
    for node in walk_stmts(ir.body):
        typer.exact(node)
        if isinstance(node, AssignSig):
            node.expr = _absorb(node.expr, node.ref.width)
    _Spans(ir, hole_of, fixed).run(ir)
    return ir


class _Flow:
    """A walk of a body in program order that keeps ``self.env``, a
    fact per scalar local: the facts of two paths meet (``join``) at an
    ``if`` merge and at a loop head, where ``break`` / ``continue``
    bring theirs, to a fixpoint over the back edge (``widen`` makes one
    where the facts could grow without end), or until the walks have
    accounted for every trip (``settled``).  A subclass says what a
    statement (``simple``), a condition (``cond``) and a loop variable
    at the top of each trip (``loop_var``) do to the facts.  After the
    loop a local holds what the head's fixpoint says, the loop
    variable included: its last value, as in Python and in the C
    ``cgen`` prints."""

    def stmts(self, body):
        for stmt in body:
            self.stmt(stmt)

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
    join = staticmethod(_join_envs)

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
        around it, once (an ``and`` / ``or`` value shares its operands)."""
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


# -- value ranges ---------------------------------------------------------------


class Span(NamedTuple):
    """What the range pass knows of an int value: it lies in ``[lo,
    hi)``, a bound None where none is known.  ``holes`` are the ``id``
    of the constant holes the bounds were read from.  ``truth``: Python
    may hold it as a ``bool`` (a comparison or ``not``, and ``& | ^``,
    ``and`` / ``or`` or a conditional of such), which a signal write
    masks to the int a closure's write stores."""

    lo: int = None
    hi: int = None
    holes: frozenset = frozenset()
    truth: bool = False


ANY = Span()
_TRUTH = Span(0, 2, truth=True)
#: The widest shift amount the pass follows (a bound past it is none).
_SHIFT_CAP = 128
#: The trips of a loop the pass walks one by one before it widens.
_TRIP_WALKS = 256
#: Where C needs a bound a constant hole's class ``[0, 2**63)`` does
#: not give, a hole whose value fits this many bits is any value that
#: does, and failing that, its value.
_NARROW_BITS = 32


def _within(span, size, low=0):
    """Whether ``span`` lies in ``[low, size)``."""
    return (span.lo is not None and span.lo >= low and span.hi is not None
            and span.hi <= size)


def _hull(a, b):
    return Span(None if None in (a.lo, b.lo) else min(a.lo, b.lo),
                None if None in (a.hi, b.hi) else max(a.hi, b.hi),
                a.holes | b.holes, a.truth or b.truth)


def _arith(op, a, b):
    """The span of Python's ``a op b`` from the operands'.  A
    right operand that makes Python raise (a zero divisor, a negative
    shift) leaves no value to bound."""
    (alo, ahi, *_), (blo, bhi, *_) = a, b
    apos = alo is not None and alo >= 0
    bpos = blo is not None and blo >= 0
    lo = hi = None
    if op == "+":
        lo = None if None in (alo, blo) else alo + blo
        hi = None if None in (ahi, bhi) else ahi + bhi - 1
    elif op == "-":
        lo = None if None in (alo, bhi) else alo - bhi + 1
        hi = None if None in (ahi, blo) else ahi - blo
    elif op == "*":
        if None not in (alo, ahi, blo, bhi):
            corners = [x * y for x in (alo, ahi - 1) for y in (blo, bhi - 1)]
            lo, hi = min(corners), max(corners) + 1
        elif apos and bpos:
            lo = alo * blo
    elif op == "&":
        # Non-negative, and no more than, an operand that is.
        if apos or bpos:
            lo = 0
            hi = min((h for pos, h in ((apos, ahi), (bpos, bhi))
                      if pos and h is not None), default=None)
    elif op in ("|", "^"):
        if apos and bpos:
            lo = 0
            if None not in (ahi, bhi):
                hi = 1 << max(ahi - 1, bhi - 1).bit_length()
    elif op == ">>":
        if apos:
            lo = alo >> bhi - 1 if bhi is not None and \
                1 <= bhi <= _SHIFT_CAP else 0
            hi = None if ahi is None else \
                (ahi - 1 >> min(max(blo or 0, 0), _SHIFT_CAP)) + 1
    elif op == "<<":
        if apos and bpos and blo <= _SHIFT_CAP:
            lo = alo << blo
            if None not in (ahi, bhi) and bhi - 1 <= _SHIFT_CAP:
                hi = (ahi - 1 << bhi - 1) + 1
    elif op == "%":
        if bpos:
            lo = 0
            hi = min((h for h in (None if bhi is None else bhi - 1,
                                  ahi if apos else None) if h is not None),
                     default=None)
    elif op == "//":
        if apos and bpos:
            lo = 0 if bhi is None or bhi < 2 else alo // (bhi - 1)
            hi = None if ahi is None else (ahi - 1) // max(blo, 1) + 1
    return Span(lo, hi, a.holes | b.holes,
                op in ("&", "|", "^") and a.truth and b.truth)


class _Spans(_Flow):
    """The range pass: a conservative span (:class:`Span`) per int
    expression of a ``Bits``-exact IR, whose every operator is Python's
    on ints.  Its leaves are signal reads and wraps (``[0, 2**w)``),
    constants, ``range()`` loop variables and locals (flow-sensitive:
    joined at merges; at a loop head, walked once per trip up to
    ``_TRIP_WALKS`` trips, past that widened to no bound where one
    grows, and such a local is wide for C); a CL state variable, an
    array element or an unset local is unbounded.  A constant hole a
    guard fixes is its value; any other is only as known as its class,
    ``[0, 2**63)`` (or unbounded), so siblings that differ in it still
    share the body, unless C needs it known closer (:meth:`exact`).
    It records the facts the printers read (``AssignSig.fits``,
    ``BinOp.nonneg``, ``BoolOp.eager``, and what C may compute wrong,
    ``BlockIR.wide_local`` / ``wide_state`` / ``wide_value``: see
    :meth:`exact`).
    A fact read from a hole's class names the hole in
    ``BlockIR.fact_holes``."""

    def __init__(self, ir, hole_of, fixed, holes="class"):
        self.ir, self.hole_of, self.fixed = ir, hole_of, fixed
        self.locals = ir.locals
        self.env = {}              # scalar local -> Span
        self.exits = []
        self.spans = {}            # id(expression) -> Span, last walk's
        # What a constant hole is: its class, or (walks of their own,
        # which :meth:`exact` asks for) its narrow class or its value,
        # named ``(id, _NARROW_BITS)`` / ``(id, None)`` in a span.
        self.holes = holes
        self.rejudged = {}         # holes -> that walk's spans
        self.ctypes = {}           # id(expression) -> its C type
        # id(node), or (id, "c") for what C computes -> (the node, or the
        # name the IR's fact gives; the fact; holes | None)
        self.facts = {}

    def run(self, ir):
        """Walk ``ir``'s body; set the facts, ``ir.wide_local`` /
        ``wide_state`` / ``wide_value`` and ``ir.fact_holes``."""
        self.stmts(ir.body)
        holes = frozenset()
        for target, fact, read in self.facts.values():  # first walked first
            holes |= read or frozenset()
            if not fact.startswith("wide"):
                setattr(target, fact, read is not None)
            elif read is None and getattr(ir, fact) is None:
                setattr(ir, fact, target)    # a name, or what it is
        for hole in holes:
            hole, bits = hole if type(hole) is tuple else (hole, 63)
            old = ir.fact_holes.get(hole, 63)
            ir.fact_holes[hole] = None if None in (bits, old) \
                else min(bits, old)

    def rejudge(self, holes):
        """The spans of the body with its constant holes ``holes``
        (``"narrow"`` or ``"value"``), walked the first time asked."""
        if holes not in self.rejudged:
            walk = _Spans(self.ir, self.hole_of, self.fixed, holes)
            walk.stmts(self.ir.body)
            self.rejudged[holes] = walk.spans
        return self.rejudged[holes]

    @staticmethod
    def join(*envs):
        out = {}
        for env in envs:
            for name, span in env.items():
                out[name] = _hull(out[name], span) if name in out else span
        return out

    @staticmethod
    def settled(node, walks):
        return walks >= len(range(node.start, node.stop, node.step))

    def widen(self, entry, merged, node, walks):
        """For ``_TRIP_WALKS`` walks a walk is one trip more and the
        bounds grow as the values do.  Past that a bound that grew is
        none, which the head's fixpoint reaches in a few walks; a local
        whose bound grew so is wide for C (its store is not judged by a
        span that says nothing of how far the trips left take it)."""
        if walks < _TRIP_WALKS:
            return merged
        out = dict(merged)
        for name, span in merged.items():
            old = entry.get(name)
            if old is not None and span[:2] != old[:2]:
                out[name] = span._replace(
                    lo=None if span.lo != old.lo else span.lo,
                    hi=None if span.hi != old.hi else span.hi)
                self.facts[id(node), name] = name, "wide_local", None
        return out

    @staticmethod
    def loop_var(node):
        if node.step > 0:
            return Span(node.start, max(node.stop, node.start))
        return Span(node.stop + 1, max(node.start, node.stop) + 1)

    def cond(self, node):
        self.span(node)
        if self.holes == "class":
            self.facts[id(node), "c"] = "a condition", "wide_value", \
                self.exact(node)

    def simple(self, node):
        if isinstance(node, AssignLocal) and node.index is None:
            self.env[node.name] = self.span(node.expr)
        elif isinstance(node, DeclLocalArray):
            self.span(node.init)
        else:
            for holder, key in _operands(node):
                self.span(holder[key])
        if self.holes != "class":
            return                 # a walk that judges again: spans only
        if isinstance(node, AssignSig):
            span = self.spans[id(node.expr)]
            self.facts[id(node)] = node, "fits", (
                span.holes if _within(span, 1 << node.ref.width)
                and not span.truth else None)
            self.facts[id(node), "c"] = (
                f"a {node.ref.width}-bit signal write", "wide_value",
                self.held(node.expr, 64 if node.ref.width <= 64 else 128))
        elif isinstance(node, AssignState):
            self.facts[id(node)] = (node.ref.name, "wide_state",
                                    self.fits64(node.expr))
        else:                      # a local or local array element
            self.facts[id(node)] = node.name, "wide_local", self.fits64(
                node.init if isinstance(node, DeclLocalArray) else node.expr)
        for holder, key in _operands(getattr(node, "ref", node)):
            if key == "index":
                self.facts[id(holder[key]), "c"] = (
                    "an index", "wide_value", self.exact(holder[key]))

    def span(self, node):
        span = self.spans[id(node)] = self._span(node)
        return span

    def _span(self, node):
        for kid in _children(node):
            self.span(kid)
        got = self.spans.get
        if isinstance(node, Const):
            if id(node) not in self.hole_of or id(node) in self.fixed:
                return Span(node.value, node.value + 1)
            # A sibling fills it: what a guard may hold is its class.
            if self.holes == "value":
                return Span(node.value, node.value + 1,
                            frozenset([(id(node), None)]))
            if self.holes == "narrow" and \
                    0 <= node.value < 1 << _NARROW_BITS:
                return Span(0, 1 << _NARROW_BITS,
                            frozenset([(id(node), _NARROW_BITS)]))
            return Span(0, 1 << 63, frozenset([id(node)])) \
                if 0 <= node.value < 1 << 63 else ANY
        if isinstance(node, SigRead):
            return Span(0, 1 << node.ref.width)
        if isinstance(node, LocalRead) and node.index is None:
            return self.env.get(node.name, ANY)
        if isinstance(node, Wrap):
            inner = got(id(node.expr))
            return inner._replace(truth=False) if _within(
                inner, 1 << node.width) else Span(0, 1 << node.width)
        if isinstance(node, BinOp):
            left, right = got(id(node.left)), got(id(node.right))
            if node.op in ("//", "%"):
                self.facts[id(node)] = node, "nonneg", (
                    left.holes | right.holes if not node.unsigned and all(
                        _within(side, 1 << 63) for side in (left, right))
                    else None)
            return _arith(node.op, left, right)
        if isinstance(node, UnOp):
            lo, hi, holes, _ = got(id(node.operand))
            if node.op == "!":
                return _TRUTH
            if node.op == "-":
                return Span(None if hi is None else 1 - hi,
                            None if lo is None else 1 - lo, holes)
            return Span(None if hi is None else -hi,
                        None if lo is None else -lo, holes)
        if isinstance(node, (Cmp, BoolOp)):
            if isinstance(node, BoolOp):
                self.facts[id(node)] = node, "eager", self.cannot_fault(
                    node.values[1:])
                # 0/1 in C and in Python (the lowering's), as Python
                # gives an operand: a bool where one may be
                return Span(0, 2, truth=any(
                    got(id(value)).truth for value in node.values))
            return _TRUTH
        if isinstance(node, IfExp):
            return _hull(got(id(node.then)), got(id(node.orelse)))
        if isinstance(node, Concat):
            return Span(0, 1 << sum(width for _, width in node.parts))
        return ANY                   # CL state, an array element

    def fits64(self, node):
        """The holes whose classes say C stores ``node``'s value right
        in an ``int64_t`` (a local, an array element, CL state), or None
        where it may not: :meth:`exact` as that type."""
        return self.exact(node, "int64_t")

    def exact(self, node, ctype=None):
        """The holes whose classes say C computes ``node``'s value as
        Python does, as ``ctype`` (``"u128"`` or ``"int64_t"``; where
        None, the type C computes it in, :meth:`c_type`), or None where
        it may not: where its span has a bound outside that type that no
        hole's class supplied, or where C may compute it wrong modulo
        that type's size (:meth:`held`).  A read of a local, an array
        element or CL state is taken to be exact (C holds each so).  A
        bound a hole's class supplied is judged again with each hole
        whose value fits ``_NARROW_BITS`` bits in that narrower class,
        then with each at its value, and its guard holds it there (a
        sibling shares the body only where the judgement holds too)."""
        ctype = ctype or self.c_type(node)
        low, high = (0, 1 << 128) if ctype == "u128" else (-1 << 63, 1 << 63)
        lo, hi, holes, _ = span = self.spans[id(node)]
        for again in ("narrow", "value"):
            if _within(span, high, low) or not holes \
                    or self.holes != "class":
                break
            lo, hi, holes, _ = span = self.rejudge(again)[id(node)]
        if not _within(span, high, low) \
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
        if keep > 64 and self.c_type(node) == "int64_t":
            return self.exact(node)
        if isinstance(node, BinOp) and node.op in ("<<", ">>"):
            # C shifts by less than its type's width, or not at all
            _, hi, read, _ = self.spans[id(node.right)]
            if not read and hi is not None and hi > (
                    128 if self.c_type(node.left) == "u128" else 64):
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
        if isinstance(node, Cmp):      # C compares both as one type
            ctype = "u128" if "u128" in (
                self.c_type(node.left), self.c_type(node.right)) \
                else "int64_t"
            return [(node.left, ctype), (node.right, ctype)]
        # ``>>``, ``not``, ``and`` / ``or``, an index: the value itself
        return [(kid, None) for kid in _children(node)]

    def c_type(self, node):
        """The type C computes ``node`` in, ``"u128"`` or ``"int64_t"``,
        as ``cgen`` prints it: a net read, a mask, a concatenation, an
        unsigned division and a constant past ``int64_t`` are ``u128``,
        and so is an operator with such an operand (a shift's left
        one)."""
        if id(node) in self.ctypes:
            return self.ctypes[id(node)]
        if isinstance(node, (SigRead, Wrap, Concat)):
            wide = True
        elif isinstance(node, Const):
            wide = node.value >= 1 << 63
        elif isinstance(node, BinOp) and node.op in ("//", "%"):
            wide = node.unsigned
        elif isinstance(node, BinOp):
            wide = self.c_type(node.left) == "u128" or node.op not in (
                "<<", ">>") and self.c_type(node.right) == "u128"
        elif isinstance(node, UnOp):
            wide = node.op != "!" and self.c_type(node.operand) == "u128"
        elif isinstance(node, IfExp):
            wide = "u128" in (self.c_type(node.then),
                              self.c_type(node.orelse))
        else:
            wide = False           # a local, CL state, a truth value
        ctype = self.ctypes[id(node)] = "u128" if wide else "int64_t"
        return ctype

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
                index, size = node.index, self.locals[node.name][1]
            elif isinstance(node, SigRead) and ref.index is not None:
                index, size = ref.index, len(ref.signals)
            elif isinstance(node, StateRead) and ref.index is not None:
                index, size = ref.index, len(getattr(ref.model, ref.name))
            elif isinstance(node, BinOp) and node.op in ("//", "%"):
                lo, hi, read, _ = self.spans[id(node.right)]
                if not (lo is not None and lo > 0
                        or hi is not None and hi <= 0):
                    return None
                holes |= read
                continue
            else:
                continue
            span = self.spans[id(index)]
            if not _within(span, size):
                return None
            holes |= span.holes
        return holes


def _operands(node):
    """Where ``node`` holds each expression it reads directly:
    ``holder[key]``."""
    ref = getattr(node, "ref", None)
    slots = [(vars(ref), "index")] if getattr(ref, "index", None) else []
    slots += [(vars(node), key) for key in ("index", "left", "right",
                                            "operand", "cond", "then",
                                            "orelse", "expr")
              if type(getattr(node, key, None)) not in (list, type(None))]
    slots += [(node.values, i) for i in range(len(getattr(node, "values",
                                                          ())))]
    return slots + [slot for part, _ in getattr(node, "parts", ())
                    for slot in _operands(part)]


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
