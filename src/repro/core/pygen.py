"""Lowered blocks: the plain-int Python backend of :mod:`.ast_ir`.

The CPython simulator used to run the user's block closures as they
were written: every ``s.count.uint()`` a property, every ``s.a + s.b``
two ``Bits`` allocations, every ``.value =`` a setter around
``_Net.write``.  This backend prints a lowered ``@combinational`` or
``@tick_rtl`` block as a Python function over plain ints instead —

- a signal read is ``net._value`` (a slice a shift and a folded mask, a
  dynamically indexed signal list a tuple of nets);
- a combinational write ``if _v != _n._value:`` stores ``_v`` and marks
  the net's readers in the simulator's flag arrays in place (``for _j
  in _n.sreaders: _sf[_j] = 1``, the same for ``treaders`` / ``_tf``),
  calling ``_notify`` only ``if _n.blocks`` (an event-partition
  reader); no ``_sdirty``, since it runs inside a static sweep, which
  goes on to the later slots it marks;
- a ``.next`` write always stores ``_n._next = _v`` but enters the
  pending-flop dict only ``if _v != _n._value`` — ``_Net.write_next``'s
  rule, printed, so a lowered block and a closure, adapter or engine
  writing the same net agree: last-writer-safe, a net pending from an
  earlier write keeps its entry, and the clock edge compares ``_next``
  to ``_value`` anyway;
- arithmetic is masked exactly where ``Bits`` would wrap it, by the
  types :func:`~.ast_ir.infer_types` gives each expression;
- a ``for`` of at most ``_MAX_TRIPS`` trips whose body has no ``break``
  / ``continue`` of its own and never assigns the variable prints
  unrolled (a body per trip, the variable a literal, then ``var =
  last``) while the function stays within ``_MAX_LINES`` lines —

and :class:`~.simulation.SimulationTool` holds the result in its static
order and tick plan in place of the closure.  Storage stays the
``_Net`` objects, so probes, VCD, checkpoints and the event partition
see one store.

One printing serves every instance of a block body
(:mod:`.bodies`): :func:`print_function` prints a body's lowering once,
with the holes of its read trace (nets, tuples of nets, int constants)
as the function's parameters, and :func:`instantiate` gives each
instance the same code object with its own holes as the parameter
defaults.

A block whose Python types cannot be decided (``TypeUndecided``) or
that uses a name the printed function does (:class:`Refused`) keeps its
closure; so does one outside the subset (``TranslationError``) and,
by level, a ``tick_cl`` / ``tick_fl`` block: CL state has no form here.
"""

from __future__ import annotations

import re
from types import FunctionType

from .ast_ir import (
    AssignLocal,
    AssignSig,
    BinOp,
    BoolOp,
    Break,
    Cmp,
    Concat,
    Const,
    Continue,
    DeclLocalArray,
    For,
    If,
    IfExp,
    LocalRead,
    SigRead,
    UnOp,
    cast_type,
    infer_types,
    walk_stmts,
)


class Refused(Exception):
    """Why a block keeps its closure."""


def _root(sig):
    net = sig._net
    return net if net.parent is net else net.find()


def _mask(width):
    return hex((1 << width) - 1)


# -- printing a block -----------------------------------------------------------


#: Names a block or one of its locals may not have: the printed
#: function's own, and the builtins it and its bind call.
_RESERVED = re.compile(r"_(h\d+|s\d+|v|n|r|j|sf|tf|notify|pending|bind)$"
                       r"|(len|type|tuple|range)$")
_SIMPLE = re.compile(r"[\w.]+$")

#: A ``for`` of at most this many trips prints unrolled ...
_MAX_TRIPS = 8
#: ... while the function body stays within this many lines (RouterRTL's
#: ``switch_logic``, 5x5 arbitration nest and all, prints in 600).
_MAX_LINES = 640


class _OverBudget(Exception):
    """Unrolling took the function past ``_MAX_LINES``."""


def _unrollable(loop):
    """Whether ``loop``'s body has no ``break`` / ``continue`` of its
    own and never assigns the loop variable."""
    def exits(stmts):
        return any(isinstance(stmt, (Break, Continue))
                   or isinstance(stmt, If)
                   and (exits(stmt.body) or exits(stmt.orelse))
                   for stmt in stmts)
    return not exits(loop.body) and not any(
        (stmt.var if isinstance(stmt, For) else stmt.name) == loop.var
        for stmt in walk_stmts(loop.body)
        if isinstance(stmt, (AssignLocal, DeclLocalArray, For)))


class _Printer:
    """IR -> the statements of the lowered function.  ``hole_of`` maps
    ``id(Const | SigRef)`` to the parameter that carries it.

    ``expr`` returns ``(text, bound)``: ``text`` evaluates to the
    unsigned value (the signed one for an int), and a ``bound`` that is
    not None says it is an ``int`` object in ``[0, 2**bound)`` — such a
    value is stored without a mask.  ``consts`` holds the variables of
    the unrolled loops being printed, each at its value in this copy."""

    def __init__(self, ir, types, hole_of):
        self.ir = ir
        self.types = types
        self.hole_of = hole_of
        self.lines = []
        self.ntemps = 0
        self.consts = {}
        self.unrolling = False

    # -- references -----------------------------------------------------------

    def net(self, ref):
        hole = f"_h{self.hole_of[id(ref)]}"
        if ref.index is None:
            return hole
        return f"{hole}[{self.expr(ref.index)[0]}]"

    @staticmethod
    def _full(ref):
        return ref.lo == 0 and ref.width == ref.signals[0].nbits

    def read(self, ref):
        base = f"{self.net(ref)}._value"
        if self._full(ref):
            return base
        if ref.lo == 0:
            return f"({base} & {_mask(ref.width)})"
        return f"(({base} >> {ref.lo}) & {_mask(ref.width)})"

    # -- expressions ----------------------------------------------------------

    def seen(self, node):
        return cast_type(self.ir.casts, node, self.types[id(node)])

    def literal(self, node):
        """The value of a ``Const`` or unrolled loop variable printed as
        a literal, else None."""
        if isinstance(node, Const) and id(node) not in self.hole_of:
            return node.value
        if isinstance(node, LocalRead) and node.index is None:
            return self.consts.get(node.name)
        return None

    def expr(self, node):
        value = self.literal(node)
        if value is not None:
            if value < 0:
                return f"({value})", None
            return str(value), value.bit_length()
        if isinstance(node, Const):
            return f"_h{self.hole_of[id(node)]}", None
        if isinstance(node, SigRead):
            return self.read(node.ref), node.ref.width
        if isinstance(node, LocalRead):
            if node.index is not None:
                return f"{node.name}[{self.expr(node.index)[0]}]", None
            return node.name, None
        if isinstance(node, BinOp):
            return self.binop(node)
        if isinstance(node, UnOp):
            text, _ = self.expr(node.operand)
            if node.op == "!":
                return f"(not {text})", None
            ty = self.types[id(node)]
            if ty.kind != "bits":
                return f"({node.op}{text})", None
            if node.op == "~":
                return f"({text} ^ {_mask(ty.width)})", ty.width
            return f"(-{text} & {_mask(ty.width)})", ty.width
        if isinstance(node, Cmp):
            return (f"({self.expr(node.left)[0]} {node.op} "
                    f"{self.expr(node.right)[0]})"), None
        if isinstance(node, BoolOp):
            parts = [self.expr(v) for v in node.values]
            word = " and " if node.op == "&&" else " or "
            return (f"({word.join(text for text, _ in parts)})",
                    _widest(bound for _, bound in parts))
        if isinstance(node, IfExp):
            then, orelse = self.expr(node.then), self.expr(node.orelse)
            return (f"({then[0]} if {self.expr(node.cond)[0]} "
                    f"else {orelse[0]})", _widest((then[1], orelse[1])))
        if isinstance(node, Concat):
            shift = total = sum(width for _, width in node.parts)
            parts = []
            for part, width in node.parts:
                shift -= width
                text = self.expr(part)[0]
                parts.append(f"({text} << {shift})" if shift else text)
            return f"({' | '.join(parts)})", total
        raise Refused(f"no Python form for {type(node).__name__}")

    def binop(self, node):
        op = node.op
        (left, lbound), (right, rbound) = (self.expr(node.left),
                                           self.expr(node.right))
        ty = self.types[id(node)]
        if ty.kind != "bits":
            # Plain ints: Python's own arithmetic.
            bound = None
            if op == "&":
                bound = min((b for b in (lbound, rbound) if b is not None),
                            default=None)
            elif op == ">>":
                bound = lbound
            return f"({left} {op} {right})", bound
        lty, rty = self.seen(node.left), self.seen(node.right)
        width = ty.width
        if op in ("//", "%"):
            if rty.kind == "int":
                right = self.masked(node.right, right, lty.width)
            return f"({left} {op} {right})", width
        if op == ">>":
            return f"({left} >> {right})", width
        if op == "<<":
            # Bits.__lshift__: 0 once the amount reaches the width.
            by = self.literal(node.right)
            if by is not None and by >= width:
                return "0", 0
            if by is not None and by >= 0:
                return f"(({left} << {by}) & {_mask(width)})", width
            test = right
            if not _SIMPLE.match(right):
                right = f"_s{self.ntemps}"
                self.ntemps += 1
                test = f"({right} := {test})"
            return (f"((({left} << {right}) & {_mask(width)}) "
                    f"if {test} < {width} else 0)"), width
        # Ring operators.  An int operand is masked to the Bits
        # operand's width first, which the mask of the result makes
        # redundant; & cannot widen, | and ^ only by an int operand.
        wrap = op in ("+", "-", "*")
        if op in ("|", "^"):
            for sub, sty in ((node.left, lty), (node.right, rty)):
                value = self.literal(sub)
                if sty.kind == "int" and not (
                        value is not None and 0 <= value < 1 << width):
                    wrap = True
        if wrap:
            return f"(({left} {op} {right}) & {_mask(width)})", width
        return f"({left} {op} {right})", width

    def masked(self, node, text, width):
        value = self.literal(node)
        if value is not None:
            return str(value & ((1 << width) - 1))
        return f"({text} & {_mask(width)})"

    # -- statements -----------------------------------------------------------

    def emit(self, pad, text):
        self.lines.append(" " * pad + text)
        if self.unrolling and len(self.lines) > _MAX_LINES:
            raise _OverBudget

    def block(self, stmts, pad):
        mark = len(self.lines)
        for stmt in stmts:
            self.stmt(stmt, pad)
        if len(self.lines) == mark:     # nothing, or only 0-trip loops
            self.emit(pad, "pass")

    def stmt(self, node, pad):
        if isinstance(node, AssignSig):
            self.assign_sig(node, pad)
        elif isinstance(node, AssignLocal):
            target = node.name if node.index is None \
                else f"{node.name}[{self.expr(node.index)[0]}]"
            self.emit(pad, f"{target} = {self.expr(node.expr)[0]}")
        elif isinstance(node, DeclLocalArray):
            self.emit(pad, f"{node.name} = [{node.init.value}] * {node.size}")
        elif isinstance(node, If):
            self.emit(pad, f"if {self.expr(node.cond)[0]}:")
            self.block(node.body, pad + 4)
            if node.orelse:
                self.emit(pad, "else:")
                self.block(node.orelse, pad + 4)
        elif isinstance(node, For):
            self.loop(node, pad)
        elif isinstance(node, Break):
            self.emit(pad, "break")
        elif isinstance(node, Continue):
            self.emit(pad, "continue")
        else:
            raise Refused(f"no Python form for {type(node).__name__}")

    def loop(self, node, pad):
        """A ``For``, unrolled by the rule of the module docstring or
        else as a ``range`` loop.  An unrolling that runs over the line
        budget is undone by the outermost loop unrolling, which prints
        rolled and lets its inner loops try on their own."""
        trips = range(node.start, node.stop, node.step)
        if len(trips) <= _MAX_TRIPS and _unrollable(node):
            mark, outer = len(self.lines), self.unrolling
            self.unrolling = True
            try:
                for value in trips:
                    self.consts[node.var] = value
                    for stmt in node.body:
                        self.stmt(stmt, pad)
                if trips:
                    self.emit(pad, f"{node.var} = {trips[-1]}")
                return
            except _OverBudget:
                del self.lines[mark:]
                if outer:
                    raise
            finally:
                self.consts.pop(node.var, None)
                self.unrolling = outer
        self.emit(pad, f"for {node.var} in range({node.start}, "
                       f"{node.stop}, {node.step}):")
        self.block(node.body, pad + 4)

    def assign_sig(self, node, pad):
        """``_Net.write`` / ``write_next`` (and the read-modify-write
        of ``_SignalSlice``'s setters), inline, in the module docstring's
        shapes.  The value is evaluated before the target, as Python does."""
        ref = node.ref
        width = ref.width
        value, bound = self.expr(node.expr)
        if bound is None or bound > width:
            value = f"{value} & {_mask(width)}"
        net = self.net(ref)
        if ref.index is not None:
            self.emit(pad, f"_v = {value}")
            self.emit(pad, f"_n = {net}")
            value, net = "_v", "_n"
        if not self._full(ref):
            keep = f"~{hex(((1 << width) - 1) << ref.lo)}"
            shifted = f"(({value}) << {ref.lo})" if ref.lo else f"({value})"
            base = (f"{net}._next if {net} in _pending else {net}._value"
                    if node.is_next else f"{net}._value")
            self.emit(pad, f"_r = {base}")
            self.emit(pad, f"_v = (_r & {keep}) | {shifted}")
        elif value != "_v":
            self.emit(pad, f"_v = {value}")
        if node.is_next:
            self.emit(pad, f"{net}._next = _v")
            self.emit(pad, f"if _v != {net}._value:")
            self.emit(pad + 4, f"_pending[{net}] = True")
            return
        self.emit(pad, f"if _v != {net}._value:")
        self.emit(pad + 4, f"{net}._value = _v")
        self.emit(pad + 4, f"for _j in {net}.sreaders: _sf[_j] = 1")
        self.emit(pad + 4, f"for _j in {net}.treaders: _tf[_j] = 1")
        self.emit(pad + 4, f"if {net}.blocks: _notify({net})")


def _widest(bounds):
    bounds = list(bounds)
    return None if None in bounds else max(bounds)


# -- the function, and one instance of it --------------------------------------


def print_function(ir, func, hole_of, nholes):
    """Source lines of ``ir`` (block ``func``'s lowering) as a function
    of ``_h0`` .. (``hole_of``: ``id`` of an IR leaf -> its hole),
    ``_notify``, ``_pending``, ``_sf`` and ``_tf``; raises
    :class:`Refused` or ``TypeUndecided`` where the block keeps its
    closure."""
    types = infer_types(ir)
    for name in (func.__name__, *ir.locals):
        if _RESERVED.match(name):
            raise Refused(f"the block's name {name!r} is one the "
                          f"lowered function uses")
    printer = _Printer(ir, types, hole_of)
    printer.block(ir.body, 4)
    code = func.__code__
    doc = (f"lowered from {code.co_filename}:{code.co_firstlineno} "
           f"({func.__qualname__})")
    params = [f"_h{i}=None" for i in range(nholes)]
    params += ["_notify=None", "_pending=None", "_sf=None", "_tf=None"]
    return ["", "",
            f"def {func.__name__}({', '.join(params)}):",
            f"    {doc!r}",
            *printer.lines]


def instantiate(template, func, holes, sim):
    """A body's printed ``template`` as block ``func``'s lowered
    function, bound to its ``holes`` (a signal stands for its net) and
    to simulator ``sim``'s ``_notify``, pending-flop dict and flag
    arrays (which it only ever mutates in place)."""
    args = [tuple(map(_root, hole)) if type(hole) is tuple
            else hole if isinstance(hole, int) else _root(hole)
            for hole in holes]
    lowered = FunctionType(template.__code__, template.__globals__,
                           func.__name__,
                           (*args, sim._notify, sim._pending_flops,
                            sim._sflags, sim._tflags))
    lowered.__qualname__ = func.__qualname__
    return lowered
