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
- arithmetic is masked where the IR says ``Bits`` wraps it (a ``Wrap``
  node, put there once per body: :mod:`.bodies`), and a signal write
  unless the range pass says its value ``fits``: ``(x & mask)``;
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

A block that uses a name the printed function does (:class:`Refused`)
keeps its closure; so does one whose Python types cannot be decided
(:mod:`.bodies` never prints it), one outside the subset
(``TranslationError``) and, by level, a ``tick_cl`` / ``tick_fl``
block: CL state has no form here.
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
    Wrap,
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
_RESERVED = re.compile(r"_(h\d+|v|n|r|j|sf|tf|notify|pending|bind)$"
                       r"|(len|type|tuple|range)$")

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
    ``id(Const | SigRef)`` to the parameter that carries it.  ``expr``
    returns text that evaluates to the unsigned value (the signed one
    for an int).  ``consts`` holds the variables of the unrolled loops
    being printed, each at its value in this copy."""

    def __init__(self, hole_of):
        self.hole_of = hole_of
        self.lines = []
        self.consts = {}
        self.unrolling = False

    # -- references -----------------------------------------------------------

    def net(self, ref):
        hole = f"_h{self.hole_of[id(ref)]}"
        if ref.index is None:
            return hole
        return f"{hole}[{self.expr(ref.index)}]"

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

    def expr(self, node):
        value = None            # a literal: a Const, or an unrolled loop's var
        if isinstance(node, Const) and id(node) not in self.hole_of:
            value = node.value
        elif isinstance(node, LocalRead) and node.index is None:
            value = self.consts.get(node.name)
        if value is not None:
            return f"({value})" if value < 0 else str(value)
        if isinstance(node, Const):
            return f"_h{self.hole_of[id(node)]}"
        if isinstance(node, SigRead):
            return self.read(node.ref)
        if isinstance(node, LocalRead):
            if node.index is not None:
                return f"{node.name}[{self.expr(node.index)}]"
            return node.name
        if isinstance(node, (BinOp, Cmp)):
            left, right = self.expr(node.left), self.expr(node.right)
            return f"({left} {node.op} {right})"
        if isinstance(node, Wrap):
            return f"({self.expr(node.expr)} & {_mask(node.width)})"
        if isinstance(node, UnOp):
            text = self.expr(node.operand)
            return f"({'not ' if node.op == '!' else node.op}{text})"
        if isinstance(node, BoolOp):
            word = " and " if node.op == "&&" else " or "
            return f"({word.join(map(self.expr, node.values))})"
        if isinstance(node, IfExp):
            return (f"({self.expr(node.then)} if {self.expr(node.cond)} "
                    f"else {self.expr(node.orelse)})")
        if isinstance(node, Concat):
            shift = sum(width for _, width in node.parts)
            parts = []
            for part, width in node.parts:
                shift -= width
                text = self.expr(part)
                parts.append(f"({text} << {shift})" if shift else text)
            return f"({' | '.join(parts)})"
        raise Refused(f"no Python form for {type(node).__name__}")

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
                else f"{node.name}[{self.expr(node.index)}]"
            self.emit(pad, f"{target} = {self.expr(node.expr)}")
        elif isinstance(node, DeclLocalArray):
            self.emit(pad, f"{node.name} = [{node.init.value}] * {node.size}")
        elif isinstance(node, If):
            self.emit(pad, f"if {self.expr(node.cond)}:")
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
        shapes, masked unless the range pass says the value ``fits``.
        The value is evaluated before the target, as Python does."""
        ref = node.ref
        width = ref.width
        value = self.expr(node.expr)
        if not node.fits:
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


# -- the function, and one instance of it --------------------------------------


def print_function(ir, func, hole_of, nholes):
    """Source lines of ``ir`` (block ``func``'s lowering) as a function
    of ``_h0`` .. (``hole_of``: ``id`` of an IR leaf -> its hole),
    ``_notify``, ``_pending``, ``_sf`` and ``_tf``; raises
    :class:`Refused` where the block keeps its closure.  ``ir`` is
    ``Bits``-exact already: its ``Wrap`` nodes and ``fits`` say where."""
    for name in (func.__name__, *ir.locals):
        if _RESERVED.match(name):
            raise Refused(f"the block's name {name!r} is one the "
                          f"lowered function uses")
    printer = _Printer(hole_of)
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
