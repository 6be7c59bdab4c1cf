"""Lowered blocks: the plain-int Python backend of :mod:`.ast_ir`.

The CPython simulator used to run the user's block closures as they
were written: every ``s.count.uint()`` a property, every ``s.a + s.b``
two ``Bits`` allocations, every ``.value =`` a setter around
``_Net.write``.  This backend prints a lowered ``@combinational`` or
``@tick_rtl`` block as a Python function over plain ints instead —

- a signal read is ``net._value`` (a slice a shift and a folded mask, a
  dynamically indexed signal list a tuple of nets);
- a combinational write is ``v = (...) & mask; if v != net._value:
  net._value = v; notify(net)`` and a ``.next`` write ``net._next = v;
  pending[net] = True`` — what ``_Net.write`` / ``write_next`` do;
- arithmetic is masked exactly where ``Bits`` would wrap it, by the
  types :func:`~.ast_ir.infer_types` gives each expression —

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
closure; so does one outside the subset (``TranslationError``) and a
``tick_cl`` / ``tick_fl`` block, which have no body.
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
_RESERVED = re.compile(r"_(h\d+|s\d+|v|n|r|notify|pending|bind)$"
                       r"|(len|type|tuple|range)$")
_SIMPLE = re.compile(r"[\w.]+$")


class _Printer:
    """IR -> the statements of the lowered function.  ``hole_of`` maps
    ``id(Const | SigRef)`` to the parameter that carries it.

    ``expr`` returns ``(text, bound)``: ``text`` evaluates to the
    unsigned value (the signed one for an int), and a ``bound`` that is
    not None says it is an ``int`` object in ``[0, 2**bound)`` — such a
    value is stored without a mask."""

    def __init__(self, ir, types, hole_of):
        self.ir = ir
        self.types = types
        self.hole_of = hole_of
        self.lines = []
        self.ntemps = 0

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
        """The value of a ``Const`` printed as a literal, else None."""
        if isinstance(node, Const) and id(node) not in self.hole_of:
            return node.value
        return None

    def expr(self, node):
        if isinstance(node, Const):
            if id(node) in self.hole_of:
                return f"_h{self.hole_of[id(node)]}", None
            if node.value < 0:
                return f"({node.value})", None
            return str(node.value), node.value.bit_length()
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

    def block(self, stmts, pad):
        if not stmts:
            self.emit(pad, "pass")
        for stmt in stmts:
            self.stmt(stmt, pad)

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
            self.emit(pad, f"for {node.var} in range({node.start}, "
                           f"{node.stop}, {node.step}):")
            self.block(node.body, pad + 4)
        elif isinstance(node, Break):
            self.emit(pad, "break")
        elif isinstance(node, Continue):
            self.emit(pad, "continue")
        else:
            raise Refused(f"no Python form for {type(node).__name__}")

    def assign_sig(self, node, pad):
        """``_Net.write`` / ``write_next`` (and the read-modify-write
        of ``_SignalSlice``'s setters), inline.  The value is evaluated
        before the target, as Python does."""
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
            if node.is_next:
                self.emit(pad, f"_r = {net}._next if {net} in _pending "
                               f"else {net}._value")
                self.emit(pad, f"{net}._next = (_r & {keep}) | {shifted}")
                self.emit(pad, f"_pending[{net}] = True")
                return
            self.emit(pad, f"_r = {net}._value")
            self.emit(pad, f"_v = (_r & {keep}) | {shifted}")
            self.emit(pad, "if _v != _r:")
        elif node.is_next:
            self.emit(pad, f"{net}._next = {value}")
            self.emit(pad, f"_pending[{net}] = True")
            return
        else:
            if value != "_v":
                self.emit(pad, f"_v = {value}")
            self.emit(pad, f"if _v != {net}._value:")
        self.emit(pad + 4, f"{net}._value = _v")
        self.emit(pad + 4, f"_notify({net})")


def _widest(bounds):
    bounds = list(bounds)
    return None if None in bounds else max(bounds)


# -- the function, and one instance of it --------------------------------------


def print_function(ir, func, hole_of, nholes):
    """Source lines of ``ir`` (block ``func``'s lowering) as a function
    of ``_h0`` .. (``hole_of``: ``id`` of an IR leaf -> its hole),
    ``_notify`` and ``_pending``; raises :class:`Refused` or
    ``TypeUndecided`` where the block keeps its closure."""
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
    params += ["_notify=None", "_pending=None"]
    return ["", "",
            f"def {func.__name__}({', '.join(params)}):",
            f"    {doc!r}",
            *printer.lines]


def instantiate(template, func, holes, notify, pending):
    """A body's printed ``template`` as block ``func``'s lowered
    function, bound to its ``holes`` (a signal stands for its net) and
    to one simulator's ``_notify`` and pending-flop dict."""
    args = [tuple(map(_root, hole)) if type(hole) is tuple
            else hole if isinstance(hole, int) else _root(hole)
            for hole in holes]
    lowered = FunctionType(template.__code__, template.__globals__,
                           func.__name__, (*args, notify, pending))
    lowered.__qualname__ = func.__qualname__
    return lowered
