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

One lowering serves every instance of a block body.  The first
instance is lowered with :class:`~.ast_ir.BlockTranslator`, whose read
trace says what it took from the live model: *holes* (nets, tuples of
nets, int constants — the function's parameters) and *guards* (the
widths, bounds and folded ints the lowering's shape depends on).  Both
are printed once, beside the function, as a ``bind(model, func)`` of
plain attribute walks; a sibling whose guards evaluate equal gets the
same code object with its own holes as the parameter defaults, one
whose guards differ is lowered afresh as a second body.  A body keeps
source text, two code objects and the guard values — never an
instance — and is dropped with the block's code object.

A block outside the subset (``TranslationError``), one whose Python
types cannot be decided (``TypeUndecided``), a ``tick_cl`` /
``tick_fl`` block: :class:`Refused`, and the simulator keeps the
closure.  A refusal decided from a finished lowering (the types, a
name, the printer) is a body like any other — siblings whose guards
evaluate equal share it, one whose guards differ gets its own attempt;
one the translator gave up on has no complete trace to guard it with
and is not remembered.  This module holds the one ``compile`` /
``exec`` of the CPython rung.
"""

from __future__ import annotations

import ast
import hashlib
import linecache
import re
import weakref
from types import FunctionType

from .ast_ir import (
    AssignLocal,
    AssignSig,
    BinOp,
    BlockTranslator,
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
    TranslationError,
    TypeUndecided,
    UnOp,
    block_kind,
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
_RESERVED = re.compile(r"_(h\d+|s\d+|v|n|r|notify|pending|bind|root)$"
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


# -- printing its bind ----------------------------------------------------------


def _chain_text(node, dyn_at):
    """Source of an attribute/subscript chain with the dynamically
    indexed element spelled ``_x``."""
    if node is dyn_at:
        return "_x"
    if isinstance(node, ast.Attribute):
        return f"{_chain_text(node.value, dyn_at)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return (f"{_chain_text(node.value, dyn_at)}"
                f"[{ast.unparse(node.slice)}]")
    return ast.unparse(node)


def _names(node, skip):
    """Names under ``node``, not descending into ``skip``."""
    stack, names = [node], set()
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        stack.extend(ast.iter_child_nodes(cur))
    return names


def _print_bind(translator):
    """``(source lines of bind, hole_of, expected)``: ``bind(_m, _f)``
    walks model ``_m`` and block function ``_f`` exactly as the
    translator's trace says the lowering did and returns ``(guards,
    holes)``; ``expected[i]`` is what hole ``i`` must come out as for
    the instance that was lowered."""
    func = translator.func
    freevars = func.__code__.co_freevars
    names = set()
    objs = {}                       # bind text -> _o<n>
    prologue = []
    guards, holes, expected = [], [], []
    hole_of = {}
    slots = {}                      # hole text -> index

    def obj(text):
        if text not in objs:
            objs[text] = f"_o{len(objs)}"
            prologue.append(f"    {objs[text]} = {text}")
        return objs[text]

    for leaf, node, dyn_at in translator.holes:
        names |= _names(node, dyn_at.slice if dyn_at is not None else None)
        if isinstance(leaf, Const):
            hole = obj(ast.unparse(node))
            guard = f"type({hole})"
            want = leaf.value
        else:
            sliced = leaf.hi is not None
            sig = "{0}.signal" if sliced else "{0}"
            shape = ("type({0}), {0}.signal.nbits, {0}.lo, {0}.hi" if sliced
                     else "type({0}), {0}.nbits")
            if dyn_at is None:
                var = obj(ast.unparse(node))
                guard = shape.format(var)
                hole = f"_root({sig.format(var)})"
                want = _root(leaf.signals[0])
            else:
                var = obj(f"[{_chain_text(node, dyn_at)} for _x in "
                          f"{_chain_text(dyn_at.value, None)}]")
                guard = (f"len({var}), "
                         f"[({shape.format('_x')}) for _x in {var}]")
                hole = f"tuple([_root({sig.format('_x')}) for _x in {var}])"
                want = tuple(_root(sig) for sig in leaf.signals)
        if hole not in slots:
            slots[hole] = len(holes)
            holes.append(hole)
            guards.append(guard)
            expected.append(want)
        hole_of[id(leaf)] = slots[hole]
    for node in translator.guards:
        if not isinstance(node, ast.Constant):
            names |= _names(node, None)
            guards.append(ast.unparse(node))

    head = ["def _bind(_m, _f):",
            "    _c = _f.__closure__",
            "    _g = _f.__globals__"]
    roots = []
    for name in sorted(names):
        if re.match(r"_([mfcgx]|o\d+|root)$", name):
            raise Refused(f"the block's name {name!r} is one bind uses")
        if name in freevars:
            source = f"_c[{freevars.index(name)}].cell_contents"
        elif name in func.__globals__:
            source = f"_g[{name!r}]"
        else:
            continue                # a builtin (len)
        head.append(f"    {name} = {source}")
        if name in translator.root_names:
            roots.append(f"{name} is _m")
    guards = list(dict.fromkeys(roots + guards))
    lines = head + prologue + [
        f"    return (({', '.join(guards)}{',' * bool(guards)}), "
        f"({', '.join(holes)}{',' * bool(holes)}))"]
    return lines, hole_of, expected


# -- bodies ---------------------------------------------------------------------


class _Body:
    """One lowering of a block body: the function's code, its bind and
    the guard values a sibling must reproduce.  ``refused`` is the
    reason the lowering keeps its closure — decided from a finished
    lowering, so it holds for exactly the siblings the guards admit —
    or None."""

    __slots__ = ("template", "bind", "guards", "gtypes", "filename",
                 "refused")

    def instantiate(self, func, holes, notify, pending):
        template = self.template
        lowered = FunctionType(template.__code__, template.__globals__,
                               func.__name__, (*holes, notify, pending))
        lowered.__qualname__ = func.__qualname__
        return lowered

    def matches(self, guards):
        return (guards == self.guards
                and tuple(map(type, guards)) == self.gtypes)


#: id(code object) -> its bodies, first lowered first.  Dropped with
#: the code object, like ``elaboration._block_sources``.
_bodies = {}


def _drop(key):
    for body in _bodies.pop(key, ()):
        linecache.cache.pop(body.filename, None)


def _new_body(blk, kind):
    """Lower ``blk`` and print it; returns ``(body, holes)``.  Raises
    :class:`Refused` where there is no finished read trace to keep the
    refusal under (the translator gave up, or the bind cannot be
    printed or run): the next sibling is tried on its own."""
    func = blk.func
    try:
        translator = BlockTranslator(blk.model, func, kind)
        ir = translator.translate()
    except TranslationError as exc:
        raise Refused(str(exc)) from None
    bind_lines, hole_of, expected = _print_bind(translator)
    refused = None
    try:
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
        params = [f"_h{i}=None" for i in range(len(expected))]
        params += ["_notify=None", "_pending=None"]
        func_lines = ["", "",
                      f"def {func.__name__}({', '.join(params)}):",
                      f"    {doc!r}",
                      *printer.lines]
    except (TypeUndecided, Refused) as exc:
        refused = str(exc)
        func_lines = []
    source = "\n".join([*bind_lines, *func_lines, ""])
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    body = _Body()
    body.refused = refused
    body.filename = f"<lowered {func.__qualname__} {digest}>"
    namespace = {"_root": _root}
    exec(compile(source, body.filename, "exec"), namespace)
    body.template = namespace.get(func.__name__)
    body.bind = namespace["_bind"]
    # The bind is Python's reading of the source, the lowering the
    # translator's: they must name the same nets and constants.
    try:
        body.guards, holes = body.bind(blk.model, func)
    except Exception as exc:
        raise Refused("bind does not reproduce the lowering "
                      f"({type(exc).__name__}: {exc})") from None
    body.gtypes = tuple(map(type, body.guards))
    if any(got is not want and got != want
           for got, want in zip(holes, expected)):
        body.refused = "bind does not reproduce the lowering (a hole differs)"
    if body.refused is None:
        linecache.cache[body.filename] = (
            len(source), None, source.splitlines(True), body.filename)
    return body, holes


def lower_block(blk, notify, pending):
    """The lowered function of ``blk`` — a ``Model.get_comb_blocks()``
    / ``get_tick_blocks()`` entry — bound to its instance and to one
    simulator's ``_notify`` and pending-flop dict, and the body it is
    an instance of.  Raises :class:`Refused` with the reason the block
    keeps its closure."""
    kind = block_kind(blk)
    if kind == "tick_cl":
        raise Refused(f"tick_{blk.level} block")
    func = blk.func
    code = getattr(func, "__code__", None)
    if code is None:
        raise Refused("not a plain function")
    bodies = _bodies.get(id(code))
    if bodies is None:
        bodies = _bodies[id(code)] = []
        weakref.finalize(code, _drop, id(code))
    for body in bodies:
        try:
            guards, holes = body.bind(blk.model, func)
        except Exception:
            continue                # not the shape this body walks
        if body.matches(guards):
            break
    else:
        body, holes = _new_body(blk, kind)
        bodies.append(body)
    if body.refused is not None:
        raise Refused(body.refused)
    return body.instantiate(func, holes, notify, pending), body
