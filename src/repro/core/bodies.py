"""Block bodies: one lowering per block body, bound per instance.

The first instance of a block — ``@combinational``, ``@tick_rtl`` or
``@tick_cl`` alike — is lowered with :class:`~.ast_ir.BlockTranslator`,
whose read trace says what it took from the live model: *holes*
(signals, tuples of signals behind a dynamic index, int constants, CL
state attributes) and *guards* (the widths, bounds and folded ints the
IR's shape depends on).  Both are printed once, as a ``_bind(model,
func)`` returning ``(guards, holes)``; a sibling whose guards evaluate
equal is an instance of the same body with its own holes, one whose
guards differ is lowered afresh as a second body.  It asks no level.

A body is backend-neutral: printed from the one ``BlockIR``, made
``Bits``-exact by :func:`~.ast_ir.infer_types` when the body is made,
it carries ``python``, the function :mod:`.pygen` prints (or
``refused``, why not: a reserved name, or ``TypeUndecided``, which
leaves no ``c`` either; decided for every sibling the guards admit),
``c``, the template :func:`~.simjit.cgen.c_template` prints with which
hole fills each C hole, ``reads`` / ``writes``, the holes the block
reads and writes, ``folded``, whether a read indexes a list by an expression the
lowering folded to a constant (the block's closure evaluates it anew
on every run), and, of a combinational body, ``deps``: per hole it
writes, the read holes the written value may need
(:func:`~.ast_ir.output_deps`), and ``spelled``: each written hole as
the source spells it below the model (``mem_ifc.req_val``).
A constant the source and the guards fix is not a hole: it is printed
as its literal, in both.  ``c`` is SimJIT's unit of code: the blocks
bound to one body share a C function (unless a constant that varies
between them does not fit ``int64_t``), and no others do.  A body
keeps no instance and goes with the block's code object.  A
``TranslationError`` has no complete trace to guard it with and is not
remembered.  This module holds the one ``compile`` / ``exec`` of the
CPython rung and the one ``BlockTranslator``: a tool that reads the IR
itself asks :func:`lowered`, once per body it meets.
"""

from __future__ import annotations

import ast
import hashlib
import linecache
import re
import weakref

from .ast_ir import (BlockTranslator, Const, StateRef, TranslationError,
                     TypeUndecided, block_kind, infer_types, output_deps)
from .pygen import Refused, print_function
from .simjit.cgen import c_template


# -- printing a bind ----------------------------------------------------------


def _chain_text(node, dyn_at, x):
    """Source of an attribute/subscript chain with the dynamically
    indexed element spelled ``x``."""
    if node is dyn_at:
        return x
    if isinstance(node, ast.Attribute):
        return f"{_chain_text(node.value, dyn_at, x)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return (f"{_chain_text(node.value, dyn_at, x)}"
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
    """``(source lines of bind, hole_of, expected, fixed)``: ``bind(m,
    f)`` walks model ``m`` and block function ``f`` exactly as the
    translator's trace says the lowering did and returns ``(guards,
    holes)``; ``hole_of`` maps ``id`` of each hole's IR leaf to its
    index and ``expected[i]`` is what hole ``i`` must come out as for
    the instance that was lowered; ``fixed`` are the ``id`` of the int
    holes a guard fixes (the same source: ``% s.NPORTS`` under ``range(
    s.NPORTS)``).  A hole is a signal, a tuple of signals, an int, or
    the name of a CL state attribute of ``m`` (guarded to be an int, or
    a list of that many ints).  The bind's own names take a ``_`` tail
    until none is a name the block uses."""
    func = translator.func
    freevars = func.__code__.co_freevars
    names = set()
    for _, node, dyn_at in translator.holes:
        names |= _names(node, dyn_at.slice if dyn_at is not None else None)
    guard_nodes = [node for node in translator.guards
                   if not isinstance(node, ast.Constant)]
    for node in guard_nodes:
        names |= _names(node, None)
    tail = ""                       # the bind's own names, clear of them
    while any(re.fullmatch(rf"_([mfcgx]|o\d+){tail}", n) for n in names):
        tail += "_"
    m, f, c, g, x = (f"_{v}{tail}" for v in "mfcgx")
    objs = {}                       # bind text -> _o<n><tail>
    prologue = []
    guards, holes, expected = [], [], []
    hole_of = {}
    slots = {}                      # hole text -> index

    def obj(text):
        if text not in objs:
            objs[text] = f"_o{len(objs)}{tail}"
            prologue.append(f"    {objs[text]} = {text}")
        return objs[text]

    for leaf, node, dyn_at in translator.holes:
        if isinstance(leaf, Const):
            hole = obj(ast.unparse(node))
            guard = f"type({hole})"
            want = leaf.value
        elif isinstance(leaf, StateRef):
            var = obj(ast.unparse(node))
            want = leaf.name
            hole = repr(want)
            guard = (f"isinstance({var}, int)" if leaf.index is None else
                     f"isinstance({var}, list), len({var}), "
                     f"all([isinstance({x}, int) for {x} in {var}])")
        else:
            sliced = leaf.hi is not None
            shape = ("type({0}), {0}.signal.nbits, {0}.lo, {0}.hi" if sliced
                     else "type({0}), {0}.nbits")
            if dyn_at is None:
                var = obj(ast.unparse(node))
                guard = shape.format(var)
                hole = f"{var}.signal" if sliced else var
                want = leaf.signals[0]
            else:
                var = obj(f"[{_chain_text(node, dyn_at, x)} for {x} in "
                          f"{_chain_text(dyn_at.value, None, x)}]")
                guard = (f"len({var}), "
                         f"[({shape.format(x)}) for {x} in {var}]")
                hole = (f"tuple([{x}.signal for {x} in {var}])" if sliced
                        else f"tuple({var})")
                want = tuple(leaf.signals)
        if hole not in slots:
            slots[hole] = len(holes)
            holes.append(hole)
            guards.append(guard)
            expected.append(want)
        hole_of[id(leaf)] = slots[hole]
    guards.extend(map(ast.unparse, guard_nodes))

    head = [f"def _bind({m}, {f}):",
            f"    {c} = {f}.__closure__",
            f"    {g} = {f}.__globals__"]
    roots = []
    for name in sorted(names):
        if name in freevars:
            source = f"{c}[{freevars.index(name)}].cell_contents"
        elif name in func.__globals__:
            source = f"{g}[{name!r}]"
        else:
            continue                # a builtin (len)
        head.append(f"    {name} = {source}")
        if name in translator.root_names:
            roots.append(f"{name} is {m}")
    fixed = {id(leaf) for leaf, node, _ in translator.holes
             if isinstance(leaf, Const) and ast.unparse(node) in guards}
    guards = list(dict.fromkeys(roots + guards))
    lines = head + prologue + [
        f"    return (({', '.join(guards)}{',' * bool(guards)}), "
        f"({', '.join(holes)}{',' * bool(holes)}))"]
    return lines, hole_of, expected, fixed


def _folds_index(node, dyn_at):
    """Whether the attribute/subscript chain ``node`` indexes a list by
    an expression the lowering folded to a constant (a model int, say)
    rather than by a literal or by its dynamic index ``dyn_at``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (isinstance(node, ast.Subscript) and node is not dyn_at
                and not isinstance(node.slice, (ast.Constant, ast.Slice))):
            return True
        node = node.value
    return False


def _same(got, want):
    """Whether a bound hole is the one the translator read: the same
    signal or signals (not equal values), an equal int or name."""
    if isinstance(want, tuple):
        return list(map(id, got)) == list(map(id, want))
    if isinstance(want, (int, str)):
        return isinstance(got, type(want)) and got == want
    return got is want


def signals(holes, picks):
    """The signals of holes ``picks`` (a body's ``reads`` or
    ``writes``) of one instance's ``holes``."""
    return [sig for h in picks for sig in (
        holes[h] if type(holes[h]) is tuple else (holes[h],))]


def outputs(body, holes):
    """``[(hole, signals written, signals read)]``: per hole combinational
    ``body`` writes, the signals of one instance's ``holes`` the value
    written there needs (``body.deps``)."""
    return [(hole, signals(holes, (hole,)), signals(holes, sorted(reads)))
            for hole, reads in body.deps.items()]


# -- the C artifact -----------------------------------------------------------


class CBody:
    """A body's C template (:func:`~.simjit.cgen.c_template`): ``text``,
    whose C hole ``i`` is of kind ``kinds[i]`` and filled by entry
    ``sources[i]`` of an instance's holes, or ``refused``, why C cannot
    run it.  SimJIT files blocks by this object, not by its text."""

    __slots__ = ("text", "kinds", "sources", "refused")

    def __init__(self, text, kinds, sources, refused):
        self.text, self.kinds, self.sources = text, kinds, sources
        self.refused = refused


# -- bodies -------------------------------------------------------------------


class Body:
    """One lowering of a block body: its bind, the guard values a
    sibling must reproduce, the holes of the IR's ``sig_reads`` /
    ``sig_writes`` and the backends' artifacts (module docstring)."""

    __slots__ = ("bind", "guards", "gtypes", "filename", "python",
                 "refused", "c", "reads", "writes", "folded", "deps",
                 "spelled")

    def matches(self, guards):
        return (guards == self.guards
                and tuple(map(type, guards)) == self.gtypes)

    @property
    def c_refused(self):
        """Why C cannot run this body, or None: it has no ``c``
        (``refused`` says why) or its template refuses."""
        return self.refused if self.c is None else self.c.refused


#: id(code object) -> its bodies, first lowered first.  Dropped with
#: the code object, like ``elaboration._block_sources``.
_bodies = {}


def _drop(table, key):
    # ``table`` is the dict the bodies were entered in, which a test
    # may have swapped out of ``_bodies`` by the time the code dies.
    for body in table.pop(key, ()):
        linecache.cache.pop(body.filename, None)


def _new_body(blk, translator, ir, bind):
    """Print ``blk``'s lowering; returns ``(body, holes)``.  Raises
    :class:`Refused` where there are no guards to keep a body under
    (the bind raises): the next sibling is tried on its own."""
    func = blk.func
    bind_lines, hole_of, expected, fixed = bind
    refused = typed = None
    try:
        typed = infer_types(ir, hole_of, fixed)
        if ir.fact_holes:
            # A range fact C prints by read these constants as in
            # [0, 2**n), or at their values (n None): a sibling shares
            # the body where they are.  One guard a hole, the tightest.
            tight = {}
            for leaf, node, _ in translator.holes:
                if id(leaf) in ir.fact_holes:
                    n = ir.fact_holes[id(leaf)]
                    _, was = tight.get(hole_of[id(leaf)], (node, 63))
                    tight[hole_of[id(leaf)]] = node, (
                        None if None in (n, was) else min(n, was))
            translator.guards.extend(
                node if n is None else ast.Compare(
                    ast.Constant(0), [ast.LtE(), ast.Lt()],
                    [node, ast.Constant(1 << n)])
                for node, n in tight.values())
            bind_lines = _print_bind(translator)[0]
        func_lines = print_function(ir, func, hole_of, len(expected))
    except (TypeUndecided, Refused) as exc:
        refused = str(exc)
        func_lines = []
    source = "\n".join([*bind_lines, *func_lines, ""])
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    body = Body()
    body.refused = refused
    body.filename = f"<lowered {func.__qualname__} {digest}>"
    namespace = {}
    exec(compile(source, body.filename, "exec"), namespace)
    body.python = namespace.get(func.__name__)
    body.bind = namespace["_bind"]
    body.c = typed and CBody(*c_template(ir, hole_of))
    body.reads = tuple(hole_of[id(ref)] for ref in ir.sig_reads)
    body.writes = tuple(hole_of[id(ref)] for ref in ir.sig_writes)
    body.deps = body.spelled = None
    if ir.kind == "comb":
        body.deps = output_deps(ir, hole_of)
        body.spelled = {}
        for leaf, node, _ in translator.holes:
            if hole_of[id(leaf)] in body.deps:
                body.spelled.setdefault(hole_of[id(leaf)],
                                        ast.unparse(node).partition(".")[2])
    folded = {hole_of[id(leaf)] for leaf, node, dyn_at in translator.holes
              if _folds_index(node, dyn_at)}
    body.folded = not folded.isdisjoint(body.reads)
    # The bind is Python's reading of the source, the lowering the
    # translator's: they must name the same signals, constants and state.
    try:
        body.guards, holes = body.bind(blk.model, func)
    except Exception as exc:
        raise Refused("bind does not reproduce the lowering "
                      f"({type(exc).__name__}: {exc})") from None
    body.gtypes = tuple(map(type, body.guards))
    if not all(map(_same, holes, expected)):
        body.refused = "bind does not reproduce the lowering (a hole differs)"
        body.python = body.c = body.reads = None
    if body.python is not None:
        linecache.cache[body.filename] = (
            len(source), None, source.splitlines(True), body.filename)
    return body, holes


def body_of(blk):
    """``(body, holes)`` of ``blk`` — a ``Model.get_comb_blocks()`` /
    ``get_tick_blocks()`` entry of any level: the first cached body
    whose guards ``blk`` reproduces, else a new one.  ``holes`` are
    ``blk``'s own (:func:`_print_bind`).  Raises
    :class:`~.ast_ir.TranslationError` where the translator refuses the
    block, :class:`Refused` where it has no body: not a plain function,
    or a bind that does not reproduce the lowering (a body kept for
    its siblings, which it refuses without a second lowering)."""
    return _body(blk, None)


def body_or_why(blk):
    """:func:`body_of` of ``blk``, or why it has none (the text of the
    refusal): the one answer the simulator and ``auto_specialize`` read
    a block's reads, writes and Python form from.  The text never names
    the block (of a translator's refusal it is the ``reason``): a
    report does (:func:`named`)."""
    try:
        return body_of(blk)
    except TranslationError as exc:
        return exc.reason
    except Refused as exc:
        return str(exc)


def kept_reason(blk, answer, cyclic, name=None):
    """Why the CPython rung runs ``blk`` as the user's closure, or
    None when it runs the body's lowered function.  ``answer`` is
    ``blk``'s :func:`body_or_why` (not asked of a CL or FL tick) and
    ``cyclic``, where the static scheduler demotes it (a comb block
    in a combinational cycle), the holes it writes on the cycle, else
    None.  The one spelling of these reasons:
    ``SimulationTool`` reports them in ``sched_info()["lowered"]
    ["kept"]`` and ``auto.kept_blocks`` reads them before
    elaboration, giving the ``name`` elaboration will give ``blk``; a
    cycle is named by the signals ``blk`` writes on it, by their paths
    below that name's model."""
    if cyclic is not None:
        path = (name or blk.name).rpartition(".")[0]
        nets = dict.fromkeys(f"{path}.{answer[0].spelled[hole]}"
                             for hole in cyclic)
        return ("event partition: in a combinational cycle through "
                + ", ".join(nets))
    level = getattr(blk, "level", "rtl")    # a comb block has none
    if level != "rtl":
        return f"tick_{level} block"
    why = answer if isinstance(answer, str) else answer[0].refused
    return named(blk, why, name) if why and why.startswith(LOCATED) else why


#: How a translator's own refusal starts: where in the block, then why.
LOCATED = "(line "


def named(blk, why, name=None):
    """``why``, a refusal of ``blk``, after the block's name (``name``,
    else ``blk.name``): a translator's refusal, which says where, reads
    ``top.fwd.chan_seq (line 9): …``, any other reason ``top.x.blk:
    …``.  A refusal never names its block itself, because before
    elaboration a block's name is its model's class
    (``unreliablechannel.chan_seq``); a report names it by its path:
    the one elaboration gave, or will give (``auto.kept_blocks``)."""
    return (f"{name or blk.name}{'' if why.startswith(LOCATED) else ':'} "
            f"{why}")


def lowered(blk, irs):
    """``(body, holes, ir, hole_of)``: :func:`body_of` of ``blk`` and
    its body's ``BlockIR`` — ``Bits``-exact where ``body.c`` says its
    types are decided, else as lowered — whose leaves ``hole_of`` maps
    (by ``id``) to holes.  ``irs`` is the caller's ``{body: (ir,
    hole_of)}``: a body not in it is lowered from ``blk`` once (a new
    one from that same lowering) and entered.  An IR holds its
    instance's signals, so this module keeps none."""
    body, holes = _body(blk, irs)
    return (body, holes, *irs[body])


def _lower(blk):
    translator = BlockTranslator(blk.model, blk.func, block_kind(blk))
    return translator, translator.translate(), _print_bind(translator)


def _body(blk, irs):
    func = blk.func
    code = getattr(func, "__code__", None)
    if code is None:
        raise Refused("not a plain function")
    bodies = _bodies.get(id(code))
    if bodies is None:
        bodies = _bodies[id(code)] = []
        weakref.finalize(code, _drop, _bodies, id(code))
    for body in bodies:
        try:
            guards, holes = body.bind(blk.model, func)
        except Exception:
            continue                # not the shape this body walks
        if body.matches(guards):
            break
    else:
        translator, ir, bind = _lower(blk)
        body, holes = _new_body(blk, translator, ir, bind)
        bodies.append(body)
        if irs is not None and body.c:
            irs[body] = ir, bind[1]
    if body.reads is None:
        raise Refused(body.refused)
    if irs is not None and body not in irs:
        # Afresh: the typer may have rewritten part of an undecided
        # body's first lowering before it refused.
        _, ir, bind = _lower(blk)
        irs[body] = (infer_types(ir, *bind[1::2]) if body.c
                     else ir), bind[1]
    return body, holes
