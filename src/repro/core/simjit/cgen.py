"""C code generation from behavioral-block IR.

SimJIT's backend (paper Section IV-A): lowers :class:`BlockIR`
statements and expressions into C.  A design's translation unit holds
what depends on a block body and nothing else: the prelude
(``runtime.c``'s, up to ``inst_t``), one function per distinct body and
``run_block``, its one export, which runs block body ``f``.  The kernel
that drives it — settle, edge, cycle, ``new_instance``, the Python
boundary — is ``runtime.c`` (:func:`.specializer._runtime`), compiled
once per cache for every design.  Everything that names an instance —
how many nets there are, how wide and at which word, the port slots,
which block runs which function over which words and constants in
which order, the input cones, the CL state offsets, the initial
values, and the design library's ``run_block`` — is the design's
*layout* (:class:`Layout`, the C ``layout_t``), which the engine
builds in Python and hands to ``new_instance``.  A layout belongs to its
instance, never to a library, so two designs whose bodies print the
same text are one ``.so``.

Every signal net is one ``uint64_t`` word, or two — low word, then
high word — when it is wider than 64 bits (the 65-bit memory
messages).  A slot names a net everywhere in Python; the layout's
``net_word`` (:func:`net_words`) is where its words are, and a body's
``S`` entries hold those word offsets.  A read of a net is a ``u128``
value (``(u128)lo``, or ``(u128)hi << 64 | lo``), so expression
arithmetic is what it was when every net was a ``u128``; a write
stores one word or two.  The instance handle points at the checkpoint blob ``cur | nxt |
[prev] | [st]``:

- ``cur`` holds the settled value of every net, the *flop nets'* words
  first — the nets some tick block writes (``flop_words`` of them).
  ``I->cur`` points past them, so a flop's offset is negative and
  every other net's offset does not move with the number of flops.
  Combinational blocks read and write it; ``settle()`` runs them once
  in the order :func:`repro.core.scheduling.build_schedule` gave the
  specializer;
- ``nxt`` is the flop words only.  ``edge`` copies them from ``cur``,
  runs the tick blocks (which read ``cur`` and write ``nxt``), copies
  them back and settles: two ``memcpy`` around the ticks;
- ``prev`` exists only in a *fixpoint* layout, made when the block
  graph has a cyclic or self-reading residue (or scheduling was
  switched off): ``settle()`` then repeats the pass until a snapshot
  of ``cur`` stops changing;
- ``st`` is plain CL state, ``int64_t``; a variable is the elements
  from its ``state_off`` entry on.

Local variables are ``int64_t`` (signed, so idioms like ``sa = a -
0x100000000`` compare correctly); a body with a local that may hold 64
bits or more, or that may store that much into CL state, or that is
made of a value this ``u128`` / ``int64_t`` arithmetic cannot compute,
has no C: the range pass says why, in ``BlockIR.refused``, which
:func:`c_template` hands on.  The settle before an edge (``eval_comb``,
and ``cycle``'s first) runs only the comb blocks the input ports
changed since the last settle reach (``in_blk``, ``in_cone``); the
Python boundary moves every input port in one ``push_inputs`` and only
the changed output ports in one ``pull_changed``.

Dynamic signal-list indexing (``s.rf[rd]``) is compiled to a word
lookup table per reference.

**Native division, eager booleans.**  Python's ``//`` and ``%`` floor
where C's truncate, so a division prints as ``py_floordiv`` /
``py_mod`` — unless the typer's range pass (:class:`~..ast_ir._Spans`)
marked it ``nonneg``, both operands in ``[0, 2**63)``, where C's ``/``
/ ``%`` on ``int64_t`` are Python's.  An ``and`` / ``or`` the pass
marked ``zero_one`` (tested for truth, or over operands in ``[0, 2)``)
prints as ``&&`` / ``||`` over its operands' 0/1 values — or, where it
is also ``eager``, no operand after the first can fault (a dynamic
index it cannot place inside its array or table, a divisor that may be
zero), as ``&`` / ``|``, every operand evaluated, no branch.  Any other
yields an operand, as Python's does: the select ``(a) ? b : a`` for
``and``, ``(a) ? a : b`` for ``or`` (:meth:`~..ast_ir.BoolOp.select`).

**Template, body, layout.**  Each block body is compiled once.
:func:`c_template` prints a block as a *template*: its C text with a
*hole* wherever the text would name something only this instance has —
a net's word, a CL state offset, the word table behind a dynamic index,
an integer ``Const`` the bind reads (elaboration-time constants such as
a router's ``my_x`` fold to one).  Everything else is text: widths and
masks, slice and loop bounds, local names and array sizes, operators,
and a constant the body fixes, printed as its literal.  A block body
(:mod:`repro.core.bodies`) — RTL or CL — prints its template once, when
it is lowered, into its C artifact (``CBody``), and every instance
bound to it fills the holes; a connector, which is not a block and has
no body, is printed from its own two-slot IR into a ``CBody`` of its
own.  :meth:`CBackend.add` files a block under its ``CBody``: the
blocks of one body share a function because they share a body, and the
body is the one record of that — a design parameter that changes a
width or a loop bound is a guard, so a second body and a second
function.  :meth:`CBackend.emit_blocks` prints each body once:

- a hole with one value across the body's blocks is the literal it
  would be in a function of its own (the shared ``reset`` slot, ``% 5``);
- a hole that varies reads the block's entries of the layout —
  ``S[i]`` for a word or state offset, ``(S + off)[idx]`` for a dynamic
  table, ``K[j]`` for a constant — and holes whose values agree in
  every member share an entry.  The function is ``f(inst_t *I, const
  int *S, const int64_t *K)``;
- a body of one block, or one with a varying constant outside
  ``int64_t``, prints every hole as its literal in ``f(inst_t *I)``, one
  function per block, with no entries.

The runtime's kernel runs block ``b`` of the layout as
``L->run_block(I, f, S, K)``: ``f`` is the case of its function in
``run_block``'s one ``switch``, ``S`` and ``K`` point at its entries in
the layout's pools.  Bodies,
tables and entries appear in first-use order; nothing in the text
depends on hashing or object identity.
"""

from __future__ import annotations

from typing import NamedTuple

from ..ast_ir import (
    AssignLocal,
    AssignSig,
    AssignState,
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
    StateRead,
    TranslationError,
    UnOp,
    Wrap,
)

_U64 = (1 << 64) - 1


def net_words(net_width, flops):
    """``(net_word, flop_words)``: each net's word offset — one word per
    net, two past 64 bits — and how many words the nets ``flops``
    (slots) take.  Their words lead ``cur``, and an offset counts from
    the first word after them: a flop's is negative, from -1 down in
    slot order, every other net's counts up from 0 in slot order."""
    flops, net_word = set(flops), [0] * len(net_width)
    down = up = 0
    for slot, width in enumerate(net_width):
        size = 1 + (width > 64)
        if slot in flops:
            down -= size
            net_word[slot] = down
        else:
            net_word[slot] = up
            up += size
    return net_word, -down


class Layout(NamedTuple):
    """One instance's data for the kernel (``layout_t``): everything
    that names an instance rather than a body.  ``net_word`` is each
    net's word offset in ``cur``, whose first ``flop_words`` words are
    the flop nets' (:func:`net_words`); ``in_slot`` / ``out_slot``
    name the ports' nets by slot.  ``blocks`` is one ``(function, S
    entries, K entries)`` per block, the comb blocks in schedule order,
    then the tick blocks; ``in_blk`` the comb positions some input port
    reaches and ``in_cone`` per input port the ``in_blk`` entries it
    reaches; ``init_cur`` (per net) / ``init_st`` the values a new
    instance starts from."""

    net_width: list
    net_word: list
    flop_words: int
    in_slot: list
    out_slot: list
    blocks: list
    ncomb: int
    in_blk: list
    in_cone: list
    state_off: list
    init_cur: list
    init_st: list
    fixpoint: bool

    @property
    def nwords(self):
        """Words of ``cur``."""
        return sum(1 + (width > 64) for width in self.net_width)

    @property
    def nbytes(self):
        """Bytes of the checkpoint blob ``cur | nxt | [prev] | [st]``:
        ``cur`` and ``prev`` are every net's words, ``nxt`` the flops'."""
        return 8 * (self.nwords * (2 if self.fixpoint else 1)
                    + self.flop_words + len(self.init_st))

    def to_c(self, ffi, lib):
        """``(layout_t *, arrays)``: the ``layout_t`` that runs its
        blocks through ``lib``'s ``run_block``, and the arrays it points
        at, which must live as long as it does (and ``lib`` stay
        loaded)."""
        arrays = []

        def array(ctype, values):
            arrays.append(ffi.new(f"{ctype}[]", values or [0]))
            return arrays[-1]

        block, s, k = [], [], []
        for function, s_row, k_row in self.blocks:
            block += (function, len(s), len(k))
            s += s_row
            k += k_row
        cone_off = [0]
        for cone in self.in_cone:
            cone_off.append(cone_off[-1] + len(cone))
        init_cur = [0] * self.nwords
        for at, width, value in zip(self.net_word, self.net_width,
                                    self.init_cur):
            at += self.flop_words
            init_cur[at] = value & _U64
            if width > 64:
                init_cur[at + 1] = value >> 64
        layout = ffi.new("layout_t *", {
            "nwords": len(init_cur), "flop_words": self.flop_words,
            "nin": len(self.in_slot), "nout": len(self.out_slot),
            "ncomb": self.ncomb, "ntick": len(self.blocks) - self.ncomb,
            "ninblk": len(self.in_blk),
            "nstatevar": len(self.state_off) - 1,
            "nst": len(self.init_st), "fixpoint": int(self.fixpoint),
            "net_width": array("unsigned short", self.net_width),
            "net_word": array("int", self.net_word),
            "in_slot": array("int", self.in_slot),
            "out_slot": array("int", self.out_slot),
            "block": array("int", block), "s": array("int", s),
            "k": array("int64_t", k),
            "in_blk": array("int", self.in_blk),
            "in_cone_off": array("int", cone_off),
            "in_cone": array("int", [j for cone in self.in_cone
                                     for j in cone]),
            "state_off": array("int", self.state_off),
            "init_cur": array("uint64_t", init_cur),
            "init_st": array("int64_t", self.init_st),
            "run_block": lib.run_block,
        })
        return layout, arrays


#: Hole kinds.  A SLOT is an index printed bare (a net's word in
#: ``cur``, or a CL state variable's offset in ``st[]``), a TABLE the
#: words behind one dynamic signal-list index, a CONST an integer
#: constant.  The specializer fills a net's holes with its slot and
#: turns it into the word when the layout is made.
SLOT, TABLE, CONST = "slot", "table", "const"

_MARK = "\x00"
_INT64_MAX = (1 << 63) - 1


def _c_int(value):
    """An integer constant as C: ``int64_t``, or ``u128`` above it."""
    if value < 0:
        return f"((int64_t)({value}LL))"
    if value > _INT64_MAX:
        hi, lo = value >> 64, value & ((1 << 64) - 1)
        return f"((((u128){hi}ULL) << 64) | {lo}ULL)"
    return f"({value}LL)"


class _Template:
    """IR -> C text with holes (:func:`c_template`)."""

    def __init__(self, hole_of):
        self.hole_of = hole_of
        self.kinds, self.sources = [], []      # per hole

    def _hole(self, kind, leaf):
        self.kinds.append(kind)
        self.sources.append(self.hole_of[id(leaf)])
        return f"{_MARK}{len(self.kinds) - 1}{_MARK}"

    # -- references ---------------------------------------------------------------

    def slot_expr(self, ref):
        if ref.is_dynamic():
            table = self._hole(TABLE, ref)
            return f"{table}[(int)({self.expr(ref.index)})]"
        return self._hole(SLOT, ref)

    @staticmethod
    def net_value(words, at, ref):
        """The whole net at word ``at`` of ``words`` as a ``u128``."""
        if ref.signals[0].nbits > 64:
            return (f"(((u128){words}[{at} + 1] << 64) | "
                    f"{words}[{at}])")
        return f"((u128){words}[{at}])"

    def sig_read(self, ref):
        value = self.net_value("I->cur", self.slot_expr(ref), ref)
        if ref.lo == 0 and ref.hi is None:
            # Full-width read; nets are stored masked already.
            return value
        return f"(({value} >> {ref.lo}) & mask_of({ref.width}))"

    def sig_write(self, ref, value_c, is_next, indent):
        words = "I->nxt" if is_next else "I->cur"
        at = self.slot_expr(ref)
        width = ref.width
        pad = " " * indent
        lines = [f"{pad}{{",
                 f"{pad}  u128 _v = ((u128)({value_c})) & "
                 f"mask_of({width});"]
        if ref.lo == 0 and ref.hi is None:
            lines.append(f"{pad}  u128 _nv = _v;")
        else:
            lines.append(
                f"{pad}  u128 _nv = ({self.net_value(words, at, ref)} & "
                f"~(mask_of({width}) << {ref.lo})) | (_v << {ref.lo});")
        if ref.signals[0].nbits > 64:
            lines += [f"{pad}  uint64_t *_w = &{words}[{at}];",
                      f"{pad}  _w[0] = (uint64_t)_nv;",
                      f"{pad}  _w[1] = (uint64_t)(_nv >> 64);"]
        else:
            lines.append(f"{pad}  {words}[{at}] = (uint64_t)_nv;")
        lines.append(f"{pad}}}")
        return "\n".join(lines)

    # -- expressions ------------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, Const):
            if id(node) in self.hole_of:
                return self._hole(CONST, node)
            return _c_int(node.value)      # the source fixes it
        if isinstance(node, SigRead):
            return self.sig_read(node.ref)
        if isinstance(node, StateRead):
            return self.state_lvalue(node.ref)
        if isinstance(node, LocalRead):
            if node.index is not None:
                return f"{_lname(node.name)}[(int)({self.expr(node.index)})]"
            return _lname(node.name)
        if isinstance(node, BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op not in ("//", "%"):
                return f"({left} {node.op} {right})"
            if node.unsigned:
                return f"((u128)({left}) {node.op[0]} (u128)({right}))"
            if node.nonneg:
                return f"((int64_t)({left}) {node.op[0]} (int64_t)({right}))"
            return (f"{'py_floordiv' if node.op == '//' else 'py_mod'}"
                    f"((int64_t)({left}), (int64_t)({right}))")
        if isinstance(node, Wrap):
            return f"(({self.expr(node.expr)}) & mask_of({node.width}))"
        if isinstance(node, UnOp):
            return f"({node.op}({self.expr(node.operand)}))"
        if isinstance(node, Cmp):
            return (f"(({self.expr(node.left)}) {node.op} "
                    f"({self.expr(node.right)}))")
        if isinstance(node, BoolOp):
            if not node.zero_one:
                return self.expr(node.select())
            op = node.op[0] if node.eager else node.op
            joined = f" {op} ".join(
                f"(({self.expr(v)}) != 0)" for v in node.values
            )
            return f"({joined})"
        if isinstance(node, IfExp):
            return (f"((({self.expr(node.cond)}) != 0) ? "
                    f"({self.expr(node.then)}) : ({self.expr(node.orelse)}))")
        if isinstance(node, Concat):
            parts = []
            shift = sum(w for _, w in node.parts)
            for expr, width in node.parts:
                shift -= width
                parts.append(f"((((u128)({self.expr(expr)})) & "
                             f"mask_of({width})) << {shift})")
            return "(" + " | ".join(parts) + ")"
        raise TranslationError(f"cgen: unknown expr {type(node).__name__}")

    def state_lvalue(self, ref):
        """CL plain state: one element of ``inst_t.st[]``."""
        off = self._hole(SLOT, ref)
        if ref.index is not None:
            return f"I->st[{off} + (int)({self.expr(ref.index)})]"
        return f"I->st[{off}]"

    # -- statements --------------------------------------------------------------------

    def stmt(self, node, indent=2):
        pad = " " * indent
        if isinstance(node, AssignSig):
            return self.sig_write(node.ref, self.expr(node.expr),
                                  node.is_next, indent)
        if isinstance(node, AssignState):
            return (f"{pad}{self.state_lvalue(node.ref)} = "
                    f"(int64_t)({self.expr(node.expr)});")
        if isinstance(node, AssignLocal):
            name = _lname(node.name)
            if node.index is not None:
                return (f"{pad}{name}[(int)({self.expr(node.index)})] = "
                        f"(int64_t)({self.expr(node.expr)});")
            return f"{pad}{name} = (int64_t)({self.expr(node.expr)});"
        if isinstance(node, DeclLocalArray):
            name = _lname(node.name)
            fill = self.expr(node.init)
            return (f"{pad}for (int _i = 0; _i < {node.size}; _i++) "
                    f"{name}[_i] = {fill};")
        if isinstance(node, If):
            lines = [f"{pad}if (({self.expr(node.cond)}) != 0) {{"]
            lines.extend(self.stmt(s, indent + 2) for s in node.body)
            if node.orelse:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.stmt(s, indent + 2) for s in node.orelse)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(node, For):
            # A hidden counter, so that the body may assign the loop
            # variable and the loop leaves it its last value, as
            # Python does.
            lines = [
                f"{pad}for (int64_t _k = {node.start}; "
                f"_k {'<' if node.step > 0 else '>'} {node.stop}; "
                f"_k += {node.step}) {{",
                f"{pad}  {_lname(node.var)} = _k;",
            ]
            lines.extend(self.stmt(s, indent + 2) for s in node.body)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(node, Break):
            return f"{pad}break;"
        if isinstance(node, Continue):
            return f"{pad}continue;"
        raise TranslationError(f"cgen: unknown stmt {type(node).__name__}")


def c_template(ir, hole_of):
    """``(text, kinds, sources, refused)``: ``ir``'s function body as a
    template, with a ``\\0<h>\\0`` marker where hole ``h`` is used; hole
    ``h`` is of kind ``kinds[h]`` and filled by ``sources[h]``, the value
    ``hole_of`` gives its ``SigRef``, ``StateRef`` or ``Const`` (by
    ``id``).  A ``Const`` ``hole_of`` does not name is the literal.
    ``refused`` says why C cannot run the body, or is None."""
    printer = _Template(hole_of)
    lines = ["  (void)I;"]
    for name, ltype in ir.locals.items():
        if ltype == "int":
            lines.append(f"  int64_t {_lname(name)} = 0;")
        else:
            lines.append(f"  int64_t {_lname(name)}[{ltype[1]}];")
    for stmt in ir.body:
        lines.append(printer.stmt(stmt, 2))
    lines.append("}")
    return ("\n".join(lines), tuple(printer.kinds), tuple(printer.sources),
            ir.refused)


class CBackend:
    """Generates one C function per block body.

    :meth:`add` files a block under its body's C artifact
    (:class:`~repro.core.bodies.CBody`, by identity); :meth:`emit_blocks`
    then prints every body once and ``run_block``."""

    def __init__(self):
        self._bodies = {}          # C body -> names, values; first seen first
        self._blocks = []          # (C body, member) per add
        self._tables = {}          # slots -> name of a literal table
        #: a call of each function :meth:`emit_blocks` printed, by
        #: ``run_block`` case
        self.calls = []

    def add(self, c, values, func_name):
        """File block ``func_name``: its C body ``c`` and this instance's
        hole ``values`` (a slot or state offset, a tuple of slots, an
        int)."""
        names, rows = self._bodies.setdefault(c, ([], []))
        self._blocks.append((c, len(names)))
        names.append(func_name)
        rows.append(values)

    def emit_blocks(self):
        """Print every body.  Returns ``(text, blocks)``: the C text
        (literal lookup tables, one function per body, ``run_block``)
        and, per :meth:`add` in the order added, the block's layout
        entry ``(function, S entries, K entries)``."""
        parts, entries = [], {}
        for c, (names, rows) in self._bodies.items():
            entries[c] = self._emit_body(c, names, rows, parts)
        tables = "\n".join(
            f"static const int {name}[{len(slots)}] = "
            f"{{{', '.join(map(str, slots))}}};"
            for slots, name in self._tables.items())
        cases = "".join(f"  case {f}: {call} break;\n"
                        for f, call in enumerate(self.calls))
        parts.append(
            "/* Block body f of the layout, with the block's S and K "
            "entries: the library's\n   one export, which the runtime's "
            "kernel calls for every block. */\n"
            "void run_block(inst_t *I, int f, const int *s, "
            "const int64_t *k) {\n"
            f"  (void)s; (void)k;\n  switch (f) {{\n{cases}  }}\n}}")
        return ("\n\n".join(filter(None, [tables] + parts)),
                [entries[c][m] for c, m in self._blocks])

    def _emit_body(self, c, names, rows, parts):
        """Append the C text of body ``c`` (its blocks ``names`` with
        hole values ``rows``) to ``parts``; returns each block's layout
        entry."""
        pieces = c.text.split(_MARK)
        holes = list(map(int, pieces[1::2]))

        def function(name, params, call, printed):
            pieces[1::2] = map(printed.__getitem__, holes)
            self.calls.append(f"{name}({call});")
            parts.append(f"static void {name}({params}) {{\n"
                         + "".join(pieces))
            return len(self.calls) - 1

        kinds = c.kinds
        shared = len(names) > 1
        if shared:
            columns = list(zip(*rows))
            varies = [len(set(col)) > 1 for col in columns]
            shared = not any(
                abs(value) > _INT64_MAX
                for kind, col, v in zip(kinds, columns, varies)
                if v and kind == CONST for value in col)
        if not shared:
            # Nothing to share, or a constant K cannot hold: every
            # hole is the literal it always was.
            return [(function(name, "inst_t *I", "I",
                              [self._literal(kind, value)
                               for kind, value in zip(kinds, values)]),
                     (), ())
                    for name, values in zip(names, rows)]

        # A hole that varies reads the block's entries: S holds slots
        # and, from ``S + off``, the dynamic tables; K the constants.
        # Equal columns share an entry.
        s_at, s_cols, s_len, k_at = {}, [], 0, {}
        printed = []
        for kind, col, v in zip(kinds, columns, varies):
            if not v:
                printed.append(self._literal(kind, col[0]))
            elif kind == CONST:
                printed.append(f"K[{k_at.setdefault(col, len(k_at))}]")
            else:
                if col not in s_at:
                    s_at[col] = s_len
                    s_cols.append(col if kind == TABLE
                                  else [(slot,) for slot in col])
                    s_len += len(s_cols[-1][0])
                printed.append(f"(S + {s_at[col]})" if kind == TABLE
                               else f"S[{s_at[col]}]")
        f = function(names[0], "inst_t *I, const int *S, const int64_t *K",
                     "I, s, k", printed)
        return [(f, tuple(slot for col in s_cols for slot in col[m]),
                 tuple(col[m] for col in k_at))
                for m in range(len(names))]

    def _literal(self, kind, value):
        """A hole printed as the value itself."""
        if kind == SLOT:
            return str(value)
        if kind == TABLE:
            return self._tables.setdefault(value, f"tbl{len(self._tables)}")
        return _c_int(value)


def _lname(name):
    return f"l_{name}"
