"""C code generation from behavioral-block IR.

SimJIT's backend (paper Section IV-A): lowers :class:`BlockIR`
statements and expressions into C.  The generated translation unit
models every signal net as an ``unsigned __int128`` slot (wide enough
for the 65-bit memory messages) of the instance struct ``inst_t``:

- ``cur[]`` holds the settled value of every net.  Combinational
  blocks read and write it; the specializer orders them with
  :func:`repro.core.scheduling.build_schedule` and emits ``settle()``
  as one straight pass over that order;
- ``nxt[]`` is meaningful only for the *flop nets* — the nets some
  tick block writes via ``.next`` (``flop_slot[]``).  ``clock_edge()``
  seeds those slots from ``cur``, runs the tick blocks (which read
  ``cur`` and write ``nxt``), and copies the same slots back; no other
  net is touched at the edge;
- ``prev[]`` exists only in the *fixpoint* kernel shape, emitted when
  the block graph has a cyclic or self-reading residue (or scheduling
  was switched off): ``settle()`` then repeats the pass until a
  whole-state snapshot stops changing;
- local variables are ``int64_t`` (signed, so idioms like
  ``sa = a - 0x100000000`` compare correctly);
- plain CL state is one ``int64_t st[]`` member of ``inst_t`` (absent
  when the design has none); a variable is the elements from its
  ``state_off[]`` entry on.

Before an edge only input ports can have changed since the last
settle, so that settle — ``cycle``'s first, and ``eval_comb`` — is
``settle_inputs``: it compares each input slot with the value the last
settle saw (``in_last``, kept beside ``inst_t``) and runs only the comb
blocks the changed ports reach.  The specializer lists those per port
(``in_cone[]`` from ``in_cone_off[]``) and prints ``run_input_blocks``,
one ``if (run[k])`` guarded call per block some port reaches, in
schedule order; ``run_comb_blocks`` stays the one unguarded pass, which
the settle after an edge runs.  A write behind the settle's back
(``set_net``, ``set_state_at``, ``load_inst``) clears ``settled``, and
the next input settle runs every block.

The Python boundary is bulk and change-detected: ``push_inputs``
stores every input port from one array, ``pull_changed`` returns
``(port index, lo, hi)`` only for output ports that differ from what
the last pull returned (``in_slot[]``/``out_slot[]`` are static
tables; the output shadow lives beside ``inst_t``, outside the
checkpoint blob).

A translation unit holds only the design.  The compiled
instrumentation and the compiled test bench do not depend on it: they
are ``runtime.c``, compiled once per cache and loaded when first needed
(:func:`.specializer._runtime`).  The runtime reaches a design through
the instance handle, whose first member is ``cur`` (a
``_Static_assert`` pins it), and through pointers to the exported entry
points; ``edge`` (one clock edge, then ``settle``) exists for it.

Dynamic signal-list indexing (``s.rf[rd]``) is compiled to a static
slot lookup table per reference.

**Template, group, tables.**  Each distinct block body is compiled
once.  :func:`c_template` prints a block as a *template*: its C text
with a *hole* wherever the text would name something only this
instance has — a net slot, a CL state offset, the slot table behind a
dynamic index, an integer ``Const`` (elaboration-time constants such
as a router's ``my_x`` fold to one).  Everything else is text: widths
and masks, slice bounds, loop bounds, local names and array sizes,
operators.  A block body (:mod:`repro.core.bodies`) — RTL or CL —
prints its template once, when it is lowered, and every instance bound
to it fills the holes; only a connector, which is not a block, is
printed from its own two-slot IR.  :meth:`CBackend.add` files a
template with one instance's hole values: blocks whose template text
is equal form a group, and text
equality is the whole proof that they run the same code — a design
parameter that changes a width or a loop bound changes the text and so
the group.  :meth:`CBackend.emit_blocks` prints each group once:

- a hole with one value across the group is the literal it would be in
  a function of its own (the shared ``reset`` slot, ``% 5``);
- a hole that varies reads the member's tables — ``S[i]`` for a slot or
  state offset, ``(S + off)[idx]`` for a dynamic table, ``K[j]`` for a
  constant — and holes whose values agree in every member share an
  entry.  The function is ``f(inst_t *I, const int *S, const int64_t
  *K)`` and the block runners call it once per member, with that
  member's ``static const`` tables, in schedule order;
- a group of one, or one with a varying constant outside ``int64_t``,
  prints every hole as its literal in ``f(inst_t *I)``, one function
  per member — the same code path with nothing to look up, so a design
  with no repeated body is the text (and the ``.so`` cache key) it
  would be without sharing.

Groups, tables and entries appear in first-use order; nothing in the
text depends on hashing or object identity.
"""

from __future__ import annotations

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
)

C_PRELUDE = r"""
#include <stdint.h>
#include <string.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

#define NNETS @NNETS@

static inline u128 mask_of(int width) {
    if (width >= 128) return (u128)-1;
    return (((u128)1) << width) - 1;
}

/* Python floor-division semantics for signed operands (C truncates
   toward zero; Python floors).  Subset values passed through these are
   bounded well below 2^63. */
static inline int64_t py_mod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

static inline int64_t py_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
"""

# The instance struct, the port/flop slot tables, ``settle()``, the
# block runners and the input cones (``in_cone_off[]``/``in_cone[]``,
# ``run_input_blocks``) are emitted by the specializer (it knows the CL
# state variables, the nets and the kernel shape); every generated
# function takes an `inst_t *I`, so multiple instances of the same
# compiled model never share state.
C_API = r"""
/* ---- clock edge ---- */

/* Only flop nets have a meaningful nxt: seed them from cur (a tick
   that skips its .next write holds the value), run the ticks, copy
   them back. */
static inline void clock_edge(inst_t *I) {
    for (int i = 0; i < NFLOP; i++)
        I->nxt[flop_slot[i]] = I->cur[flop_slot[i]];
    run_tick_blocks(I);
    for (int i = 0; i < NFLOP; i++)
        I->cur[flop_slot[i]] = I->nxt[flop_slot[i]];
}

/* ---- external API (cffi) ---- */

/* The output shadow and the input settle's state sit behind inst_t so
   that every entry point can cast the handle to inst_t* and the
   checkpoint blob stays the bare inst_t. */
typedef struct {
    inst_t inst;
    u128 out_last[NOUT + 1];
    int out_synced;
    u128 in_last[NIN + 1];
    int settled;
} box_t;

/* ---- the input settle ---- */

/* The settle before an edge, and eval_comb's.  Only input slots can
   have changed since the last settle, so while the state is settled
   for the input values in_last, only the comb blocks that the changed
   ports reach run: in_cone lists them per port, run_input_blocks runs
   the marked ones in schedule order.  No port changed, no block runs.
   Whatever writes the state behind the settle's back (set_net,
   set_state_at, load_inst) clears settled, as a new instance starts,
   and the next input settle is settle(). */
static int settle_inputs(box_t *B) {
    inst_t *I = &B->inst;
    unsigned char run[NINBLK + 1];
    int changed = 0, r = 1;
    if (!B->settled) {
        r = settle(I);
        for (int i = 0; i < NIN; i++)
            B->in_last[i] = I->cur[in_slot[i]];
    } else {
        memset(run, 0, sizeof(run));
        for (int i = 0; i < NIN; i++) {
            u128 v = I->cur[in_slot[i]];
            if (v == B->in_last[i]) continue;
            B->in_last[i] = v;
            for (int k = in_cone_off[i]; k < in_cone_off[i + 1]; k++)
                run[in_cone[k]] = 1;
            changed = 1;
        }
        if (changed) r = run_input_blocks(I, run);
    }
    B->settled = r >= 0;
    return r;
}

void *new_instance(void) {
    box_t *B = (box_t *)calloc(1, sizeof(box_t));
    init_instance(&B->inst);
    return B;
}

void free_instance(void *p) {
    free(p);
}

void set_net(void *p, int idx, uint64_t lo, uint64_t hi) {
    inst_t *I = (inst_t *)p;
    I->cur[idx] = (((u128)hi << 64) | lo) & mask_of(net_width[idx]);
    ((box_t *)p)->settled = 0;
}

void get_net(void *p, int idx, uint64_t *out) {
    inst_t *I = (inst_t *)p;
    out[0] = (uint64_t)I->cur[idx];
    out[1] = (uint64_t)(I->cur[idx] >> 64);
}

/* Store every input port; hi may be NULL when no port is wider than
   64 bits. */
void push_inputs(void *p, const uint64_t *lo, const uint64_t *hi) {
    inst_t *I = (inst_t *)p;
    for (int i = 0; i < NIN; i++) {
        int s = in_slot[i];
        u128 v = hi ? ((u128)hi[i] << 64) | lo[i] : (u128)lo[i];
        I->cur[s] = v & mask_of(net_width[s]);
    }
}

/* (port index, lo, hi) of every output port whose value differs from
   what the last pull returned; returns the number of triples. */
int pull_changed(void *p, uint64_t *out) {
    box_t *B = (box_t *)p;
    int n = 0;
    for (int i = 0; i < NOUT; i++) {
        u128 v = B->inst.cur[out_slot[i]];
        if (B->out_synced && v == B->out_last[i]) continue;
        B->out_last[i] = v;
        out[3 * n] = (uint64_t)i;
        out[3 * n + 1] = (uint64_t)v;
        out[3 * n + 2] = (uint64_t)(v >> 64);
        n++;
    }
    B->out_synced = 1;
    return n;
}

/* The next pull returns every output port. */
void resync_outputs(void *p) {
    ((box_t *)p)->out_synced = 0;
}

int eval_comb(void *p) {
    return settle_inputs((box_t *)p);
}

int cycle(void *p, int n) {
    inst_t *I = (inst_t *)p;
    /* Each edge leaves the state settled, so only the first cycle of
       a batch needs its own pre-edge settle, and only for the inputs
       written since. */
    if (settle_inputs((box_t *)p) < 0) return -1;
    for (int i = 0; i < n; i++) {
        clock_edge(I);
        if (settle(I) < 0) return -1;
    }
    return 0;
}

int64_t get_state_at(void *p, int idx, int elem) {
    return state_probe_at((inst_t *)p, idx, elem);
}

void set_state_at(void *p, int idx, int elem, int64_t value) {
    state_poke_at((inst_t *)p, idx, elem, value);
    ((box_t *)p)->settled = 0;
}

/* Checkpoint/restore: inst_t is a flat POD struct (net arrays + plain
   int64 state), so one memcpy captures and restores the entire
   simulation state of an instance. */
size_t inst_size(void) {
    return sizeof(inst_t);
}

void save_inst(void *p, char *buf) {
    memcpy(buf, p, sizeof(inst_t));
}

void load_inst(void *p, const char *buf) {
    memcpy(p, buf, sizeof(inst_t));
    ((box_t *)p)->settled = 0;
}

/* ---- for the SimJIT runtime (runtime.c) ---- */

/* The runtime reads and writes nets as the u128 array the instance
   handle points at. */
#include <stddef.h>
_Static_assert(offsetof(inst_t, cur) == 0,
               "the SimJIT runtime addresses nets through cur at offset 0");

/* One clock edge and the settle after it: the cycle of an instrumented
   run, whose pre-edge state is already settled. */
int edge(void *p) {
    inst_t *I = (inst_t *)p;
    clock_edge(I);
    return settle(I);
}
"""

# ``settle()`` in its two kernel shapes; the specializer picks one.
C_SETTLE_SINGLE_PASS = r"""
/* The comb blocks are in dependency order (none reads a net that a
   later one writes): one pass settles them. */
static inline int settle(inst_t *I) {
    run_comb_blocks(I);
    return 1;
}
"""

C_SETTLE_FIXPOINT = r"""
/* Fixpoint over whole-state snapshots: a block may legitimately
   write a net twice per pass (clear-then-set), so per-write change
   flags would never settle. */
static inline int settle(inst_t *I) {
    int iters = 0;
    do {
        memcpy(I->prev, I->cur, sizeof(I->cur));
        run_comb_blocks(I);
        iters++;
        if (iters > 64) return -1;   /* combinational loop */
    } while (memcmp(I->prev, I->cur, sizeof(I->cur)) != 0);
    return iters;
}
"""

# ``run_input_blocks`` of the fixpoint shape (the single-pass one is
# printed by the specializer, a guarded call per block).
C_INPUT_FIXPOINT = r"""
/* A fixpoint settles all or nothing: every input port's cone is the
   one entry, settle(). */
static int run_input_blocks(inst_t *I, const unsigned char *run) {
    (void)run;
    return settle(I);
}
"""

# CL state access by ``(state_index entry, element)``: one lookup in
# the specializer's ``state_off[]`` (out of range reads 0 and writes
# nothing), or two stubs when the design has no CL state (spelled to
# the byte: they are part of every RTL design's ``.so`` cache key).
C_STATE_TABLE = r"""
static inline int64_t *state_at(inst_t *I, int idx, int elem) {
    if (idx < 0 || idx >= NSTATEVAR || elem < 0
            || elem >= state_off[idx + 1] - state_off[idx])
        return 0;
    return &I->st[state_off[idx] + elem];
}

static int64_t state_probe_at(inst_t *I, int idx, int elem) {
    int64_t *at = state_at(I, idx, elem);
    return at ? *at : 0;
}

static void state_poke_at(inst_t *I, int idx, int elem, int64_t value) {
    int64_t *at = state_at(I, idx, elem);
    if (at) *at = value;
}
"""

C_STATE_NONE = (
    "static int64_t state_probe_at(inst_t *I, int idx, int elem) {\n"
    "  (void)I; (void)elem;\n\n  return 0;\n}\n\n"
    "static void state_poke_at(inst_t *I, int idx, int elem, "
    "int64_t value) {\n"
    "  (void)I; (void)elem; (void)value;\n\n}")

C_HEADER_DECLS = """
void *new_instance(void);
void free_instance(void *p);
void set_net(void *p, int idx, uint64_t lo, uint64_t hi);
void get_net(void *p, int idx, uint64_t *out);
void push_inputs(void *p, const uint64_t *lo, const uint64_t *hi);
int pull_changed(void *p, uint64_t *out);
void resync_outputs(void *p);
int eval_comb(void *p);
int cycle(void *p, int n);
int edge(void *p);
int64_t get_state_at(void *p, int idx, int elem);
void set_state_at(void *p, int idx, int elem, int64_t value);
size_t inst_size(void);
void save_inst(void *p, char *buf);
void load_inst(void *p, const char *buf);
"""


#: Hole kinds.  A SLOT is an index printed bare (a net slot, or a CL
#: state variable's offset in ``st[]``), a TABLE the slots behind one
#: dynamic signal-list index, a CONST an integer constant.
SLOT, TABLE, CONST = "slot", "table", "const"

_MARK = "\x00"
_INT64_MAX = (1 << 63) - 1


class _Template:
    """IR -> C text with holes (:func:`c_template`)."""

    def __init__(self):
        self.holes = []            # (kind, leaf) per hole

    def _hole(self, kind, leaf):
        self.holes.append((kind, leaf))
        return f"{_MARK}{len(self.holes) - 1}{_MARK}"

    # -- references ---------------------------------------------------------------

    def slot_expr(self, ref):
        if ref.is_dynamic():
            table = self._hole(TABLE, ref)
            return f"{table}[(int)({self.expr(ref.index)})]"
        return self._hole(SLOT, ref)

    def sig_read(self, ref, array="cur"):
        slot = self.slot_expr(ref)
        base = f"I->{array}[{slot}]"
        width = ref.width
        if ref.lo == 0 and ref.hi is None:
            # Full-width read; nets are stored masked already.
            return f"({base})"
        return (f"(({base} >> {ref.lo}) & mask_of({width}))")

    def sig_write(self, ref, value_c, is_next, indent):
        array = "nxt" if is_next else "cur"
        slot = self.slot_expr(ref)
        width = ref.width
        full = ref.lo == 0 and ref.hi is None
        pad = " " * indent
        lines = [f"{pad}{{"]
        lines.append(f"{pad}  u128 _v = ((u128)({value_c})) & "
                     f"mask_of({width});")
        if full:
            lines.append(f"{pad}  u128 _nv = _v;")
        else:
            lines.append(
                f"{pad}  u128 _nv = (I->{array}[{slot}] & "
                f"~(mask_of({width}) << {ref.lo})) | (_v << {ref.lo});"
            )
        lines.append(f"{pad}  I->{array}[{slot}] = _nv;")
        lines.append(f"{pad}}}")
        return "\n".join(lines)

    # -- expressions ------------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, Const):
            return self._hole(CONST, node)
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
            if node.op == "//":
                return (f"py_floordiv((int64_t)({left}), "
                        f"(int64_t)({right}))")
            if node.op == "%":
                return f"py_mod((int64_t)({left}), (int64_t)({right}))"
            return f"({left} {node.op} {right})"
        if isinstance(node, UnOp):
            return f"({node.op}({self.expr(node.operand)}))"
        if isinstance(node, Cmp):
            return (f"(({self.expr(node.left)}) {node.op} "
                    f"({self.expr(node.right)}))")
        if isinstance(node, BoolOp):
            joined = f" {node.op} ".join(
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
            var = _lname(node.var)
            lines = [
                f"{pad}for ({var} = {node.start}; {var} < {node.stop}; "
                f"{var} += {node.step}) {{"
            ]
            lines.extend(self.stmt(s, indent + 2) for s in node.body)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(node, Break):
            return f"{pad}break;"
        if isinstance(node, Continue):
            return f"{pad}continue;"
        raise TranslationError(f"cgen: unknown stmt {type(node).__name__}")


def c_template(ir):
    """``(text, holes)``: ``ir``'s function body as a template, with a
    ``\\0<h>\\0`` marker where hole ``h`` is used, and per hole
    ``(kind, leaf)``: the ``SigRef``, ``StateRef`` or ``Const`` whose
    value fills it."""
    printer = _Template()
    lines = ["  (void)I;"]
    for name, ltype in ir.locals.items():
        if ltype == "int":
            lines.append(f"  int64_t {_lname(name)} = 0;")
        else:
            lines.append(f"  int64_t {_lname(name)}[{ltype[1]}];")
    for stmt in ir.body:
        lines.append(printer.stmt(stmt, 2))
    lines.append("}")
    return "\n".join(lines), printer.holes


class _Group:
    """The blocks that lowered to one template.  ``text`` is the body
    with a ``\\0<h>\\0`` marker wherever hole ``h`` is used and
    ``kinds[h]`` that hole's kind; block ``m`` of the group is
    ``names[m]`` with hole values ``values[m]``, called by
    ``calls[m]`` once the group is printed."""

    __slots__ = ("text", "kinds", "names", "values", "calls")

    def __init__(self, text, kinds):
        self.text = text
        self.kinds = kinds
        self.names = []
        self.values = []
        self.calls = []


class CBackend:
    """Generates one C function per distinct block body.

    :meth:`add` files a block's template (:func:`c_template`) with the
    blocks whose template is equal; :meth:`emit_blocks` then prints
    every group once."""

    def __init__(self):
        self._groups = {}          # template -> _Group, first seen first
        self._blocks = []          # (group, member) per add
        self._tables = {}          # slots -> name of a literal table
        #: function bodies :meth:`emit_blocks` printed
        self.nfunctions = 0

    def add(self, text, kinds, values, func_name):
        """File block ``func_name``: a template and this instance's hole
        ``values`` (a slot or state offset, a tuple of slots, an int)."""
        # The text does not say how long a dynamic table is, and a
        # shared body reaches every member's tables at one offset.
        key = (text, tuple(len(value) for kind, value in zip(kinds, values)
                           if kind == TABLE))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(text, kinds)
        self._blocks.append((group, len(group.names)))
        group.names.append(func_name)
        group.values.append(values)

    def emit_blocks(self):
        """Print every group.  Returns ``(parts, calls)``: the C text
        (literal lookup tables, then per group its members' tables and
        its function) and one call statement per :meth:`add`, in
        the order added."""
        parts = []
        for g, group in enumerate(self._groups.values()):
            parts.extend(self._emit_group(g, group))
        tables = "\n".join(
            f"static const int {name}[{len(slots)}] = "
            f"{{{', '.join(map(str, slots))}}};"
            for slots, name in self._tables.items())
        return ([tables] + parts,
                [group.calls[m] for group, m in self._blocks])

    def _emit_group(self, g, group):
        """C text of group ``g``; fills ``group.calls``."""
        pieces = group.text.split(_MARK)
        holes = list(map(int, pieces[1::2]))

        def function(signature, printed):
            pieces[1::2] = map(printed.__getitem__, holes)
            self.nfunctions += 1
            return f"static void {signature} {{\n" + "".join(pieces)

        kinds = group.kinds
        shared = len(group.names) > 1
        if shared:
            columns = list(zip(*group.values))
            varies = [len(set(col)) > 1 for col in columns]
            shared = not any(
                abs(value) > _INT64_MAX
                for kind, col, v in zip(kinds, columns, varies)
                if v and kind == CONST for value in col)
        if not shared:
            # Nothing to share, or a constant K cannot hold: every
            # hole is the literal it always was.
            group.calls = [f"{name}(I);" for name in group.names]
            return [function(f"{name}(inst_t *I)",
                             [self._literal(kind, value)
                              for kind, value in zip(kinds, values)])
                    for name, values in zip(group.names, group.values)]

        # A hole that varies reads the member's tables: S holds slots
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
        name = group.names[0]
        tables = []
        for m in range(len(group.names)):
            args = []
            for ctype, prefix, row in (
                    ("int", "S",
                     [str(slot) for col in s_cols for slot in col[m]]),
                    ("int64_t", "K", [f"{col[m]}LL" for col in k_at])):
                if row:
                    args.append(f"{prefix}_{g}_{m}")
                    tables.append(
                        f"static const {ctype} {args[-1]}[{len(row)}] = "
                        f"{{{', '.join(row)}}};")
                else:
                    args.append("0")
            group.calls.append(f"{name}(I, {', '.join(args)});")
        body = function(
            f"{name}(inst_t *I, const int *S, const int64_t *K)", printed)
        return ["\n".join(tables), body] if tables else [body]

    def _literal(self, kind, value):
        """A hole printed as the value itself."""
        if kind == SLOT:
            return str(value)
        if kind == TABLE:
            return self._tables.setdefault(value, f"tbl{len(self._tables)}")
        if value < 0:
            return f"((int64_t)({value}LL))"
        if value > _INT64_MAX:
            hi, lo = value >> 64, value & ((1 << 64) - 1)
            return f"((((u128){hi}ULL) << 64) | {lo}ULL)"
        return f"({value}LL)"


def _lname(name):
    return f"l_{name}"
