"""C code generation from behavioral-block IR.

SimJIT's backend (paper Section IV-A): lowers :class:`BlockIR`
statements and expressions into C.  A design's translation unit holds
what depends on a block body and nothing else: the prelude, one
function per distinct body, ``run_block`` (which of them a block runs)
and one fixed kernel (:data:`C_KERNEL`), the same text for every
design.  Everything that names an instance — how many nets there are
and how wide, the port and flop slots, which block runs which function
over which slots and constants in which order, the input cones, the CL
state offsets, the initial values — is the design's *layout*
(:class:`Layout`, the C ``layout_t``), which the engine builds in
Python and hands to ``new_instance``.  A layout belongs to its
instance, never to the library, so two designs whose bodies print the
same text are one ``.so``.

Every signal net is an ``unsigned __int128`` slot (wide enough for the
65-bit memory messages).  The instance handle points at the checkpoint
blob ``cur | nxt | [prev] | [st]``:

- ``cur`` holds the settled value of every net.  Combinational blocks
  read and write it; ``settle()`` runs them once in the order
  :func:`repro.core.scheduling.build_schedule` gave the specializer;
- ``nxt`` is meaningful only for the *flop nets* — the nets some tick
  block writes via ``.next`` (``flop_slot``).  ``edge`` seeds those
  slots from ``cur``, runs the tick blocks (which read ``cur`` and
  write ``nxt``), copies the same slots back and settles;
- ``prev`` exists only in a *fixpoint* layout, made when the block
  graph has a cyclic or self-reading residue (or scheduling was
  switched off): ``settle()`` then repeats the pass until a whole-net
  snapshot stops changing;
- ``st`` is plain CL state, ``int64_t``; a variable is the elements
  from its ``state_off`` entry on.

Local variables are ``int64_t`` (signed, so idioms like ``sa = a -
0x100000000`` compare correctly).  The settle before an edge
(``eval_comb``, and ``cycle``'s first) runs only the comb blocks the
input ports changed since the last settle reach (``in_blk``,
``in_cone``); the Python boundary moves every input port in one
``push_inputs`` and only the changed output ports in one
``pull_changed``.  The compiled instrumentation and the compiled test
bench are ``runtime.c`` (:func:`.specializer._runtime`), which reaches
a design through the handle, whose first bytes are ``cur``, and through
pointers to the exported entry points.

Dynamic signal-list indexing (``s.rf[rd]``) is compiled to a slot
lookup table per reference.

**Template, body, layout.**  Each block body is compiled once.
:func:`c_template` prints a block as a *template*: its C text with a
*hole* wherever the text would name something only this instance has —
a net slot, a CL state offset, the slot table behind a dynamic index,
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
  ``S[i]`` for a slot or state offset, ``(S + off)[idx]`` for a dynamic
  table, ``K[j]`` for a constant — and holes whose values agree in
  every member share an entry.  The function is ``f(inst_t *I, const
  int *S, const int64_t *K)``;
- a body of one block, or one with a varying constant outside
  ``int64_t``, prints every hole as its literal in ``f(inst_t *I)``, one
  function per block, with no entries.

The kernel runs block ``b`` of the layout as ``run_block(I, f, S, K)``:
``f`` is the case of its function in ``run_block``'s one ``switch``,
``S`` and ``K`` point at its entries in the layout's pools.  Bodies,
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

# One instance's data for the kernel; :class:`Layout` builds it.  The
# cffi declarations (``C_HEADER_DECLS``) and every translation unit
# spell it alike.
C_LAYOUT = r"""
typedef struct {
    int nnets, nin, nout, nflop, ncomb, ntick, ninblk, nstatevar, nst;
    int fixpoint;
    const unsigned short *net_width;
    const int *in_slot, *out_slot, *flop_slot;
    const int *block;               /* per block: function, S at, K at */
    const int *s;                   /* the S pool */
    const int64_t *k;               /* the K pool */
    const int *in_blk, *in_cone_off, *in_cone;
    const int *state_off;           /* nstatevar + 1 */
    const uint64_t *init_cur;       /* lo, hi per net */
    const int64_t *init_st;
} layout_t;
"""

# No system header: parsing them was a tenth of gcc's time on a design.
C_PRELUDE = r"""
/* The compiler's own types and builtins. */
typedef __INT64_TYPE__ int64_t;
typedef __UINT64_TYPE__ uint64_t;
typedef __SIZE_TYPE__ size_t;
typedef unsigned __int128 u128;
#define offsetof __builtin_offsetof
#define memcpy __builtin_memcpy
#define memcmp __builtin_memcmp
#define calloc __builtin_calloc
#define free __builtin_free
""" + C_LAYOUT + r"""
/* What a block body reaches of its instance. */
typedef struct {
    u128 *cur, *nxt;
    int64_t *st;
} inst_t;

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

# The kernel: the same text for every design, after the design's
# ``run_block``.  Every entry point takes the handle ``new_instance``
# returned, so instances never share state.  What needs no C — reading
# a net, taking and restoring a checkpoint — the engine does on the
# blob itself (:class:`.specializer.SimJITEngine`).
C_KERNEL = r"""
/* ---- the kernel ---- */

/* Python reads the blob's nets as (lo, hi) words. */
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "a net is its low word, then its high word");

/* An instance: its layout, the body view, the Python boundary's
   shadows and the input settle's state, then the checkpoint blob
   cur | nxt | [prev] | [st].  The handle points at the blob, so its
   first bytes are cur, where runtime.c reads and writes nets. */
typedef struct {
    const layout_t *L;
    inst_t I;
    u128 *prev, *out_last, *in_last;
    unsigned char *run;
    int out_synced, settled;
    u128 blob[];
} box_t;

#define BOX(p) ((box_t *)((char *)(p) - offsetof(box_t, blob)))

static void run_blocks(box_t *B, int from, int to) {
    const layout_t *L = B->L;
    for (int b = from; b < to; b++) {
        const int *at = L->block + 3 * b;
        run_block(&B->I, at[0], L->s + at[1], L->k + at[2]);
    }
}

#define run_comb_blocks(B) run_blocks(B, 0, (B)->L->ncomb)
#define run_tick_blocks(B) \
    run_blocks(B, (B)->L->ncomb, (B)->L->ncomb + (B)->L->ntick)

/* Single pass: the comb blocks are in dependency order (none reads a
   net that a later one writes).  Fixpoint: whole-net snapshots, since
   a block may legitimately write a net twice per pass
   (clear-then-set), so per-write change flags would never settle. */
static int settle(box_t *B) {
    size_t n = (size_t)B->L->nnets * sizeof(u128);
    int iters = 0;
    if (!B->L->fixpoint) {
        run_comb_blocks(B);
        return 1;
    }
    do {
        memcpy(B->prev, B->I.cur, n);
        run_comb_blocks(B);
        iters++;
        if (iters > 64) return -1;   /* combinational loop */
    } while (memcmp(B->prev, B->I.cur, n) != 0);
    return iters;
}

/* ---- external API (cffi) ---- */

void *new_instance(const layout_t *L) {
    int parts = L->fixpoint ? 3 : 2;
    size_t nets = (size_t)L->nnets * sizeof(u128);
    box_t *B = (box_t *)calloc(
        1, sizeof(box_t) + parts * nets + (size_t)L->nst * sizeof(int64_t));
    B->L = L;
    B->I.cur = B->blob;
    B->I.nxt = B->blob + L->nnets;
    B->prev = B->blob + 2 * L->nnets;
    B->I.st = (int64_t *)(B->blob + parts * L->nnets);
    B->out_last = (u128 *)calloc(L->nout + L->nin + 2, sizeof(u128));
    B->in_last = B->out_last + L->nout + 1;
    B->run = (unsigned char *)calloc(L->ninblk + 1, 1);
    memcpy(B->I.cur, L->init_cur, nets);
    memcpy(B->I.st, L->init_st, (size_t)L->nst * sizeof(int64_t));
    return B->blob;
}

void free_instance(void *p) {
    box_t *B = BOX(p);
    free(B->out_last);
    free(B->run);
    free(B);
}

/* Something wrote the blob behind the kernel's back (set_net,
   set_state_at, a restored checkpoint): the next input settle runs
   every block, the next pull returns every output port. */
void invalidate(void *p) {
    BOX(p)->settled = 0;
    BOX(p)->out_synced = 0;
}

void set_net(void *p, int idx, uint64_t lo, uint64_t hi) {
    box_t *B = BOX(p);
    B->I.cur[idx] = (((u128)hi << 64) | lo)
        & mask_of(B->L->net_width[idx]);
    B->settled = 0;
}

/* Store every input port; hi may be NULL when no port is wider than
   64 bits. */
void push_inputs(void *p, const uint64_t *lo, const uint64_t *hi) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    for (int i = 0; i < L->nin; i++) {
        int s = L->in_slot[i];
        u128 v = hi ? ((u128)hi[i] << 64) | lo[i] : (u128)lo[i];
        B->I.cur[s] = v & mask_of(L->net_width[s]);
    }
}

/* (port index, lo, hi) of every output port whose value differs from
   what the last pull returned; returns the number of triples. */
int pull_changed(void *p, uint64_t *out) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    int n = 0;
    for (int i = 0; i < L->nout; i++) {
        u128 v = B->I.cur[L->out_slot[i]];
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

/* The settle before an edge: eval_comb, and cycle's first.  Only
   input slots can have changed since the last settle, so while the
   state is settled for the input values in_last, only the comb blocks
   that the changed ports reach run: in_cone lists them per port as
   entries of in_blk, which holds them in schedule order.  No port
   changed, no block runs; a fixpoint settles all or nothing.  A write
   behind the settle's back clears settled, as a new instance starts,
   and the next input settle is settle(). */
int eval_comb(void *p) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    u128 *cur = B->I.cur;
    int changed = 0, r = 1;
    if (!B->settled) {
        r = settle(B);
        for (int i = 0; i < L->nin; i++)
            B->in_last[i] = cur[L->in_slot[i]];
    } else {
        for (int i = 0; i < L->nin; i++) {
            u128 v = cur[L->in_slot[i]];
            if (v == B->in_last[i]) continue;
            B->in_last[i] = v;
            for (int k = L->in_cone_off[i]; k < L->in_cone_off[i + 1]; k++)
                B->run[L->in_cone[k]] = 1;
            changed = 1;
        }
        if (changed && L->fixpoint) {
            r = settle(B);
        } else if (changed) {
            for (int j = 0; j < L->ninblk; j++) {
                if (!B->run[j]) continue;
                B->run[j] = 0;
                run_blocks(B, L->in_blk[j], L->in_blk[j] + 1);
            }
        }
    }
    B->settled = r >= 0;
    return r;
}

/* One clock edge and the settle after it.  Only flop nets have a
   meaningful nxt: seed them from cur (a tick that skips its .next
   write holds the value), run the ticks, copy them back. */
int edge(void *p) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    u128 *cur = B->I.cur, *nxt = B->I.nxt;
    for (int i = 0; i < L->nflop; i++)
        nxt[L->flop_slot[i]] = cur[L->flop_slot[i]];
    run_tick_blocks(B);
    for (int i = 0; i < L->nflop; i++)
        cur[L->flop_slot[i]] = nxt[L->flop_slot[i]];
    return settle(B);
}

/* Each edge leaves the state settled, so only the first cycle of a
   batch needs its own pre-edge settle, and only for the inputs written
   since. */
int cycle(void *p, int n) {
    if (eval_comb(p) < 0) return -1;
    for (int i = 0; i < n; i++)
        if (edge(p) < 0) return -1;
    return 0;
}

/* CL state by (state_index entry, element): out of range reads 0 and
   writes nothing. */
static int64_t *state_at(box_t *B, int idx, int elem) {
    const layout_t *L = B->L;
    if (idx < 0 || idx >= L->nstatevar || elem < 0
            || elem >= L->state_off[idx + 1] - L->state_off[idx])
        return 0;
    return &B->I.st[L->state_off[idx] + elem];
}

int64_t get_state_at(void *p, int idx, int elem) {
    int64_t *at = state_at(BOX(p), idx, elem);
    return at ? *at : 0;
}

void set_state_at(void *p, int idx, int elem, int64_t value) {
    int64_t *at = state_at(BOX(p), idx, elem);
    if (at) *at = value;
    BOX(p)->settled = 0;
}
"""

C_HEADER_DECLS = C_LAYOUT + """
void *new_instance(const layout_t *L);
void free_instance(void *p);
void invalidate(void *p);
void set_net(void *p, int idx, uint64_t lo, uint64_t hi);
void push_inputs(void *p, const uint64_t *lo, const uint64_t *hi);
int pull_changed(void *p, uint64_t *out);
int eval_comb(void *p);
int edge(void *p);
int cycle(void *p, int n);
int64_t get_state_at(void *p, int idx, int elem);
void set_state_at(void *p, int idx, int elem, int64_t value);
"""

_U64 = (1 << 64) - 1


class Layout(NamedTuple):
    """One instance's data for the kernel (``layout_t``): everything
    that names an instance rather than a body.  ``blocks`` is one
    ``(function, S entries, K entries)`` per block, the comb blocks in
    schedule order, then the tick blocks; ``in_blk`` the comb positions
    some input port reaches and ``in_cone`` per input port the
    ``in_blk`` entries it reaches; ``init_cur`` / ``init_st`` the
    values a new instance starts from."""

    net_width: list
    in_slot: list
    out_slot: list
    flop_slot: list
    blocks: list
    ncomb: int
    in_blk: list
    in_cone: list
    state_off: list
    init_cur: list
    init_st: list
    fixpoint: bool

    @property
    def nbytes(self):
        """Bytes of the checkpoint blob ``cur | nxt | [prev] | [st]``."""
        return (16 * len(self.net_width) * (3 if self.fixpoint else 2)
                + 8 * len(self.init_st))

    def to_c(self, ffi):
        """``(layout_t *, arrays)``: the ``layout_t`` and the arrays it
        points at, which must live as long as it does."""
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
        init_cur = []
        for value in self.init_cur:
            init_cur += (value & _U64, value >> 64)
        layout = ffi.new("layout_t *", {
            "nnets": len(self.net_width), "nin": len(self.in_slot),
            "nout": len(self.out_slot), "nflop": len(self.flop_slot),
            "ncomb": self.ncomb, "ntick": len(self.blocks) - self.ncomb,
            "ninblk": len(self.in_blk),
            "nstatevar": len(self.state_off) - 1,
            "nst": len(self.init_st), "fixpoint": int(self.fixpoint),
            "net_width": array("unsigned short", self.net_width),
            "in_slot": array("int", self.in_slot),
            "out_slot": array("int", self.out_slot),
            "flop_slot": array("int", self.flop_slot),
            "block": array("int", block), "s": array("int", s),
            "k": array("int64_t", k),
            "in_blk": array("int", self.in_blk),
            "in_cone_off": array("int", cone_off),
            "in_cone": array("int", [j for cone in self.in_cone
                                     for j in cone]),
            "state_off": array("int", self.state_off),
            "init_cur": array("uint64_t", init_cur),
            "init_st": array("int64_t", self.init_st),
        })
        return layout, arrays


#: Hole kinds.  A SLOT is an index printed bare (a net slot, or a CL
#: state variable's offset in ``st[]``), a TABLE the slots behind one
#: dynamic signal-list index, a CONST an integer constant.
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
                f"{pad}for ({var} = {node.start}; "
                f"{var} {'<' if node.step > 0 else '>'} {node.stop}; "
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


def c_template(ir, hole_of):
    """``(text, kinds, sources)``: ``ir``'s function body as a template,
    with a ``\\0<h>\\0`` marker where hole ``h`` is used; hole ``h`` is
    of kind ``kinds[h]`` and filled by ``sources[h]``, the value
    ``hole_of`` gives its ``SigRef``, ``StateRef`` or ``Const`` (by
    ``id``).  A ``Const`` ``hole_of`` does not name is the literal."""
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
    return "\n".join(lines), tuple(printer.kinds), tuple(printer.sources)


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
            "entries: one copy\n   of every body, whichever kernel loop "
            "runs it. */\n"
            "__attribute__((noinline))\n"
            "static void run_block(inst_t *I, int f, const int *s, "
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
