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

The Python boundary is bulk and change-detected: ``push_inputs``
stores every input port from one array, ``pull_changed`` returns
``(port index, lo, hi)`` only for output ports that differ from what
the last pull returned (``in_slot[]``/``out_slot[]`` are static
tables; the output shadow lives beside ``inst_t``, outside the
checkpoint blob).

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

# The instance struct, the port/flop slot tables, ``settle()`` and the
# block runners are emitted by the specializer (it knows the CL state
# variables and the kernel shape); every generated function takes an
# `inst_t *I`, so multiple instances of the same compiled model never
# share state.
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

/* The output shadow sits behind inst_t so that every entry point can
   cast the handle to inst_t* and the checkpoint blob stays the bare
   inst_t. */
typedef struct {
    inst_t inst;
    u128 out_last[NOUT + 1];
    int out_synced;
} box_t;

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
    return settle((inst_t *)p);
}

int cycle(void *p, int n) {
    inst_t *I = (inst_t *)p;
    /* Each edge leaves the state settled, so only the first cycle of
       a batch needs its own pre-edge settle. */
    if (settle(I) < 0) return -1;
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

# Compiled-instrumentation runtime, appended to every translation unit.
#
# All observability state lives in a heap side-struct (``obs_t``)
# separate from ``inst_t``, so the checkpoint blob (``save_inst``/
# ``load_inst``) is unaffected by armed instrumentation.  The runtime
# is *data-driven*: recorder taps, val/rdy taps, histogram probes, and
# watchpoint node trees are registered at run time through the API
# below, so one compiled ``.so`` serves any set of attachments and the
# content-addressed artifact cache stays effective.
#
# ``obs_run`` replicates the per-cycle sampling contract of the
# interpreted simulator exactly:
#
# - val/rdy taps sample after the *pre-edge* settle with the
#   pre-increment cycle stamp (the cycle-hook sampling point);
# - recorder taps, histogram probes, and watchpoint nodes sample after
#   the *post-edge* settle with the post-increment stamp (the observer
#   sampling point);
# - watchpoint ``&`` evaluates both operands unconditionally (edge
#   trackers must see every cycle), and a hit stops the batch so
#   Python-side actions fire at the exact cycle.
#
# Taps emit change-compressed events into preallocated buffers; a
# batch ends early (return < n) when a buffer could overflow on the
# next cycle, letting Python drain and resume losslessly.
C_OBS = r"""
/* ---- compiled instrumentation runtime ---- */

#define OBS_MAX_REC 128
#define OBS_MAX_TX 256
#define OBS_MAX_NODES 512
#define OBS_MAX_WP 64
#define OBS_MAX_HIST 64
#define OBS_HIST_CAP 1024

typedef struct {
    int kind;           /* 0 rose 1 fell 2 changed 3 value_is
                           4 and 5 or 6 not */
    int slot;           /* net slot (kinds 0-3) */
    int a, b;           /* operand node indices (kinds 4-6) */
    u128 aux;           /* comparison value (kind 3) */
    u128 prev;          /* previous value (kinds 0-2) */
} obs_node_t;

typedef struct {
    inst_t *I;
    long long cycle;    /* mirrors sim.ncycles */
    /* flight-recorder taps: change events (cycle, tap, lo, hi) */
    int nrec;
    int rec_slot[OBS_MAX_REC];
    u128 rec_last[OBS_MAX_REC];
    long long rec_cap, rec_len;
    uint64_t *rec_buf;
    /* val/rdy taps: run-boundary events (cycle, tap, vr, lo, hi) */
    int ntx;
    int tx_val[OBS_MAX_TX], tx_rdy[OBS_MAX_TX], tx_msg[OBS_MAX_TX];
    u128 tx_lmsg[OBS_MAX_TX];
    unsigned char tx_lvr[OBS_MAX_TX], tx_seen[OBS_MAX_TX];
    long long tx_cap, tx_len;
    uint64_t *tx_buf;
    /* signal-backed histograms: open-addressed value->count tables */
    int nhist;
    int hist_slot[OBS_MAX_HIST], hist_when[OBS_MAX_HIST];
    int hist_used[OBS_MAX_HIST];
    int64_t *hist_vals;
    long long *hist_cnts;
    /* watchpoints: flat postorder node forest, one root per wp */
    int nnodes, nwp;
    obs_node_t nodes[OBS_MAX_NODES];
    unsigned char nval[OBS_MAX_NODES];
    int wp_root[OBS_MAX_WP];
    long long hit_cycle;
    uint64_t hit_mask;
} obs_t;

void *obs_new(void *inst, long long rec_cap, long long tx_cap) {
    obs_t *O = (obs_t *)calloc(1, sizeof(obs_t));
    if (!O) return 0;
    O->I = (inst_t *)inst;
    O->rec_cap = rec_cap;
    O->tx_cap = tx_cap;
    O->rec_buf = (uint64_t *)malloc((size_t)rec_cap * 4 * 8);
    O->tx_buf = (uint64_t *)malloc((size_t)tx_cap * 5 * 8);
    O->hit_cycle = -1;
    return O;
}

void obs_free(void *op) {
    obs_t *O = (obs_t *)op;
    if (!O) return;
    free(O->rec_buf);
    free(O->tx_buf);
    free(O->hist_vals);
    free(O->hist_cnts);
    free(O);
}

void obs_set_cycle(void *op, long long cycle) {
    ((obs_t *)op)->cycle = cycle;
}

int obs_add_rec_tap(void *op, int slot) {
    obs_t *O = (obs_t *)op;
    if (O->nrec >= OBS_MAX_REC) return -1;
    O->rec_slot[O->nrec] = slot;
    O->rec_last[O->nrec] = O->I->cur[slot];
    return O->nrec++;
}

void obs_del_rec_tap(void *op, int idx) {
    ((obs_t *)op)->rec_slot[idx] = -1;
}

int obs_add_tx_tap(void *op, int val, int rdy, int msg) {
    obs_t *O = (obs_t *)op;
    if (O->ntx >= OBS_MAX_TX) return -1;
    O->tx_val[O->ntx] = val;
    O->tx_rdy[O->ntx] = rdy;
    O->tx_msg[O->ntx] = msg;
    O->tx_seen[O->ntx] = 0;
    return O->ntx++;
}

void obs_del_tx_tap(void *op, int idx) {
    ((obs_t *)op)->tx_val[idx] = -1;
}

void obs_tx_rearm(void *op, int idx) {
    /* Force a boundary event at the next sampled cycle (used after
       monitor resets so the replay re-observes the live values). */
    ((obs_t *)op)->tx_seen[idx] = 0;
}

int obs_add_hist(void *op, int slot, int when_slot) {
    obs_t *O = (obs_t *)op;
    if (O->nhist >= OBS_MAX_HIST) return -1;
    if (!O->hist_vals) {
        O->hist_vals = (int64_t *)calloc(
            (size_t)OBS_MAX_HIST * OBS_HIST_CAP, 8);
        O->hist_cnts = (long long *)calloc(
            (size_t)OBS_MAX_HIST * OBS_HIST_CAP, 8);
        if (!O->hist_vals || !O->hist_cnts) return -1;
    }
    O->hist_slot[O->nhist] = slot;
    O->hist_when[O->nhist] = when_slot;
    return O->nhist++;
}

void obs_del_hist(void *op, int idx) {
    ((obs_t *)op)->hist_slot[idx] = -1;
}

long long obs_hist_drain(void *op, int idx, int64_t *vals,
                         long long *cnts) {
    obs_t *O = (obs_t *)op;
    int64_t *tv = O->hist_vals + (long long)idx * OBS_HIST_CAP;
    long long *tc = O->hist_cnts + (long long)idx * OBS_HIST_CAP;
    long long n = 0;
    if (!O->hist_vals) return 0;
    for (int i = 0; i < OBS_HIST_CAP; i++) {
        if (tc[i] != 0) {
            vals[n] = tv[i];
            cnts[n] = tc[i];
            tc[i] = 0;
            n++;
        }
    }
    O->hist_used[idx] = 0;
    return n;
}

int obs_add_watch(void *op, int nnodes, const int64_t *packed) {
    /* ``packed`` holds 6 words per node: kind, slot, a, b, aux_lo,
       aux_hi; a/b are indices relative to the first added node. */
    obs_t *O = (obs_t *)op;
    int base = O->nnodes;
    if (O->nwp >= OBS_MAX_WP || base + nnodes > OBS_MAX_NODES)
        return -1;
    for (int i = 0; i < nnodes; i++) {
        obs_node_t *nd = &O->nodes[base + i];
        const int64_t *w = packed + 6 * i;
        nd->kind = (int)w[0];
        nd->slot = (int)w[1];
        nd->a = w[2] < 0 ? -1 : base + (int)w[2];
        nd->b = w[3] < 0 ? -1 : base + (int)w[3];
        nd->aux = ((u128)(uint64_t)w[5] << 64) | (uint64_t)w[4];
        nd->prev = (nd->kind <= 2) ? O->I->cur[nd->slot] : 0;
    }
    O->nnodes = base + nnodes;
    O->wp_root[O->nwp] = base + nnodes - 1;
    return O->nwp++;
}

void obs_del_watch(void *op, int idx) {
    ((obs_t *)op)->wp_root[idx] = -1;
}

long long obs_hit_cycle(void *op) { return ((obs_t *)op)->hit_cycle; }
uint64_t obs_hit_mask(void *op) { return ((obs_t *)op)->hit_mask; }

long long obs_rec_drain(void *op, uint64_t *out) {
    obs_t *O = (obs_t *)op;
    long long n = O->rec_len;
    if (n) memcpy(out, O->rec_buf, (size_t)n * 4 * 8);
    O->rec_len = 0;
    return n;
}

long long obs_tx_drain(void *op, uint64_t *out) {
    obs_t *O = (obs_t *)op;
    long long n = O->tx_len;
    if (n) memcpy(out, O->tx_buf, (size_t)n * 5 * 8);
    O->tx_len = 0;
    return n;
}

long long obs_run(void *op, long long n) {
    obs_t *O = (obs_t *)op;
    inst_t *I = O->I;
    O->hit_cycle = -1;
    O->hit_mask = 0;
    for (long long k = 0; k < n; k++) {
        /* Stop before a cycle whose worst case could overflow a
           buffer; the caller drains and resumes. */
        if (O->nrec && O->rec_len + O->nrec > O->rec_cap) return k;
        if (O->ntx && O->tx_len + O->ntx > O->tx_cap) return k;
        for (int h = 0; h < O->nhist; h++)
            if (O->hist_slot[h] >= 0
                    && O->hist_used[h] > OBS_HIST_CAP - 64)
                return k;
        /* Later cycles start from the previous post-edge settle. */
        if (k == 0 && settle(I) < 0) return -1;
        /* pre-edge sampling point (cycle-hook semantics) */
        for (int t = 0; t < O->ntx; t++) {
            unsigned char vr;
            u128 msg;
            if (O->tx_val[t] < 0) continue;
            vr = (unsigned char)(
                ((I->cur[O->tx_val[t]] != 0) ? 1 : 0)
                | ((I->cur[O->tx_rdy[t]] != 0) ? 2 : 0));
            msg = I->cur[O->tx_msg[t]];
            if (!O->tx_seen[t] || vr != O->tx_lvr[t]
                    || msg != O->tx_lmsg[t]) {
                uint64_t *e = O->tx_buf + 5 * O->tx_len++;
                e[0] = (uint64_t)O->cycle;
                e[1] = (uint64_t)t;
                e[2] = vr;
                e[3] = (uint64_t)msg;
                e[4] = (uint64_t)(msg >> 64);
                O->tx_seen[t] = 1;
                O->tx_lvr[t] = vr;
                O->tx_lmsg[t] = msg;
            }
        }
        clock_edge(I);
        if (settle(I) < 0) return -1;
        O->cycle++;
        /* post-edge sampling point (observer semantics) */
        for (int t = 0; t < O->nrec; t++) {
            u128 v;
            if (O->rec_slot[t] < 0) continue;
            v = I->cur[O->rec_slot[t]];
            if (v != O->rec_last[t]) {
                uint64_t *e = O->rec_buf + 4 * O->rec_len++;
                O->rec_last[t] = v;
                e[0] = (uint64_t)O->cycle;
                e[1] = (uint64_t)t;
                e[2] = (uint64_t)v;
                e[3] = (uint64_t)(v >> 64);
            }
        }
        for (int h = 0; h < O->nhist; h++) {
            int64_t v;
            int64_t *vals;
            long long *cnts;
            uint64_t idx;
            if (O->hist_slot[h] < 0) continue;
            if (O->hist_when[h] >= 0
                    && I->cur[O->hist_when[h]] == 0) continue;
            v = (int64_t)I->cur[O->hist_slot[h]];
            vals = O->hist_vals + (long long)h * OBS_HIST_CAP;
            cnts = O->hist_cnts + (long long)h * OBS_HIST_CAP;
            idx = ((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> 54;
            for (;;) {
                idx &= (OBS_HIST_CAP - 1);
                if (cnts[idx] == 0) {
                    vals[idx] = v;
                    cnts[idx] = 1;
                    O->hist_used[h]++;
                    break;
                }
                if (vals[idx] == v) { cnts[idx]++; break; }
                idx++;
            }
        }
        if (O->nnodes) {
            uint64_t mask = 0;
            for (int i = 0; i < O->nnodes; i++) {
                obs_node_t *nd = &O->nodes[i];
                unsigned char r = 0;
                u128 v;
                switch (nd->kind) {
                    case 0:
                        v = I->cur[nd->slot];
                        r = (nd->prev == 0) && (v != 0);
                        nd->prev = v;
                        break;
                    case 1:
                        v = I->cur[nd->slot];
                        r = (nd->prev != 0) && (v == 0);
                        nd->prev = v;
                        break;
                    case 2:
                        v = I->cur[nd->slot];
                        r = (v != nd->prev);
                        nd->prev = v;
                        break;
                    case 3:
                        r = (I->cur[nd->slot] == nd->aux);
                        break;
                    case 4:
                        r = O->nval[nd->a] & O->nval[nd->b];
                        break;
                    case 5:
                        r = O->nval[nd->a] | O->nval[nd->b];
                        break;
                    default:
                        r = !O->nval[nd->a];
                        break;
                }
                O->nval[i] = r;
            }
            for (int w = 0; w < O->nwp; w++)
                if (O->wp_root[w] >= 0 && O->nval[O->wp_root[w]])
                    mask |= ((uint64_t)1) << w;
            if (mask) {
                O->hit_cycle = O->cycle;
                O->hit_mask = mask;
                return k + 1;
            }
        }
    }
    return n;
}
"""

C_OBS_DECLS = """
void *obs_new(void *inst, long long rec_cap, long long tx_cap);
void obs_free(void *op);
void obs_set_cycle(void *op, long long cycle);
int obs_add_rec_tap(void *op, int slot);
void obs_del_rec_tap(void *op, int idx);
int obs_add_tx_tap(void *op, int val, int rdy, int msg);
void obs_del_tx_tap(void *op, int idx);
void obs_tx_rearm(void *op, int idx);
int obs_add_hist(void *op, int slot, int when_slot);
void obs_del_hist(void *op, int idx);
long long obs_hist_drain(void *op, int idx, int64_t *vals,
                         long long *cnts);
int obs_add_watch(void *op, int nnodes, const int64_t *packed);
void obs_del_watch(void *op, int idx);
long long obs_hit_cycle(void *op);
uint64_t obs_hit_mask(void *op);
long long obs_rec_drain(void *op, uint64_t *out);
long long obs_tx_drain(void *op, uint64_t *out);
long long obs_run(void *op, long long n);
"""

# Compiled test bench, appended to every translation unit beside the
# instrumentation runtime and data-driven like it: net slots, message
# layout, rate and run lengths arrive in a ``tb_t`` the harness fills
# (:meth:`repro.net.traffic.NetworkTrafficHarness.run_uniform_random`),
# so one ``.so`` serves every harness.
#
# ``tb_uniform`` is that method's cycle, statement for statement, with
# Python's own random numbers: ``tape`` holds successive 32-bit outputs
# of the harness's Mersenne Twister and the two draws are CPython's —
# ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`` and
# ``randrange(n)`` is ``w >> (32 - n.bit_length())``, redrawn while
# ``>= n``.  It returns ``TB_WORDS`` at a draw the tape cannot serve
# and ``TB_FULL`` at a latency the buffer cannot hold, consuming
# nothing of either, and picks up at that draw or that output port
# when called again (``stage``, ``i`` and a terminal's ``pending`` of
# 2 are the resume point), so neither buffer grows with the run.
C_TB_TYPE = """
typedef struct {
    /* the harness: terminals, their net slots, the message layout */
    int nterm, nout, dest_bits;
    const int *in_val, *in_msg, *in_rdy, *out_val, *out_msg;
    int dest_shift, src_shift, seq_shift, pay_shift;
    uint64_t seq_mask, pay_mask, msg_mask;
    /* the run: inject for ncycles, stop at the latest after total */
    double rate;
    long long ncycles, warmup, total;
    /* progress */
    long long now;      /* mirrors sim.ncycles */
    long long n;        /* cycles run */
    int stage;          /* 0 offer and cycle, 1 eject scan */
    int i;              /* terminal or output port to resume at */
    uint64_t seq;
    long long injected, ejected;
    unsigned char *pending;     /* per terminal: 0 idle, 1 offering,
                                   2 injecting, dest not yet drawn */
    const uint32_t *tape;
    long long ntape, used;
    int64_t *lat;
    long long lat_cap, nlat;
} tb_t;
"""

C_TB = r"""
/* ---- compiled test bench: uniform-random traffic ---- */
""" + C_TB_TYPE + r"""
enum { TB_DONE = 0, TB_WORDS = 1, TB_FULL = 2 };

/* The time is in cycle(), not here: -O2 on this loop buys nothing
   measurable and costs gcc twice as long (34 ms against 15 ms, in
   every translation unit). */
__attribute__((optimize("O1")))
int tb_uniform(void *p, tb_t *T) {
    inst_t *I = (inst_t *)p;
    for (;;) {
        if (T->stage == 0) {
            if (T->n < T->ncycles) {
                /* Only an idle terminal draws. */
                for (; T->i < T->nterm; T->i++) {
                    int i = T->i;
                    if (T->pending[i] == 0) {
                        uint32_t a, b;
                        if (T->used + 2 > T->ntape) return TB_WORDS;
                        a = T->tape[T->used] >> 5;
                        b = T->tape[T->used + 1] >> 6;
                        T->used += 2;
                        if ((a * 67108864.0 + b)
                                * (1.0 / 9007199254740992.0) < T->rate)
                            T->pending[i] = 2;
                    }
                    if (T->pending[i] == 2) {
                        uint32_t dest;
                        uint64_t ts;
                        do {
                            if (T->used >= T->ntape) return TB_WORDS;
                            dest = T->tape[T->used++]
                                >> (32 - T->dest_bits);
                        } while (dest >= (uint32_t)T->nterm);
                        /* Warm-up packets carry no timestamp. */
                        ts = T->n >= T->warmup
                            ? (uint64_t)T->now & T->pay_mask : 0;
                        I->cur[T->in_msg[i]] = T->msg_mask & (
                            ((uint64_t)dest << T->dest_shift)
                            | ((uint64_t)i << T->src_shift)
                            | ((T->seq++ & T->seq_mask) << T->seq_shift)
                            | (ts << T->pay_shift));
                        T->injected++;
                        T->pending[i] = 1;
                    }
                    I->cur[T->in_val[i]] = T->pending[i];
                }
            } else if (T->n < T->total && T->ejected < T->injected) {
                /* Drain: keep offering what is staged. */
                for (int i = 0; i < T->nterm; i++)
                    I->cur[T->in_val[i]] = T->pending[i];
            } else {
                return TB_DONE;
            }
            /* The handshake fires at the coming edge with the rdy
               visible now. */
            for (int i = 0; i < T->nterm; i++)
                if (T->pending[i] && I->cur[T->in_rdy[i]] != 0)
                    T->pending[i] = 0;
            if (cycle(p, 1) < 0) return -1;
            T->now++;
            T->i = 0;
            T->stage = 1;
        }
        for (; T->i < T->nout; T->i++) {
            uint64_t ts;
            if (I->cur[T->out_val[T->i]] == 0) continue;
            ts = (uint64_t)(I->cur[T->out_msg[T->i]] >> T->pay_shift)
                & T->pay_mask;
            if (ts != 0) {
                if (T->nlat == T->lat_cap) return TB_FULL;
                T->lat[T->nlat++] = T->now - (int64_t)ts;
            }
            T->ejected++;
        }
        T->n++;
        T->i = 0;
        T->stage = 0;
    }
}
"""

C_TB_DECLS = C_TB_TYPE + """
int tb_uniform(void *p, tb_t *T);
"""

# What ``tb_uniform`` returns (the C enum above).
TB_DONE, TB_WORDS, TB_FULL = 0, 1, 2

# Python-side mirrors of the C capacity limits (arming code checks
# these before registering so a full runtime degrades to hooks).
OBS_MAX_REC = 128
OBS_MAX_TX = 256
OBS_MAX_NODES = 512
OBS_MAX_WP = 64
OBS_MAX_HIST = 64

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
