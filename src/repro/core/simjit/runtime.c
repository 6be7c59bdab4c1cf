/* SimJIT runtime: the C that does not depend on the design.
 *
 * Three parts, each driven by data its Python caller hands in at run
 * time, so one compiled copy serves every design:
 *
 * - the kernel (settle, edge, cycle, new_instance, the Python
 *   boundary), which runs an instance from its layout_t
 *   (repro.core.simjit.cgen.Layout) and reaches the design's code only
 *   through layout_t.run_block, a design library's one export;
 * - the compiled instrumentation (obs_*): flight-recorder taps, val/rdy
 *   taps, signal-backed histograms and watchpoint node forests,
 *   sampled inside the cycle loop (repro.core.simjit.instrument);
 * - the compiled test bench (tb_uniform): the uniform-random traffic
 *   harness of repro.net.traffic as one C loop.
 *
 * It is compiled once per SimJIT cache into a content-addressed .so and
 * loaded once per process (repro.core.simjit.specializer._runtime).  A
 * design's C starts with this file's prelude, so both libraries spell
 * inst_t alike.
 *
 * A net is one uint64_t word, or two (low word, then high word) when
 * it is wider than 64 bits.  The flop nets' words lead cur, so nxt is
 * only those words and an edge is two memcpys around the ticks.  The
 * handle new_instance returns points at the checkpoint blob
 * cur | nxt | [prev] | [st]: cur every net's words, nxt the flops',
 * prev (a fixpoint layout only) cur's shadow, st the CL state.
 *
 * A net's word offset (the layout's net_word, a body's S entries)
 * counts from the first word after the flops', where inst_t.cur and
 * inst_t.nxt point: a flop's offset is negative, from -1 down in slot
 * order, and the other nets' count up from 0 in slot order.  So a
 * net's offset moves only with the nets before it, as its slot does,
 * and two designs whose bodies read the same shared net (reset) print
 * the same literal however many flops each has.
 */

/* ---- prelude ---- */

/* No system header: the compiler's own types. */
typedef __INT64_TYPE__ int64_t;
typedef __UINT64_TYPE__ uint64_t;
typedef __UINT32_TYPE__ uint32_t;
typedef __SIZE_TYPE__ size_t;
typedef unsigned __int128 u128;

static inline u128 mask_of(int width) {
    if (width >= 128) return (u128)-1;
    return (((u128)1) << width) - 1;
}

/* Python floor-division semantics for signed operands (C truncates
   toward zero; Python floors).  Subset values passed through these are
   bounded well below 2^63.  Operands the range pass proves
   non-negative divide with C's own / and % instead. */
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

/* ---- interface ---- */

/* What a block body reaches of its instance: net words, flop words,
   CL state.  cur and nxt point past the flop words (see above). */
typedef struct {
    uint64_t *cur, *nxt;
    int64_t *st;
} inst_t;

/* ---- end of prelude ---- */

/* One instance's data for the kernel; cgen.Layout builds it. */
typedef struct {
    int nwords, flop_words, nin, nout, ncomb, ntick, ninblk;
    int nstatevar, nst, fixpoint;
    const unsigned short *net_width;
    const int *net_word;            /* per net, its first word's offset */
    const int *in_slot, *out_slot;
    const int *block;               /* per block: function, S at, K at */
    const int *s;                   /* the S pool */
    const int64_t *k;               /* the K pool */
    const int *in_blk, *in_cone_off, *in_cone;
    const int *state_off;           /* nstatevar + 1 */
    const uint64_t *init_cur;       /* cur's nwords, flops first */
    const int64_t *init_st;
    /* the design library's run_block */
    void (*run_block)(inst_t *I, int f, const int *s, const int64_t *k);
} layout_t;

/* A design library's one export: block body f with its S, K entries. */
void run_block(inst_t *I, int f, const int *s, const int64_t *k);

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

#define OBS_MAX_REC 128
#define OBS_MAX_TX 256
#define OBS_MAX_NODES 512
#define OBS_MAX_WP 64
#define OBS_MAX_HIST 64
#define OBS_HIST_CAP 1024

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
int obs_add_watch(void *op, int nnodes, const uint64_t *packed);
void obs_del_watch(void *op, int idx);
long long obs_watch_state(void *op, int idx, uint64_t *out,
                          long long cap);
long long obs_hit_cycle(void *op);
uint64_t obs_hit_mask(void *op);
long long obs_rec_drain(void *op, uint64_t *out);
long long obs_tx_drain(void *op, uint64_t *out);
long long obs_run(void *op, long long n);

enum { TB_DONE = 0, TB_WORDS = 1, TB_FULL = 2 };

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

int tb_uniform(void *p, tb_t *T);

/* ---- end of interface ---- */

/* The compiler's own builtins. */
#define offsetof __builtin_offsetof
#define memcpy __builtin_memcpy
#define memcmp __builtin_memcmp
#define malloc __builtin_malloc
#define calloc __builtin_calloc
#define free __builtin_free

/* ---- the kernel ----
 *
 * Every entry point takes the handle new_instance returned, so
 * instances never share state.  What needs no C -- reading a net,
 * taking and restoring a checkpoint -- the engine does on the blob
 * itself (repro.core.simjit.specializer.SimJITEngine).
 */

/* Python reads the blob as little-endian words. */
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "the blob is read as little-endian words");

/* An instance: its layout, the body view, the Python boundary's
   shadows and the input settle's state, then the checkpoint blob
   cur | nxt | [prev] | [st].  The handle points at the blob. */
typedef struct {
    const layout_t *L;
    inst_t I;
    uint64_t *prev;
    u128 *out_last, *in_last;
    unsigned char *run;
    int out_synced, settled;
    uint64_t blob[];
} box_t;

#define BOX(p) ((box_t *)((char *)(p) - offsetof(box_t, blob)))

/* Net slot s of an instance whose inst_t.cur is w: one word, or two
   past 64 bits. */
static inline u128 net_get(const layout_t *L, const uint64_t *w, int s) {
    w += L->net_word[s];
    return L->net_width[s] > 64 ? ((u128)w[1] << 64) | w[0] : w[0];
}

static inline void net_put(const layout_t *L, uint64_t *w, int s, u128 v) {
    v &= mask_of(L->net_width[s]);
    w += L->net_word[s];
    w[0] = (uint64_t)v;
    if (L->net_width[s] > 64) w[1] = (uint64_t)(v >> 64);
}

static void run_blocks(box_t *B, int from, int to) {
    const layout_t *L = B->L;
    for (int b = from; b < to; b++) {
        const int *at = L->block + 3 * b;
        L->run_block(&B->I, at[0], L->s + at[1], L->k + at[2]);
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
    size_t n = (size_t)B->L->nwords * sizeof(uint64_t);
    int iters = 0;
    if (!B->L->fixpoint) {
        run_comb_blocks(B);
        return 1;
    }
    do {
        memcpy(B->prev, B->blob, n);
        run_comb_blocks(B);
        iters++;
        if (iters > 64) return -1;   /* combinational loop */
    } while (memcmp(B->prev, B->blob, n) != 0);
    return iters;
}

void *new_instance(const layout_t *L) {
    size_t words = (size_t)L->nwords + L->flop_words
        + (L->fixpoint ? L->nwords : 0);
    box_t *B = (box_t *)calloc(1, sizeof(box_t)
        + (words + (size_t)L->nst) * sizeof(uint64_t));
    B->L = L;
    B->I.cur = B->blob + L->flop_words;
    B->I.nxt = B->blob + L->nwords + L->flop_words;
    B->prev = B->I.nxt;
    B->I.st = (int64_t *)(B->blob + words);
    B->out_last = (u128 *)calloc(L->nout + L->nin + 2, sizeof(u128));
    B->in_last = B->out_last + L->nout + 1;
    B->run = (unsigned char *)calloc(L->ninblk + 1, 1);
    memcpy(B->blob, L->init_cur, (size_t)L->nwords * sizeof(uint64_t));
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
    net_put(B->L, B->I.cur, idx, ((u128)hi << 64) | lo);
    B->settled = 0;
}

/* Store every input port; hi may be NULL when no port is wider than
   64 bits. */
void push_inputs(void *p, const uint64_t *lo, const uint64_t *hi) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    for (int i = 0; i < L->nin; i++)
        net_put(L, B->I.cur, L->in_slot[i],
                hi ? ((u128)hi[i] << 64) | lo[i] : (u128)lo[i]);
}

/* (port index, lo, hi) of every output port whose value differs from
   what the last pull returned; returns the number of triples. */
int pull_changed(void *p, uint64_t *out) {
    box_t *B = BOX(p);
    const layout_t *L = B->L;
    int n = 0;
    for (int i = 0; i < L->nout; i++) {
        u128 v = net_get(L, B->I.cur, L->out_slot[i]);
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
    const uint64_t *cur = B->I.cur;
    int changed = 0, r = 1;
    if (!B->settled) {
        r = settle(B);
        for (int i = 0; i < L->nin; i++)
            B->in_last[i] = net_get(L, cur, L->in_slot[i]);
    } else {
        for (int i = 0; i < L->nin; i++) {
            u128 v = net_get(L, cur, L->in_slot[i]);
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

/* One clock edge and the settle after it.  nxt is the flop nets'
   words, which lead cur: seed it from cur (a tick that skips its .next
   write holds the value), run the ticks, copy it back. */
int edge(void *p) {
    box_t *B = BOX(p);
    int f = B->L->flop_words;
    memcpy(B->I.nxt - f, B->blob, f * sizeof(uint64_t));
    run_tick_blocks(B);
    memcpy(B->blob, B->I.nxt - f, f * sizeof(uint64_t));
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

/* ---- compiled instrumentation ----
 *
 * All observability state lives in a heap side-struct (obs_t) apart
 * from the instance, so the checkpoint blob is unaffected by armed
 * instrumentation.  obs_run replicates the
 * per-cycle sampling contract of the interpreted simulator exactly:
 *
 * - val/rdy taps sample after the *pre-edge* settle with the
 *   pre-increment cycle stamp (the cycle-hook sampling point);
 * - recorder taps, histogram probes and watchpoint nodes sample after
 *   the *post-edge* settle with the post-increment stamp (the observer
 *   sampling point);
 * - watchpoint nodes are the forest lower_condition makes
 *   (repro.observe.watchpoints), which Watchpoint.sample evaluates in
 *   Python too: & and | evaluate both operands (a stateful node must
 *   see every cycle), and a hit stops the batch at the exact cycle.
 *   stable_for (kind 7) counts the cycles its net kept one value;
 *   implies_within (kind 8) keeps its outstanding deadlines, strictly
 *   increasing and all in (cycle, cycle + n], in a ring that doubles
 *   when full (obs_run returns -2 when it cannot), so its memory
 *   follows the obligations outstanding, not n.  obs_watch_state
 *   reads the nodes' state back when a cycle hook dearms them.
 *
 * Taps emit change-compressed events into preallocated buffers; a batch
 * ends early (returns < n) when a buffer could overflow on the next
 * cycle, letting Python drain and resume losslessly.
 */

typedef struct {
    int kind;           /* 0 rose 1 fell 2 changed 3 value_is 4 and
                           5 or 6 not 7 stable_for 8 implies_within;
                           -1 once its watchpoint is deleted */
    int slot;           /* net slot (kinds 0-3, 7) */
    int a, b;           /* operand node indices (kinds 4-6, 8) */
    u128 aux;           /* comparison value (3), n (7, 8) */
    u128 prev;          /* previous value (kinds 0-2, 7) */
    long long streak;   /* cycles the value was kept (7) */
    long long *due;     /* deadline ring (8): len from head % cap, */
    unsigned head;      /* cap a power of two */
    int cap, len;
} obs_node_t;

typedef struct {
    void *inst;
    const layout_t *L;
    const uint64_t *cur;        /* the instance's net words */
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
    int wp_base[OBS_MAX_WP], wp_root[OBS_MAX_WP];
    long long hit_cycle;
    uint64_t hit_mask;
} obs_t;

void *obs_new(void *inst, long long rec_cap, long long tx_cap) {
    obs_t *O = (obs_t *)calloc(1, sizeof(obs_t));
    if (!O) return 0;
    O->inst = inst;
    O->L = BOX(inst)->L;
    O->cur = BOX(inst)->I.cur;
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
    for (int i = 0; i < O->nnodes; i++) free(O->nodes[i].due);
    free(O);
}

void obs_set_cycle(void *op, long long cycle) {
    ((obs_t *)op)->cycle = cycle;
}

int obs_add_rec_tap(void *op, int slot) {
    obs_t *O = (obs_t *)op;
    if (O->nrec >= OBS_MAX_REC) return -1;
    O->rec_slot[O->nrec] = slot;
    O->rec_last[O->nrec] = net_get(O->L, O->cur, slot);
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

int obs_add_watch(void *op, int nnodes, const uint64_t *packed) {
    /* ``packed`` holds 6 words per node: kind, slot, a, b, aux_lo,
       aux_hi; a/b are indices relative to the first added node. */
    obs_t *O = (obs_t *)op;
    int base = O->nnodes;
    if (O->nwp >= OBS_MAX_WP || base + nnodes > OBS_MAX_NODES)
        return -1;
    for (int i = 0; i < nnodes; i++) {
        obs_node_t *nd = &O->nodes[base + i];
        const uint64_t *w = packed + 6 * i;
        nd->kind = (int)w[0];
        nd->slot = (int)w[1];
        nd->a = (int64_t)w[2] < 0 ? -1 : base + (int)w[2];
        nd->b = (int64_t)w[3] < 0 ? -1 : base + (int)w[3];
        nd->aux = ((u128)w[5] << 64) | w[4];
        nd->prev = (nd->kind <= 2 || nd->kind == 7)
            ? net_get(O->L, O->cur, nd->slot) : 0;
    }
    O->nnodes = base + nnodes;
    O->wp_base[O->nwp] = base;
    O->wp_root[O->nwp] = base + nnodes - 1;
    return O->nwp++;
}

void obs_del_watch(void *op, int idx) {
    /* Its nodes stop; a ring is freed with the rest in obs_free. */
    obs_t *O = (obs_t *)op;
    for (int i = O->wp_base[idx]; i <= O->wp_root[idx]; i++)
        O->nodes[i].kind = -1;
    O->wp_root[idx] = -1;
}

long long obs_watch_state(void *op, int idx, uint64_t *out,
                          long long cap) {
    /* Per node of watchpoint idx: verdict, prev (two words), streak,
       the number of deadlines, the deadlines oldest first.  Returns
       the words that is; writes them only when cap holds them. */
    obs_t *O = (obs_t *)op;
    long long n = 0;
    for (int i = O->wp_base[idx]; i <= O->wp_root[idx]; i++)
        n += 5 + O->nodes[i].len;
    if (n > cap) return n;
    for (int i = O->wp_base[idx]; i <= O->wp_root[idx]; i++) {
        obs_node_t *nd = &O->nodes[i];
        *out++ = O->nval[i];
        *out++ = (uint64_t)nd->prev;
        *out++ = (uint64_t)(nd->prev >> 64);
        *out++ = (uint64_t)nd->streak;
        *out++ = (uint64_t)nd->len;
        for (int k = 0; k < nd->len; k++)
            *out++ = (uint64_t)nd->due[(nd->head + k) % nd->cap];
    }
    return n;
}

/* Append deadline d to a kind-8 node's ring, doubling it when full;
   -1 when out of memory. */
static int due_push(obs_node_t *nd, long long d) {
    if (nd->len == nd->cap) {
        int cap = nd->cap ? 2 * nd->cap : 4;
        long long *ring = (long long *)malloc((size_t)cap * 8);
        if (!ring) return -1;
        for (int k = 0; k < nd->len; k++)
            ring[k] = nd->due[(nd->head + k) % nd->cap];
        free(nd->due);
        nd->due = ring;
        nd->cap = cap;
        nd->head = 0;
    }
    nd->due[(nd->head + nd->len++) % nd->cap] = d;
    return 0;
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
    const layout_t *L = O->L;
    const uint64_t *cur = O->cur;
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
        if (k == 0 && eval_comb(O->inst) < 0) return -1;
        /* pre-edge sampling point (cycle-hook semantics) */
        for (int t = 0; t < O->ntx; t++) {
            unsigned char vr;
            u128 msg;
            if (O->tx_val[t] < 0) continue;
            vr = (unsigned char)(
                ((net_get(L, cur, O->tx_val[t]) != 0) ? 1 : 0)
                | ((net_get(L, cur, O->tx_rdy[t]) != 0) ? 2 : 0));
            msg = net_get(L, cur, O->tx_msg[t]);
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
        if (edge(O->inst) < 0) return -1;
        O->cycle++;
        /* post-edge sampling point (observer semantics) */
        for (int t = 0; t < O->nrec; t++) {
            u128 v;
            if (O->rec_slot[t] < 0) continue;
            v = net_get(L, cur, O->rec_slot[t]);
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
                    && net_get(L, cur, O->hist_when[h]) == 0) continue;
            v = (int64_t)net_get(L, cur, O->hist_slot[h]);
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
                        v = net_get(L, cur, nd->slot);
                        r = (nd->prev == 0) && (v != 0);
                        nd->prev = v;
                        break;
                    case 1:
                        v = net_get(L, cur, nd->slot);
                        r = (nd->prev != 0) && (v == 0);
                        nd->prev = v;
                        break;
                    case 2:
                        v = net_get(L, cur, nd->slot);
                        r = (v != nd->prev);
                        nd->prev = v;
                        break;
                    case 3:
                        r = (net_get(L, cur, nd->slot) == nd->aux);
                        break;
                    case 4:
                        r = O->nval[nd->a] & O->nval[nd->b];
                        break;
                    case 5:
                        r = O->nval[nd->a] | O->nval[nd->b];
                        break;
                    case 6:
                        r = !O->nval[nd->a];
                        break;
                    case 7:
                        v = net_get(L, cur, nd->slot);
                        nd->streak = v == nd->prev ? nd->streak + 1 : 0;
                        nd->prev = v;
                        r = ((u128)nd->streak == nd->aux);
                        break;
                    case 8:         /* n past 2^62: never reached */
                        if (O->nval[nd->b] && nd->len)
                            nd->head++, nd->len--;
                        if (O->nval[nd->a] && due_push(nd, O->cycle
                                + (nd->aux >> 62 ? 1LL << 62
                                   : (long long)nd->aux)) < 0)
                            return -2;
                        r = nd->len
                            && O->cycle >= nd->due[nd->head % nd->cap];
                        if (r) nd->head++, nd->len--;
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

/* ---- compiled test bench: uniform-random traffic ----
 *
 * NetworkTrafficHarness.run_uniform_random's cycle, statement for
 * statement, with Python's own random numbers: ``tape`` holds
 * successive 32-bit outputs of the harness's Mersenne Twister and the
 * two draws are CPython's -- random() is
 * ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 and randrange(n) is
 * w >> (32 - n.bit_length()), redrawn while >= n.  It returns TB_WORDS
 * at a draw the tape cannot serve and TB_FULL at a latency the buffer
 * cannot hold, consuming nothing of either, and picks up at that draw
 * or that output port when called again (stage, i and a terminal's
 * pending of 2 are the resume point), so neither buffer grows with the
 * run.  Its nets are at most 64 bits wide, one word each: cur[W[slot]].
 */

int tb_uniform(void *p, tb_t *T) {
    uint64_t *cur = BOX(p)->I.cur;
    const int *W = BOX(p)->L->net_word;
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
                        cur[W[T->in_msg[i]]] = T->msg_mask & (
                            ((uint64_t)dest << T->dest_shift)
                            | ((uint64_t)i << T->src_shift)
                            | ((T->seq++ & T->seq_mask) << T->seq_shift)
                            | (ts << T->pay_shift));
                        T->injected++;
                        T->pending[i] = 1;
                    }
                    cur[W[T->in_val[i]]] = T->pending[i];
                }
            } else if (T->n < T->total && T->ejected < T->injected) {
                /* Drain: keep offering what is staged. */
                for (int i = 0; i < T->nterm; i++)
                    cur[W[T->in_val[i]]] = T->pending[i];
            } else {
                return TB_DONE;
            }
            /* The handshake fires at the coming edge with the rdy
               visible now. */
            for (int i = 0; i < T->nterm; i++)
                if (T->pending[i] && cur[W[T->in_rdy[i]]] != 0)
                    T->pending[i] = 0;
            if (cycle(p, 1) < 0) return -1;
            T->now++;
            T->i = 0;
            T->stage = 1;
        }
        for (; T->i < T->nout; T->i++) {
            uint64_t ts;
            if (cur[W[T->out_val[T->i]]] == 0) continue;
            ts = (cur[W[T->out_msg[T->i]]] >> T->pay_shift) & T->pay_mask;
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
