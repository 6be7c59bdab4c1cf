/* SimJIT runtime: the C that does not depend on the design.
 *
 * Two parts, both driven by tables their Python callers fill at run
 * time, so one compiled copy serves every design:
 *
 * - the compiled instrumentation (obs_*): flight-recorder taps, val/rdy
 *   taps, signal-backed histograms and watchpoint condition trees,
 *   sampled inside the cycle loop (repro.core.simjit.instrument);
 * - the compiled test bench (tb_uniform): the uniform-random traffic
 *   harness of repro.net.traffic as one C loop.
 *
 * It is compiled once per SimJIT cache into a content-addressed .so and
 * loaded the first time either part is needed
 * (repro.core.simjit.specializer._runtime).  It reaches a design only
 * through the instance handle and function pointers:
 *
 * - nets are the u128 array at the start of the handle (every design
 *   pins offsetof(inst_t, cur) == 0);
 * - the design's code runs through pointers to its exported entry
 *   points: eval_comb and edge for obs_run, cycle for tb_uniform.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* ---- interface ---- */

#define OBS_MAX_REC 128
#define OBS_MAX_TX 256
#define OBS_MAX_NODES 512
#define OBS_MAX_WP 64
#define OBS_MAX_HIST 64
#define OBS_HIST_CAP 1024

void *obs_new(void *inst, int (*eval_comb)(void *), int (*edge)(void *),
              long long rec_cap, long long tx_cap);
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

enum { TB_DONE = 0, TB_WORDS = 1, TB_FULL = 2 };

typedef struct {
    /* the design: its cycle(p, n) */
    int (*cycle)(void *, int);
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

/* ---- compiled instrumentation ----
 *
 * All observability state lives in a heap side-struct (obs_t) apart
 * from the instance, so the checkpoint blob (save_inst/load_inst) is
 * unaffected by armed instrumentation.  obs_run replicates the
 * per-cycle sampling contract of the interpreted simulator exactly:
 *
 * - val/rdy taps sample after the *pre-edge* settle with the
 *   pre-increment cycle stamp (the cycle-hook sampling point);
 * - recorder taps, histogram probes and watchpoint nodes sample after
 *   the *post-edge* settle with the post-increment stamp (the observer
 *   sampling point);
 * - watchpoint & evaluates both operands unconditionally (edge trackers
 *   must see every cycle), and a hit stops the batch so Python-side
 *   actions fire at the exact cycle.
 *
 * Taps emit change-compressed events into preallocated buffers; a batch
 * ends early (returns < n) when a buffer could overflow on the next
 * cycle, letting Python drain and resume losslessly.
 */

typedef struct {
    int kind;           /* 0 rose 1 fell 2 changed 3 value_is
                           4 and 5 or 6 not */
    int slot;           /* net slot (kinds 0-3) */
    int a, b;           /* operand node indices (kinds 4-6) */
    u128 aux;           /* comparison value (kind 3) */
    u128 prev;          /* previous value (kinds 0-2) */
} obs_node_t;

typedef struct {
    void *inst;
    u128 *cur;          /* the instance's nets */
    int (*eval_comb)(void *);
    int (*edge)(void *);
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

void *obs_new(void *inst, int (*eval_comb)(void *), int (*edge)(void *),
              long long rec_cap, long long tx_cap) {
    obs_t *O = (obs_t *)calloc(1, sizeof(obs_t));
    if (!O) return 0;
    O->inst = inst;
    O->cur = (u128 *)inst;
    O->eval_comb = eval_comb;
    O->edge = edge;
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
    O->rec_last[O->nrec] = O->cur[slot];
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
        nd->prev = (nd->kind <= 2) ? O->cur[nd->slot] : 0;
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
    u128 *cur = O->cur;
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
        if (k == 0 && O->eval_comb(O->inst) < 0) return -1;
        /* pre-edge sampling point (cycle-hook semantics) */
        for (int t = 0; t < O->ntx; t++) {
            unsigned char vr;
            u128 msg;
            if (O->tx_val[t] < 0) continue;
            vr = (unsigned char)(
                ((cur[O->tx_val[t]] != 0) ? 1 : 0)
                | ((cur[O->tx_rdy[t]] != 0) ? 2 : 0));
            msg = cur[O->tx_msg[t]];
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
        if (O->edge(O->inst) < 0) return -1;
        O->cycle++;
        /* post-edge sampling point (observer semantics) */
        for (int t = 0; t < O->nrec; t++) {
            u128 v;
            if (O->rec_slot[t] < 0) continue;
            v = cur[O->rec_slot[t]];
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
                    && cur[O->hist_when[h]] == 0) continue;
            v = (int64_t)cur[O->hist_slot[h]];
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
                        v = cur[nd->slot];
                        r = (nd->prev == 0) && (v != 0);
                        nd->prev = v;
                        break;
                    case 1:
                        v = cur[nd->slot];
                        r = (nd->prev != 0) && (v == 0);
                        nd->prev = v;
                        break;
                    case 2:
                        v = cur[nd->slot];
                        r = (v != nd->prev);
                        nd->prev = v;
                        break;
                    case 3:
                        r = (cur[nd->slot] == nd->aux);
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
 * run.
 */

int tb_uniform(void *p, tb_t *T) {
    u128 *cur = (u128 *)p;
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
                        cur[T->in_msg[i]] = T->msg_mask & (
                            ((uint64_t)dest << T->dest_shift)
                            | ((uint64_t)i << T->src_shift)
                            | ((T->seq++ & T->seq_mask) << T->seq_shift)
                            | (ts << T->pay_shift));
                        T->injected++;
                        T->pending[i] = 1;
                    }
                    cur[T->in_val[i]] = T->pending[i];
                }
            } else if (T->n < T->total && T->ejected < T->injected) {
                /* Drain: keep offering what is staged. */
                for (int i = 0; i < T->nterm; i++)
                    cur[T->in_val[i]] = T->pending[i];
            } else {
                return TB_DONE;
            }
            /* The handshake fires at the coming edge with the rdy
               visible now. */
            for (int i = 0; i < T->nterm; i++)
                if (T->pending[i] && cur[T->in_rdy[i]] != 0)
                    T->pending[i] = 0;
            if (T->cycle(p, 1) < 0) return -1;
            T->now++;
            T->i = 0;
            T->stage = 1;
        }
        for (; T->i < T->nout; T->i++) {
            uint64_t ts;
            if (cur[T->out_val[T->i]] == 0) continue;
            ts = (uint64_t)(cur[T->out_msg[T->i]] >> T->pay_shift)
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
