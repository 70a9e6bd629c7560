/* Compiled execution kernel for repro.uarch.TimingEngine.
 *
 * This is a line-for-line port of the Python reference model
 * (engine.py / slots.py / hsmt.py / caches / branch) over integer state.
 * Every float enters precomputed (REMOTE stall durations arrive as
 * per-instruction cycle counts), so there is no floating-point arithmetic
 * here at all and no possibility of numeric divergence: the kernel either
 * reproduces the reference byte-for-byte or the differential test suite
 * fails loudly.
 *
 * The adapter (adapter.py) owns all Python-object marshalling.  A World
 * holds the C-resident state for one connected component of engines and
 * the cache/TLB/BTB/predictor structures they share.  Between runs only a
 * small scalar block is synchronized; full state export happens on eject
 * (see DESIGN.md "repro.uarch.fastpath").
 */

#ifdef RFP_HAVE_NPYRANDOM
/* NumPy's own sampler library (libnpyrandom.a) behind the service
 * program and the cluster event loop; the header pulls in Python.h,
 * which must come first. */
#include "numpy/random/distributions.h"
#endif

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RFP_OK 0
#define RFP_ERR_OOM (-1)
#define RFP_ERR_FREE (-2)
#define RFP_ERR_NOSCHED (-3)
#define RFP_ERR_CAP (-4)
#define RFP_ERR_BADIDX (-5)

#define EXIT_DONE 1
#define EXIT_BOUNDARY 2

/* _step outcomes (engine.py). */
#define ST_OK 0
#define ST_REMOTE_BLOCKED 1
#define ST_DEFERRED 2

/* Op codes (isa.py). */
#define OP_IALU 0
#define OP_IMUL 1
#define OP_FP 2
#define OP_LOAD 3
#define OP_STORE 4
#define OP_BRANCH 5
#define OP_REMOTE 6

#define NO_REG (-1)
#define MAX_LEVELS 8
#define MAX_HOOKS 8
#define NCHARGE 24

typedef int64_t i64;
typedef uint8_t u8;

/* ---------------------------------------------------------------- Map
 * Open-addressing hash map int64 -> int64, mirroring the SlotAllocator's
 * dict.  Values are strictly positive; a zero value is a tombstone and
 * is absent for every observable purpose.  `live` tracks the number of
 * positive entries, which equals len(_used) in the reference. */

#define MAP_EMPTY INT64_MIN

typedef struct {
    i64 *keys;
    i64 *vals;
    i64 cap;   /* power of two */
    i64 fill;  /* occupied slots including tombstones */
    i64 live;  /* entries with val > 0 == len(_used) */
} Map;

static int map_init(Map *m, i64 cap) {
    i64 c = 64;
    while (c < cap) c <<= 1;
    m->keys = (i64 *)malloc(sizeof(i64) * (size_t)c);
    m->vals = (i64 *)malloc(sizeof(i64) * (size_t)c);
    if (!m->keys || !m->vals) return RFP_ERR_OOM;
    for (i64 i = 0; i < c; i++) m->keys[i] = MAP_EMPTY;
    m->cap = c;
    m->fill = 0;
    m->live = 0;
    return RFP_OK;
}

static void map_free(Map *m) {
    free(m->keys);
    free(m->vals);
    m->keys = NULL;
    m->vals = NULL;
}

static inline i64 map_slot(const Map *m, i64 key) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    i64 mask = m->cap - 1;
    i64 idx = (i64)(h >> 32) & mask;
    for (;;) {
        i64 k = m->keys[idx];
        if (k == key || k == MAP_EMPTY) return idx;
        idx = (idx + 1) & mask;
    }
}

static inline i64 map_get(const Map *m, i64 key) {
    i64 idx = map_slot(m, key);
    if (m->keys[idx] == MAP_EMPTY) return 0;
    return m->vals[idx]; /* 0 when tombstoned */
}

static int map_grow(Map *m) {
    i64 oldcap = m->cap;
    i64 *ok = m->keys, *ov = m->vals;
    i64 newcap = oldcap;
    /* size for live entries only: tombstones are dropped on rehash */
    while (m->live * 4 >= newcap * 3) newcap <<= 1;
    if (newcap < 64) newcap = 64;
    m->keys = (i64 *)malloc(sizeof(i64) * (size_t)newcap);
    m->vals = (i64 *)malloc(sizeof(i64) * (size_t)newcap);
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = ok;
        m->vals = ov;
        return RFP_ERR_OOM;
    }
    for (i64 i = 0; i < newcap; i++) m->keys[i] = MAP_EMPTY;
    m->cap = newcap;
    m->fill = 0;
    i64 live = 0;
    for (i64 i = 0; i < oldcap; i++) {
        if (ok[i] != MAP_EMPTY && ov[i] > 0) {
            i64 idx = map_slot(m, ok[i]);
            m->keys[idx] = ok[i];
            m->vals[idx] = ov[i];
            m->fill++;
            live++;
        }
    }
    m->live = live;
    free(ok);
    free(ov);
    return RFP_OK;
}

static int map_set(Map *m, i64 key, i64 val) {
    if (m->fill * 4 >= m->cap * 3) {
        int rc = map_grow(m);
        if (rc) return rc;
    }
    i64 idx = map_slot(m, key);
    if (m->keys[idx] == MAP_EMPTY) {
        m->keys[idx] = key;
        m->vals[idx] = 0;
        m->fill++;
    }
    if (m->vals[idx] <= 0 && val > 0) m->live++;
    else if (m->vals[idx] > 0 && val <= 0) m->live--;
    m->vals[idx] = val;
    return RFP_OK;
}

/* Rebuild keeping entries with key >= cycle (SlotAllocator.retire_before's
 * amortized prune). */
static int map_prune(Map *m, i64 cycle) {
    i64 oldcap = m->cap;
    i64 *ok = m->keys, *ov = m->vals;
    m->keys = (i64 *)malloc(sizeof(i64) * 64);
    m->vals = (i64 *)malloc(sizeof(i64) * 64);
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = ok;
        m->vals = ov;
        return RFP_ERR_OOM;
    }
    m->cap = 64;
    for (i64 i = 0; i < 64; i++) m->keys[i] = MAP_EMPTY;
    m->fill = 0;
    m->live = 0;
    for (i64 i = 0; i < oldcap; i++) {
        if (ok[i] != MAP_EMPTY && ov[i] > 0 && ok[i] >= cycle) {
            int rc = map_set(m, ok[i], ov[i]);
            if (rc) return rc;
        }
    }
    free(ok);
    free(ov);
    return RFP_OK;
}

/* --------------------------------------------------------- SlotAllocator */

typedef struct {
    Map used;
    i64 floor;
    i64 allocated;
} Slots;

static i64 slots_alloc(Slots *s, i64 earliest, i64 cap, int *err) {
    i64 cycle = earliest > s->floor ? earliest : s->floor;
    while (map_get(&s->used, cycle) >= cap) cycle++;
    int rc = map_set(&s->used, cycle, map_get(&s->used, cycle) + 1);
    if (rc) {
        *err = rc;
        return 0;
    }
    s->allocated++;
    return cycle;
}

static int slots_free(Slots *s, i64 cycle) {
    i64 used = map_get(&s->used, cycle);
    if (used <= 0) return RFP_ERR_FREE;
    int rc = map_set(&s->used, cycle, used - 1);
    if (rc) return rc;
    s->allocated--;
    return RFP_OK;
}

static int slots_retire_before(Slots *s, i64 cycle) {
    if (cycle <= s->floor) return RFP_OK;
    s->floor = cycle;
    if (s->used.live > 8192) return map_prune(&s->used, cycle);
    return RFP_OK;
}

/* ----------------------------------------------------------------- Cache */

typedef struct {
    i64 nsets, assoc, write_through, line_shift;
    i64 *cnt;   /* per-set way count */
    i64 *lines; /* nsets * assoc, MRU first */
    i64 hits, misses, evictions, invalidations;
} Cache;

static inline i64 cache_set_index(const Cache *c, i64 line) {
    return line % c->nsets;
}

/* access(addr, allocate_on_miss=False): hit -> MRU move; returns 1/0. */
static int cache_lookup(Cache *c, i64 addr) {
    i64 line = addr >> c->line_shift;
    i64 s = cache_set_index(c, line);
    i64 *ways = c->lines + s * c->assoc;
    i64 n = c->cnt[s];
    for (i64 i = 0; i < n; i++) {
        if (ways[i] == line) {
            c->hits++;
            if (i != 0) {
                memmove(ways + 1, ways, sizeof(i64) * (size_t)i);
                ways[0] = line;
            }
            return 1;
        }
    }
    c->misses++;
    return 0;
}

/* fill(addr, at_lru); returns evicted line or -1. */
static i64 cache_fill(Cache *c, i64 addr, int at_lru) {
    i64 line = addr >> c->line_shift;
    i64 s = cache_set_index(c, line);
    i64 *ways = c->lines + s * c->assoc;
    i64 n = c->cnt[s];
    i64 pos = -1;
    for (i64 i = 0; i < n; i++) {
        if (ways[i] == line) {
            pos = i;
            break;
        }
    }
    if (pos >= 0) {
        if (!at_lru && pos != 0) {
            memmove(ways + 1, ways, sizeof(i64) * (size_t)pos);
            ways[0] = line;
        }
        return -1;
    }
    if (at_lru) {
        if (n >= c->assoc) {
            /* Replace the current LRU line in place. */
            i64 victim = ways[n - 1];
            c->evictions++;
            ways[n - 1] = line;
            return victim;
        }
        ways[n] = line;
        c->cnt[s] = n + 1;
        return -1;
    }
    if (n >= c->assoc) {
        i64 victim = ways[n - 1];
        c->evictions++;
        memmove(ways + 1, ways, sizeof(i64) * (size_t)(n - 1));
        ways[0] = line;
        return victim;
    }
    memmove(ways + 1, ways, sizeof(i64) * (size_t)n);
    ways[0] = line;
    c->cnt[s] = n + 1;
    return -1;
}

/* access(addr, allocate_on_miss=True): stats + fill; returns hit flag. */
static int cache_access_alloc(Cache *c, i64 addr) {
    if (cache_lookup(c, addr)) return 1;
    cache_fill(c, addr, 0);
    return 0;
}

static int cache_probe(const Cache *c, i64 addr) {
    i64 line = addr >> c->line_shift;
    i64 s = cache_set_index(c, line);
    const i64 *ways = c->lines + s * c->assoc;
    i64 n = c->cnt[s];
    for (i64 i = 0; i < n; i++)
        if (ways[i] == line) return 1;
    return 0;
}

static void cache_invalidate_line(Cache *c, i64 line) {
    i64 s = cache_set_index(c, line);
    i64 *ways = c->lines + s * c->assoc;
    i64 n = c->cnt[s];
    for (i64 i = 0; i < n; i++) {
        if (ways[i] == line) {
            memmove(ways + i, ways + i + 1, sizeof(i64) * (size_t)(n - i - 1));
            c->cnt[s] = n - 1;
            c->invalidations++;
            return;
        }
    }
}

/* ------------------------------------------------------------------- TLB */

typedef struct {
    i64 capacity, page_shift, miss_latency;
    i64 n;
    i64 *e; /* VPNs, MRU first; capacity entries */
    i64 hits, misses;
} Tlb;

static int tlb_translate(Tlb *t, i64 addr) {
    i64 vpn = addr >> t->page_shift;
    for (i64 i = 0; i < t->n; i++) {
        if (t->e[i] == vpn) {
            t->hits++;
            if (i != 0) {
                memmove(t->e + 1, t->e, sizeof(i64) * (size_t)i);
                t->e[0] = vpn;
            }
            return 1;
        }
    }
    t->misses++;
    /* insert at MRU; drop LRU when over capacity */
    i64 n = t->n < t->capacity ? t->n : t->capacity - 1;
    memmove(t->e + 1, t->e, sizeof(i64) * (size_t)n);
    t->e[0] = vpn;
    if (t->n < t->capacity) t->n++;
    return 0;
}

/* ------------------------------------------------------------------- BTB */

typedef struct {
    i64 mask;
    i64 *tags;
    u8 *valid;
    i64 *targets;
    i64 hits, misses;
} Btb;

/* lookup; *found set to validity, returns target (undefined when miss). */
static i64 btb_lookup(Btb *b, i64 pc, int *found) {
    i64 idx = (pc >> 2) & b->mask;
    if (b->valid[idx] && b->tags[idx] == pc) {
        b->hits++;
        *found = 1;
        return b->targets[idx];
    }
    b->misses++;
    *found = 0;
    return 0;
}

static void btb_update(Btb *b, i64 pc, i64 target) {
    i64 idx = (pc >> 2) & b->mask;
    b->tags[idx] = pc;
    b->valid[idx] = 1;
    b->targets[idx] = target;
}

/* ------------------------------------------------------------- Predictor
 * Tables are *borrowed* pointers into the Python-side numpy int8 arrays,
 * so Python always observes fresh predictor state with zero copying. */

#define PRED_BIMODAL 0
#define PRED_GSHARE 1
#define PRED_TOURNAMENT 2

typedef struct {
    i64 kind;
    int8_t *bi;
    i64 bimask;
    int8_t *gs;
    i64 gsmask;
    i64 history_bits;
    int8_t *sel;
    i64 selmask;
} Pred;

static inline int bi_predict(const Pred *p, i64 pc) {
    return p->bi[(pc >> 2) & p->bimask] >= 2;
}

static inline int gs_predict(const Pred *p, i64 pc, i64 hist) {
    return p->gs[((pc >> 2) ^ hist) & p->gsmask] >= 2;
}

static inline void sat_update(int8_t *table, i64 idx, int taken) {
    int8_t c = table[idx];
    if (taken) {
        if (c < 3) table[idx] = (int8_t)(c + 1);
    } else if (c > 0) {
        table[idx] = (int8_t)(c - 1);
    }
}

static int pred_predict(const Pred *p, i64 pc, i64 hist) {
    switch (p->kind) {
    case PRED_BIMODAL:
        return bi_predict(p, pc);
    case PRED_GSHARE:
        return gs_predict(p, pc, hist);
    default: {
        i64 s = (pc >> 2) & p->selmask;
        if (p->sel[s] >= 2) return gs_predict(p, pc, hist);
        return bi_predict(p, pc);
    }
    }
}

static void pred_update(Pred *p, i64 pc, int taken, i64 hist) {
    switch (p->kind) {
    case PRED_BIMODAL:
        sat_update(p->bi, (pc >> 2) & p->bimask, taken);
        return;
    case PRED_GSHARE:
        sat_update(p->gs, ((pc >> 2) ^ hist) & p->gsmask, taken);
        return;
    default: {
        int bc = bi_predict(p, pc) == taken;
        int gc = gs_predict(p, pc, hist) == taken;
        i64 idx = (pc >> 2) & p->selmask;
        int8_t counter = p->sel[idx];
        if (gc && !bc) {
            if (counter < 3) p->sel[idx] = (int8_t)(counter + 1);
        } else if (bc && !gc) {
            if (counter > 0) p->sel[idx] = (int8_t)(counter - 1);
        }
        sat_update(p->bi, (pc >> 2) & p->bimask, taken);
        sat_update(p->gs, ((pc >> 2) ^ hist) & p->gsmask, taken);
        return;
    }
    }
}

/* --------------------------------------------------------- MemoryHierarchy */

typedef struct {
    i64 cache; /* world cache index */
    i64 hit_latency;
    i64 extra_after;
    i64 nhooks;
    i64 hooks[MAX_HOOKS]; /* world cache indices to invalidate on evict */
} Lev;

typedef struct {
    i64 nlev;
    Lev lev[MAX_LEVELS];
    i64 memory_latency;
    i64 prefetch_next_line;
    i64 line_bytes;
    i64 last_line;
    i64 accesses, total_latency, memory_lookups, prefetches;
    i64 level_lookups[MAX_LEVELS];
} Hier;

/* ----------------------------------------------------------------- Thread */

typedef struct {
    /* static trace columns (borrowed from numpy arrays) */
    const u8 *op;
    const int8_t *dst, *src1, *src2;
    const i64 *addr, *pc;
    const u8 *taken;
    const i64 *target;
    const i64 *stallc;
    i64 tlen;
    /* static config */
    i64 inorder, loop, policy_sched;
    i64 rob_cap, lq_cap, sq_cap, slot_reserve, priority;
    i64 ih, dh, itlb, dtlb, pred, btb; /* structure indices, -1 none */
    /* dynamic state */
    i64 cursor, done, active;
    i64 next_fetch, last_issue, last_commit, last_line, last_page;
    i64 instructions, mispredicts, branches, remote_ops, remote_stall;
    i64 activated_at, first_fetch, bp_history;
    i64 last_remote_issue, last_remote_complete;
    i64 reg_ready[32];
    i64 *rob, *lq, *sq; /* rings of rob_cap/lq_cap/sq_cap */
    i64 rob_head, rob_len, lq_head, lq_len, sq_head, sq_len;
    /* profiling scratch (mirrors prof.ThreadProf while profiling is on) */
    i64 charges[NCHARGE];
    i64 retired;
    u8 reg_src[32];
} Thr;

/* ring helpers (fixed capacity cap; callers guarantee len <= cap) */
static inline i64 ring_pop_front(i64 *buf, i64 cap, i64 *head, i64 *len) {
    i64 v = buf[*head];
    *head = (*head + 1) % cap;
    (*len)--;
    return v;
}

static inline void ring_push_back(i64 *buf, i64 cap, i64 head, i64 *len, i64 v) {
    buf[(head + *len) % cap] = v;
    (*len)++;
}

/* ----------------------------------------------------------------- Engine */

typedef struct {
    i64 c, p, s, i;
} HE; /* heap entry: (cycle, priority, seq, thread idx) */

typedef struct {
    i64 width, fdepth;
    i64 now, instructions, seq, prune_countdown;
    Slots fetch, issue, commit;
    Thr *thr;
    i64 nthr;
    HE *heap;
    i64 heap_len, heap_cap;
    /* HSMT scheduler (hsmt.py), optional */
    i64 has_sched, phys, swap_cycles, quantum; /* quantum -1 == None */
    i64 s_seq, s_active, s_swaps, s_preempt, s_swap_charge;
    i64 *ready;
    i64 r_head, r_len, r_cap;
    HE *blocked; /* (complete, 0, seq, idx) */
    i64 b_len, b_cap;
} Eng;

/* ------------------------------------------------------------------ World */

typedef struct {
    Cache **caches;
    i64 ncache, cache_cap;
    Tlb **tlbs;
    i64 ntlb, tlb_cap;
    Btb **btbs;
    i64 nbtb, btb_cap;
    Pred **preds;
    i64 npred, pred_cap;
    Hier **hiers;
    i64 nhier, hier_cap;
    Eng **engs;
    i64 neng, eng_cap;
    /* slot-cause charge ids, adapter-supplied (prof.taxonomy) */
    i64 c_icache, c_itlb, c_btb, c_fetch_bw, c_badspec, c_dcache, c_dtlb;
    i64 c_rob, c_lq, c_sq, c_dep, c_serial, c_issue_bw, c_remote;
} World;

static int grow_ptrs(void ***arr, i64 *cap, i64 need) {
    if (need <= *cap) return RFP_OK;
    i64 nc = *cap ? *cap * 2 : 8;
    while (nc < need) nc *= 2;
    void **na = (void **)realloc(*arr, sizeof(void *) * (size_t)nc);
    if (!na) return RFP_ERR_OOM;
    *arr = na;
    *cap = nc;
    return RFP_OK;
}

World *rfp_new(const i64 *cause_ids) {
    World *w = (World *)calloc(1, sizeof(World));
    if (!w) return NULL;
    w->c_icache = cause_ids[0];
    w->c_itlb = cause_ids[1];
    w->c_btb = cause_ids[2];
    w->c_fetch_bw = cause_ids[3];
    w->c_badspec = cause_ids[4];
    w->c_dcache = cause_ids[5];
    w->c_dtlb = cause_ids[6];
    w->c_rob = cause_ids[7];
    w->c_lq = cause_ids[8];
    w->c_sq = cause_ids[9];
    w->c_dep = cause_ids[10];
    w->c_serial = cause_ids[11];
    w->c_issue_bw = cause_ids[12];
    w->c_remote = cause_ids[13];
    return w;
}

void rfp_free(World *w) {
    if (!w) return;
    for (i64 i = 0; i < w->ncache; i++) {
        free(w->caches[i]->cnt);
        free(w->caches[i]->lines);
        free(w->caches[i]);
    }
    for (i64 i = 0; i < w->ntlb; i++) {
        free(w->tlbs[i]->e);
        free(w->tlbs[i]);
    }
    for (i64 i = 0; i < w->nbtb; i++) {
        free(w->btbs[i]->tags);
        free(w->btbs[i]->valid);
        free(w->btbs[i]->targets);
        free(w->btbs[i]);
    }
    for (i64 i = 0; i < w->npred; i++) free(w->preds[i]);
    for (i64 i = 0; i < w->nhier; i++) free(w->hiers[i]);
    for (i64 i = 0; i < w->neng; i++) {
        Eng *e = w->engs[i];
        for (i64 t = 0; t < e->nthr; t++) {
            free(e->thr[t].rob);
            free(e->thr[t].lq);
            free(e->thr[t].sq);
        }
        free(e->thr);
        free(e->heap);
        free(e->ready);
        free(e->blocked);
        map_free(&e->fetch.used);
        map_free(&e->issue.used);
        map_free(&e->commit.used);
        free(e);
    }
    free(w->caches);
    free(w->tlbs);
    free(w->btbs);
    free(w->preds);
    free(w->hiers);
    free(w->engs);
    free(w);
}

/* -- registration -------------------------------------------------------- */

i64 rfp_add_cache(World *w, i64 nsets, i64 assoc, i64 write_through,
                  i64 line_shift) {
    if (grow_ptrs((void ***)&w->caches, &w->cache_cap, w->ncache + 1))
        return RFP_ERR_OOM;
    Cache *c = (Cache *)calloc(1, sizeof(Cache));
    if (!c) return RFP_ERR_OOM;
    c->nsets = nsets;
    c->assoc = assoc;
    c->write_through = write_through;
    c->line_shift = line_shift;
    c->cnt = (i64 *)calloc((size_t)nsets, sizeof(i64));
    c->lines = (i64 *)malloc(sizeof(i64) * (size_t)(nsets * assoc));
    if (!c->cnt || !c->lines) return RFP_ERR_OOM;
    w->caches[w->ncache] = c;
    return w->ncache++;
}

void rfp_cache_seed(World *w, i64 idx, const i64 *cnt, const i64 *lines,
                    const i64 *counters) {
    Cache *c = w->caches[idx];
    memcpy(c->cnt, cnt, sizeof(i64) * (size_t)c->nsets);
    memcpy(c->lines, lines, sizeof(i64) * (size_t)(c->nsets * c->assoc));
    c->hits = counters[0];
    c->misses = counters[1];
    c->evictions = counters[2];
    c->invalidations = counters[3];
}

void rfp_cache_dump(World *w, i64 idx, i64 *cnt, i64 *lines, i64 *counters) {
    Cache *c = w->caches[idx];
    memcpy(cnt, c->cnt, sizeof(i64) * (size_t)c->nsets);
    memcpy(lines, c->lines, sizeof(i64) * (size_t)(c->nsets * c->assoc));
    counters[0] = c->hits;
    counters[1] = c->misses;
    counters[2] = c->evictions;
    counters[3] = c->invalidations;
}

i64 rfp_add_tlb(World *w, i64 capacity, i64 page_shift, i64 miss_latency) {
    if (grow_ptrs((void ***)&w->tlbs, &w->tlb_cap, w->ntlb + 1))
        return RFP_ERR_OOM;
    Tlb *t = (Tlb *)calloc(1, sizeof(Tlb));
    if (!t) return RFP_ERR_OOM;
    t->capacity = capacity;
    t->page_shift = page_shift;
    t->miss_latency = miss_latency;
    t->e = (i64 *)malloc(sizeof(i64) * (size_t)capacity);
    if (!t->e) return RFP_ERR_OOM;
    w->tlbs[w->ntlb] = t;
    return w->ntlb++;
}

void rfp_tlb_seed(World *w, i64 idx, i64 n, const i64 *vpns, i64 hits,
                  i64 misses) {
    Tlb *t = w->tlbs[idx];
    t->n = n;
    memcpy(t->e, vpns, sizeof(i64) * (size_t)n);
    t->hits = hits;
    t->misses = misses;
}

i64 rfp_tlb_dump(World *w, i64 idx, i64 *vpns, i64 *counters) {
    Tlb *t = w->tlbs[idx];
    memcpy(vpns, t->e, sizeof(i64) * (size_t)t->n);
    counters[0] = t->hits;
    counters[1] = t->misses;
    return t->n;
}

i64 rfp_add_btb(World *w, i64 entries) {
    if (grow_ptrs((void ***)&w->btbs, &w->btb_cap, w->nbtb + 1))
        return RFP_ERR_OOM;
    Btb *b = (Btb *)calloc(1, sizeof(Btb));
    if (!b) return RFP_ERR_OOM;
    b->mask = entries - 1;
    b->tags = (i64 *)calloc((size_t)entries, sizeof(i64));
    b->valid = (u8 *)calloc((size_t)entries, 1);
    b->targets = (i64 *)calloc((size_t)entries, sizeof(i64));
    if (!b->tags || !b->valid || !b->targets) return RFP_ERR_OOM;
    w->btbs[w->nbtb] = b;
    return w->nbtb++;
}

void rfp_btb_seed(World *w, i64 idx, const i64 *tags, const u8 *valid,
                  const i64 *targets, i64 hits, i64 misses) {
    Btb *b = w->btbs[idx];
    i64 n = b->mask + 1;
    memcpy(b->tags, tags, sizeof(i64) * (size_t)n);
    memcpy(b->valid, valid, (size_t)n);
    memcpy(b->targets, targets, sizeof(i64) * (size_t)n);
    b->hits = hits;
    b->misses = misses;
}

void rfp_btb_dump(World *w, i64 idx, i64 *tags, u8 *valid, i64 *targets,
                  i64 *counters) {
    Btb *b = w->btbs[idx];
    i64 n = b->mask + 1;
    memcpy(tags, b->tags, sizeof(i64) * (size_t)n);
    memcpy(valid, b->valid, (size_t)n);
    memcpy(targets, b->targets, sizeof(i64) * (size_t)n);
    counters[0] = b->hits;
    counters[1] = b->misses;
}

/* Counters-only exports for the per-run light sync: statistics flow back
 * to Python after every run, while array contents (sets, TLB entries,
 * BTB tags) stay kernel-authoritative until eject. */

void rfp_cache_counters(World *w, i64 idx, i64 *counters) {
    Cache *c = w->caches[idx];
    counters[0] = c->hits;
    counters[1] = c->misses;
    counters[2] = c->evictions;
    counters[3] = c->invalidations;
}

void rfp_tlb_counters(World *w, i64 idx, i64 *counters) {
    Tlb *t = w->tlbs[idx];
    counters[0] = t->hits;
    counters[1] = t->misses;
}

void rfp_btb_counters(World *w, i64 idx, i64 *counters) {
    Btb *b = w->btbs[idx];
    counters[0] = b->hits;
    counters[1] = b->misses;
}

i64 rfp_add_pred(World *w, i64 kind, int8_t *bi, i64 bimask, int8_t *gs,
                 i64 gsmask, i64 history_bits, int8_t *sel, i64 selmask) {
    if (grow_ptrs((void ***)&w->preds, &w->pred_cap, w->npred + 1))
        return RFP_ERR_OOM;
    Pred *p = (Pred *)calloc(1, sizeof(Pred));
    if (!p) return RFP_ERR_OOM;
    p->kind = kind;
    p->bi = bi;
    p->bimask = bimask;
    p->gs = gs;
    p->gsmask = gsmask;
    p->history_bits = history_bits;
    p->sel = sel;
    p->selmask = selmask;
    w->preds[w->npred] = p;
    return w->npred++;
}

i64 rfp_add_hier(World *w, i64 nlev, const i64 *cache_idx, const i64 *hit_lat,
                 const i64 *extra_after, const i64 *hook_cnt,
                 const i64 *hooks_flat, i64 memory_latency,
                 i64 prefetch_next_line, i64 line_bytes, i64 last_line) {
    if (nlev > MAX_LEVELS) return RFP_ERR_CAP;
    if (grow_ptrs((void ***)&w->hiers, &w->hier_cap, w->nhier + 1))
        return RFP_ERR_OOM;
    Hier *h = (Hier *)calloc(1, sizeof(Hier));
    if (!h) return RFP_ERR_OOM;
    h->nlev = nlev;
    i64 hk = 0;
    for (i64 i = 0; i < nlev; i++) {
        h->lev[i].cache = cache_idx[i];
        h->lev[i].hit_latency = hit_lat[i];
        h->lev[i].extra_after = extra_after[i];
        if (hook_cnt[i] > MAX_HOOKS) {
            free(h);
            return RFP_ERR_CAP;
        }
        h->lev[i].nhooks = hook_cnt[i];
        for (i64 j = 0; j < hook_cnt[i]; j++) h->lev[i].hooks[j] = hooks_flat[hk++];
    }
    h->memory_latency = memory_latency;
    h->prefetch_next_line = prefetch_next_line;
    h->line_bytes = line_bytes;
    h->last_line = last_line;
    w->hiers[w->nhier] = h;
    return w->nhier++;
}

void rfp_hier_seed(World *w, i64 idx, const i64 *counters) {
    Hier *h = w->hiers[idx];
    h->accesses = counters[0];
    h->total_latency = counters[1];
    h->memory_lookups = counters[2];
    h->prefetches = counters[3];
    h->last_line = counters[4];
    for (i64 i = 0; i < h->nlev; i++) h->level_lookups[i] = counters[5 + i];
}

void rfp_hier_dump(World *w, i64 idx, i64 *counters) {
    Hier *h = w->hiers[idx];
    counters[0] = h->accesses;
    counters[1] = h->total_latency;
    counters[2] = h->memory_lookups;
    counters[3] = h->prefetches;
    counters[4] = h->last_line;
    for (i64 i = 0; i < h->nlev; i++) counters[5 + i] = h->level_lookups[i];
}

i64 rfp_add_engine(World *w, i64 width, i64 fdepth) {
    if (grow_ptrs((void ***)&w->engs, &w->eng_cap, w->neng + 1))
        return RFP_ERR_OOM;
    Eng *e = (Eng *)calloc(1, sizeof(Eng));
    if (!e) return RFP_ERR_OOM;
    e->width = width;
    e->fdepth = fdepth;
    e->quantum = -1;
    if (map_init(&e->fetch.used, 64) || map_init(&e->issue.used, 64) ||
        map_init(&e->commit.used, 64))
        return RFP_ERR_OOM;
    w->engs[w->neng] = e;
    return w->neng++;
}

/* scalars: now, instructions, seq, prune_countdown */
void rfp_engine_seed(World *w, i64 eidx, const i64 *scalars) {
    Eng *e = w->engs[eidx];
    e->now = scalars[0];
    e->instructions = scalars[1];
    e->seq = scalars[2];
    e->prune_countdown = scalars[3];
}

i64 rfp_engine_sched(World *w, i64 eidx, i64 phys, i64 swap_cycles,
                     i64 quantum, const i64 *scalars, i64 nready,
                     const i64 *ready, i64 nblocked, const i64 *blocked3) {
    Eng *e = w->engs[eidx];
    e->has_sched = 1;
    e->phys = phys;
    e->swap_cycles = swap_cycles;
    e->quantum = quantum;
    e->s_seq = scalars[0];
    e->s_active = scalars[1];
    e->s_swaps = scalars[2];
    e->s_preempt = scalars[3];
    /* Re-seeding at every run start keeps the Python-side scheduler
     * authoritative between runs; drop any previous queue storage. */
    free(e->ready);
    free(e->blocked);
    e->r_cap = nready + 16;
    e->ready = (i64 *)malloc(sizeof(i64) * (size_t)e->r_cap);
    if (!e->ready) return RFP_ERR_OOM;
    memcpy(e->ready, ready, sizeof(i64) * (size_t)nready);
    e->r_head = 0;
    e->r_len = nready;
    e->b_cap = nblocked + 16;
    e->blocked = (HE *)malloc(sizeof(HE) * (size_t)e->b_cap);
    if (!e->blocked) return RFP_ERR_OOM;
    for (i64 i = 0; i < nblocked; i++) {
        e->blocked[i].c = blocked3[i * 3];
        e->blocked[i].p = 0;
        e->blocked[i].s = blocked3[i * 3 + 1];
        e->blocked[i].i = blocked3[i * 3 + 2];
    }
    e->b_len = nblocked;
    return RFP_OK;
}

void rfp_alloc_seed(World *w, i64 eidx, i64 which, i64 floor, i64 allocated,
                    i64 n, const i64 *cycles, const i64 *counts) {
    Eng *e = w->engs[eidx];
    Slots *s = which == 0 ? &e->fetch : which == 1 ? &e->issue : &e->commit;
    s->floor = floor;
    s->allocated = allocated;
    for (i64 i = 0; i < n; i++) map_set(&s->used, cycles[i], counts[i]);
}

i64 rfp_alloc_size(World *w, i64 eidx, i64 which) {
    Eng *e = w->engs[eidx];
    Slots *s = which == 0 ? &e->fetch : which == 1 ? &e->issue : &e->commit;
    return s->used.live;
}

/* hdr: floor, allocated; entries: live (cycle, count) pairs */
i64 rfp_alloc_dump(World *w, i64 eidx, i64 which, i64 *hdr, i64 *cycles,
                   i64 *counts) {
    Eng *e = w->engs[eidx];
    Slots *s = which == 0 ? &e->fetch : which == 1 ? &e->issue : &e->commit;
    hdr[0] = s->floor;
    hdr[1] = s->allocated;
    i64 n = 0;
    for (i64 i = 0; i < s->used.cap; i++) {
        if (s->used.keys[i] != MAP_EMPTY && s->used.vals[i] > 0) {
            cycles[n] = s->used.keys[i];
            counts[n] = s->used.vals[i];
            n++;
        }
    }
    return n;
}

i64 rfp_heap_seed(World *w, i64 eidx, i64 n, const i64 *quads) {
    Eng *e = w->engs[eidx];
    free(e->heap);
    e->heap_cap = n + 16;
    e->heap = (HE *)malloc(sizeof(HE) * (size_t)e->heap_cap);
    if (!e->heap) return RFP_ERR_OOM;
    for (i64 i = 0; i < n; i++) {
        e->heap[i].c = quads[i * 4];
        e->heap[i].p = quads[i * 4 + 1];
        e->heap[i].s = quads[i * 4 + 2];
        e->heap[i].i = quads[i * 4 + 3];
    }
    e->heap_len = n;
    return RFP_OK;
}

i64 rfp_heap_dump(World *w, i64 eidx, i64 *quads) {
    Eng *e = w->engs[eidx];
    for (i64 i = 0; i < e->heap_len; i++) {
        quads[i * 4] = e->heap[i].c;
        quads[i * 4 + 1] = e->heap[i].p;
        quads[i * 4 + 2] = e->heap[i].s;
        quads[i * 4 + 3] = e->heap[i].i;
    }
    return e->heap_len;
}

/* cfg: inorder, loop, policy_sched, rob_cap, lq_cap, sq_cap, slot_reserve,
 *      priority, ih, dh, itlb, dtlb, pred, btb */
i64 rfp_add_thread(World *w, i64 eidx, const u8 *op, const int8_t *dst,
                   const int8_t *src1, const int8_t *src2, const i64 *addr,
                   const i64 *pc, const u8 *taken, const i64 *target,
                   const i64 *stallc, i64 tlen, const i64 *cfg) {
    Eng *e = w->engs[eidx];
    Thr *nt = (Thr *)realloc(e->thr, sizeof(Thr) * (size_t)(e->nthr + 1));
    if (!nt) return RFP_ERR_OOM;
    e->thr = nt;
    Thr *t = &e->thr[e->nthr];
    memset(t, 0, sizeof(Thr));
    t->op = op;
    t->dst = dst;
    t->src1 = src1;
    t->src2 = src2;
    t->addr = addr;
    t->pc = pc;
    t->taken = taken;
    t->target = target;
    t->stallc = stallc;
    t->tlen = tlen;
    t->inorder = cfg[0];
    t->loop = cfg[1];
    t->policy_sched = cfg[2];
    t->rob_cap = cfg[3];
    t->lq_cap = cfg[4];
    t->sq_cap = cfg[5];
    t->slot_reserve = cfg[6];
    t->priority = cfg[7];
    t->ih = cfg[8];
    t->dh = cfg[9];
    t->itlb = cfg[10];
    t->dtlb = cfg[11];
    t->pred = cfg[12];
    t->btb = cfg[13];
    t->rob = (i64 *)malloc(sizeof(i64) * (size_t)t->rob_cap);
    t->lq = (i64 *)malloc(sizeof(i64) * (size_t)t->lq_cap);
    t->sq = (i64 *)malloc(sizeof(i64) * (size_t)t->sq_cap);
    if (!t->rob || !t->lq || !t->sq) return RFP_ERR_OOM;
    return e->nthr++;
}

/* Seed one thread's mutable queues and registers (bind-time import). */
void rfp_thread_seed(World *w, i64 eidx, i64 tidx, const i64 *reg_ready,
                     i64 nrob, const i64 *rob, i64 nlq, const i64 *lq, i64 nsq,
                     const i64 *sq) {
    Thr *t = &w->engs[eidx]->thr[tidx];
    memcpy(t->reg_ready, reg_ready, sizeof(i64) * 32);
    memcpy(t->rob, rob, sizeof(i64) * (size_t)nrob);
    t->rob_head = 0;
    t->rob_len = nrob;
    memcpy(t->lq, lq, sizeof(i64) * (size_t)nlq);
    t->lq_head = 0;
    t->lq_len = nlq;
    memcpy(t->sq, sq, sizeof(i64) * (size_t)nsq);
    t->sq_head = 0;
    t->sq_len = nsq;
}

void rfp_thread_regs_dump(World *w, i64 eidx, i64 tidx, i64 *reg_ready) {
    Thr *t = &w->engs[eidx]->thr[tidx];
    memcpy(reg_ready, t->reg_ready, sizeof(i64) * 32);
}

i64 rfp_thread_queues_dump(World *w, i64 eidx, i64 tidx, i64 *rob, i64 *lq,
                           i64 *sq, i64 *lens) {
    Thr *t = &w->engs[eidx]->thr[tidx];
    for (i64 i = 0; i < t->rob_len; i++)
        rob[i] = t->rob[(t->rob_head + i) % t->rob_cap];
    for (i64 i = 0; i < t->lq_len; i++)
        lq[i] = t->lq[(t->lq_head + i) % t->lq_cap];
    for (i64 i = 0; i < t->sq_len; i++)
        sq[i] = t->sq[(t->sq_head + i) % t->sq_cap];
    lens[0] = t->rob_len;
    lens[1] = t->lq_len;
    lens[2] = t->sq_len;
    return RFP_OK;
}

/* prof scratch: charges[17..NCHARGE), retired, reg_src[32] */
void rfp_prof_seed(World *w, i64 eidx, i64 tidx, const i64 *charges,
                   i64 ncauses, i64 retired, const i64 *reg_src) {
    Thr *t = &w->engs[eidx]->thr[tidx];
    memset(t->charges, 0, sizeof(t->charges));
    for (i64 i = 0; i < ncauses; i++) t->charges[i] = charges[i];
    t->retired = retired;
    for (i64 i = 0; i < 32; i++) t->reg_src[i] = (u8)reg_src[i];
}

/* Dump-and-zero charges/retired (account_run's fold); reg_src persists. */
void rfp_prof_dump(World *w, i64 eidx, i64 tidx, i64 *charges, i64 ncauses,
                   i64 *retired, i64 *reg_src) {
    Thr *t = &w->engs[eidx]->thr[tidx];
    for (i64 i = 0; i < ncauses; i++) {
        charges[i] = t->charges[i];
        t->charges[i] = 0;
    }
    *retired = t->retired;
    t->retired = 0;
    for (i64 i = 0; i < 32; i++) reg_src[i] = t->reg_src[i];
}

/* engine state for eject: seq, prune_countdown, heap_len,
 * sched scalars (s_seq, s_active, s_swaps, s_preempt, r_len, b_len) */
void rfp_engine_dump(World *w, i64 eidx, i64 *buf) {
    Eng *e = w->engs[eidx];
    buf[0] = e->seq;
    buf[1] = e->prune_countdown;
    buf[2] = e->heap_len;
    buf[3] = e->s_seq;
    buf[4] = e->s_active;
    buf[5] = e->s_swaps;
    buf[6] = e->s_preempt;
    buf[7] = e->r_len;
    buf[8] = e->b_len;
}

void rfp_sched_dump(World *w, i64 eidx, i64 *ready, i64 *blocked3) {
    Eng *e = w->engs[eidx];
    for (i64 i = 0; i < e->r_len; i++)
        ready[i] = e->ready[(e->r_head + i) % e->r_cap];
    for (i64 i = 0; i < e->b_len; i++) {
        blocked3[i * 3] = e->blocked[i].c;
        blocked3[i * 3 + 1] = e->blocked[i].s;
        blocked3[i * 3 + 2] = e->blocked[i].i;
    }
}

/* -- per-run scalar sync --------------------------------------------------
 * buf layout: [0]=now, [1]=instructions, then 21 slots per thread:
 *   cursor, done, active, next_fetch, last_issue, last_commit, last_line,
 *   last_page, instructions, mispredicts, branches, remote_ops,
 *   remote_stall, activated_at, first_fetch, bp_history,
 *   last_remote_issue, last_remote_complete, rob_len, lq_len, sq_len
 * sync_in ignores the queue lengths (kernel-owned). */

#define TSYNC 21

void rfp_sync_in(World *w, i64 eidx, const i64 *buf) {
    Eng *e = w->engs[eidx];
    e->now = buf[0];
    e->instructions = buf[1];
    for (i64 i = 0; i < e->nthr; i++) {
        Thr *t = &e->thr[i];
        const i64 *b = buf + 2 + i * TSYNC;
        t->cursor = b[0];
        t->done = b[1];
        t->active = b[2];
        t->next_fetch = b[3];
        t->last_issue = b[4];
        t->last_commit = b[5];
        t->last_line = b[6];
        t->last_page = b[7];
        t->instructions = b[8];
        t->mispredicts = b[9];
        t->branches = b[10];
        t->remote_ops = b[11];
        t->remote_stall = b[12];
        t->activated_at = b[13];
        t->first_fetch = b[14];
        t->bp_history = b[15];
        t->last_remote_issue = b[16];
        t->last_remote_complete = b[17];
    }
}

void rfp_sync_out(World *w, i64 eidx, i64 *buf) {
    Eng *e = w->engs[eidx];
    buf[0] = e->now;
    buf[1] = e->instructions;
    for (i64 i = 0; i < e->nthr; i++) {
        Thr *t = &e->thr[i];
        i64 *b = buf + 2 + i * TSYNC;
        b[0] = t->cursor;
        b[1] = t->done;
        b[2] = t->active;
        b[3] = t->next_fetch;
        b[4] = t->last_issue;
        b[5] = t->last_commit;
        b[6] = t->last_line;
        b[7] = t->last_page;
        b[8] = t->instructions;
        b[9] = t->mispredicts;
        b[10] = t->branches;
        b[11] = t->remote_ops;
        b[12] = t->remote_stall;
        b[13] = t->activated_at;
        b[14] = t->first_fetch;
        b[15] = t->bp_history;
        b[16] = t->last_remote_issue;
        b[17] = t->last_remote_complete;
        b[18] = t->rob_len;
        b[19] = t->lq_len;
        b[20] = t->sq_len;
    }
}

/* -- hierarchy access (MemoryHierarchy.access / .prefetch) -------------- */

static void hier_notify_evict(World *w, const Lev *lev, i64 victim) {
    for (i64 j = 0; j < lev->nhooks; j++)
        cache_invalidate_line(w->caches[lev->hooks[j]], victim);
}

static void hier_prefetch(World *w, Hier *h, i64 addr) {
    h->prefetches++;
    for (i64 i = 0; i < h->nlev; i++) {
        Cache *c = w->caches[h->lev[i].cache];
        if (!cache_probe(c, addr)) {
            i64 victim = cache_fill(c, addr, 1);
            if (victim >= 0) hier_notify_evict(w, &h->lev[i], victim);
        }
    }
}

static i64 hier_access(World *w, Hier *h, i64 addr, int is_write) {
    h->accesses++;
    i64 latency = 0;
    i64 fills[MAX_LEVELS];
    i64 nfills = 0;
    i64 hit = 0;
    for (i64 i = 0; i < h->nlev; i++) {
        h->level_lookups[i]++;
        Cache *c = w->caches[h->lev[i].cache];
        latency += h->lev[i].hit_latency;
        if (cache_lookup(c, addr)) {
            if (is_write && c->write_through && i + 1 < h->nlev)
                cache_access_alloc(w->caches[h->lev[i + 1].cache], addr);
            hit = 1;
            break;
        }
        fills[nfills++] = i;
        latency += h->lev[i].extra_after;
    }
    if (!hit) {
        h->memory_lookups++;
        latency += h->memory_latency;
    }
    for (i64 k = 0; k < nfills; k++) {
        i64 i = fills[k];
        i64 victim = cache_fill(w->caches[h->lev[i].cache], addr, 0);
        if (victim >= 0) hier_notify_evict(w, &h->lev[i], victim);
    }
    h->total_latency += latency;
    if (h->prefetch_next_line) {
        i64 line =
            h->line_bytes == 64 ? addr >> 6 : addr / h->line_bytes;
        if (line != h->last_line) {
            h->last_line = line;
            hier_prefetch(w, h, (line + 1) * h->line_bytes);
        }
    }
    return latency;
}

/* -- engine heap (heapq port; strict total order via unique seq) -------- */

static inline int he_lt(const HE *a, const HE *b) {
    if (a->c != b->c) return a->c < b->c;
    if (a->p != b->p) return a->p < b->p;
    return a->s < b->s;
}

static int heap_push(HE **heap, i64 *len, i64 *cap, HE v) {
    if (*len >= *cap) {
        i64 nc = *cap * 2 + 16;
        HE *nh = (HE *)realloc(*heap, sizeof(HE) * (size_t)nc);
        if (!nh) return RFP_ERR_OOM;
        *heap = nh;
        *cap = nc;
    }
    HE *h = *heap;
    i64 i = (*len)++;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (!he_lt(&v, &h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = v;
    return RFP_OK;
}

static HE heap_pop(HE *h, i64 *len) {
    HE top = h[0];
    i64 n = --(*len);
    if (n > 0) {
        HE v = h[n];
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1, r = l + 1, small = i;
            if (l < n && he_lt(&h[l], &v)) small = l;
            if (r < n && he_lt(&h[r], small == i ? &v : &h[small])) small = r;
            if (small == i) break;
            h[i] = h[small];
            i = small;
        }
        h[i] = v;
    }
    return top;
}

static void heap_heapify(HE *h, i64 n) {
    for (i64 s = n / 2 - 1; s >= 0; s--) {
        HE v = h[s];
        i64 i = s;
        for (;;) {
            i64 l = 2 * i + 1, r = l + 1, small = i;
            if (l < n && he_lt(&h[l], &v)) small = l;
            if (r < n && he_lt(&h[r], small == i ? &v : &h[small])) small = r;
            if (small == i) break;
            h[i] = h[small];
            i = small;
        }
        h[i] = v;
    }
}

static int eng_push_thread(Eng *e, i64 idx) {
    HE v;
    v.c = e->thr[idx].next_fetch;
    v.p = e->thr[idx].priority;
    v.s = e->seq++;
    v.i = idx;
    return heap_push(&e->heap, &e->heap_len, &e->heap_cap, v);
}

/* -- HSMT scheduler (hsmt.py port) -------------------------------------- */

static int ready_push(Eng *e, i64 idx) {
    if (e->r_len >= e->r_cap) {
        i64 nc = e->r_cap * 2 + 16;
        i64 *nr = (i64 *)malloc(sizeof(i64) * (size_t)nc);
        if (!nr) return RFP_ERR_OOM;
        for (i64 i = 0; i < e->r_len; i++)
            nr[i] = e->ready[(e->r_head + i) % e->r_cap];
        free(e->ready);
        e->ready = nr;
        e->r_head = 0;
        e->r_cap = nc;
    }
    e->ready[(e->r_head + e->r_len) % e->r_cap] = idx;
    e->r_len++;
    return RFP_OK;
}

static inline i64 ready_pop(Eng *e) {
    i64 v = e->ready[e->r_head];
    e->r_head = (e->r_head + 1) % e->r_cap;
    e->r_len--;
    return v;
}

static int sched_activate(Eng *e, i64 idx, i64 now, int prof_on) {
    e->s_active++;
    e->s_swaps++;
    if (prof_on) e->s_swap_charge += e->swap_cycles;
    Thr *t = &e->thr[idx];
    i64 at = now + e->swap_cycles;
    t->active = 1;
    t->activated_at = at;
    if (at > t->next_fetch) t->next_fetch = at;
    if (at > t->last_issue) t->last_issue = at;
    return eng_push_thread(e, idx);
}

static int sched_fill(Eng *e, i64 now, int prof_on) {
    while (e->s_active < e->phys && e->r_len > 0) {
        i64 idx = ready_pop(e);
        if (e->thr[idx].done) continue;
        int rc = sched_activate(e, idx, now, prof_on);
        if (rc) return rc;
    }
    return RFP_OK;
}

static int sched_drain_blocked(Eng *e, i64 now) {
    while (e->b_len > 0 && e->blocked[0].c <= now) {
        HE top = heap_pop(e->blocked, &e->b_len);
        int rc = ready_push(e, top.i);
        if (rc) return rc;
    }
    return RFP_OK;
}

static int sched_on_remote(Eng *e, i64 idx, i64 issue, i64 complete,
                           int prof_on) {
    Thr *t = &e->thr[idx];
    t->active = 0;
    e->s_active--;
    HE v;
    v.c = complete;
    v.p = 0;
    v.s = e->s_seq++;
    v.i = idx;
    int rc = heap_push(&e->blocked, &e->b_len, &e->b_cap, v);
    if (rc) return rc;
    rc = sched_drain_blocked(e, issue);
    if (rc) return rc;
    return sched_fill(e, issue, prof_on);
}

/* returns 1 to run the instruction, 0 when preempted, <0 on error */
static int sched_before_instruction(Eng *e, i64 idx, i64 now, int prof_on) {
    int rc = sched_drain_blocked(e, now);
    if (rc) return rc;
    Thr *t = &e->thr[idx];
    if (e->quantum >= 0 && e->r_len > 0 &&
        now - t->activated_at >= e->quantum) {
        t->active = 0;
        e->s_active--;
        e->s_preempt++;
        rc = ready_push(e, idx);
        if (rc) return rc;
        rc = sched_fill(e, now, prof_on);
        if (rc) return rc;
        return 0;
    }
    rc = sched_fill(e, now, prof_on);
    if (rc) return rc;
    return 1;
}

/* on_idle: returns wake cycle via *wake (or -1 for None); <0 on error */
static int sched_on_idle(Eng *e, i64 now, int prof_on, i64 *wake) {
    int rc = sched_drain_blocked(e, now);
    if (rc) return rc;
    if (e->r_len == 0) {
        if (e->b_len == 0) {
            *wake = -1;
            return RFP_OK;
        }
        i64 w = e->blocked[0].c;
        rc = sched_drain_blocked(e, w);
        if (rc) return rc;
        now = w;
    }
    rc = sched_fill(e, now, prof_on);
    if (rc) return rc;
    *wake = now;
    return RFP_OK;
}

/* -- the per-instruction model (engine.py _step port) ------------------- */

static int eng_step(World *w, Eng *e, i64 idx, i64 fetch_limit, int prof_on,
                    int *boundary_pending, int *err) {
    Thr *t = &e->thr[idx];
    i64 i = t->cursor;
    i64 op = t->op[i];
    int tp = prof_on; /* ThreadProf present iff profiling is on */

    /* ---- fetch ---- */
    i64 earliest = t->next_fetch;
    i64 fetch_extra = 0;
    i64 pc = t->pc[i];
    i64 line = pc >> 6;
    if (line != t->last_line) {
        t->last_line = line;
        if (t->itlb >= 0) {
            i64 page = pc >> 12;
            if (page != t->last_page) {
                t->last_page = page;
                Tlb *itlb = w->tlbs[t->itlb];
                if (!tlb_translate(itlb, pc)) {
                    i64 itlb_extra = itlb->miss_latency;
                    fetch_extra += itlb_extra;
                    if (tp) t->charges[w->c_itlb] += itlb_extra;
                }
            }
        }
        Hier *ih = w->hiers[t->ih];
        i64 lat = hier_access(w, ih, pc, 0);
        i64 icache_extra = lat - ih->lev[0].hit_latency;
        if (icache_extra > 0) {
            fetch_extra += icache_extra;
            if (tp) t->charges[w->c_icache] += icache_extra;
        }
    }
    i64 cap = t->slot_reserve ? e->width - t->slot_reserve : e->width;
    i64 fetch_cycle = slots_alloc(&e->fetch, earliest, cap, err);
    if (*err) return ST_OK;
    if (fetch_limit >= 0 && fetch_cycle >= fetch_limit) {
        int rc = slots_free(&e->fetch, fetch_cycle);
        if (rc) {
            *err = rc;
            return ST_OK;
        }
        if (fetch_cycle > t->next_fetch) t->next_fetch = fetch_cycle;
        return ST_DEFERRED;
    }
    if (tp && fetch_cycle > earliest)
        t->charges[w->c_fetch_bw] += fetch_cycle - earliest;
    i64 avail = fetch_cycle + fetch_extra + e->fdepth;

    /* ---- storage structures (dispatch gating) ---- */
    if (t->rob_len >= t->rob_cap) {
        i64 head = ring_pop_front(t->rob, t->rob_cap, &t->rob_head,
                                  &t->rob_len) +
                   1;
        if (head > avail) {
            if (tp) t->charges[w->c_rob] += head - avail;
            avail = head;
        }
    }
    if (op == OP_LOAD) {
        if (t->lq_len >= t->lq_cap) {
            i64 head =
                ring_pop_front(t->lq, t->lq_cap, &t->lq_head, &t->lq_len) + 1;
            if (head > avail) {
                if (tp) t->charges[w->c_lq] += head - avail;
                avail = head;
            }
        }
    } else if (op == OP_STORE) {
        if (t->sq_len >= t->sq_cap) {
            i64 head =
                ring_pop_front(t->sq, t->sq_cap, &t->sq_head, &t->sq_len) + 1;
            if (head > avail) {
                if (tp) t->charges[w->c_sq] += head - avail;
                avail = head;
            }
        }
    }

    /* ---- issue (dependencies + bandwidth) ---- */
    i64 dep = avail;
    i64 src1 = t->src1[i];
    if (src1 != NO_REG) {
        i64 r = t->reg_ready[src1];
        if (r > dep) dep = r;
    }
    i64 src2 = t->src2[i];
    if (src2 != NO_REG) {
        i64 r = t->reg_ready[src2];
        if (r > dep) dep = r;
    }
    if (tp && dep > avail) {
        if (src1 != NO_REG && t->reg_ready[src1] == dep)
            t->charges[t->reg_src[src1]] += dep - avail;
        else
            t->charges[t->reg_src[src2]] += dep - avail;
    }
    if (t->inorder && t->last_issue > dep) {
        if (tp) t->charges[w->c_serial] += t->last_issue - dep;
        dep = t->last_issue;
    }
    i64 issue = slots_alloc(&e->issue, dep, cap, err);
    if (*err) return ST_OK;
    if (tp && issue > dep) t->charges[w->c_issue_bw] += issue - dep;
    if (t->inorder) t->last_issue = issue;

    /* ---- execute ---- */
    int status = ST_OK;
    i64 latency;
    i64 mem_cause = w->c_dep;
    if (op == OP_LOAD) {
        i64 addr = t->addr[i];
        latency = hier_access(w, w->hiers[t->dh], addr, 0);
        int dtlb_miss = 0;
        if (t->dtlb >= 0) dtlb_miss = !tlb_translate(w->tlbs[t->dtlb], addr);
        if (dtlb_miss) {
            latency += w->tlbs[t->dtlb]->miss_latency;
            mem_cause = w->c_dtlb;
        } else if (tp) {
            mem_cause = latency > w->hiers[t->dh]->lev[0].hit_latency
                            ? w->c_dcache
                            : w->c_dep;
        }
    } else if (op == OP_STORE) {
        hier_access(w, w->hiers[t->dh], t->addr[i], 1);
        if (t->dtlb >= 0) tlb_translate(w->tlbs[t->dtlb], t->addr[i]);
        latency = 1;
    } else if (op == OP_REMOTE) {
        latency = t->stallc[i];
        t->remote_ops++;
        t->remote_stall += latency;
        t->last_remote_issue = issue;
        t->last_remote_complete = issue + latency;
    } else {
        /* IALU 1, IMUL 3, FP 4, BRANCH 1 (engine.py _EXEC_LATENCY) */
        latency = op == OP_IMUL ? 3 : op == OP_FP ? 4 : 1;
    }
    i64 complete = issue + latency;

    i64 dst = t->dst[i];
    if (dst != NO_REG) {
        t->reg_ready[dst] = complete;
        if (tp) {
            if (op == OP_LOAD)
                t->reg_src[dst] = (u8)mem_cause;
            else if (op == OP_REMOTE)
                t->reg_src[dst] = (u8)w->c_remote;
            else
                t->reg_src[dst] = (u8)w->c_dep;
        }
    }

    /* ---- control flow ---- */
    i64 next_fetch = fetch_cycle;
    if (op == OP_BRANCH) {
        t->branches++;
        int taken = t->taken[i] != 0;
        if (t->pred >= 0) {
            Pred *p = w->preds[t->pred];
            i64 history = t->bp_history;
            int predicted = pred_predict(p, pc, history);
            pred_update(p, pc, taken, history);
            i64 bits = p->history_bits;
            if (bits)
                t->bp_history =
                    ((history << 1) | taken) & ((1LL << bits) - 1);
            if (predicted != taken) {
                t->mispredicts++;
                next_fetch = complete + 1;
                if (tp) t->charges[w->c_badspec] += next_fetch - fetch_cycle;
            } else if (taken && t->btb >= 0) {
                i64 tgt = t->target[i];
                int found;
                i64 cached = btb_lookup(w->btbs[t->btb], pc, &found);
                btb_update(w->btbs[t->btb], pc, tgt);
                if (!found || cached != tgt) {
                    next_fetch = fetch_cycle + 2; /* BTB_MISS_BUBBLE */
                    if (tp) t->charges[w->c_btb] += 2;
                }
            }
        }
    } else if (op == OP_REMOTE) {
        if (!t->policy_sched) {
            next_fetch = complete;
            status = ST_REMOTE_BLOCKED;
            if (tp) t->charges[w->c_remote] += latency;
        }
    }
    t->next_fetch = next_fetch > fetch_cycle ? next_fetch : fetch_cycle;

    /* ---- commit (in order) ---- */
    i64 base = complete > t->last_commit ? complete : t->last_commit;
    i64 commit = slots_alloc(&e->commit, base, cap, err);
    if (*err) return ST_OK;
    t->last_commit = commit;
    ring_push_back(t->rob, t->rob_cap, t->rob_head, &t->rob_len, commit);
    if (op == OP_LOAD)
        ring_push_back(t->lq, t->lq_cap, t->lq_head, &t->lq_len, commit);
    else if (op == OP_STORE)
        ring_push_back(t->sq, t->sq_cap, t->sq_head, &t->sq_len, commit);

    t->instructions++;
    e->instructions++;
    if (tp) t->retired++;
    if (t->first_fetch < 0) t->first_fetch = fetch_cycle;
    if (commit > e->now) e->now = commit;

    /* ---- advance cursor ---- */
    i++;
    if (i >= t->tlen) {
        if (t->loop)
            i = 0;
        else
            t->done = 1;
    }
    t->cursor = i;

    /* ---- scheduler notification for REMOTE under HSMT ---- */
    if (op == OP_REMOTE && t->policy_sched) {
        if (!e->has_sched) {
            *err = RFP_ERR_NOSCHED;
            return ST_OK;
        }
        int rc = sched_on_remote(e, idx, issue, complete, prof_on);
        if (rc) {
            *err = rc;
            return ST_OK;
        }
    }

    /* ---- bookkeeping ---- */
    e->prune_countdown--;
    if (e->prune_countdown <= 0) {
        e->prune_countdown = 4096;
        i64 horizon = e->now;
        int any = 0;
        for (i64 k = 0; k < e->nthr; k++) {
            if (!e->thr[k].done) {
                if (!any || e->thr[k].next_fetch < horizon)
                    horizon = e->thr[k].next_fetch;
                any = 1;
            }
        }
        int rc = slots_retire_before(&e->fetch, horizon);
        if (!rc) rc = slots_retire_before(&e->issue, horizon);
        if (!rc) rc = slots_retire_before(&e->commit, horizon);
        if (rc) {
            *err = rc;
            return ST_OK;
        }
        *boundary_pending = 1; /* caller exits to Python if a sampler hooks */
    }

    return status;
}

/* -- main loop (engine.py run() port) ------------------------------------
 * Returns EXIT_DONE / EXIT_BOUNDARY bits, or a negative error code.
 * `executed_io` carries the in-call executed count across boundary
 * re-entries; `swap_charge_out` accumulates HSMT CONTEXT_SWAP cycles. */

i64 rfp_run(World *w, i64 eidx, i64 until, i64 max_instructions,
            i64 stop_after_remote, i64 prof_on, i64 boundary_exit,
            i64 *executed_io, i64 *swap_charge_out) {
    Eng *e = w->engs[eidx];
    i64 executed = *executed_io;
    e->s_swap_charge = 0;
    int err = 0;
    int exit_bits = 0;
    for (;;) {
        if (e->heap_len == 0) {
            if (!e->has_sched) {
                exit_bits = EXIT_DONE;
                break;
            }
            i64 wake;
            int rc = sched_on_idle(e, e->now, (int)prof_on, &wake);
            if (rc) {
                err = rc;
                break;
            }
            if (wake < 0) {
                exit_bits = EXIT_DONE;
                break;
            }
            if (wake > e->now) e->now = wake;
            if (e->heap_len == 0) {
                exit_bits = EXIT_DONE;
                break;
            }
            continue;
        }
        i64 cycle = e->heap[0].c;
        if (until >= 0 && cycle >= until) {
            exit_bits = EXIT_DONE;
            break;
        }
        HE top = heap_pop(e->heap, &e->heap_len);
        i64 idx = top.i;
        Thr *t = &e->thr[idx];
        if (!t->active || t->done) continue;
        if (e->has_sched) {
            int go = sched_before_instruction(e, idx, cycle, (int)prof_on);
            if (go < 0) {
                err = go;
                break;
            }
            if (!go) continue;
        }
        int boundary_pending = 0;
        int status = eng_step(w, e, idx, until, (int)prof_on,
                              &boundary_pending, &err);
        if (err) break;
        if (status == ST_DEFERRED) {
            int rc = eng_push_thread(e, idx);
            if (rc) {
                err = rc;
                break;
            }
            continue;
        }
        executed++;
        if (!t->done && t->active) {
            int rc = eng_push_thread(e, idx);
            if (rc) {
                err = rc;
                break;
            }
        }
        if (max_instructions >= 0 && executed >= max_instructions) {
            exit_bits = EXIT_DONE;
            if (boundary_pending && boundary_exit) exit_bits |= EXIT_BOUNDARY;
            break;
        }
        if (stop_after_remote && status == ST_REMOTE_BLOCKED) {
            exit_bits = EXIT_DONE;
            if (boundary_pending && boundary_exit) exit_bits |= EXIT_BOUNDARY;
            break;
        }
        if (boundary_pending && boundary_exit) {
            exit_bits = EXIT_BOUNDARY;
            break;
        }
    }
    *executed_io = executed;
    *swap_charge_out = e->s_swap_charge;
    if (err) return err;
    return exit_bits;
}

/* fast_forward(cycle) port. */
i64 rfp_fast_forward(World *w, i64 eidx, i64 cycle) {
    Eng *e = w->engs[eidx];
    if (cycle > e->now) e->now = cycle;
    for (i64 i = 0; i < e->nthr; i++) {
        Thr *t = &e->thr[i];
        if (!t->done) {
            if (cycle > t->next_fetch) t->next_fetch = cycle;
            if (cycle > t->last_issue) t->last_issue = cycle;
            if (cycle > t->last_commit) t->last_commit = cycle;
        }
    }
    int rc = slots_retire_before(&e->fetch, cycle);
    if (!rc) rc = slots_retire_before(&e->issue, cycle);
    if (!rc) rc = slots_retire_before(&e->commit, cycle);
    if (rc) return rc;
    if (e->heap_len > 0) {
        for (i64 i = 0; i < e->heap_len; i++)
            if (e->heap[i].c < cycle) e->heap[i].c = cycle;
        heap_heapify(e->heap, e->heap_len);
    }
    return RFP_OK;
}

/* -- batched M/G/1 Lindley recurrence (queueing/mg1.py port) -------------
 * Service times arrive pre-drawn (`base`); the recurrence itself runs
 * with exactly the reference loop's scalar double operations, so waits,
 * services, idle periods and the window scalars are bit-identical to the
 * Python loop.  `penalized` may be NULL when the profiler is off.
 * Returns the number of retained idle periods, or -1 when a service time
 * is negative (the caller raises the reference's ValueError). */
i64 rfp_lindley(const double *gaps, i64 n, i64 warmup, i64 has_penalty,
                double penalty, const double *base, double *waits,
                double *services, double *idles, u8 *penalized,
                double *out3) {
    double arrival = 0.0;
    double window_start = 0.0;
    double backlog = 0.0;
    i64 nidles = 0;
    for (i64 k = 0; k < n; k++) {
        double gap = gaps[k];
        arrival += gap;
        double residual = backlog - gap;
        double wait, idle_before;
        if (residual >= 0.0) {
            wait = residual;
            idle_before = 0.0;
        } else {
            wait = 0.0;
            idle_before = -residual;
            if (k > warmup) idles[nidles++] = idle_before;
            if (penalized) penalized[k] = 1;
        }
        if (k == warmup) window_start = arrival;
        double service = base[k];
        if (has_penalty && idle_before > 0.0) service = service + penalty;
        if (service < 0.0) return -1;
        waits[k] = wait;
        services[k] = service;
        backlog = wait + service;
    }
    out3[0] = arrival;
    out3[1] = backlog;
    out3[2] = window_start;
    return nidles;
}

/* ------------------------------------------------------------ tracegen
 * Port of the per-instruction loop in workloads/tracegen.py.  All
 * randomness is pre-drawn in bulk by the Python caller (the bitstream is
 * identical either way), so the loop itself is a pure deterministic
 * state machine and this port is bit-identical to the reference.
 *
 * dp: [load_cut, store_cut, imul_cut, fp_cut, chase_frac, seq_frac,
 *      hot_frac, dep_chain, predictability, taken_prob]
 * ip: [n, num_blocks, block_size, code_base, data_base,
 *      working_set_bytes, hot_set_bytes, num_arch_regs, n_remote]
 * reg_draws is the flattened (n, 2) int64 array.  remote_positions /
 * remote_stalls may be NULL when n_remote == 0.  Output arrays arrive
 * pre-initialised exactly as the reference initialises them (dst/src1/
 * src2 filled with NO_REG, the rest zeroed); the loop only writes the
 * entries the reference writes. */
i64 rfp_tracegen(const double *dp, const i64 *ip, const double *kind_draws,
                 const double *locality_draws, const double *seq_draws,
                 const double *chase_draws, const double *dep_draws,
                 const double *pred_draws, const double *taken_draws,
                 const i64 *cold_offsets, const i64 *hot_offsets,
                 const i64 *reg_draws, const u8 *block_bias,
                 const i64 *block_target, const i64 *remote_positions,
                 const double *remote_stalls, u8 *op, int8_t *dst,
                 int8_t *src1, int8_t *src2, i64 *addr, i64 *pc, u8 *taken,
                 i64 *target, double *stall_ns) {
    const double load_cut = dp[0], store_cut = dp[1], imul_cut = dp[2];
    const double fp_cut = dp[3], chase_frac = dp[4], seq_frac = dp[5];
    const double hot_frac = dp[6], dep_chain = dp[7];
    const double predictability = dp[8], taken_prob = dp[9];
    const i64 n = ip[0], num_blocks = ip[1], block_size = ip[2];
    const i64 code_base = ip[3], data_base = ip[4];
    const i64 working_set = ip[5], hot_set = ip[6];
    const i64 num_arch_regs = ip[7], n_remote = ip[8];

    i64 block = 0, offset = 0;
    i64 last_dst = 0, last_load_dst = 1;
    i64 seq_addr = data_base;
    const i64 hot_base = data_base;
    const i64 cold_base = data_base + hot_set;
    i64 next_rotating_reg = 2;
    i64 remote_idx = 0;
    i64 next_remote = (n_remote > 0) ? remote_positions[0] : -1;

    for (i64 i = 0; i < n; i++) {
        pc[i] = code_base + (block * block_size + offset) * 4;

        if (i == next_remote) {
            op[i] = OP_REMOTE;
            stall_ns[i] = remote_stalls[remote_idx] * 1000.0;
            dst[i] = (int8_t)last_load_dst;
            last_dst = last_load_dst;
            remote_idx++;
            next_remote =
                (remote_idx < n_remote) ? remote_positions[remote_idx] : -1;
        } else if (offset == block_size - 1) {
            op[i] = OP_BRANCH;
            i64 outcome;
            if (pred_draws[i] < predictability) {
                outcome = block_bias[block] ? 1 : 0;
            } else {
                outcome = (taken_draws[i] < taken_prob) ? 1 : 0;
            }
            taken[i] = (u8)outcome;
            i64 nxt = outcome ? block_target[block]
                              : (block + 1) % num_blocks;
            target[i] = code_base + nxt * block_size * 4;
            src1[i] = (int8_t)last_dst;
            block = nxt;
            offset = 0;
            continue; /* skips the offset/block tail, as the reference does */
        } else {
            double draw = kind_draws[i];
            if (draw < load_cut) {
                op[i] = OP_LOAD;
                if (chase_draws[i] < chase_frac) {
                    src1[i] = (int8_t)last_load_dst;
                    addr[i] = cold_base + cold_offsets[i] * 8;
                } else if (seq_draws[i] < seq_frac) {
                    seq_addr += 8;
                    if (seq_addr >= data_base + working_set)
                        seq_addr = data_base;
                    addr[i] = seq_addr;
                } else if (locality_draws[i] < hot_frac) {
                    addr[i] = hot_base + hot_offsets[i] * 8;
                } else {
                    addr[i] = cold_base + cold_offsets[i] * 8;
                }
                i64 d = next_rotating_reg;
                dst[i] = (int8_t)d;
                last_load_dst = d;
                last_dst = d;
            } else if (draw < store_cut) {
                op[i] = OP_STORE;
                if (seq_draws[i] < seq_frac) {
                    seq_addr += 8;
                    if (seq_addr >= data_base + working_set)
                        seq_addr = data_base;
                    addr[i] = seq_addr;
                } else if (locality_draws[i] < hot_frac) {
                    addr[i] = hot_base + hot_offsets[i] * 8;
                } else {
                    addr[i] = cold_base + cold_offsets[i] * 8;
                }
                src1[i] = (int8_t)((dep_draws[i] < dep_chain)
                                       ? last_dst
                                       : reg_draws[2 * i]);
                src2[i] = (int8_t)reg_draws[2 * i + 1];
            } else {
                if (draw < imul_cut) {
                    op[i] = OP_IMUL;
                } else if (draw < fp_cut) {
                    op[i] = OP_FP;
                } else {
                    op[i] = OP_IALU;
                }
                src1[i] = (int8_t)((dep_draws[i] < dep_chain)
                                       ? last_dst
                                       : reg_draws[2 * i]);
                src2[i] = (int8_t)reg_draws[2 * i + 1];
                i64 d = next_rotating_reg;
                dst[i] = (int8_t)d;
                last_dst = d;
            }
            next_rotating_reg++;
            if (next_rotating_reg >= num_arch_regs) next_rotating_reg = 2;
        }

        offset++;
        if (offset >= block_size) {
            offset = 0;
            block = (block + 1) % num_blocks;
        }
    }
    return RFP_OK;
}

#ifdef RFP_HAVE_NPYRANDOM
/* -- service program (common/distributions.py ServiceProgram) -----------
 * Draws base service times on a live NumPy bit generator, replaying one
 * request's `service_time` per output: for each term, draw (or read the
 * constant), then multiply by the ScaledDistribution factor, divide by
 * 1e6 (microseconds -> seconds), multiply by the slowdown, and add to
 * the accumulator that starts at `init`.  The draws are NumPy's own
 * `random_*` functions on the generator's `bitgen_t`, so values and the
 * generator's end state equal the same number of sequential interpreted
 * calls.
 *
 * ops[t]: kind (low 3 bits) | SVC_SCALE | SVC_PER_US | SVC_SLOW.
 * par[4t..4t+3]: p0, p1, factor, slowdown.  Kinds: constant p0,
 * exponential(scale p0), uniform(low p0, range p1), lognormal(mu p0,
 * sigma p1), p1 * pareto(shape p0). */

#define SVC_CONST 0
#define SVC_EXPONENTIAL 1
#define SVC_UNIFORM 2
#define SVC_LOGNORMAL 3
#define SVC_PARETO 4
#define SVC_SCALE 8
#define SVC_PER_US 16
#define SVC_SLOW 32

/* One request's base service time. */
static inline double rfp_service_one(bitgen_t *bg, i64 nterms, const i64 *ops,
                                     const double *par, double init) {
    double acc = init;
    for (i64 t = 0; t < nterms; t++) {
        const double *p = par + 4 * t;
        i64 op = ops[t];
        double v;
        switch (op & 7) {
        case SVC_EXPONENTIAL: v = random_exponential(bg, p[0]); break;
        case SVC_UNIFORM: v = random_uniform(bg, p[0], p[1]); break;
        case SVC_LOGNORMAL: v = random_lognormal(bg, p[0], p[1]); break;
        case SVC_PARETO: v = p[1] * random_pareto(bg, p[0]); break;
        default: v = p[0]; break;
        }
        if (op & SVC_SCALE) v = v * p[2];
        if (op & SVC_PER_US) v = v / 1e6;
        if (op & SVC_SLOW) v = v * p[3];
        acc = acc + v;
    }
    return acc;
}

/* `n` base service times, one request per output. */
void rfp_service_program(bitgen_t *bg, i64 n, i64 nterms, const i64 *ops,
                         const double *par, double init, double *out) {
    for (i64 k = 0; k < n; k++)
        out[k] = rfp_service_one(bg, nterms, ops, par, init);
}

/* ---------------------------------------------- cluster event loop
 * Port of ClusterSimulator._run_event_loop (cluster/sim.py): the
 * global-order executor for every balancer.  State-independent ones
 * pass their precomputed assignment matrix (mode 0); JSQ and
 * power-of-two selection draws live on the dispatch generator's
 * `bitgen_t`, and every leaf's service time is drawn live on its
 * server's `bitgen_t` by the service program, at the point the
 * reference loop calls `service_time`.  Every stream therefore advances
 * exactly as the reference loop advances it, for any NumPy bit
 * generator, and all queueing arithmetic is the reference loop's scalar
 * double ops, so results are byte-identical.
 */

#define RFPC_DONE 0
#define RFPC_GROW_OUT 1
#define RFPC_GROW_HEAP 2
#define RFPC_ERR_NEGATIVE (-1)

/* Global departure min-heap (pairs of epoch, server). */
static inline void rfpc_heap_push(double *ht, i64 *hs, i64 *size, double t,
                                  i64 s) {
    i64 i = (*size)++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (ht[p] <= t) break;
        ht[i] = ht[p];
        hs[i] = hs[p];
        i = p;
    }
    ht[i] = t;
    hs[i] = s;
}

static inline void rfpc_heap_pop(double *ht, i64 *hs, i64 *size) {
    i64 n = --(*size);
    double t = ht[n];
    i64 s = hs[n];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && ht[c + 1] < ht[c]) c++;
        if (ht[c] >= t) break;
        ht[i] = ht[c];
        hs[i] = hs[c];
        i = c;
    }
    ht[i] = t;
    hs[i] = s;
}

/* JSQ selection: the first `fanout` entries of
 * np.lexsort((rng.random(n_servers), queue_lengths)) — i.e. servers
 * ordered by (queue length, random key, index).  The reference always
 * draws all n_servers keys; so does this.  `keys` is n_servers scratch,
 * `sel` holds the chosen servers in rank order. */
static void rfpc_jsq_select(bitgen_t *bg, i64 n_servers, i64 fanout,
                            const i64 *qlen, double *keys, i64 *sel) {
    for (i64 s = 0; s < n_servers; s++) keys[s] = next_double(bg);
    i64 cnt = 0;
    for (i64 s = 0; s < n_servers; s++) {
        i64 pos = cnt;
        while (pos > 0) {
            i64 t = sel[pos - 1];
            if (qlen[t] > qlen[s] || (qlen[t] == qlen[s] && keys[t] > keys[s]))
                pos--;
            else
                break;
        }
        if (pos >= fanout) continue;
        i64 end = (cnt < fanout) ? cnt : fanout - 1;
        for (i64 m = end; m > pos; m--) sel[m] = sel[m - 1];
        sel[pos] = s;
        if (cnt < fanout) cnt++;
    }
}

/* Generator.choice(pop, size=2, replace=False) for pop >= 3: Floyd's
 * algorithm over a 4-slot open-addressing hash set (numpy sizes the set
 * from int(1.2 * 2) == 2 picks, giving mask 3), then the closing
 * Fisher-Yates pass, which for two picks is a single bounded(1) swap
 * draw.  Every draw is numpy's own random_bounded_uint64 call, so the
 * sequence (collisions and buffered half-words included) is choice's. */
static void rfpc_choice2(bitgen_t *bg, i64 pop, i64 *out) {
    uint64_t hval[4];
    int hused[4] = {0, 0, 0, 0};
    i64 idx[2];
    for (i64 j = pop - 2; j < pop; j++) {
        uint64_t val = random_bounded_uint64(bg, 0, (uint64_t)j, 0, 0);
        uint64_t loc = val & 3u;
        while (hused[loc] && hval[loc] != val) loc = (loc + 1) & 3u;
        if (!hused[loc]) {
            hused[loc] = 1;
            hval[loc] = val;
            idx[j - (pop - 2)] = (i64)val;
        } else {
            loc = (uint64_t)j & 3u;
            while (hused[loc]) loc = (loc + 1) & 3u;
            hused[loc] = 1;
            hval[loc] = (uint64_t)j;
            idx[j - (pop - 2)] = j;
        }
    }
    uint64_t jswap = random_bounded_uint64(bg, 0, 1, 0, 0);
    i64 tmp = idx[1];
    idx[1] = idx[jswap];
    idx[jswap] = tmp;
    out[0] = idx[0];
    out[1] = idx[1];
}

/* The k-th smallest server index not yet chosen this request; `removed`
 * is the sorted chosen list (the C twin of
 * PowerOfTwoBalancer._nth_available). */
static inline i64 rfpc_nth_available(i64 k, const i64 *removed, i64 nrem) {
    for (i64 r = 0; r < nrem; r++) {
        if (removed[r] <= k) k++;
        else break;
    }
    return k;
}

/* Power-of-two selection: per pick, two distinct probes via
 * Generator.choice (Floyd + swap), comparison by queue length with a
 * fresh double deciding ties — the exact draw order of
 * PowerOfTwoBalancer.select.  `removed` is fanout scratch. */
static void rfpc_p2c_select(bitgen_t *bg, i64 n_servers, i64 fanout,
                            const i64 *qlen, i64 *sel, i64 *removed) {
    i64 nrem = 0;
    for (i64 i = 0; i < fanout; i++) {
        i64 m = n_servers - i;
        i64 probes[2];
        i64 nprobes;
        if (m <= 2) {
            nprobes = m;
            for (i64 k = 0; k < m; k++)
                probes[k] = rfpc_nth_available(k, removed, nrem);
        } else {
            i64 picks[2];
            rfpc_choice2(bg, m, picks);
            probes[0] = rfpc_nth_available(picks[0], removed, nrem);
            probes[1] = rfpc_nth_available(picks[1], removed, nrem);
            nprobes = 2;
        }
        i64 best = probes[0];
        for (i64 c = 1; c < nprobes; c++) {
            i64 cand = probes[c];
            if (qlen[cand] < qlen[best] ||
                (qlen[cand] == qlen[best] && next_double(bg) < 0.5))
                best = cand;
        }
        sel[i] = best;
        i64 p = nrem++;
        while (p > 0 && removed[p - 1] > best) {
            removed[p] = removed[p - 1];
            p--;
        }
        removed[p] = best;
    }
}

/* One cluster event-loop run (resumable).  mode: 0 = precomputed
 * assignment matrix, 1 = JSQ, 2 = power-of-two.  `dispatch` is the
 * dispatch generator (unused in mode 0), `servers[s]` server s's
 * generator, and (nterms, ops, par, init) the service program.
 * Per-server outputs are row-major [n_servers, cap], `out_cnt[s]` of
 * them written (so out_cnt is each server's leaf count).  `ctl`
 * carries [next request index, heap size] across ejects; the driver
 * re-enters with the same arrays (grown) until RFPC_DONE.  The eject
 * check is amortized: before each slice the kernel computes how many
 * whole requests are guaranteed to fit (every request takes at most
 * one output slot per chosen server and fanout heap slots) and ejects
 * when that budget is zero. */
i64 rfp_cluster_events(const double *restrict epochs, i64 n, i64 warmup,
                       i64 fanout, i64 n_servers, i64 mode,
                       const i64 *restrict assign, bitgen_t *dispatch,
                       bitgen_t *const *restrict servers, i64 nterms,
                       const i64 *restrict ops, const double *restrict par,
                       double init, i64 has_penalty, double penalty, i64 cap,
                       double *restrict waits, double *restrict services,
                       double *restrict idles, i64 *restrict out_cnt,
                       i64 *restrict idle_cnt, i64 *restrict warmup_cnt,
                       double *restrict completion, i64 *restrict qlen,
                       double *restrict heap_t, i64 *restrict heap_s,
                       i64 heap_cap, double *restrict sojourns,
                       double *restrict scratch_d, i64 *restrict scratch_i,
                       i64 *ctl) {
    i64 j = ctl[0];
    i64 heap_size = ctl[1];
    i64 *sel = scratch_i;             /* fanout */
    i64 *removed = scratch_i + fanout; /* fanout */
    i64 rc = RFPC_DONE;
    while (j < n) {
        i64 budget = (heap_cap - heap_size) / fanout;
        i64 reason = RFPC_GROW_HEAP;
        for (i64 s = 0; s < n_servers; s++) {
            i64 room = cap - out_cnt[s];
            if (room < budget) {
                budget = room;
                reason = RFPC_GROW_OUT;
            }
        }
        if (budget <= 0) {
            rc = reason;
            break;
        }
        i64 stop = j + budget;
        if (stop > n) stop = n;
        for (; j < stop; j++) {
            double t = epochs[j];
            while (heap_size > 0 && heap_t[0] <= t) {
                qlen[heap_s[0]]--;
                rfpc_heap_pop(heap_t, heap_s, &heap_size);
            }
            const i64 *chosen;
            if (mode == 0) {
                chosen = assign + j * fanout;
            } else if (mode == 1) {
                rfpc_jsq_select(dispatch, n_servers, fanout, qlen, scratch_d,
                                sel);
                chosen = sel;
            } else {
                rfpc_p2c_select(dispatch, n_servers, fanout, qlen, sel,
                                removed);
                chosen = sel;
            }
            int retained = j >= warmup;
            double worst = 0.0;
            for (i64 c = 0; c < fanout; c++) {
                i64 i = chosen[c];
                i64 slot = i * cap + out_cnt[i];
                double residual = completion[i] - t;
                double wait, idle_before;
                if (residual >= 0.0) {
                    wait = residual;
                    idle_before = 0.0;
                } else {
                    wait = 0.0;
                    idle_before = -residual;
                    if (retained && out_cnt[i] > warmup_cnt[i])
                        idles[i * cap + idle_cnt[i]++] = idle_before;
                }
                double service = rfp_service_one(servers[i], nterms, ops, par,
                                                 init);
                if (has_penalty && idle_before > 0.0)
                    service = service + penalty;
                if (service < 0.0) {
                    ctl[0] = j;
                    ctl[1] = heap_size;
                    return RFPC_ERR_NEGATIVE;
                }
                waits[slot] = wait;
                services[slot] = service;
                out_cnt[i]++;
                if (!retained) warmup_cnt[i]++;
                double departure = t + wait + service;
                completion[i] = departure;
                rfpc_heap_push(heap_t, heap_s, &heap_size, departure, i);
                qlen[i]++;
                double sojourn = wait + service;
                if (sojourn > worst) worst = sojourn;
            }
            sojourns[j] = worst;
        }
    }
    ctl[0] = j;
    ctl[1] = heap_size;
    return rc;
}
#endif
