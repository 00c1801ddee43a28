/* cdcl.c — native CDCL core behind the ctypes escape hatch.
 *
 * A deliberately compact MiniSat-style solver covering exactly the
 * IncrementalSatBackend surface the pebbling search needs: incremental
 * clause addition, per-call assumptions with conflict-analysis cores,
 * conflict/time budgets, and the usual counters.  It keeps a raw
 * propagate loop: two watched literals with blockers, VSIDS, phase
 * saving, Luby restarts, first-UIP learning and activity-ranked
 * clause-database reduction, without the Python engine's LBD scores.
 * Its parameters (restart unit, activity decays, learned-clause cap)
 * are constants, so cdcl_new takes no options.
 *
 * Literals cross the ABI in DIMACS convention (nonzero int32, sign =
 * polarity); internally they are encoded as 2*var + (negative ? 1 : 0)
 * with 0-based variables, mirroring the Python solver's layout.  Clauses
 * arrive one per cdcl_add_clause call or, batched, as one buffer of
 * zero-terminated clauses per cdcl_add_clauses call.  Problem clauses are
 * carved from chunks the solver owns and frees together; learned clauses
 * get one allocation each, since reduce_db frees them one at a time.
 *
 * The library is built on demand by repro.sat.native with
 * `cc -O2 -shared -fPIC`; keep this file free of non-libc dependencies.
 */

#define _POSIX_C_SOURCE 199309L /* clock_gettime under -std=c11 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define LIT_UNDEF (-1)
#define VALUE_TRUE 1
#define VALUE_FALSE (-1)
#define VALUE_UNDEF 0

#define RESULT_SAT 1
#define RESULT_UNSAT (-1)
#define RESULT_UNKNOWN 0

/* What cdcl_add_clause, cdcl_add_clauses and cdcl_solve return when an
 * allocation fails before the search starts.  Nothing the failed call
 * allocated is kept half-done, so the handle stays usable. */
#define OUT_OF_MEMORY (-2)

/* What cdcl_add_clauses returns, having added nothing, for a malformed
 * buffer. */
#define MALFORMED (-1)

/* The largest DIMACS variable the core accepts.  Variable slots grow by
 * doubling an int32 capacity, and the watch lists and the decision-level
 * stack hold 2 * capacity entries, so every such count stays within
 * int32 only up to 2^29 variables (the internal literal 2*var + 1 needs
 * less).  Callers check literals against it: repro.sat.native before
 * cdcl_add_clause and cdcl_solve, and cdcl_add_clauses in its pre-scan. */
#define MAX_VAR (1 << 29)

/* Problem-clause chunks: the first holds CHUNK_FIRST bytes of clauses,
 * each later one twice its predecessor, up to CHUNK_MAX.  A clause larger
 * than that gets a chunk of its own size. */
#define CHUNK_FIRST ((size_t)64 << 10)
#define CHUNK_MAX ((size_t)1 << 20)

/* Clauses up to this length are sorted by insertion, longer ones by qsort. */
#define SORT_INLINE_MAX 16

/* Conflicts in one unit of the Luby restart sequence. */
#define RESTART_BASE 100

typedef struct Clause {
    double activity;
    int32_t size;
    int32_t learnt;
    int32_t lits[];
} Clause;

typedef struct Chunk {
    struct Chunk *next;        /* the chunk carved before this one */
    size_t used, size;         /* bytes of data carved, and available */
    _Alignas(Clause) unsigned char data[];
} Chunk;

typedef struct Watcher {
    Clause *clause;
    int32_t blocker;
} Watcher;

typedef struct WatchList {
    Watcher *data;
    int32_t size;
    int32_t capacity;
} WatchList;

typedef struct Solver {
    int32_t num_vars;
    int32_t capacity;          /* allocated variable slots */
    int32_t ok;                /* 0 once the formula is root-contradictory */

    int8_t *assigns;           /* per var: VALUE_* */
    int8_t *phase;             /* saved polarity: 1 = last true */
    int8_t *seen;              /* analyze scratch */
    int32_t *level;            /* per var decision level */
    Clause **reason;           /* per var reason clause (NULL = decision) */
    double *activity;          /* per var VSIDS score */
    int32_t *heap;             /* order heap of variable indices */
    int32_t *heap_pos;         /* var -> heap index, -1 when absent */
    int32_t heap_size;

    WatchList *watches;        /* per literal (2 * capacity) */
    int32_t *trail;            /* assigned literals in order */
    int32_t trail_size;
    int32_t *trail_lim;        /* per decision level: trail offset */
    int32_t num_levels;
    int32_t qhead;

    Chunk *chunks;             /* problem clauses, newest chunk first */
    size_t chunk_size;         /* data bytes of the next chunk */
    int64_t num_clauses;       /* problem clauses stored */
    int32_t *scratch;          /* a clause being added: sort and dedup */
    int64_t cap_scratch;
    Clause **learnts;          /* learned clauses */
    int32_t num_learnts, cap_learnts;
    double max_learnts;

    double var_inc, var_decay;
    double cla_inc, cla_decay;

    int32_t *analyze_buf;      /* learned-clause scratch (capacity vars) */
    int32_t *conflict;         /* failed-assumption core (internal lits) */
    int32_t conflict_size;

    /* counters: lifetime totals, except max_decision_level, which is
     * the deepest level of the latest cdcl_solve call */
    int64_t decisions, propagations, conflicts, restarts;
    int64_t learned_clauses, deleted_clauses, max_decision_level;
} Solver;

/* -- small utilities ---------------------------------------------------- */

static int32_t lit_var(int32_t lit) { return lit >> 1; }
static int32_t lit_neg(int32_t lit) { return lit ^ 1; }

static int32_t encode(int32_t dimacs) {
    int32_t var = (dimacs > 0 ? dimacs : -dimacs) - 1;
    return 2 * var + (dimacs < 0);
}

static int32_t decode(int32_t lit) {
    int32_t var = lit_var(lit) + 1;
    return (lit & 1) ? -var : var;
}

static int8_t lit_value(const Solver *s, int32_t lit) {
    int8_t v = s->assigns[lit_var(lit)];
    return (lit & 1) ? (int8_t)(-v) : v;
}

static double now_seconds(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* Resize the array `array` (an lvalue) to `count` elements: 1, or 0 with
 * `array` unchanged.  The caller declares `void *spare` for the result. */
#define GROW(array, count)                                                  \
    ((spare = realloc((array), (size_t)(count) * sizeof *(array))) != NULL  \
         ? ((array) = spare, 1)                                             \
         : 0)

/* Room for one more watcher: 1, or 0 with the list unchanged. */
static int watch_reserve(WatchList *list) {
    if (list->size < list->capacity)
        return 1;
    int32_t capacity = list->capacity ? list->capacity * 2 : 4;
    void *spare;
    if (!GROW(list->data, capacity))
        return 0;
    list->capacity = capacity;
    return 1;
}

static void watch_push(WatchList *list, Watcher watcher) {
    /* Propagation cannot drop a watch and stay sound, so a failed
     * allocation here ends the process instead. */
    if (!watch_reserve(list))
        abort();
    list->data[list->size++] = watcher;
}

/* -- variable order heap (max-heap on activity) ------------------------- */

static int heap_less(const Solver *s, int32_t a, int32_t b) {
    return s->activity[a] > s->activity[b];
}

static void heap_up(Solver *s, int32_t index) {
    int32_t var = s->heap[index];
    while (index > 0) {
        int32_t parent = (index - 1) >> 1;
        if (!heap_less(s, var, s->heap[parent]))
            break;
        s->heap[index] = s->heap[parent];
        s->heap_pos[s->heap[index]] = index;
        index = parent;
    }
    s->heap[index] = var;
    s->heap_pos[var] = index;
}

static void heap_down(Solver *s, int32_t index) {
    int32_t var = s->heap[index];
    for (;;) {
        int32_t child = 2 * index + 1;
        if (child >= s->heap_size)
            break;
        if (child + 1 < s->heap_size &&
            heap_less(s, s->heap[child + 1], s->heap[child]))
            child++;
        if (!heap_less(s, s->heap[child], var))
            break;
        s->heap[index] = s->heap[child];
        s->heap_pos[s->heap[index]] = index;
        index = child;
    }
    s->heap[index] = var;
    s->heap_pos[var] = index;
}

static void heap_insert(Solver *s, int32_t var) {
    if (s->heap_pos[var] >= 0)
        return;
    s->heap[s->heap_size] = var;
    s->heap_pos[var] = s->heap_size;
    s->heap_size++;
    heap_up(s, s->heap_size - 1);
}

static int32_t heap_pop(Solver *s) {
    int32_t top = s->heap[0];
    s->heap_pos[top] = -1;
    s->heap_size--;
    if (s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

/* -- growth ------------------------------------------------------------- */

/* Declare variables up to num_vars: 1, or 0 when an allocation fails.
 * The capacity rises only once every array has grown, so after a
 * failure the solver is unchanged apart from arrays larger than it
 * uses, which the next successful growth resizes again. */
static int ensure_vars(Solver *s, int32_t num_vars) {
    if (num_vars <= s->num_vars)
        return 1;
    if (num_vars > s->capacity) {
        int32_t cap = s->capacity ? s->capacity : 16;
        while (cap < num_vars)
            cap *= 2;
        size_t n = (size_t)cap;
        void *spare;
        if (!GROW(s->assigns, n) || !GROW(s->phase, n) || !GROW(s->seen, n) ||
            !GROW(s->level, n) || !GROW(s->reason, n) || !GROW(s->activity, n) ||
            !GROW(s->heap, n) || !GROW(s->heap_pos, n) || !GROW(s->trail, n) ||
            !GROW(s->trail_lim, 2 * n + 1) || !GROW(s->analyze_buf, n) ||
            !GROW(s->conflict, n + 1) || !GROW(s->watches, 2 * n))
            return 0;
        memset(s->watches + 2 * s->capacity, 0,
               (size_t)(cap - s->capacity) * 2 * sizeof(WatchList));
        s->capacity = cap;
    }
    for (int32_t var = s->num_vars; var < num_vars; var++) {
        s->assigns[var] = VALUE_UNDEF;
        s->phase[var] = 0;
        s->seen[var] = 0;
        s->level[var] = 0;
        s->reason[var] = NULL;
        s->activity[var] = 0.0;
        s->heap_pos[var] = -1;
    }
    int32_t old = s->num_vars;
    s->num_vars = num_vars;
    for (int32_t var = old; var < num_vars; var++)
        heap_insert(s, var);
    return 1;
}

/* -- assignment --------------------------------------------------------- */

static int enqueue(Solver *s, int32_t lit, Clause *reason) {
    int8_t value = lit_value(s, lit);
    if (value == VALUE_TRUE)
        return 1;
    if (value == VALUE_FALSE)
        return 0;
    int32_t var = lit_var(lit);
    s->assigns[var] = (lit & 1) ? VALUE_FALSE : VALUE_TRUE;
    s->level[var] = s->num_levels;
    s->reason[var] = reason;
    s->phase[var] = (lit & 1) ? 0 : 1;
    s->trail[s->trail_size++] = lit;
    return 1;
}

static void cancel_until(Solver *s, int32_t target_level) {
    if (s->num_levels <= target_level)
        return;
    int32_t bound = s->trail_lim[target_level];
    for (int32_t i = s->trail_size - 1; i >= bound; i--) {
        int32_t var = lit_var(s->trail[i]);
        s->assigns[var] = VALUE_UNDEF;
        s->reason[var] = NULL;
        heap_insert(s, var);
    }
    s->trail_size = bound;
    s->qhead = bound;
    s->num_levels = target_level;
}

/* -- propagation -------------------------------------------------------- */

static Clause *propagate(Solver *s) {
    Clause *conflict = NULL;
    while (s->qhead < s->trail_size) {
        int32_t p = s->trail[s->qhead++];
        s->propagations++;
        WatchList *list = &s->watches[p];
        Watcher *data = list->data;
        int32_t i = 0, j = 0, size = list->size;
        while (i < size) {
            Watcher w = data[i];
            if (lit_value(s, w.blocker) == VALUE_TRUE) {
                data[j++] = data[i++];
                continue;
            }
            Clause *c = w.clause;
            int32_t false_lit = lit_neg(p);
            if (c->lits[0] == false_lit) {
                c->lits[0] = c->lits[1];
                c->lits[1] = false_lit;
            }
            i++;
            int32_t first = c->lits[0];
            if (first != w.blocker && lit_value(s, first) == VALUE_TRUE) {
                data[j].clause = c;
                data[j].blocker = first;
                j++;
                continue;
            }
            int moved = 0;
            for (int32_t k = 2; k < c->size; k++) {
                if (lit_value(s, c->lits[k]) != VALUE_FALSE) {
                    c->lits[1] = c->lits[k];
                    c->lits[k] = false_lit;
                    Watcher nw = {c, first};
                    watch_push(&s->watches[lit_neg(c->lits[1])], nw);
                    /* watch_push may realloc OUR list when the clause is
                     * self-watching on p's companion; refresh the cursor. */
                    data = list->data;
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            data[j].clause = c;
            data[j].blocker = first;
            j++;
            if (lit_value(s, first) == VALUE_FALSE) {
                conflict = c;
                s->qhead = s->trail_size;
                while (i < size)
                    data[j++] = data[i++];
            } else {
                enqueue(s, first, c);
            }
        }
        list->size = j;
    }
    return conflict;
}

/* -- activity ----------------------------------------------------------- */

static void var_bump(Solver *s, int32_t var) {
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 0; v < s->num_vars; v++)
            s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[var] >= 0)
        heap_up(s, s->heap_pos[var]);
}

static void cla_bump(Solver *s, Clause *c) {
    c->activity += s->cla_inc;
    if (c->activity > 1e20) {
        for (int32_t i = 0; i < s->num_learnts; i++)
            s->learnts[i]->activity *= 1e-20;
        s->cla_inc *= 1e-20;
    }
}

/* -- clause construction ------------------------------------------------ */

static Clause *clause_new(const int32_t *lits, int32_t size, int32_t learnt) {
    Clause *c = malloc(sizeof(Clause) + (size_t)size * sizeof(int32_t));
    if (c == NULL)
        return NULL;
    c->activity = 0.0;
    c->size = size;
    c->learnt = learnt;
    memcpy(c->lits, lits, (size_t)size * sizeof(int32_t));
    return c;
}

/* Bytes a problem clause of `size` literals takes in a chunk: rounded up
 * so that the next clause carved after it stays aligned. */
static size_t clause_bytes(int32_t size) {
    size_t bytes = sizeof(Clause) + (size_t)size * sizeof(int32_t);
    return (bytes + _Alignof(Clause) - 1) & ~(_Alignof(Clause) - 1);
}

/* Room for `bytes` of problem clause, carved from the newest chunk or
 * from a new one: NULL when no new chunk can be had. */
static Clause *arena_carve(Solver *s, size_t bytes) {
    Chunk *chunk = s->chunks;
    if (chunk == NULL || chunk->size - chunk->used < bytes) {
        size_t size = s->chunk_size > bytes ? s->chunk_size : bytes;
        chunk = malloc(sizeof(Chunk) + size);
        if (chunk == NULL)
            return NULL;
        chunk->next = s->chunks;
        chunk->used = 0;
        chunk->size = size;
        s->chunks = chunk;
        if (s->chunk_size < CHUNK_MAX)
            s->chunk_size *= 2;
    }
    Clause *c = (Clause *)(chunk->data + chunk->used);
    chunk->used += bytes;
    return c;
}

/* Give back the `bytes` arena_carve returned last, and the chunk with
 * them when they were all it held. */
static void arena_return(Solver *s, size_t bytes) {
    Chunk *chunk = s->chunks;
    chunk->used -= bytes;
    if (chunk->used == 0) {
        s->chunks = chunk->next;
        free(chunk);
    }
}

/* Watch c's first two literals: 1, or 0 with c watched nowhere. */
static int attach(Solver *s, Clause *c) {
    WatchList *first = &s->watches[lit_neg(c->lits[0])];
    WatchList *second = &s->watches[lit_neg(c->lits[1])];
    if (!watch_reserve(first) || !watch_reserve(second))
        return 0;
    Watcher w0 = {c, c->lits[1]};
    Watcher w1 = {c, c->lits[0]};
    first->data[first->size++] = w0;
    second->data[second->size++] = w1;
    return 1;
}

static void detach(Solver *s, Clause *c) {
    for (int32_t side = 0; side < 2; side++) {
        WatchList *list = &s->watches[lit_neg(c->lits[side])];
        for (int32_t i = 0; i < list->size; i++) {
            if (list->data[i].clause == c) {
                list->data[i] = list->data[--list->size];
                break;
            }
        }
    }
}

/* Append c: 1, or 0 with the array unchanged. */
static int push_clause(Clause ***array, int32_t *size, int32_t *cap, Clause *c) {
    if (*size == *cap) {
        int32_t grown = *cap ? *cap * 2 : 64;
        void *spare;
        if (!GROW(*array, grown))
            return 0;
        *cap = grown;
    }
    (*array)[(*size)++] = c;
    return 1;
}

/* -- conflict analysis (first UIP) -------------------------------------- */

static int32_t analyze(Solver *s, Clause *conflict, int32_t *out_size) {
    int32_t *learnt = s->analyze_buf;
    int32_t size = 1; /* slot 0 reserved for the asserting literal */
    int32_t counter = 0;
    int32_t p = LIT_UNDEF;
    int32_t index = s->trail_size - 1;

    do {
        if (conflict->learnt)
            cla_bump(s, conflict);
        int32_t start = (p == LIT_UNDEF) ? 0 : 1;
        for (int32_t i = start; i < conflict->size; i++) {
            int32_t q = conflict->lits[i];
            int32_t var = lit_var(q);
            if (!s->seen[var] && s->level[var] > 0) {
                s->seen[var] = 1;
                var_bump(s, var);
                if (s->level[var] >= s->num_levels)
                    counter++;
                else
                    learnt[size++] = q;
            }
        }
        while (!s->seen[lit_var(s->trail[index])])
            index--;
        p = s->trail[index--];
        s->seen[lit_var(p)] = 0;
        counter--;
        if (counter > 0)
            conflict = s->reason[lit_var(p)];
    } while (counter > 0);
    learnt[0] = lit_neg(p);

    int32_t backjump = 0;
    if (size > 1) {
        int32_t max_i = 1;
        for (int32_t i = 2; i < size; i++)
            if (s->level[lit_var(learnt[i])] > s->level[lit_var(learnt[max_i])])
                max_i = i;
        int32_t tmp = learnt[1];
        learnt[1] = learnt[max_i];
        learnt[max_i] = tmp;
        backjump = s->level[lit_var(learnt[1])];
    }
    for (int32_t i = 1; i < size; i++)
        s->seen[lit_var(learnt[i])] = 0;
    *out_size = size;
    return backjump;
}

/* Core of a failed assumption: walk the implication graph below the
 * false assumption and collect the assumption decisions it rests on. */
static void analyze_final(Solver *s, int32_t failed) {
    s->conflict_size = 0;
    s->conflict[s->conflict_size++] = failed;
    if (s->num_levels == 0)
        return;
    s->seen[lit_var(failed)] = 1;
    for (int32_t i = s->trail_size - 1; i >= s->trail_lim[0]; i--) {
        int32_t var = lit_var(s->trail[i]);
        if (!s->seen[var])
            continue;
        Clause *reason = s->reason[var];
        if (reason == NULL) {
            s->conflict[s->conflict_size++] = s->trail[i];
        } else {
            for (int32_t k = 1; k < reason->size; k++)
                if (s->level[lit_var(reason->lits[k])] > 0)
                    s->seen[lit_var(reason->lits[k])] = 1;
        }
        s->seen[var] = 0;
    }
    s->seen[lit_var(failed)] = 0;
}

/* -- learned-clause reduction ------------------------------------------- */

static int cmp_activity(const void *a, const void *b) {
    const Clause *x = *(Clause *const *)a;
    const Clause *y = *(Clause *const *)b;
    if (x->activity < y->activity)
        return -1;
    return x->activity > y->activity;
}

static void reduce_db(Solver *s) {
    qsort(s->learnts, (size_t)s->num_learnts, sizeof(Clause *), cmp_activity);
    double threshold = s->cla_inc / (s->num_learnts ? s->num_learnts : 1);
    int32_t j = 0;
    for (int32_t i = 0; i < s->num_learnts; i++) {
        Clause *c = s->learnts[i];
        int locked = s->reason[lit_var(c->lits[0])] == c &&
                     lit_value(s, c->lits[0]) == VALUE_TRUE;
        int keep = locked || c->size == 2 ||
                   (i >= s->num_learnts / 2 && c->activity >= threshold);
        if (keep) {
            s->learnts[j++] = c;
        } else {
            detach(s, c);
            free(c);
            s->deleted_clauses++;
        }
    }
    s->num_learnts = j;
}

/* -- restarts ----------------------------------------------------------- */

static int64_t luby(int64_t index) {
    int64_t size, seq;
    for (size = 1, seq = 0; size < index + 1; seq++, size = 2 * size + 1)
        ;
    while (size - 1 != index) {
        size = (size - 1) >> 1;
        seq--;
        index = index % size;
    }
    return (int64_t)1 << seq;
}

/* -- public ABI --------------------------------------------------------- */

void *cdcl_new(void) {
    Solver *s = calloc(1, sizeof(Solver));
    if (s == NULL)
        return NULL;
    s->ok = 1;
    s->var_inc = 1.0;
    s->var_decay = 1.0 / 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 1.0 / 0.999;
    s->max_learnts = 2000.0;
    s->chunk_size = CHUNK_FIRST;
    return s;
}

void cdcl_free(void *handle) {
    Solver *s = handle;
    if (!s)
        return;
    while (s->chunks != NULL) {
        Chunk *next = s->chunks->next;
        free(s->chunks);
        s->chunks = next;
    }
    for (int32_t i = 0; i < s->num_learnts; i++)
        free(s->learnts[i]);
    for (int32_t i = 0; i < 2 * s->capacity; i++)
        free(s->watches[i].data);
    free(s->scratch);
    free(s->learnts);
    free(s->watches);
    free(s->assigns);
    free(s->phase);
    free(s->seen);
    free(s->level);
    free(s->reason);
    free(s->activity);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->trail_lim);
    free(s->analyze_buf);
    free(s->conflict);
    free(s);
}

int32_t cdcl_add_variable(void *handle) {
    Solver *s = handle;
    return ensure_vars(s, s->num_vars + 1) ? s->num_vars : OUT_OF_MEMORY;
}

int32_t cdcl_num_variables(void *handle) {
    return ((Solver *)handle)->num_vars;
}

int32_t cdcl_max_variable(void) {
    return MAX_VAR;
}

static int cmp_lit(const void *a, const void *b) {
    return *(const int32_t *)a - *(const int32_t *)b;
}

/* Sort ascending: every algorithm gives the same order of plain ints. */
static void sort_lits(int32_t *lits, int32_t size) {
    if (size > SORT_INLINE_MAX) {
        qsort(lits, (size_t)size, sizeof *lits, cmp_lit);
        return;
    }
    for (int32_t i = 1; i < size; i++) {
        int32_t lit = lits[i];
        int32_t j = i;
        for (; j > 0 && lits[j - 1] > lit; j--)
            lits[j] = lits[j - 1];
        lits[j] = lit;
    }
}

/* Add one clause at decision level 0 over declared variables: the caller
 * has checked that the formula is not contradictory yet, cancelled the
 * trail and declared every variable of the clause.  Returns what
 * cdcl_add_clause returns. */
static int32_t add_prepared(Solver *s, const int32_t *dimacs, int32_t size) {
    /* A clause can repeat literals, so its length is not bounded by the
     * variable count: sort it in the scratch buffer, grown to fit. */
    if (size > s->cap_scratch) {
        int64_t cap = s->cap_scratch ? 2 * s->cap_scratch : 64;
        if (cap < size)
            cap = size;
        void *spare;
        if (!GROW(s->scratch, cap))
            return OUT_OF_MEMORY;
        s->cap_scratch = cap;
    }
    int32_t *lits = s->scratch;
    for (int32_t i = 0; i < size; i++)
        lits[i] = encode(dimacs[i]);
    sort_lits(lits, size);
    int32_t kept = 0;
    int32_t previous = LIT_UNDEF;
    for (int32_t i = 0; i < size; i++) {
        int32_t lit = lits[i];
        if (lit == previous)
            continue;
        if (previous != LIT_UNDEF && lit == lit_neg(previous))
            return 1; /* tautology */
        int8_t value = lit_value(s, lit);
        if (value == VALUE_TRUE)
            return 1; /* satisfied at root */
        if (value != VALUE_FALSE)
            lits[kept++] = lit;
        previous = lit;
    }
    if (kept == 0) {
        s->ok = 0;
        return 0;
    }
    if (kept == 1) {
        if (!enqueue(s, lits[0], NULL) || propagate(s) != NULL)
            s->ok = 0;
        return s->ok;
    }
    size_t bytes = clause_bytes(kept);
    Clause *c = arena_carve(s, bytes);
    if (c == NULL)
        return OUT_OF_MEMORY;
    c->activity = 0.0;
    c->size = kept;
    c->learnt = 0;
    memcpy(c->lits, lits, (size_t)kept * sizeof(int32_t));
    if (!attach(s, c)) {
        arena_return(s, bytes);
        return OUT_OF_MEMORY;
    }
    s->num_clauses++;
    return 1;
}

/* Returns 1 while the formula is not contradictory at the root, 0 once it
 * is, and OUT_OF_MEMORY when the clause could not be stored (the solver
 * then holds what it held before, with perhaps more variables). */
int32_t cdcl_add_clause(void *handle, const int32_t *dimacs, int32_t size) {
    Solver *s = handle;
    if (!s->ok)
        return 0;
    cancel_until(s, 0);
    int32_t max_var = 0;
    for (int32_t i = 0; i < size; i++) {
        int32_t var = dimacs[i] > 0 ? dimacs[i] : -dimacs[i];
        if (var > max_var)
            max_var = var;
    }
    if (!ensure_vars(s, max_var))
        return OUT_OF_MEMORY;
    return add_prepared(s, dimacs, size);
}

/* Batched transfer: `flat` holds n literals forming `count`
 * zero-terminated clauses, added in order exactly as by one
 * cdcl_add_clause call each.  One pre-scan checks the buffer and finds
 * its largest variable, so the trail is cancelled and the variables are
 * declared once for the whole batch.  Returns 1 while the formula is not
 * contradictory at the root, 0 once it is, and MALFORMED, adding
 * nothing, when the buffer does not hold `count` terminators, its last
 * clause is unterminated or a literal's variable is past MAX_VAR.
 * OUT_OF_MEMORY means that the variables could not be declared (nothing
 * added) or that a clause could not be stored (the clauses before it
 * added). */
int32_t cdcl_add_clauses(void *handle, const int32_t *flat, int64_t n, int64_t count) {
    Solver *s = handle;
    if (n > 0 && flat[n - 1] != 0)
        return MALFORMED;
    int64_t zeros = 0;
    int32_t max_var = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = flat[i];
        if (lit == 0) {
            zeros++;
            continue;
        }
        if (lit < -MAX_VAR || lit > MAX_VAR)
            return MALFORMED;
        int32_t var = lit > 0 ? lit : -lit;
        if (var > max_var)
            max_var = var;
    }
    if (zeros != count)
        return MALFORMED;
    if (!s->ok)
        return 0;
    cancel_until(s, 0);
    if (!ensure_vars(s, max_var))
        return OUT_OF_MEMORY;
    int64_t start = 0;
    for (int64_t i = 0; i < n; i++) {
        if (flat[i] != 0)
            continue;
        int32_t added = add_prepared(s, flat + start, (int32_t)(i - start));
        if (added != 1)
            return added;
        start = i + 1;
    }
    return 1;
}

int32_t cdcl_solve(void *handle, const int32_t *assumptions, int32_t num_assumptions,
                   int64_t conflict_limit, double time_limit) {
    Solver *s = handle;
    s->conflict_size = 0;
    s->max_decision_level = 0;
    if (!s->ok)
        return RESULT_UNSAT;
    cancel_until(s, 0);
    for (int32_t i = 0; i < num_assumptions; i++) {
        int32_t var = assumptions[i] > 0 ? assumptions[i] : -assumptions[i];
        if (!ensure_vars(s, var))
            return OUT_OF_MEMORY;
    }
    /* Satisfied assumptions still open a (empty) decision level each, so
     * the level stack must hold one slot per assumption on top of the
     * one-per-variable worst case. */
    void *spare;
    if (!GROW(s->trail_lim, 2 * (size_t)s->capacity + (size_t)num_assumptions + 1))
        return OUT_OF_MEMORY;
    if (propagate(s) != NULL) {
        s->ok = 0;
        return RESULT_UNSAT;
    }

    double deadline = time_limit > 0 ? now_seconds() + time_limit : -1.0;
    int64_t budget = conflict_limit > 0 ? s->conflicts + conflict_limit : -1;
    int64_t next_restart = s->conflicts + RESTART_BASE * luby(s->restarts);
    double learnt_cap = s->max_learnts;
    if (learnt_cap < (double)s->num_clauses / 3.0)
        learnt_cap = (double)s->num_clauses / 3.0;

    for (;;) {
        Clause *conflict = propagate(s);
        if (conflict != NULL) {
            s->conflicts++;
            if (s->num_levels == 0) {
                s->ok = 0;
                return RESULT_UNSAT;
            }
            int32_t learnt_size = 0;
            int32_t backjump = analyze(s, conflict, &learnt_size);
            cancel_until(s, backjump);
            int32_t *learnt = s->analyze_buf;
            if (learnt_size == 1) {
                enqueue(s, learnt[0], NULL);
            } else {
                /* Allocation failures during search are not handled
                 * yet: a NULL clause crashes here, while a learned clause
                 * left untracked or unwatched is merely redundant. */
                Clause *c = clause_new(learnt, learnt_size, 1);
                push_clause(&s->learnts, &s->num_learnts, &s->cap_learnts, c);
                attach(s, c);
                cla_bump(s, c);
                enqueue(s, learnt[0], c);
            }
            s->learned_clauses++;
            s->var_inc *= s->var_decay;
            s->cla_inc *= s->cla_decay;
            if (budget >= 0 && s->conflicts >= budget)
                return RESULT_UNKNOWN;
            if ((s->conflicts & 255) == 0 && deadline > 0 &&
                now_seconds() > deadline)
                return RESULT_UNKNOWN;
            continue;
        }

        if (s->conflicts >= next_restart) {
            s->restarts++;
            next_restart = s->conflicts + RESTART_BASE * luby(s->restarts);
            cancel_until(s, 0);
            continue;
        }
        if (deadline > 0 && now_seconds() > deadline)
            return RESULT_UNKNOWN;
        if ((double)s->num_learnts >= learnt_cap + (double)s->trail_size) {
            reduce_db(s);
            learnt_cap *= 1.1;
            s->max_learnts = learnt_cap;
        }

        /* Re-walk the assumption prefix, then decide. */
        int32_t next = LIT_UNDEF;
        while (s->num_levels < num_assumptions) {
            int32_t lit = encode(assumptions[s->num_levels]);
            int8_t value = lit_value(s, lit);
            if (value == VALUE_TRUE) {
                s->trail_lim[s->num_levels++] = s->trail_size;
            } else if (value == VALUE_FALSE) {
                analyze_final(s, lit);
                return RESULT_UNSAT;
            } else {
                next = lit;
                break;
            }
        }
        if (next == LIT_UNDEF) {
            while (s->heap_size > 0) {
                int32_t var = s->heap[0];
                if (s->assigns[var] == VALUE_UNDEF && var < s->num_vars) {
                    next = 2 * var + (s->phase[var] ? 0 : 1);
                    break;
                }
                heap_pop(s);
            }
            if (next == LIT_UNDEF)
                return RESULT_SAT; /* all variables assigned */
            s->decisions++;
        }
        s->trail_lim[s->num_levels++] = s->trail_size;
        if (s->num_levels > s->max_decision_level)
            s->max_decision_level = s->num_levels;
        enqueue(s, next, NULL);
    }
}

int32_t cdcl_model_value(void *handle, int32_t variable) {
    Solver *s = handle;
    if (variable < 1 || variable > s->num_vars)
        return 0;
    return s->assigns[variable - 1] == VALUE_TRUE;
}

void cdcl_copy_model(void *handle, int8_t *out, int32_t num_vars) {
    Solver *s = handle;
    for (int32_t var = 0; var < num_vars; var++)
        out[var] = (var < s->num_vars && s->assigns[var] == VALUE_TRUE) ? 1 : 0;
}

int32_t cdcl_failed_size(void *handle) {
    return ((Solver *)handle)->conflict_size;
}

void cdcl_copy_failed(void *handle, int32_t *out) {
    Solver *s = handle;
    for (int32_t i = 0; i < s->conflict_size; i++)
        out[i] = decode(s->conflict[i]);
}

/* Copies the seven counters, in the order repro.sat.native names them. */
void cdcl_counters(void *handle, int64_t *out) {
    Solver *s = handle;
    out[0] = s->decisions;
    out[1] = s->propagations;
    out[2] = s->conflicts;
    out[3] = s->restarts;
    out[4] = s->learned_clauses;
    out[5] = s->deleted_clauses;
    out[6] = s->max_decision_level;
}
