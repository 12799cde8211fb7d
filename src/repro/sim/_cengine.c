/* Compiled core of the discrete-event engine.
 *
 * A timer-wheel scheduler behind the API of the reference heap engine
 * (repro/sim/reference.py): a ring of WHEEL_SLOTS per-tick buckets for
 * near-future events plus a lazy-deletion overflow heap with compaction
 * for the rest, dispatched a whole tick at a time. repro/sim/engine.py
 * differentially self-tests this class against the reference heap at
 * import and only then adopts it, so any semantic drift between the two
 * disqualifies this one rather than corrupting runs.
 *
 * The same module carries the fabric's compiled path fold (FabricPath,
 * gated by repro/net/fabric.py) and, adopted with it, the spoofed-SYN
 * flood's plumbing around listener triage: a flooder's firing loop and
 * SYN delivery (SynFastPath) and its blackholed replies (ReplyFastPath).
 * The per-packet Python pipeline is their oracle; see the comment above
 * SynFastPath for what they decline.
 *
 * Invariants:
 *   - events fire in exact (time, seq) order; seq is the schedule counter.
 *     tick(t) = (long long)(t * inv_gran) is monotone in t, buckets are
 *     dispatched in tick order and each bucket is sorted by (time, seq)
 *     before dispatch, so the tick width affects speed, never order;
 *   - wheel residents always satisfy tick in [cursor, cursor+WHEEL_SLOTS);
 *     the overflow heap holds only events a full wheel span ahead, and
 *     migrates them before the cursor could reach them;
 *   - Event.cancel is O(1): swap-remove from the wheel bucket, flag-only
 *     in the active batch, lazy + compaction in the overflow heap;
 *   - a run() makes exactly two perf_counter calls however many events
 *     it dispatches (there is no per-event hook: repro.obs.profile runs
 *     cProfile around a whole block), and perf_counter is looked up on
 *     repro.sim.engine each run so test monkeypatching keeps working;
 *   - the clock is left at `until` when the queues drain early, and the
 *     cursor fast-forwards only when nothing is pending.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WHEEL_SLOTS 256
#define WHEEL_MASK 255
#define COMPACT_MIN_HEAP 64
#define MAX_TICK (1LL << 62)
/* Doubles at or above this cannot be cast to long long safely; they are
 * "far future" by definition and saturate to MAX_TICK. */
#define TICK_SATURATE 4.6e18

static PyObject *SimulationError;  /* borrowed from repro.errors, immortal */
static PyObject *empty_tuple;

enum { LOC_NONE = 0, LOC_WHEEL = 1, LOC_OVERFLOW = 2, LOC_BATCH = 3 };

typedef struct EngineObject EngineObject;

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *callback;
    PyObject *args;          /* argument tuple, owned */
    EngineObject *engine;    /* owner engine while queued, owned */
    Py_ssize_t pos;          /* index in wheel bucket while LOC_WHEEL */
    int slot;                /* wheel slot index while LOC_WHEEL */
    char cancelled;
    char loc;
} EventObject;

typedef struct {
    EventObject **items;     /* strong references */
    Py_ssize_t len;
    Py_ssize_t cap;
} EvVec;

struct EngineObject {
    PyObject_HEAD
    double now;
    double gran;
    double inv_gran;
    double wall_seconds;
    long long seq;
    long long cursor;        /* next tick to examine */
    long long active_tick;   /* tick of the current batch, -1 when none */
    long long events_processed;
    long long events_cancelled;
    long long compactions;
    long long pending;       /* raw entries incl. lazily-deleted overflow */
    long long live;          /* entries that will actually fire */
    long long high_water;
    long long overflow_dead;
    long long wheel_count;
    int running;
    int stopped;
    PyObject *clock_offsets; /* dict */
    EvVec wheel[WHEEL_SLOTS];
    EvVec overflow;          /* min-heap by (time, seq), lazy deletion */
    EvVec batch;             /* ascending (time, seq); batch_pos = next */
    Py_ssize_t batch_pos;
    PyObject *attr_dict;     /* instance __dict__: the observability hub
                              * attaches itself as `engine.obs` */
};

static PyTypeObject Event_Type;
static PyTypeObject Engine_Type;

/* Flood workloads allocate and retire millions of short-lived events;
 * a small freelist recycles their memory the way CPython's own float
 * and tuple freelists do. */
#define EVENT_FREELIST_MAX 512
static EventObject *event_freelist[EVENT_FREELIST_MAX];
static int event_freelist_len = 0;

/* ------------------------------------------------------------------ */
/* EvVec                                                              */
/* ------------------------------------------------------------------ */
static int
evvec_reserve(EvVec *v, Py_ssize_t need)
{
    if (need <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 8;
    while (cap < need)
        cap += cap;
    EventObject **items = PyMem_Realloc(v->items, cap * sizeof(*items));
    if (!items) {
        PyErr_NoMemory();
        return -1;
    }
    v->items = items;
    v->cap = cap;
    return 0;
}

/* Append, taking over one strong reference. */
static int
evvec_push(EvVec *v, EventObject *ev)
{
    if (evvec_reserve(v, v->len + 1) < 0)
        return -1;
    v->items[v->len++] = ev;
    return 0;
}

/* ------------------------------------------------------------------ */
/* (time, seq) ordering                                               */
/* ------------------------------------------------------------------ */
static inline int
ev_lt(const EventObject *a, const EventObject *b)
{
    if (a->time < b->time)
        return 1;
    if (a->time > b->time)
        return 0;
    return a->seq < b->seq;
}

static int
cmp_ev_asc(const void *pa, const void *pb)
{
    const EventObject *a = *(EventObject *const *)pa;
    const EventObject *b = *(EventObject *const *)pb;
    if (a->time < b->time)
        return -1;
    if (a->time > b->time)
        return 1;
    return a->seq < b->seq ? -1 : 1;  /* seq unique: never equal */
}

/* ------------------------------------------------------------------ */
/* Overflow heap (min-heap, lazy deletion)                            */
/* ------------------------------------------------------------------ */
static int
heap_push(EvVec *h, EventObject *ev)
{
    if (evvec_push(h, ev) < 0)
        return -1;
    Py_ssize_t i = h->len - 1;
    EventObject **items = h->items;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_lt(items[i], items[parent]))
            break;
        EventObject *tmp = items[i];
        items[i] = items[parent];
        items[parent] = tmp;
        i = parent;
    }
    return 0;
}

/* Pop the minimum; returns an owned reference. Caller checks len > 0. */
static EventObject *
heap_pop(EvVec *h)
{
    EventObject **items = h->items;
    EventObject *top = items[0];
    Py_ssize_t len = --h->len;
    if (len == 0)
        return top;
    EventObject *last = items[len];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= len)
            break;
        if (child + 1 < len && ev_lt(items[child + 1], items[child]))
            child += 1;
        if (!ev_lt(items[child], last))
            break;
        items[i] = items[child];
        i = child;
    }
    items[i] = last;
    return top;
}

static void
heap_build(EvVec *h)
{
    EventObject **items = h->items;
    Py_ssize_t len = h->len;
    for (Py_ssize_t start = (len - 2) >> 1; start >= 0; start--) {
        EventObject *moving = items[start];
        Py_ssize_t i = start;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= len)
                break;
            if (child + 1 < len && ev_lt(items[child + 1], items[child]))
                child += 1;
            if (!ev_lt(items[child], moving))
                break;
            items[i] = items[child];
            i = child;
        }
        items[i] = moving;
    }
}

/* ------------------------------------------------------------------ */
/* Tick computation (saturating; matches int(t * inv_gran) for every   */
/* reachable value, and clamps the unreachable far-future range)       */
/* ------------------------------------------------------------------ */
static inline long long
tick_of(double scaled)
{
    if (scaled >= TICK_SATURATE)
        return MAX_TICK;
    return (long long)scaled;
}

/* ------------------------------------------------------------------ */
/* Event type                                                         */
/* ------------------------------------------------------------------ */
static void
note_cancelled(EngineObject *self, EventObject *ev);

static PyObject *
Event_cancel(EventObject *ev, PyObject *Py_UNUSED(ignored))
{
    if (ev->cancelled)
        Py_RETURN_NONE;
    ev->cancelled = 1;
    if (ev->engine != NULL)
        note_cancelled(ev->engine, ev);
    Py_RETURN_NONE;
}

static PyObject *
Event_repr(EventObject *ev)
{
    char buf[64];
    PyOS_snprintf(buf, sizeof(buf), "%.6f", ev->time);
    return PyUnicode_FromFormat("<Event t=%s seq=%lld %s>", buf, ev->seq,
                                ev->cancelled ? "cancelled" : "pending");
}

static int
Event_traverse(EventObject *ev, visitproc visit, void *arg)
{
    Py_VISIT(ev->callback);
    Py_VISIT(ev->args);
    Py_VISIT(ev->engine);
    return 0;
}

static int
Event_clear_impl(EventObject *ev)
{
    Py_CLEAR(ev->callback);
    Py_CLEAR(ev->args);
    Py_CLEAR(ev->engine);
    return 0;
}

static void
Event_dealloc(EventObject *ev)
{
    PyObject_GC_UnTrack(ev);
    Event_clear_impl(ev);
    if (event_freelist_len < EVENT_FREELIST_MAX)
        event_freelist[event_freelist_len++] = ev;
    else
        Py_TYPE(ev)->tp_free((PyObject *)ev);
}

static PyObject *
Event_get_cancelled(EventObject *ev, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(ev->cancelled);
}

static PyObject *
Event_get_time(EventObject *ev, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(ev->time);
}

static PyObject *
Event_get_seq(EventObject *ev, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(ev->seq);
}

static PyObject *
Event_get_callback(EventObject *ev, void *Py_UNUSED(closure))
{
    PyObject *cb = ev->callback ? ev->callback : Py_None;
    Py_INCREF(cb);
    return cb;
}

static PyObject *
Event_get_args(EventObject *ev, void *Py_UNUSED(closure))
{
    PyObject *args = ev->args ? ev->args : Py_None;
    Py_INCREF(args);
    return args;
}

static PyMethodDef Event_methods[] = {
    {"cancel", (PyCFunction)Event_cancel, METH_NOARGS,
     "Prevent the callback from firing. Idempotent, O(1)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Event_getset[] = {
    {"cancelled", (getter)Event_get_cancelled, NULL, NULL, NULL},
    {"time", (getter)Event_get_time, NULL, NULL, NULL},
    {"seq", (getter)Event_get_seq, NULL, NULL, NULL},
    {"callback", (getter)Event_get_callback, NULL, NULL, NULL},
    {"args", (getter)Event_get_args, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_repr = (reprfunc)Event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Handle for a scheduled callback (compiled core).",
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear_impl,
    .tp_methods = Event_methods,
    .tp_getset = Event_getset,
};

/* ------------------------------------------------------------------ */
/* Cancellation bookkeeping                                           */
/* ------------------------------------------------------------------ */
static void
compact_overflow(EngineObject *self)
{
    EvVec *ovf = &self->overflow;
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < ovf->len; i++) {
        EventObject *ev = ovf->items[i];
        if (ev->cancelled) {
            self->pending--;
            Py_DECREF(ev);
        }
        else {
            ovf->items[out++] = ev;
        }
    }
    ovf->len = out;
    heap_build(ovf);
    self->overflow_dead = 0;
    self->compactions++;
}

static void
note_cancelled(EngineObject *self, EventObject *ev)
{
    self->events_cancelled++;
    self->live--;
    switch (ev->loc) {
    case LOC_BATCH:
        /* The dispatch loop skips the flag; the entry stays counted in
         * raw pending until it is reached. */
        return;
    case LOC_WHEEL: {
        EvVec *bucket = &self->wheel[ev->slot];
        Py_ssize_t pos = ev->pos;
        EventObject *last = bucket->items[--bucket->len];
        if (last != ev) {
            bucket->items[pos] = last;
            last->pos = pos;
        }
        self->wheel_count--;
        self->pending--;
        ev->loc = LOC_NONE;
        Py_CLEAR(ev->engine);
        Py_DECREF(ev);  /* the bucket's reference */
        return;
    }
    case LOC_OVERFLOW:
        ev->loc = LOC_NONE;
        Py_CLEAR(ev->engine);
        self->overflow_dead++;
        if (self->overflow.len >= COMPACT_MIN_HEAP
                && self->overflow_dead * 2 > self->overflow.len)
            compact_overflow(self);
        return;
    default:
        return;
    }
}

/* ------------------------------------------------------------------ */
/* Engine                                                             */
/* ------------------------------------------------------------------ */
static void
engine_clear_events(EngineObject *self)
{
    for (int s = 0; s < WHEEL_SLOTS; s++) {
        EvVec *bucket = &self->wheel[s];
        for (Py_ssize_t i = 0; i < bucket->len; i++) {
            EventObject *ev = bucket->items[i];
            ev->loc = LOC_NONE;
            Py_CLEAR(ev->engine);
            Py_DECREF(ev);
        }
        bucket->len = 0;
    }
    EvVec *ovf = &self->overflow;
    for (Py_ssize_t i = 0; i < ovf->len; i++) {
        EventObject *ev = ovf->items[i];
        ev->loc = LOC_NONE;
        Py_CLEAR(ev->engine);
        Py_DECREF(ev);
    }
    ovf->len = 0;
    EvVec *batch = &self->batch;
    for (Py_ssize_t i = self->batch_pos; i < batch->len; i++) {
        EventObject *ev = batch->items[i];
        ev->loc = LOC_NONE;
        Py_CLEAR(ev->engine);
        Py_DECREF(ev);
    }
    batch->len = 0;
    self->batch_pos = 0;
    self->wheel_count = 0;
    self->overflow_dead = 0;
    self->pending = 0;
    self->live = 0;
}

static int
Engine_init(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"wheel_granularity", NULL};
    double gran = 1e-3;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &gran))
        return -1;
    if (gran <= 0.0) {
        PyErr_Format(SimulationError,
                     "wheel_granularity must be > 0, got %g", gran);
        return -1;
    }
    /* Re-init support: drop any queued events from a previous __init__. */
    engine_clear_events(self);
    self->gran = gran;
    self->inv_gran = 1.0 / gran;
    self->now = 0.0;
    self->wall_seconds = 0.0;
    self->seq = 0;
    self->cursor = 0;
    self->active_tick = -1;
    self->events_processed = 0;
    self->events_cancelled = 0;
    self->compactions = 0;
    self->high_water = 0;
    self->running = 0;
    self->stopped = 0;
    PyObject *offsets = PyDict_New();
    if (!offsets)
        return -1;
    Py_XSETREF(self->clock_offsets, offsets);
    return 0;
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->clock_offsets);
    Py_VISIT(self->attr_dict);
    for (int s = 0; s < WHEEL_SLOTS; s++) {
        EvVec *bucket = &self->wheel[s];
        for (Py_ssize_t i = 0; i < bucket->len; i++)
            Py_VISIT((PyObject *)bucket->items[i]);
    }
    for (Py_ssize_t i = 0; i < self->overflow.len; i++)
        Py_VISIT((PyObject *)self->overflow.items[i]);
    for (Py_ssize_t i = self->batch_pos; i < self->batch.len; i++)
        Py_VISIT((PyObject *)self->batch.items[i]);
    return 0;
}

static int
Engine_clear(EngineObject *self)
{
    engine_clear_events(self);
    Py_CLEAR(self->clock_offsets);
    Py_CLEAR(self->attr_dict);
    return 0;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    for (int s = 0; s < WHEEL_SLOTS; s++)
        PyMem_Free(self->wheel[s].items);
    PyMem_Free(self->overflow.items);
    PyMem_Free(self->batch.items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The scheduling hot path shared by schedule() and schedule_at(). */
static PyObject *
insert_event(EngineObject *self, double time, PyObject *callback,
             PyObject *const *extra, Py_ssize_t nextra)
{
    PyObject *argtuple;
    if (nextra == 0) {
        argtuple = empty_tuple;
        Py_INCREF(argtuple);
    }
    else {
        argtuple = PyTuple_New(nextra);
        if (!argtuple)
            return NULL;
        for (Py_ssize_t i = 0; i < nextra; i++) {
            PyObject *item = extra[i];
            Py_INCREF(item);
            PyTuple_SET_ITEM(argtuple, i, item);
        }
    }
    EventObject *ev;
    if (event_freelist_len) {
        ev = event_freelist[--event_freelist_len];
        _Py_NewReference((PyObject *)ev);
    }
    else {
        ev = PyObject_GC_New(EventObject, &Event_Type);
        if (!ev) {
            Py_DECREF(argtuple);
            return NULL;
        }
    }
    long long seq = ++self->seq;
    ev->time = time;
    ev->seq = seq;
    ev->callback = callback;
    Py_INCREF(callback);
    ev->args = argtuple;
    ev->engine = self;
    Py_INCREF(self);
    ev->pos = 0;
    ev->slot = 0;
    ev->cancelled = 0;
    ev->loc = LOC_NONE;
    PyObject_GC_Track(ev);

    double scaled = time * self->inv_gran;
    if (scaled != scaled) {  /* NaN has no tick: fail like int(nan) */
        Py_DECREF(ev);
        PyErr_SetString(PyExc_ValueError,
                        "cannot convert float NaN to integer");
        return NULL;
    }
    long long tick = tick_of(scaled);
    if (tick <= self->active_tick) {
        /* Due in the tick currently being dispatched: insort into the
         * live batch (ascending; seq is larger than every resident, so
         * equal times land after them and fire later — the heap
         * engine's tie-break). */
        EvVec *batch = &self->batch;
        if (evvec_reserve(batch, batch->len + 1) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
        Py_ssize_t lo = self->batch_pos, hi = batch->len;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) >> 1;
            if (batch->items[mid]->time > time)
                hi = mid;
            else
                lo = mid + 1;
        }
        memmove(&batch->items[lo + 1], &batch->items[lo],
                (batch->len - lo) * sizeof(EventObject *));
        batch->items[lo] = ev;
        batch->len++;
        ev->loc = LOC_BATCH;
        Py_INCREF(ev);  /* the batch's reference */
    }
    else {
        long long cursor = self->cursor;
        if (tick < cursor)
            tick = cursor;
        if (tick - cursor < WHEEL_SLOTS) {
            EvVec *bucket = &self->wheel[tick & WHEEL_MASK];
            if (evvec_push(bucket, ev) < 0) {
                Py_DECREF(ev);
                return NULL;
            }
            ev->loc = LOC_WHEEL;
            ev->slot = (int)(tick & WHEEL_MASK);
            ev->pos = bucket->len - 1;
            self->wheel_count++;
            Py_INCREF(ev);  /* the bucket's reference */
        }
        else {
            if (heap_push(&self->overflow, ev) < 0) {
                Py_DECREF(ev);
                return NULL;
            }
            ev->loc = LOC_OVERFLOW;
            Py_INCREF(ev);  /* the heap's reference */
        }
    }
    self->pending++;
    if (self->pending > self->high_water)
        self->high_water = self->pending;
    self->live++;
    return (PyObject *)ev;
}

static PyObject *
Engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args) takes at least "
                        "two arguments");
        return NULL;
    }
    PyObject *delay_obj = args[0];
    double delay = PyFloat_CheckExact(delay_obj)
        ? PyFloat_AS_DOUBLE(delay_obj)
        : PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0.0) {
        PyErr_Format(SimulationError,
                     "cannot schedule an event %Rs in the past", args[0]);
        return NULL;
    }
    return insert_event(self, self->now + delay, args[1],
                        args + 2, nargs - 2);
}

static PyObject *
Engine_schedule_at(EngineObject *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback, *args) takes at "
                        "least two arguments");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (!now_obj)
            return NULL;
        PyErr_Format(SimulationError,
                     "cannot schedule at t=%R before now=%R",
                     args[0], now_obj);
        Py_DECREF(now_obj);
        return NULL;
    }
    return insert_event(self, time, args[1], args + 2, nargs - 2);
}

/* ------------------------------------------------------------------ */
/* Dispatch                                                           */
/* ------------------------------------------------------------------ */

/* Advance to the next non-empty tick and load it as the batch.
 * Returns 1 when a batch is ready, 0 when nothing is due at
 * tick <= until_tick, -1 on allocation failure. */
static int
refill(EngineObject *self, long long until_tick)
{
    EvVec *ovf = &self->overflow;
    double inv_gran = self->inv_gran;
    for (;;) {
        /* First live overflow entry, purging dead heads. */
        long long htick = 0;
        int have_h = 0;
        while (ovf->len) {
            EventObject *head = ovf->items[0];
            if (head->cancelled) {
                EventObject *dead = heap_pop(ovf);
                self->overflow_dead--;
                self->pending--;
                Py_DECREF(dead);
                continue;
            }
            htick = tick_of(head->time * inv_gran);
            have_h = 1;
            break;
        }
        long long cursor = self->cursor;
        long long horizon = cursor + WHEEL_SLOTS;
        /* Migrate overflow entries that now fit the wheel window. */
        while (have_h && htick < horizon) {
            EventObject *head = heap_pop(ovf);
            long long tick = htick < cursor ? cursor : htick;
            EvVec *bucket = &self->wheel[tick & WHEEL_MASK];
            if (evvec_push(bucket, head) < 0) {
                /* Best effort: put it back so no event is lost. */
                if (heap_push(ovf, head) < 0)
                    Py_DECREF(head);
                return -1;
            }
            head->loc = LOC_WHEEL;
            head->slot = (int)(tick & WHEEL_MASK);
            head->pos = bucket->len - 1;
            self->wheel_count++;
            have_h = 0;
            while (ovf->len) {
                EventObject *next = ovf->items[0];
                if (next->cancelled) {
                    EventObject *dead = heap_pop(ovf);
                    self->overflow_dead--;
                    self->pending--;
                    Py_DECREF(dead);
                    continue;
                }
                htick = tick_of(next->time * inv_gran);
                have_h = 1;
                break;
            }
        }
        if (self->wheel_count) {
            /* Scan for the next non-empty bucket, stopping at the until
             * bound or at the overflow head's tick (which must migrate
             * before the cursor may pass it). */
            long long limit = until_tick;
            if (have_h && htick < limit)
                limit = htick;
            EvVec *bucket = &self->wheel[cursor & WHEEL_MASK];
            while (!bucket->len && cursor < limit) {
                cursor++;
                bucket = &self->wheel[cursor & WHEEL_MASK];
            }
            self->cursor = cursor;
            if (bucket->len) {
                EvVec *batch = &self->batch;
                if (evvec_reserve(batch, bucket->len) < 0)
                    return -1;
                memcpy(batch->items, bucket->items,
                       bucket->len * sizeof(EventObject *));
                batch->len = bucket->len;
                self->batch_pos = 0;
                self->wheel_count -= bucket->len;
                bucket->len = 0;
                if (batch->len > 1)
                    qsort(batch->items, batch->len,
                          sizeof(EventObject *), cmp_ev_asc);
                for (Py_ssize_t i = 0; i < batch->len; i++)
                    batch->items[i]->loc = LOC_BATCH;
                return 1;
            }
            if (cursor >= until_tick)
                return 0;
            /* The scan hit the overflow head's tick: migrate it at the
             * advanced horizon. */
            continue;
        }
        if (!have_h || htick > until_tick)
            return 0;
        self->cursor = htick;
        /* Loop: migrate at the new horizon. */
    }
}

/* perf_counter is resolved on repro.sim.engine each run so that test
 * monkeypatching (the zero-overhead regression gate) sees every call. */
static PyObject *
get_perf_counter(void)
{
    /* The module object is cached (it cannot be replaced without also
     * replacing this extension), but the attribute lookup stays per
     * run so monkeypatched perf_counter is honoured. */
    static PyObject *engine_mod = NULL;
    if (!engine_mod) {
        engine_mod = PyImport_ImportModule("repro.sim.engine");
        if (!engine_mod)
            return NULL;
    }
    return PyObject_GetAttrString(engine_mod, "perf_counter");
}

static int
call_pc(PyObject *pc, double *out)
{
    PyObject *res = PyObject_CallNoArgs(pc);
    if (!res)
        return -1;
    double val = PyFloat_AsDouble(res);
    Py_DECREF(res);
    if (val == -1.0 && PyErr_Occurred())
        return -1;
    *out = val;
    return 0;
}

static PyObject *
Engine_run(EngineObject *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    /* Hand-parsed FASTCALL signature run(until=None, max_events=None):
     * flood workloads call run() in tight windows, and the generic
     * keyword parser is a measurable fraction of such a call. */
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "run() takes at most two arguments");
        return NULL;
    }
    if (nargs >= 1)
        until_obj = args[0];
    if (nargs >= 2)
        max_obj = args[1];
    if (kwnames) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "until") == 0) {
                if (nargs >= 1) {
                    PyErr_SetString(PyExc_TypeError,
                                    "run() got multiple values for "
                                    "argument 'until'");
                    return NULL;
                }
                until_obj = value;
            }
            else if (PyUnicode_CompareWithASCIIString(
                         name, "max_events") == 0) {
                if (nargs >= 2) {
                    PyErr_SetString(PyExc_TypeError,
                                    "run() got multiple values for "
                                    "argument 'max_events'");
                    return NULL;
                }
                max_obj = value;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument "
                             "%R", name);
                return NULL;
            }
        }
    }
    if (self->running) {
        PyErr_SetString(SimulationError,
                        "engine is already running (reentrant run)");
        return NULL;
    }
    int has_until = until_obj != Py_None;
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    long long event_limit = LLONG_MAX;
    if (max_obj != Py_None) {
        event_limit = PyLong_AsLongLong(max_obj);
        if (event_limit == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            double lim = PyFloat_AsDouble(max_obj);
            if (lim == -1.0 && PyErr_Occurred())
                return NULL;
            event_limit = (long long)lim;
        }
    }
    long long until_tick = MAX_TICK;
    if (has_until) {
        double scaled = until * self->inv_gran;
        if (scaled < TICK_SATURATE)
            until_tick = tick_of(scaled);
    }

    PyObject *pc = get_perf_counter();
    if (!pc)
        return NULL;

    self->running = 1;
    self->stopped = 0;
    /* Hold the cyclic GC for the duration of the dispatch loop: event
     * and packet churn is refcount-managed (no cycles), so generational
     * scans are pure overhead at flood rates (~20% of wall). Restored
     * on every exit path; left alone if the caller already disabled it. */
    int gc_was_enabled = PyGC_IsEnabled();
    if (gc_was_enabled)
        PyGC_Disable();
    long long processed_this_run = 0;
    double run_started = 0.0;
    int failed = call_pc(pc, &run_started) < 0;

    EvVec *batch = &self->batch;
    while (!failed && !self->stopped) {
        if (self->batch_pos >= batch->len) {
            int r = refill(self, until_tick);
            if (r < 0) {
                failed = 1;
                break;
            }
            if (r == 0)
                break;
            self->active_tick = self->cursor;
        }
        int boundary = self->cursor >= until_tick;
        int halt = 0;
        while (self->batch_pos < batch->len) {
            EventObject *ev = batch->items[self->batch_pos];
            if (boundary && ev->time > until) {
                halt = 1;
                break;
            }
            batch->items[self->batch_pos++] = NULL;
            self->pending--;
            if (ev->cancelled) {
                Py_DECREF(ev);
                continue;
            }
            ev->loc = LOC_NONE;
            Py_CLEAR(ev->engine);
            self->now = ev->time;
            PyObject *res = PyObject_Call(ev->callback, ev->args, NULL);
            if (!res) {
                Py_DECREF(ev);
                failed = 1;
                break;
            }
            Py_DECREF(res);
            self->events_processed++;
            self->live--;
            processed_this_run++;
            Py_DECREF(ev);
            if (processed_this_run >= event_limit || self->stopped) {
                halt = 1;
                break;
            }
        }
        if (failed || halt)
            break;
        /* Tick fully dispatched: advance past it. */
        batch->len = 0;
        self->batch_pos = 0;
        self->active_tick = -1;
        self->cursor++;
    }

    self->running = 0;
    if (gc_was_enabled)
        PyGC_Enable();
    {
        /* The wall-clock accounting runs even on failure (the Python
         * engine's `finally`), preserving any in-flight exception. */
        PyObject *ptype, *pvalue, *ptraceback;
        PyErr_Fetch(&ptype, &pvalue, &ptraceback);
        double run_ended = 0.0;
        if (call_pc(pc, &run_ended) == 0)
            self->wall_seconds += run_ended - run_started;
        else
            PyErr_Clear();
        PyErr_Restore(ptype, pvalue, ptraceback);
    }
    Py_DECREF(pc);
    if (failed)
        return NULL;

    if (has_until && !self->stopped && self->now < until)
        self->now = until;
    if (!self->pending) {
        /* Idle fast-forward: with nothing queued, snap the cursor to
         * the clock so the next schedule lands the wheel window on the
         * present instead of overflowing from a stale origin. */
        double scaled = self->now * self->inv_gran;
        long long tick = scaled < TICK_SATURATE ? tick_of(scaled) : MAX_TICK;
        if (tick > self->cursor) {
            self->cursor = tick;
            self->active_tick = -1;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Engine_stop(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
Engine_drain(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    long long count = 0;
    for (int s = 0; s < WHEEL_SLOTS; s++)
        count += self->wheel[s].len;  /* wheel residents are always live */
    for (Py_ssize_t i = 0; i < self->overflow.len; i++)
        count += !self->overflow.items[i]->cancelled;
    for (Py_ssize_t i = self->batch_pos; i < self->batch.len; i++)
        count += !self->batch.items[i]->cancelled;
    engine_clear_events(self);
    return PyLong_FromLongLong(count);
}

static PyObject *
Engine_stats(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    double wall = self->wall_seconds;
    PyObject *stats = Py_BuildValue(
        "{s:L, s:L, s:L, s:L, s:L, s:L, s:L, s:L, s:n, s:d, s:d, s:d}",
        "events_scheduled", self->seq,
        "events_processed", self->events_processed,
        "events_cancelled", self->events_cancelled,
        "cancelled_pending", self->pending - self->live,
        "compactions", self->compactions,
        "heap_high_water", self->high_water,
        "pending", self->pending,
        "pending_live", self->live,
        "overflow_pending", self->overflow.len,
        "sim_seconds", self->now,
        "wall_seconds", wall,
        "sim_wall_ratio", wall > 0.0 ? self->now / wall : 0.0);
    return stats;
}

/* ------------------------------------------------------------------ */
/* Clock offsets (fault injection: clock skew)                        */
/* ------------------------------------------------------------------ */
static PyObject *
Engine_set_clock_offset(EngineObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "set_clock_offset(key, offset) takes two arguments");
        return NULL;
    }
    int truthy = PyObject_IsTrue(args[1]);
    if (truthy < 0)
        return NULL;
    if (truthy) {
        if (PyDict_SetItem(self->clock_offsets, args[0], args[1]) < 0)
            return NULL;
    }
    else {
        if (PyDict_DelItem(self->clock_offsets, args[0]) < 0) {
            if (!PyErr_ExceptionMatches(PyExc_KeyError))
                return NULL;
            PyErr_Clear();
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Engine_clock_offset(EngineObject *self, PyObject *key)
{
    PyObject *val = PyDict_GetItemWithError(self->clock_offsets, key);
    if (val) {
        Py_INCREF(val);
        return val;
    }
    if (PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(0.0);
}

static PyObject *
Engine_now_for(EngineObject *self, PyObject *key)
{
    if (PyDict_GET_SIZE(self->clock_offsets) == 0)
        return PyFloat_FromDouble(self->now);
    PyObject *val = PyDict_GetItemWithError(self->clock_offsets, key);
    if (!val) {
        if (PyErr_Occurred())
            return NULL;
        return PyFloat_FromDouble(self->now);
    }
    double off = PyFloat_AsDouble(val);
    if (off == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(self->now + off);
}

/* ------------------------------------------------------------------ */
/* Getsets                                                            */
/* ------------------------------------------------------------------ */
static PyObject *
Engine_get_now(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Engine_get_events_scheduled(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Engine_get_events_processed(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyObject *
Engine_get_events_cancelled(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->events_cancelled);
}

static PyObject *
Engine_get_compactions(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->compactions);
}

static PyObject *
Engine_get_pending(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->pending);
}

static PyObject *
Engine_get_pending_live(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->live);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule,
     METH_FASTCALL,
     "schedule(delay, callback, *args) -> Event\n"
     "Schedule callback(*args) to run `delay` seconds from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at,
     METH_FASTCALL,
     "schedule_at(time, callback, *args) -> Event\n"
     "Schedule callback(*args) at absolute simulation time `time`."},
    {"run", (PyCFunction)(void (*)(void))Engine_run,
     METH_FASTCALL | METH_KEYWORDS,
     "run(until=None, max_events=None)\nRun events in time order."},
    {"stop", (PyCFunction)Engine_stop, METH_NOARGS,
     "Stop the current run after the in-flight callback."},
    {"drain", (PyCFunction)Engine_drain, METH_NOARGS,
     "Discard all pending events; returns how many were discarded."},
    {"stats", (PyCFunction)Engine_stats, METH_NOARGS,
     "Engine-level observability snapshot (all JSON-friendly)."},
    {"set_clock_offset",
     (PyCFunction)(void (*)(void))Engine_set_clock_offset, METH_FASTCALL,
     "Skew the clock view of `key` by `offset` seconds."},
    {"clock_offset", (PyCFunction)Engine_clock_offset, METH_O,
     "The current clock offset for `key` (0.0 when unskewed)."},
    {"now_for", (PyCFunction)Engine_now_for, METH_O,
     "`key`'s view of the current time: now plus any skew."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {"events_scheduled", (getter)Engine_get_events_scheduled, NULL,
     NULL, NULL},
    {"events_processed", (getter)Engine_get_events_processed, NULL,
     NULL, NULL},
    {"events_cancelled", (getter)Engine_get_events_cancelled, NULL,
     NULL, NULL},
    {"compactions", (getter)Engine_get_compactions, NULL, NULL, NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Raw scheduled entries, including lazily-deleted overflow ones.",
     NULL},
    {"pending_live", (getter)Engine_get_pending_live, NULL,
     "Pending entries that will actually fire.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Timer-wheel discrete-event engine (compiled core).",
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
    .tp_dictoffset = offsetof(EngineObject, attr_dict),
    .tp_init = (initproc)Engine_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* FabricPath                                                         */
/* ------------------------------------------------------------------ */
/* A cached network path: the per-link Link.offer arithmetic (droptail
 * check, serialization update, optional loss draw, propagation) folded
 * across the whole link sequence in one call. Link keeps its fields in
 * __slots__; the path resolves each field's slot once, at construction,
 * and then reads and writes the link objects' slots directly, so the
 * Python objects stay the single source of truth: fault injectors,
 * reset_counters() and direct offer() calls interleave freely with
 * folded traffic. Loss draws call the link's own rng.random(), consuming
 * the Mersenne stream CPython-exactly, and the double arithmetic mirrors
 * Link.offer's evaluation order so drop decisions and arrival times are
 * bit-identical to the Python fold.
 *
 * fold() returns NotImplemented — before touching any state — whenever
 * it cannot reproduce Python semantics exactly (a link-level fault hook
 * is installed, an instance-level offer override sits in a link's
 * __dict__, the offered size would make Python raise, or a link's type
 * keeps these fields outside slots); callers then re-fold through the
 * per-link reference loop. */

static PyObject *s_next_free, *s_rate_bps, *s_delay, *s_buffer_bytes,
    *s_loss_rate, *s_rng, *s_fault, *s_packets_sent, *s_packets_dropped,
    *s_packets_lost, *s_bytes_sent, *s_random, *s_offer, *s_dict;

/* The Link fields the fold reads or writes. */
#define LINK_FIELDS(X)                                                   \
    X(next_free) X(rate_bps) X(delay) X(buffer_bytes) X(loss_rate)      \
    X(rng) X(fault) X(packets_sent) X(packets_dropped) X(packets_lost)  \
    X(bytes_sent)

typedef struct {
    PyObject *link;          /* strong */
    PyObject *dict;          /* strong; the link's instance __dict__, or
                                NULL when its type keeps none */
#define SLOT_ADDRESS(field) PyObject **field;
    LINK_FIELDS(SLOT_ADDRESS)  /* addresses inside the (owned) link */
#undef SLOT_ADDRESS
} FabricSlot;

typedef struct {
    PyObject_HEAD
    FabricSlot *slots;
    Py_ssize_t n;
    int slotted;             /* every link's fields resolved to slots */
    PyObject *links;         /* tuple of links, exposed as .links */
} FabricPathObject;

/* dict[key] as a borrowed reference; AttributeError when it is absent
 * (the dicts are instance __dict__s). */
static PyObject *
dict_item(PyObject *dict, PyObject *key)
{
    PyObject *value = PyDict_GetItemWithError(dict, key);
    if (!value && !PyErr_Occurred())
        PyErr_Format(PyExc_AttributeError, "object missing attribute %U",
                     key);
    return value;
}

static int
dict_incr(PyObject *dict, PyObject *key, long long delta)
{
    PyObject *cur = dict_item(dict, key);
    if (!cur)
        return -1;
    long long value = PyLong_AsLongLong(cur);
    if (value == -1 && PyErr_Occurred())
        return -1;
    PyObject *next = PyLong_FromLongLong(value + delta);
    if (!next)
        return -1;
    int rc = PyDict_SetItem(dict, key, next);
    Py_DECREF(next);
    return rc;
}

/* The offset of *type*'s writable object slot *name* (a __slots__
 * member), or -1, with no error set, when it keeps no such slot. */
static Py_ssize_t
slot_offset(PyTypeObject *type, PyObject *name)
{
    PyObject *descr = _PyType_Lookup(type, name);
    if (!descr || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
        || !PyType_IsSubtype(type, PyDescr_TYPE(descr)))
        return -1;
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    if (member->type != T_OBJECT_EX || (member->flags & READONLY))
        return -1;
    return member->offset;
}

/* The address of *obj*'s slot *name*, or NULL when its type keeps no
 * such slot. The address stays valid while *obj* is alive. */
static PyObject **
slot_address(PyObject *obj, PyObject *name)
{
    Py_ssize_t offset = slot_offset(Py_TYPE(obj), name);
    return offset < 0 ? NULL : (PyObject **)((char *)obj + offset);
}

/* A slot's value, as Python reads the attribute: AttributeError when
 * it is unset. */
static PyObject *
slot_value(PyObject **slot, PyObject *name)
{
    if (!*slot)
        PyErr_Format(PyExc_AttributeError, "object missing attribute %U",
                     name);
    return *slot;
}

static int
slot_double(PyObject **slot, PyObject *name, double *out)
{
    PyObject *value = slot_value(slot, name);
    if (!value)
        return -1;
    if (PyFloat_CheckExact(value)) {
        *out = PyFloat_AS_DOUBLE(value);
        return 0;
    }
    *out = PyFloat_AsDouble(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
slot_set_double(PyObject **slot, double value)
{
    PyObject *obj = PyFloat_FromDouble(value);
    if (!obj)
        return -1;
    Py_XSETREF(*slot, obj);
    return 0;
}

static int
slot_incr(PyObject **slot, PyObject *name, long long delta)
{
    PyObject *cur = slot_value(slot, name);
    if (!cur)
        return -1;
    long long value = PyLong_AsLongLong(cur);
    if (value == -1 && PyErr_Occurred())
        return -1;
    PyObject *next = PyLong_FromLongLong(value + delta);
    if (!next)
        return -1;
    Py_SETREF(*slot, next);
    return 0;
}

/* An object's instance __dict__ (a new reference), which its Python
 * attribute reads and writes go through once it has been fetched. */
static PyObject *
instance_dict(PyObject *obj)
{
    PyObject *dict = PyObject_GetAttr(obj, s_dict);
    if (dict && !PyDict_Check(dict)) {
        Py_DECREF(dict);
        PyErr_Format(PyExc_TypeError, "%.200s __dict__ is not a dict",
                     Py_TYPE(obj)->tp_name);
        return NULL;
    }
    return dict;
}

static void
fabric_slots_free(FabricSlot *slots, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_CLEAR(slots[i].link);
        Py_CLEAR(slots[i].dict);
    }
    PyMem_Free(slots);
}

/* Resolve *link*'s slots into *slot*: 1 when every fold field is a
 * slot, 0 when its type keeps one elsewhere, -1 on error. */
static int
fabric_slot_init(FabricSlot *slot, PyObject *link)
{
    slot->link = Py_NewRef(link);
    int slotted = 1;
#define RESOLVE(field)                                                   \
    if (!(slot->field = slot_address(link, s_##field)))                  \
        slotted = 0;
    LINK_FIELDS(RESOLVE)
#undef RESOLVE
    /* The __dict__ that would hold an instance-level offer, if any. */
    slot->dict = instance_dict(link);
    if (!slot->dict) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
    }
    return slotted;
}

static int
FabricPath_init(FabricPathObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"links", NULL};
    PyObject *arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &arg))
        return -1;
    PyObject *links = PySequence_Tuple(arg);
    if (!links)
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(links);
    FabricSlot *slots = PyMem_Calloc(n ? (size_t)n : 1,
                                     sizeof(FabricSlot));
    if (!slots) {
        Py_DECREF(links);
        PyErr_NoMemory();
        return -1;
    }
    int slotted = 1;
    for (Py_ssize_t i = 0; i < n; i++) {
        int rc = fabric_slot_init(&slots[i], PyTuple_GET_ITEM(links, i));
        if (rc < 0) {
            fabric_slots_free(slots, i + 1);
            Py_DECREF(links);
            return -1;
        }
        slotted &= rc;
    }
    FabricSlot *old_slots = self->slots;
    Py_ssize_t old_n = self->n;
    PyObject *old_links = self->links;
    self->slots = slots;
    self->n = n;
    self->slotted = slotted;
    self->links = links;
    if (old_slots)
        fabric_slots_free(old_slots, old_n);
    Py_XDECREF(old_links);
    return 0;
}

static int
FabricPath_traverse(FabricPathObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->links);
    for (Py_ssize_t i = 0; i < self->n; i++) {
        Py_VISIT(self->slots[i].link);
        Py_VISIT(self->slots[i].dict);
    }
    return 0;
}

static int
FabricPath_clear(FabricPathObject *self)
{
    Py_CLEAR(self->links);
    if (self->slots) {
        fabric_slots_free(self->slots, self->n);
        self->slots = NULL;
    }
    self->n = 0;
    self->slotted = 0;
    return 0;
}

static void
FabricPath_dealloc(FabricPathObject *self)
{
    PyObject_GC_UnTrack(self);
    FabricPath_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* fold(now, size_bytes) on a C double: the packet paths call it
 * directly. Returns a new reference (the arrival float, None or
 * NotImplemented), NULL on error. */
static PyObject *
fabric_fold(FabricPathObject *self, double now, PyObject *size_obj)
{
    if (!self->slotted || !PyLong_Check(size_obj))
        Py_RETURN_NOTIMPLEMENTED;
    long long size = PyLong_AsLongLong(size_obj);
    if (size == -1 && PyErr_Occurred())
        return NULL;
    if (size <= 0)
        Py_RETURN_NOTIMPLEMENTED;  /* the Python path raises NetworkError */
    Py_ssize_t n = self->n;
    /* Pre-scan: bail before touching any state, so the caller's
     * per-link re-fold sees the links exactly as Python would have.
     * Two escape hatches back to the interpreted path: an installed
     * fault hook (or none at all, which Python reports), and an
     * instance-level ``offer`` override (tests monkeypatch individual
     * links). */
    for (Py_ssize_t i = 0; i < n; i++) {
        FabricSlot *slot = &self->slots[i];
        if (*slot->fault != Py_None)
            Py_RETURN_NOTIMPLEMENTED;
        if (slot->dict) {
            if (PyDict_GetItemWithError(slot->dict, s_offer))
                Py_RETURN_NOTIMPLEMENTED;
            if (PyErr_Occurred())
                return NULL;
        }
    }
    double arrival = now;
    double dsize = (double)size;
    for (Py_ssize_t i = 0; i < n; i++) {
        FabricSlot *slot = &self->slots[i];
        double next_free, rate, buffer, loss;
        if (slot_double(slot->next_free, s_next_free, &next_free) < 0
            || slot_double(slot->rate_bps, s_rate_bps, &rate) < 0
            || slot_double(slot->buffer_bytes, s_buffer_bytes, &buffer) < 0
            || slot_double(slot->loss_rate, s_loss_rate, &loss) < 0)
            return NULL;
        double waiting = next_free - arrival;
        if (waiting < 0.0)
            waiting = 0.0;
        if (waiting * rate / 8.0 + dsize > buffer) {
            if (slot_incr(slot->packets_dropped, s_packets_dropped, 1) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        double start = arrival > next_free ? arrival : next_free;
        if (loss > 0.0) {
            PyObject *rng = slot_value(slot->rng, s_rng);
            if (!rng)
                return NULL;
            PyObject *draw_obj = PyObject_CallMethodNoArgs(rng, s_random);
            if (!draw_obj)
                return NULL;
            double draw = PyFloat_AsDouble(draw_obj);
            Py_DECREF(draw_obj);
            if (draw == -1.0 && PyErr_Occurred())
                return NULL;
            if (draw < loss) {
                /* The frame still occupies air time before being lost. */
                if (slot_incr(slot->packets_lost, s_packets_lost, 1) < 0
                    || slot_set_double(slot->next_free,
                                       start + dsize * 8.0 / rate) < 0)
                    return NULL;
                Py_RETURN_NONE;
            }
        }
        next_free = start + dsize * 8.0 / rate;
        double delay;
        if (slot_set_double(slot->next_free, next_free) < 0
            || slot_incr(slot->packets_sent, s_packets_sent, 1) < 0
            || slot_incr(slot->bytes_sent, s_bytes_sent, size) < 0
            || slot_double(slot->delay, s_delay, &delay) < 0)
            return NULL;
        arrival = next_free + delay;
    }
    return PyFloat_FromDouble(arrival);
}

static PyObject *
FabricPath_fold(FabricPathObject *self, PyObject *const *args,
                Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "fold(now, size_bytes) takes exactly 2 arguments");
        return NULL;
    }
    double now = PyFloat_AsDouble(args[0]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    return fabric_fold(self, now, args[1]);
}

static PyObject *
FabricPath_get_links(FabricPathObject *self, void *Py_UNUSED(closure))
{
    PyObject *links = self->links ? self->links : empty_tuple;
    Py_INCREF(links);
    return links;
}

static PyMethodDef FabricPath_methods[] = {
    {"fold", (PyCFunction)(void (*)(void))FabricPath_fold, METH_FASTCALL,
     "fold(now, size_bytes) -> float | None | NotImplemented\n"
     "Offer a packet to every link on the path in order. Returns the\n"
     "far-end arrival time, None once any link drops it, or\n"
     "NotImplemented (before mutating anything) when only the per-link\n"
     "Python fold can reproduce the exact semantics."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef FabricPath_getset[] = {
    {"links", (getter)FabricPath_get_links, NULL,
     "The cached link tuple this path folds across.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject FabricPath_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.FabricPath",
    .tp_basicsize = sizeof(FabricPathObject),
    .tp_dealloc = (destructor)FabricPath_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Cached-path Link.offer fold (compiled core).",
    .tp_traverse = (traverseproc)FabricPath_traverse,
    .tp_clear = (inquiry)FabricPath_clear,
    .tp_methods = FabricPath_methods,
    .tp_getset = FabricPath_getset,
    .tp_init = (initproc)FabricPath_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Packet paths                                                       */
/* ------------------------------------------------------------------ */
/* The per-packet plumbing around the Python TCP stack; the builders in
 * repro/net/floodpath.py construct all three types.
 *
 * DeliveryPath is one Network's send and deliver for packets to
 * registered hosts. The network binds its send in place of the Python
 * Network.send, so Host.send reaches it with no Python frame between.
 * send(src, packet) does the tx meters, the fold over the (src, dst)
 * path, the drop count and one scheduled delivery; the delivery counts
 * the packet, does the rx meters and hands the packet to the host's
 * TCPStack.receive (or to the host's own receive when it has one).
 *
 * SynFastPath is one SynFlooder's firing loop. fire() makes the bot's
 * draws with the same rng.getrandbits calls as SpoofingPool.draw(),
 * randrange(1024, 65536) and getrandbits(32); folds the SYN through the
 * bot's cached path and schedules one delivery at its arrival; counts
 * it in AttackStats.syns_sent; and reschedules itself last, so event
 * ids and times are the Python loop's. The delivery counts the SYN in
 * the network, the server's rx meters, the stack and the MIB, then
 * hands ListenSocket.handle_syn one reused SYN packet (the flyweight:
 * the listener copies every field it keeps), so triage keeps its one
 * implementation, in Python.
 *
 * ReplyFastPath.send(size, dst_ip, dst_port) -> bool accounts one
 * SYN-ACK to an unregistered (spoofed) address: tx meters, the uplink
 * fold, and the blackhole or drop count.
 *
 * All three read and write the Python objects' own state (slots,
 * instance __dict__s, the engine's queues), so they interleave freely
 * with the per-packet pipeline, and share one decline predicate
 * (net_observed), one meter helper (add_to_meters) and the fold. Where
 * that pipeline would do something they do not model, they touch
 * nothing and decline to the existing Python code with a real packet:
 * a capture tap or packet fault hook, an unregistered destination of a
 * packet, an instance-level send or receive override around a
 * flyweight, a metered spoofed source, a flow owned by a live
 * connection, a link fault (the fold's NotImplemented). */

static PyObject *s_running, *s_event, *s_syns_sent, *s_send, *s_receive,
    *s_packet_fault, *s_taps, *s_tx_meters, *s_rx_meters, *s_hosts_by_ip,
    *s_packets_delivered, *s_packets_blackholed, *s_in_segs, *s_net_deliver,
    *s_src_ip, *s_src_port, *s_seq, *s_t0, *s_bin_width,
    *s_bins, *s_total, *s_dst_ip, *s_dst_port, *s_size_bytes,
    *s_tcp_servers, *s_tcp_clients, *s_mib_values, *s_address, *s_name,
    *s_paths, *s_path_for, *s_tcp, *s_payload_bytes;
static PyObject *bits16, *bits32, *zero_float;

static int
dict_truth(PyObject *dict, PyObject *key)
{
    PyObject *value = dict_item(dict, key);
    return value ? PyObject_IsTrue(value) : -1;
}

/* dict[key] = dict.get(key, 0) + 1: the MIB's counting idiom. */
static int
dict_count(PyObject *dict, PyObject *key)
{
    long long value = 0;
    PyObject *cur = PyDict_GetItemWithError(dict, key);
    if (cur) {
        value = PyLong_AsLongLong(cur);
        if (value == -1 && PyErr_Occurred())
            return -1;
    }
    else if (PyErr_Occurred())
        return -1;
    PyObject *next = PyLong_FromLongLong(value + 1);
    if (!next)
        return -1;
    int rc = PyDict_SetItem(dict, key, next);
    Py_DECREF(next);
    return rc;
}

/* Network.packet_fault is set or a capture tap is installed: observers
 * that may keep or alter packets, so only a real packet will do. */
static int
net_observed(PyObject *net_dict)
{
    PyObject *fault = dict_item(net_dict, s_packet_fault);
    if (!fault)
        return -1;
    if (fault != Py_None)
        return 1;
    return dict_truth(net_dict, s_taps);
}

/* Network.send's fold over a cached path: the compiled fold, or, when it
 * declines (a link fault hook, an offer override), the Python per-link
 * fold_links. A new reference: the arrival float or None. */
static PyObject *
path_fold(FabricPathObject *path, double now, PyObject *size,
          PyObject *fold_links)
{
    PyObject *arrival = fabric_fold(path, now, size);
    if (arrival != Py_NotImplemented)
        return arrival;
    Py_DECREF(arrival);
    PyObject *at = PyFloat_FromDouble(now);
    arrival = at ? PyObject_CallFunctionObjArgs(fold_links, path->links, at,
                                                size, NULL) : NULL;
    Py_XDECREF(at);
    return arrival;
}

/* engine.schedule_at(at, callback, *args) for a delivery; 0 or -1. */
static int
schedule_delivery(EngineObject *engine, double at, PyObject *callback,
                  PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *event = insert_event(engine, at, callback, args, nargs);
    if (!event)
        return -1;
    Py_DECREF(event);
    return 0;
}

/* float.__floordiv__ (CPython's _float_div_mod) for wx != 0. */
static double
float_floordiv(double vx, double wx)
{
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    if (mod && (wx < 0) != (mod < 0))
        div -= 1.0;
    if (div) {
        double floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
        return floordiv;
    }
    return copysign(0.0, vx / wx);
}

static int
attr_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (!value)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* BinnedSeries.add(now, size), written out. */
static int
series_add(PyObject *series, double now, PyObject *size)
{
    double t0, width;
    if (attr_double(series, s_t0, &t0) < 0
        || attr_double(series, s_bin_width, &width) < 0)
        return -1;
    if (width == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "float floor division by zero");
        return -1;
    }
    PyObject *index = PyLong_FromDouble(float_floordiv(now - t0, width));
    if (!index)
        return -1;
    PyObject *bins = PyObject_GetAttr(series, s_bins);
    int rc = -1;
    if (bins && PyDict_Check(bins)) {
        PyObject *cur = PyDict_GetItemWithError(bins, index);
        PyObject *next = NULL;
        if (cur || !PyErr_Occurred())
            next = PyNumber_Add(cur ? cur : zero_float, size);
        if (next) {
            rc = PyDict_SetItem(bins, index, next);
            Py_DECREF(next);
        }
    }
    else if (bins)
        PyErr_SetString(PyExc_TypeError, "BinnedSeries._bins is a dict");
    Py_XDECREF(bins);
    Py_DECREF(index);
    if (rc < 0)
        return -1;
    PyObject *total = PyObject_GetAttr(series, s_total);
    PyObject *next = total ? PyNumber_Add(total, size) : NULL;
    Py_XDECREF(total);
    if (!next)
        return -1;
    rc = PyObject_SetAttr(series, s_total, next);
    Py_DECREF(next);
    return rc;
}

/* Network's throughput accounting for one frame from or to *address*
 * (Network.send's and _deliver's loops, written out): its size goes to
 * the bytes series of each (bytes, goodput) pair in net.<which>[address]
 * and a non-zero *payload* to the goodput series; a flooded SYN or
 * SYN-ACK passes NULL, carrying none. */
static int
add_to_meters(PyObject *net_dict, PyObject *which, PyObject *address,
              double now, PyObject *size, PyObject *payload)
{
    PyObject *table = dict_item(net_dict, which);
    if (!table)
        return -1;
    if (!PyDict_Check(table)) {
        PyErr_Format(PyExc_TypeError, "Network.%U is a dict", which);
        return -1;
    }
    PyObject *meters = PyDict_GetItemWithError(table, address);
    if (!meters)
        return PyErr_Occurred() ? -1 : 0;
    int carried = payload ? PyObject_IsTrue(payload) : 0;
    if (carried < 0)
        return -1;
    PyObject *pairs = PySequence_Fast(meters, "meters must be a sequence");
    if (!pairs)
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(pairs); i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(pairs, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "a meter is a (bytes, goodput) pair");
            rc = -1;
            break;
        }
        if ((rc = series_add(PyTuple_GET_ITEM(pair, 0), now, size)) < 0
            || (carried && (rc = series_add(PyTuple_GET_ITEM(pair, 1), now,
                                            payload)) < 0))
            break;
    }
    Py_DECREF(pairs);
    return rc;
}

#define SYN_FIELDS(X)                                                    \
    X(engine) X(path) X(flooder) X(stats) X(bot) X(getrandbits)          \
    X(send_packet) X(pool_bits) X(network) X(network_dict) X(server)     \
    X(server_dict) X(stack) X(stack_dict) X(servers) X(clients) X(mib)   \
    X(handle_syn) X(flyweight) X(materialize) X(dst_ip) X(dst_port)      \
    X(size) X(fire_cb) X(deliver_cb)

typedef struct {
    PyObject_HEAD
    EngineObject *engine;     /* set last: NULL until fully built */
    FabricPathObject *path;   /* the bot's path to the server */
    PyObject *flooder;        /* SynFlooder.__dict__: _running, _event */
    PyObject *stats;          /* AttackStats.__dict__: syns_sent */
    PyObject *bot;            /* the bot host's __dict__ */
    PyObject *getrandbits;    /* the bot's rng.getrandbits */
    PyObject *send_packet;    /* SynFlooder._send_packet */
    PyObject *pool_bits;      /* SpoofingPool._span_bits */
    PyObject *network, *network_dict;
    PyObject *server, *server_dict;
    PyObject *stack, *stack_dict;
    PyObject *servers, *clients, *mib;  /* the stack's tables, MIB */
    PyObject *handle_syn;     /* the listener's, bound */
    PyObject *flyweight;      /* the one SYN packet handle_syn is given */
    PyObject *materialize;    /* floodpath.syn_packet */
    PyObject *dst_ip, *dst_port, *size;
    PyObject *fire_cb, *deliver_cb;  /* fire/deliver bound to self */
    long long pool_base, pool_span;
    double interval;
} SynFastPathObject;

static int
SynFastPath_traverse(SynFastPathObject *self, visitproc visit, void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    SYN_FIELDS(VISIT)
#undef VISIT
    return 0;
}

static int
SynFastPath_clear(SynFastPathObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    SYN_FIELDS(CLEAR)
#undef CLEAR
    return 0;
}

static void
SynFastPath_dealloc(SynFastPathObject *self)
{
    PyObject_GC_UnTrack(self);
    SynFastPath_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
unbuilt(void *engine)
{
    if (engine)
        return 0;
    PyErr_SetString(PyExc_TypeError, "flood path is not built");
    return 1;
}

/* One getrandbits(bits) draw, bits <= 63. */
static int
draw_bits(SynFastPathObject *self, PyObject *bits, long long *out)
{
    PyObject *value = PyObject_CallOneArg(self->getrandbits, bits);
    if (!value)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Fold and schedule one SYN, or decline to the flooder's materialized
 * send (what SynFlooder._fire does when the fast path says no). */
static int
syn_send(SynFastPathObject *self, PyObject *src_ip, PyObject *src_port,
         PyObject *seq)
{
    int declined = net_observed(self->network_dict);
    if (!declined) {
        /* A spoofed source that carries a tx meter. */
        PyObject *meters = dict_item(self->network_dict, s_tx_meters);
        declined = meters ? PySequence_Contains(meters, src_ip) : -1;
    }
    if (!declined)
        declined = PyDict_Contains(self->bot, s_send);
    if (declined < 0)
        return -1;
    if (!declined) {
        EngineObject *engine = self->engine;
        double now = engine->now;
        PyObject *arrival = fabric_fold(self->path, now, self->size);
        if (!arrival)
            return -1;
        if (arrival == Py_None) {
            Py_DECREF(arrival);
            return dict_incr(self->network_dict, s_packets_dropped, 1);
        }
        if (arrival != Py_NotImplemented) {
            double at = PyFloat_AS_DOUBLE(arrival);
            Py_DECREF(arrival);
            /* schedule_at(arrival, deliver, ...): a fold never
             * arrives before now (link rates and delays are checked). */
            PyObject *args[3] = {src_ip, src_port, seq};
            return schedule_delivery(engine, at, self->deliver_cb, args, 3);
        }
        /* A link fault hook: nothing was touched, and the per-packet
         * path replays this send exactly. */
        Py_DECREF(arrival);
    }
    PyObject *res = PyObject_CallFunctionObjArgs(self->send_packet, src_ip,
                                                 src_port, seq, NULL);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
SynFastPath_fire(SynFastPathObject *self, PyObject *Py_UNUSED(ignored))
{
    if (unbuilt(self->engine))
        return NULL;
    int running = dict_truth(self->flooder, s_running);
    if (running <= 0)
        return running < 0 ? NULL : Py_NewRef(Py_None);
    /* The stdlib's _randbelow rejection loops, draw for draw. */
    long long value, port;
    do {
        if (draw_bits(self, self->pool_bits, &value) < 0)
            return NULL;
    } while (value >= self->pool_span);
    do {
        if (draw_bits(self, bits16, &port) < 0)
            return NULL;
    } while (port >= 64512);
    PyObject *seq = PyObject_CallOneArg(self->getrandbits, bits32);
    if (!seq)
        return NULL;
    PyObject *src_ip = PyLong_FromLongLong(self->pool_base + value);
    PyObject *src_port = PyLong_FromLongLong(1024 + port);
    int rc = (src_ip && src_port) ? syn_send(self, src_ip, src_port, seq)
                                  : -1;
    Py_XDECREF(src_ip);
    Py_XDECREF(src_port);
    Py_DECREF(seq);
    if (rc < 0 || dict_incr(self->stats, s_syns_sent, 1) < 0)
        return NULL;
    /* Rescheduled last, and only if nothing stopped the flooder. */
    running = dict_truth(self->flooder, s_running);
    if (running < 0)
        return NULL;
    if (running) {
        EngineObject *engine = self->engine;
        PyObject *event = insert_event(engine, engine->now + self->interval,
                                       self->fire_cb, NULL, 0);
        if (!event)
            return NULL;
        rc = PyDict_SetItem(self->flooder, s_event, event);
        Py_DECREF(event);
        if (rc < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* Decline at delivery: owner.method([host,] the SYN as a real packet). */
static PyObject *
syn_materialized(SynFastPathObject *self, PyObject *owner, PyObject *method,
                 PyObject *host, PyObject *const *args)
{
    PyObject *packet = PyObject_CallFunctionObjArgs(
        self->materialize, args[0], self->dst_ip, args[1], self->dst_port,
        args[2], NULL);
    if (!packet)
        return NULL;
    PyObject *res = host
        ? PyObject_CallMethodObjArgs(owner, method, host, packet, NULL)
        : PyObject_CallMethodObjArgs(owner, method, packet, NULL);
    Py_DECREF(packet);
    return res;
}

static PyObject *
SynFastPath_deliver(SynFastPathObject *self, PyObject *const *args,
                    Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "deliver(src_ip, src_port, seq) "
                        "takes exactly 3 arguments");
        return NULL;
    }
    if (unbuilt(self->engine))
        return NULL;
    int declined = dict_truth(self->network_dict, s_taps);
    if (!declined)
        declined = PyDict_Contains(self->server_dict, s_receive);
    if (!declined)
        declined = PyDict_Contains(self->stack_dict, s_receive);
    if (declined < 0)
        return NULL;
    if (declined)
        /* A capture tap or a receive override appeared between send
         * and delivery: Network._deliver with a real packet. */
        return syn_materialized(self, self->network, s_net_deliver,
                                self->server, args);
    if (dict_incr(self->network_dict, s_packets_delivered, 1) < 0
        || add_to_meters(self->network_dict, s_rx_meters, self->dst_ip,
                         self->engine->now, self->size, NULL) < 0)
        return NULL;
    /* TCPStack.receive's demux for a SYN, with the listener resolved at
     * build time. */
    PyObject *key = PyTuple_Pack(3, self->dst_port, args[0], args[1]);
    if (!key)
        return NULL;
    int owned = PyDict_Contains(self->servers, key);
    if (!owned)
        owned = PyDict_Contains(self->clients, key);
    Py_DECREF(key);
    if (owned < 0)
        return NULL;
    if (owned)
        /* A live connection owns this flow (the spoofing pool overlaps
         * a real address): the full demux, with a real packet. */
        return syn_materialized(self, self->stack, s_receive, NULL, args);
    PyObject *fw = self->flyweight;
    if (dict_count(self->mib, s_in_segs) < 0
        || PyObject_SetAttr(fw, s_src_ip, args[0]) < 0
        || PyObject_SetAttr(fw, s_src_port, args[1]) < 0
        || PyObject_SetAttr(fw, s_seq, args[2]) < 0)
        return NULL;
    return PyObject_CallOneArg(self->handle_syn, fw);
}

static PyMethodDef SynFastPath_methods[] = {
    {"fire", (PyCFunction)SynFastPath_fire, METH_NOARGS,
     "fire()\nOne SynFlooder._fire: draw, send, count, reschedule."},
    {"deliver", (PyCFunction)(void (*)(void))SynFastPath_deliver,
     METH_FASTCALL,
     "deliver(src_ip, src_port, seq)\n"
     "One SYN's arrival at the server, ending in handle_syn."},
    {NULL, NULL, 0, NULL},
};

static int
SynFastPath_init(SynFastPathObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "engine", "path", "flooder", "stats", "bot", "getrandbits",
        "send_packet", "interval", "pool", "network", "server", "stack",
        "handle_syn", "flyweight", "materialize", NULL};
    PyObject *engine, *path, *flooder, *stats, *bot, *getrandbits,
        *send_packet, *pool_bits, *network, *server, *stack, *handle_syn,
        *flyweight, *materialize;
    double interval;
    long long base, span;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$O!O!O!O!O!OOd(LLO)OOOOOO", kwlist, &Engine_Type,
            &engine, &FabricPath_Type, &path, &PyDict_Type, &flooder,
            &PyDict_Type, &stats, &PyDict_Type, &bot, &getrandbits,
            &send_packet, &interval, &base, &span, &pool_bits, &network,
            &server, &stack, &handle_syn, &flyweight, &materialize))
        return -1;
    if (self->engine || self->path) {
        PyErr_SetString(PyExc_TypeError, "SynFastPath is already built");
        return -1;
    }
    self->path = (FabricPathObject *)Py_NewRef(path);
#define TAKE(field, value) self->field = Py_NewRef(value);
    TAKE(flooder, flooder) TAKE(stats, stats)
    TAKE(bot, bot) TAKE(getrandbits, getrandbits)
    TAKE(send_packet, send_packet) TAKE(pool_bits, pool_bits)
    TAKE(network, network) TAKE(server, server) TAKE(stack, stack)
    TAKE(handle_syn, handle_syn) TAKE(flyweight, flyweight)
    TAKE(materialize, materialize)
#undef TAKE
    self->pool_base = base;
    self->pool_span = span;
    self->interval = interval;
    if (!(self->network_dict = instance_dict(network))
        || !(self->server_dict = instance_dict(server))
        || !(self->stack_dict = instance_dict(stack))
        || !(self->servers = Py_XNewRef(dict_item(self->stack_dict,
                                                  s_tcp_servers)))
        || !(self->clients = Py_XNewRef(dict_item(self->stack_dict,
                                                  s_tcp_clients)))
        || !(self->mib = Py_XNewRef(dict_item(self->stack_dict,
                                              s_mib_values)))
        || !(self->dst_ip = PyObject_GetAttr(flyweight, s_dst_ip))
        || !(self->dst_port = PyObject_GetAttr(flyweight, s_dst_port))
        || !(self->size = PyObject_GetAttr(flyweight, s_size_bytes))
        || !(self->fire_cb = PyCFunction_NewEx(&SynFastPath_methods[0],
                                               (PyObject *)self, NULL))
        || !(self->deliver_cb = PyCFunction_NewEx(&SynFastPath_methods[1],
                                                  (PyObject *)self, NULL)))
        return -1;
    if (!PyDict_Check(self->servers) || !PyDict_Check(self->clients)
        || !PyDict_Check(self->mib)) {
        PyErr_SetString(PyExc_TypeError,
                        "the stack's tables and MIB must be dicts");
        return -1;
    }
    self->engine = (EngineObject *)Py_NewRef(engine);
    return 0;
}

static PyTypeObject SynFastPath_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.SynFastPath",
    .tp_basicsize = sizeof(SynFastPathObject),
    .tp_dealloc = (destructor)SynFastPath_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One SynFlooder's spoofed-SYN firing loop (compiled core).",
    .tp_traverse = (traverseproc)SynFastPath_traverse,
    .tp_clear = (inquiry)SynFastPath_clear,
    .tp_methods = SynFastPath_methods,
    .tp_init = (initproc)SynFastPath_init,
    .tp_new = PyType_GenericNew,
};

#define REPLY_FIELDS(X)                                                  \
    X(engine) X(path) X(network_dict) X(host_dict) X(src_ip) X(fold_links)

typedef struct {
    PyObject_HEAD
    EngineObject *engine;     /* set last: NULL until fully built */
    FabricPathObject *path;   /* the host's uplink */
    PyObject *network_dict;
    PyObject *host_dict;
    PyObject *src_ip;
    PyObject *fold_links;     /* repro.net.fabric.fold_links */
} ReplyFastPathObject;

static int
ReplyFastPath_init(ReplyFastPathObject *self, PyObject *args,
                   PyObject *kwds)
{
    static char *kwlist[] = {"engine", "path", "network", "host",
                             "fold_links", NULL};
    PyObject *engine, *path, *network, *host, *fold_links;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "$O!O!OOO", kwlist,
                                     &Engine_Type, &engine,
                                     &FabricPath_Type, &path, &network,
                                     &host, &fold_links))
        return -1;
    if (self->engine || self->path) {
        PyErr_SetString(PyExc_TypeError, "ReplyFastPath is already built");
        return -1;
    }
    self->path = (FabricPathObject *)Py_NewRef(path);
    self->fold_links = Py_NewRef(fold_links);
    if (!(self->network_dict = instance_dict(network))
        || !(self->host_dict = instance_dict(host))
        || !(self->src_ip = PyObject_GetAttr(host, s_address)))
        return -1;
    self->engine = (EngineObject *)Py_NewRef(engine);
    return 0;
}

static int
ReplyFastPath_traverse(ReplyFastPathObject *self, visitproc visit,
                       void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    REPLY_FIELDS(VISIT)
#undef VISIT
    return 0;
}

static int
ReplyFastPath_clear(ReplyFastPathObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    REPLY_FIELDS(CLEAR)
#undef CLEAR
    return 0;
}

static void
ReplyFastPath_dealloc(ReplyFastPathObject *self)
{
    PyObject_GC_UnTrack(self);
    ReplyFastPath_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
ReplyFastPath_send(ReplyFastPathObject *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "send(size, dst_ip, dst_port) "
                        "takes exactly 3 arguments");
        return NULL;
    }
    if (unbuilt(self->engine))
        return NULL;
    PyObject *size = args[0];
    int declined = net_observed(self->network_dict);
    if (!declined) {
        /* A registered destination: the reply is delivered and read. */
        PyObject *hosts = dict_item(self->network_dict, s_hosts_by_ip);
        declined = hosts ? PySequence_Contains(hosts, args[1]) : -1;
    }
    if (!declined)
        declined = PyDict_Contains(self->host_dict, s_send);
    if (declined < 0)
        return NULL;
    if (declined)
        Py_RETURN_FALSE;
    double now = self->engine->now;
    if (add_to_meters(self->network_dict, s_tx_meters, self->src_ip, now,
                      size, NULL) < 0)
        return NULL;
    PyObject *arrival = path_fold(self->path, now, size, self->fold_links);
    if (!arrival)
        return NULL;
    /* Droptailed on the uplink, it never reached the backbone. */
    int rc = dict_incr(self->network_dict, arrival == Py_None
                       ? s_packets_dropped : s_packets_blackholed, 1);
    Py_DECREF(arrival);
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyMethodDef ReplyFastPath_methods[] = {
    {"send", (PyCFunction)(void (*)(void))ReplyFastPath_send,
     METH_FASTCALL,
     "send(size, dst_ip, dst_port) -> bool\n"
     "Account one size-byte reply toward the uplink blackhole; False,\n"
     "with nothing touched, when the caller must send a real packet."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ReplyFastPath_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.ReplyFastPath",
    .tp_basicsize = sizeof(ReplyFastPathObject),
    .tp_dealloc = (destructor)ReplyFastPath_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One host's replies to spoofed addresses (compiled core).",
    .tp_traverse = (traverseproc)ReplyFastPath_traverse,
    .tp_clear = (inquiry)ReplyFastPath_clear,
    .tp_methods = ReplyFastPath_methods,
    .tp_init = (initproc)ReplyFastPath_init,
    .tp_new = PyType_GenericNew,
};

#define DELIVERY_FIELDS(X)                                               \
    X(engine) X(network) X(network_dict) X(packet_type) X(forwarder)     \
    X(fold_links) X(deliver_cb)

typedef struct {
    PyObject_HEAD
    EngineObject *engine;     /* set last: NULL until fully built */
    PyObject *network, *network_dict;
    PyTypeObject *packet_type;  /* repro.net.packet.Packet */
    PyObject *forwarder;      /* Host.receive: hands packets to host.tcp */
    PyObject *fold_links;     /* repro.net.fabric.fold_links */
    PyObject *deliver_cb;     /* deliver bound to self */
    /* Packet slot offsets. */
    Py_ssize_t src_ip, dst_ip, size_bytes, payload_bytes;
} DeliveryPathObject;

#define PACKET_SLOT(self, packet, field)                                 \
    (*(PyObject **)((char *)(packet) + (self)->field))

static int
DeliveryPath_traverse(DeliveryPathObject *self, visitproc visit, void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    DELIVERY_FIELDS(VISIT)
#undef VISIT
    return 0;
}

static int
DeliveryPath_clear(DeliveryPathObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    DELIVERY_FIELDS(CLEAR)
#undef CLEAR
    return 0;
}

static void
DeliveryPath_dealloc(DeliveryPathObject *self)
{
    PyObject_GC_UnTrack(self);
    DeliveryPath_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The per-packet oracle: type(network).<name>(network, host, packet),
 * looked up on the class (the instance binds send to this path). */
static PyObject *
delivery_oracle(DeliveryPathObject *self, PyObject *name, PyObject *host,
                PyObject *packet)
{
    PyObject *fn = PyObject_GetAttr((PyObject *)Py_TYPE(self->network),
                                    name);
    if (!fn)
        return NULL;
    PyObject *res = PyObject_CallFunctionObjArgs(fn, self->network, host,
                                                 packet, NULL);
    Py_DECREF(fn);
    return res;
}

/* The cached path from *src* to *dst*: network._paths[(src.name,
 * dst.name)], built by network._path_for on a miss. A new reference. */
static PyObject *
delivery_path_between(DeliveryPathObject *self, PyObject *src,
                      PyObject *dst)
{
    PyObject *path = NULL, *key = NULL;
    PyObject *src_name = PyObject_GetAttr(src, s_name);
    PyObject *dst_name = src_name ? PyObject_GetAttr(dst, s_name) : NULL;
    PyObject *paths = dst_name ? dict_item(self->network_dict, s_paths)
                               : NULL;
    if (paths && !PyDict_Check(paths))
        PyErr_SetString(PyExc_TypeError, "Network._paths is a dict");
    else if (paths && (key = PyTuple_Pack(2, src_name, dst_name))) {
        path = Py_XNewRef(PyDict_GetItemWithError(paths, key));
        if (!path && !PyErr_Occurred())
            path = PyObject_CallMethodObjArgs(self->network, s_path_for,
                                              src_name, dst_name, NULL);
    }
    Py_XDECREF(key);
    Py_XDECREF(dst_name);
    Py_XDECREF(src_name);
    return path;
}

/* Fold, count and schedule one packet to the registered *dst*. */
static int
delivery_send(DeliveryPathObject *self, PyObject *src, PyObject *dst,
              PyObject *packet, PyObject *path)
{
    PyObject *net_dict = self->network_dict;
    PyObject *size = PACKET_SLOT(self, packet, size_bytes);
    double now = self->engine->now;
    if (add_to_meters(net_dict, s_tx_meters,
                      PACKET_SLOT(self, packet, src_ip), now, size,
                      PACKET_SLOT(self, packet, payload_bytes)) < 0)
        return -1;
    PyObject *arrival = path_fold((FabricPathObject *)path, now, size,
                                  self->fold_links);
    if (!arrival)
        return -1;
    if (arrival == Py_None) {
        Py_DECREF(arrival);
        return dict_incr(net_dict, s_packets_dropped, 1);
    }
    double at = PyFloat_AsDouble(arrival);
    Py_DECREF(arrival);
    if (at == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *args[2] = {dst, packet};
    return schedule_delivery(self->engine, at, self->deliver_cb, args, 2);
}

static PyObject *
DeliveryPath_send(DeliveryPathObject *self, PyObject *const *args,
                  Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "send(src, packet) takes exactly 2 arguments");
        return NULL;
    }
    if (unbuilt(self->engine))
        return NULL;
    PyObject *src = args[0], *packet = args[1];
    /* A packet of another type, or one missing a field, is the
     * oracle's to send (or to reject). */
    int declined = !Py_IS_TYPE(packet, self->packet_type)
        || !PACKET_SLOT(self, packet, src_ip)
        || !PACKET_SLOT(self, packet, dst_ip)
        || !PACKET_SLOT(self, packet, size_bytes)
        || !PACKET_SLOT(self, packet, payload_bytes);
    if (!declined)
        declined = net_observed(self->network_dict);
    PyObject *dst = NULL, *path = NULL;
    if (!declined) {
        /* Only a registered destination is delivered and read. */
        PyObject *hosts = dict_item(self->network_dict, s_hosts_by_ip);
        if (!hosts)
            return NULL;
        if (!PyDict_Check(hosts)) {
            PyErr_SetString(PyExc_TypeError,
                            "Network._hosts_by_ip is a dict");
            return NULL;
        }
        dst = Py_XNewRef(PyDict_GetItemWithError(
            hosts, PACKET_SLOT(self, packet, dst_ip)));
        if (!dst && PyErr_Occurred())
            return NULL;
        declined = !dst;
    }
    if (declined < 0)
        return NULL;
    if (!declined) {
        path = delivery_path_between(self, src, dst);
        if (!path) {
            Py_DECREF(dst);
            return NULL;
        }
        declined = !Py_IS_TYPE(path, &FabricPath_Type);
    }
    if (declined) {
        Py_XDECREF(dst);
        Py_XDECREF(path);
        return delivery_oracle(self, s_send, src, packet);
    }
    int rc = delivery_send(self, src, dst, packet, path);
    Py_DECREF(dst);
    Py_DECREF(path);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* host.receive(packet). Host.receive only hands the packet to
 * host.tcp.receive, so for a host whose type keeps it, and whose
 * instance does not override receive, the stack is called directly. */
static PyObject *
delivery_receive(DeliveryPathObject *self, PyObject *host, PyObject *packet)
{
    PyTypeObject *type = Py_TYPE(host);
    if (type->tp_dictoffset
        && _PyType_Lookup(type, s_receive) == self->forwarder) {
        PyObject *dict = PyObject_GenericGetDict(host, NULL);
        if (!dict)
            return NULL;
        PyObject *tcp = NULL;
        int overridden = PyDict_Contains(dict, s_receive);
        if (!overridden)
            tcp = Py_XNewRef(PyDict_GetItemWithError(dict, s_tcp));
        Py_DECREF(dict);
        if (overridden < 0 || (!tcp && PyErr_Occurred()))
            return NULL;
        if (tcp) {
            PyObject *res = PyObject_CallMethodOneArg(tcp, s_receive,
                                                      packet);
            Py_DECREF(tcp);
            return res;
        }
    }
    return PyObject_CallMethodOneArg(host, s_receive, packet);
}

static PyObject *
DeliveryPath_deliver(DeliveryPathObject *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "deliver(host, packet) takes exactly 2 arguments");
        return NULL;
    }
    if (unbuilt(self->engine))
        return NULL;
    PyObject *host = args[0], *packet = args[1];
    PyObject *net_dict = self->network_dict;
    int tapped = dict_truth(net_dict, s_taps);
    if (tapped < 0)
        return NULL;
    if (tapped)
        /* A capture tap appeared between send and delivery. */
        return delivery_oracle(self, s_net_deliver, host, packet);
    PyObject *dst_ip = PACKET_SLOT(self, packet, dst_ip);
    PyObject *size = PACKET_SLOT(self, packet, size_bytes);
    PyObject *payload = PACKET_SLOT(self, packet, payload_bytes);
    if (!dst_ip || !size || !payload) {
        PyErr_SetString(PyExc_AttributeError,
                        "a delivered packet lost a field in flight");
        return NULL;
    }
    if (dict_incr(net_dict, s_packets_delivered, 1) < 0
        || add_to_meters(net_dict, s_rx_meters, dst_ip, self->engine->now,
                         size, payload) < 0)
        return NULL;
    return delivery_receive(self, host, packet);
}

static PyMethodDef DeliveryPath_methods[] = {
    {"send", (PyCFunction)(void (*)(void))DeliveryPath_send, METH_FASTCALL,
     "send(src, packet)\n"
     "Network.send for a packet to a registered host: meters, fold,\n"
     "drop count and one scheduled delivery; the Python Network.send\n"
     "when a tap, a packet fault hook or an unregistered destination\n"
     "asks for it."},
    {"deliver", (PyCFunction)(void (*)(void))DeliveryPath_deliver,
     METH_FASTCALL,
     "deliver(host, packet)\n"
     "Network._deliver: count, meters, then the host's TCP stack."},
    {NULL, NULL, 0, NULL},
};

static int
DeliveryPath_init(DeliveryPathObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "network", "packet_type",
                             "forwarder", "fold_links", NULL};
    PyObject *engine, *network, *packet_type, *forwarder, *fold_links;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "$O!OO!OO", kwlist,
                                     &Engine_Type, &engine, &network,
                                     &PyType_Type, &packet_type,
                                     &forwarder, &fold_links))
        return -1;
    if (self->engine || self->network) {
        PyErr_SetString(PyExc_TypeError, "DeliveryPath is already built");
        return -1;
    }
    PyTypeObject *type = (PyTypeObject *)packet_type;
    if ((self->src_ip = slot_offset(type, s_src_ip)) < 0
        || (self->dst_ip = slot_offset(type, s_dst_ip)) < 0
        || (self->size_bytes = slot_offset(type, s_size_bytes)) < 0
        || (self->payload_bytes = slot_offset(type, s_payload_bytes)) < 0) {
        PyErr_SetString(PyExc_TypeError, "the packet type keeps src_ip, "
                        "dst_ip, size_bytes and payload_bytes in slots");
        return -1;
    }
    self->network = Py_NewRef(network);
    self->packet_type = (PyTypeObject *)Py_NewRef(packet_type);
    self->forwarder = Py_NewRef(forwarder);
    self->fold_links = Py_NewRef(fold_links);
    if (!(self->network_dict = instance_dict(network))
        || !(self->deliver_cb = PyCFunction_NewEx(&DeliveryPath_methods[1],
                                                  (PyObject *)self, NULL)))
        return -1;
    self->engine = (EngineObject *)Py_NewRef(engine);
    return 0;
}

static PyTypeObject DeliveryPath_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.DeliveryPath",
    .tp_basicsize = sizeof(DeliveryPathObject),
    .tp_dealloc = (destructor)DeliveryPath_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One network's send and deliver to registered hosts "
              "(compiled core).",
    .tp_traverse = (traverseproc)DeliveryPath_traverse,
    .tp_clear = (inquiry)DeliveryPath_clear,
    .tp_methods = DeliveryPath_methods,
    .tp_init = (initproc)DeliveryPath_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */
static struct PyModuleDef cengine_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_cengine",
    .m_doc = "Compiled timer-wheel core for repro.sim.engine.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__cengine(void)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (!errors)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (!SimulationError)
        return NULL;
    empty_tuple = PyTuple_New(0);
    if (!empty_tuple)
        return NULL;
    struct { PyObject **slot; const char *name; } interned[] = {
        {&s_next_free, "_next_free"}, {&s_rate_bps, "rate_bps"},
        {&s_delay, "delay"}, {&s_buffer_bytes, "buffer_bytes"},
        {&s_loss_rate, "loss_rate"}, {&s_rng, "rng"},
        {&s_fault, "fault"}, {&s_packets_sent, "packets_sent"},
        {&s_packets_dropped, "packets_dropped"},
        {&s_packets_lost, "packets_lost"},
        {&s_bytes_sent, "bytes_sent"}, {&s_random, "random"},
        {&s_offer, "offer"}, {&s_dict, "__dict__"},
        {&s_running, "_running"},
        {&s_event, "_event"}, {&s_syns_sent, "syns_sent"},
        {&s_send, "send"}, {&s_receive, "receive"},
        {&s_packet_fault, "packet_fault"}, {&s_taps, "_taps"},
        {&s_tx_meters, "_tx_meters"}, {&s_rx_meters, "_rx_meters"},
        {&s_hosts_by_ip, "_hosts_by_ip"},
        {&s_packets_delivered, "packets_delivered"},
        {&s_packets_blackholed, "packets_blackholed"},
        {&s_in_segs, "InSegs"}, {&s_net_deliver, "_deliver"},
        {&s_src_ip, "src_ip"}, {&s_src_port, "src_port"},
        {&s_seq, "seq"}, {&s_t0, "t0"},
        {&s_bin_width, "bin_width"}, {&s_bins, "_bins"},
        {&s_total, "total"}, {&s_dst_ip, "dst_ip"},
        {&s_dst_port, "dst_port"}, {&s_size_bytes, "size_bytes"},
        {&s_tcp_servers, "_servers"}, {&s_tcp_clients, "_clients"},
        {&s_mib_values, "_mib_values"}, {&s_address, "address"},
        {&s_name, "name"}, {&s_paths, "_paths"},
        {&s_path_for, "_path_for"}, {&s_tcp, "tcp"},
        {&s_payload_bytes, "payload_bytes"},
    };
    for (size_t i = 0; i < sizeof(interned) / sizeof(interned[0]); i++) {
        *interned[i].slot = PyUnicode_InternFromString(interned[i].name);
        if (!*interned[i].slot)
            return NULL;
    }
    bits16 = PyLong_FromLong(16);
    bits32 = PyLong_FromLong(32);
    zero_float = PyFloat_FromDouble(0.0);
    if (!bits16 || !bits32 || !zero_float)
        return NULL;
    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Engine_Type) < 0
        || PyType_Ready(&FabricPath_Type) < 0
        || PyType_Ready(&SynFastPath_Type) < 0
        || PyType_Ready(&ReplyFastPath_Type) < 0
        || PyType_Ready(&DeliveryPath_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&cengine_module);
    if (!mod)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Engine", (PyObject *)&Engine_Type) < 0
        || PyModule_AddObjectRef(mod, "Event", (PyObject *)&Event_Type) < 0
        || PyModule_AddObjectRef(mod, "FabricPath",
                                 (PyObject *)&FabricPath_Type) < 0
        || PyModule_AddObjectRef(mod, "SynFastPath",
                                 (PyObject *)&SynFastPath_Type) < 0
        || PyModule_AddObjectRef(mod, "ReplyFastPath",
                                 (PyObject *)&ReplyFastPath_Type) < 0
        || PyModule_AddObjectRef(mod, "DeliveryPath",
                                 (PyObject *)&DeliveryPath_Type) < 0
        || PyModule_AddIntConstant(mod, "WHEEL_SLOTS", WHEEL_SLOTS) < 0
        || PyModule_AddIntConstant(mod, "COMPACT_MIN_HEAP",
                                   COMPACT_MIN_HEAP) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
