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
 * across the whole link sequence in one call. All mutable link state is
 * read from and written back to each Link's instance __dict__ per fold,
 * so the Python objects stay the single source of truth: fault
 * injectors, reset_counters() and direct offer() calls interleave
 * freely with folded traffic. Loss draws call the link's own
 * rng.random(), consuming the Mersenne stream CPython-exactly, and the
 * double arithmetic mirrors Link.offer's evaluation order so drop
 * decisions and arrival times are bit-identical to the Python fold.
 *
 * fold() returns NotImplemented — before touching any state — whenever
 * it cannot reproduce Python semantics exactly (a link-level fault hook
 * is installed, or the offered size would make Python raise); callers
 * then re-fold through the per-link reference loop. */

static PyObject *s_next_free, *s_rate_bps, *s_delay, *s_buffer_bytes,
    *s_loss_rate, *s_rng, *s_fault, *s_packets_sent, *s_packets_dropped,
    *s_packets_lost, *s_bytes_sent, *s_random, *s_offer;

typedef struct {
    PyObject *link;          /* strong */
    PyObject *dict;          /* strong; the link's instance __dict__ */
} FabricSlot;

typedef struct {
    PyObject_HEAD
    FabricSlot *slots;
    Py_ssize_t n;
    PyObject *links;         /* tuple of links, exposed as .links */
} FabricPathObject;

static int
fabric_dict_double(PyObject *dict, PyObject *key, double *out)
{
    PyObject *value = PyDict_GetItemWithError(dict, key);
    if (!value) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_AttributeError,
                         "link object missing attribute %U", key);
        return -1;
    }
    *out = PyFloat_AsDouble(value);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
fabric_dict_set_double(PyObject *dict, PyObject *key, double value)
{
    PyObject *obj = PyFloat_FromDouble(value);
    if (!obj)
        return -1;
    int rc = PyDict_SetItem(dict, key, obj);
    Py_DECREF(obj);
    return rc;
}

static int
fabric_dict_incr(PyObject *dict, PyObject *key, long long delta)
{
    PyObject *cur = PyDict_GetItemWithError(dict, key);
    if (!cur) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_AttributeError,
                         "link object missing attribute %U", key);
        return -1;
    }
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
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *link = PyTuple_GET_ITEM(links, i);
        PyObject *dict = PyObject_GetAttrString(link, "__dict__");
        if (dict && !PyDict_Check(dict)) {
            Py_DECREF(dict);
            dict = NULL;
            PyErr_SetString(PyExc_TypeError,
                            "link __dict__ is not a dict");
        }
        if (!dict) {
            for (Py_ssize_t j = 0; j < i; j++) {
                Py_CLEAR(slots[j].link);
                Py_CLEAR(slots[j].dict);
            }
            PyMem_Free(slots);
            Py_DECREF(links);
            return -1;
        }
        Py_INCREF(link);
        slots[i].link = link;
        slots[i].dict = dict;
    }
    FabricSlot *old_slots = self->slots;
    Py_ssize_t old_n = self->n;
    PyObject *old_links = self->links;
    self->slots = slots;
    self->n = n;
    self->links = links;
    if (old_slots) {
        for (Py_ssize_t j = 0; j < old_n; j++) {
            Py_CLEAR(old_slots[j].link);
            Py_CLEAR(old_slots[j].dict);
        }
        PyMem_Free(old_slots);
    }
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
        for (Py_ssize_t i = 0; i < self->n; i++) {
            Py_CLEAR(self->slots[i].link);
            Py_CLEAR(self->slots[i].dict);
        }
        PyMem_Free(self->slots);
        self->slots = NULL;
    }
    self->n = 0;
    return 0;
}

static void
FabricPath_dealloc(FabricPathObject *self)
{
    PyObject_GC_UnTrack(self);
    FabricPath_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
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
    if (!PyLong_Check(args[1]))
        Py_RETURN_NOTIMPLEMENTED;
    long long size = PyLong_AsLongLong(args[1]);
    if (size == -1 && PyErr_Occurred())
        return NULL;
    if (size <= 0)
        Py_RETURN_NOTIMPLEMENTED;  /* the Python path raises NetworkError */
    Py_ssize_t n = self->n;
    /* Pre-scan: bail before touching any state, so the caller's
     * per-link re-fold sees the links exactly as Python would have.
     * Two escape hatches back to the interpreted path: an installed
     * fault hook, and an instance-level ``offer`` override (tests
     * monkeypatch individual links) — both live in the same dict. */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *fault = PyDict_GetItemWithError(self->slots[i].dict,
                                                  s_fault);
        if (!fault) {
            if (PyErr_Occurred())
                return NULL;
            Py_RETURN_NOTIMPLEMENTED;
        }
        if (fault != Py_None)
            Py_RETURN_NOTIMPLEMENTED;
        PyObject *override = PyDict_GetItemWithError(self->slots[i].dict,
                                                     s_offer);
        if (override)
            Py_RETURN_NOTIMPLEMENTED;
        if (PyErr_Occurred())
            return NULL;
    }
    double arrival = now;
    double dsize = (double)size;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *dict = self->slots[i].dict;
        double next_free, rate, buffer, loss;
        if (fabric_dict_double(dict, s_next_free, &next_free) < 0
            || fabric_dict_double(dict, s_rate_bps, &rate) < 0
            || fabric_dict_double(dict, s_buffer_bytes, &buffer) < 0
            || fabric_dict_double(dict, s_loss_rate, &loss) < 0)
            return NULL;
        double waiting = next_free - arrival;
        if (waiting < 0.0)
            waiting = 0.0;
        if (waiting * rate / 8.0 + dsize > buffer) {
            if (fabric_dict_incr(dict, s_packets_dropped, 1) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        double start = arrival > next_free ? arrival : next_free;
        if (loss > 0.0) {
            PyObject *rng = PyDict_GetItemWithError(dict, s_rng);
            if (!rng) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_AttributeError,
                                    "link object missing attribute rng");
                return NULL;
            }
            PyObject *draw_obj = PyObject_CallMethodNoArgs(rng, s_random);
            if (!draw_obj)
                return NULL;
            double draw = PyFloat_AsDouble(draw_obj);
            Py_DECREF(draw_obj);
            if (draw == -1.0 && PyErr_Occurred())
                return NULL;
            if (draw < loss) {
                /* The frame still occupies air time before being lost. */
                if (fabric_dict_incr(dict, s_packets_lost, 1) < 0
                    || fabric_dict_set_double(dict, s_next_free,
                                              start + dsize * 8.0
                                              / rate) < 0)
                    return NULL;
                Py_RETURN_NONE;
            }
        }
        next_free = start + dsize * 8.0 / rate;
        if (fabric_dict_set_double(dict, s_next_free, next_free) < 0
            || fabric_dict_incr(dict, s_packets_sent, 1) < 0
            || fabric_dict_incr(dict, s_bytes_sent, size) < 0)
            return NULL;
        double delay;
        if (fabric_dict_double(dict, s_delay, &delay) < 0)
            return NULL;
        arrival = next_free + delay;
    }
    return PyFloat_FromDouble(arrival);
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
        {&s_offer, "offer"},
    };
    for (size_t i = 0; i < sizeof(interned) / sizeof(interned[0]); i++) {
        *interned[i].slot = PyUnicode_InternFromString(interned[i].name);
        if (!*interned[i].slot)
            return NULL;
    }
    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Engine_Type) < 0
        || PyType_Ready(&FabricPath_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&cengine_module);
    if (!mod)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Engine", (PyObject *)&Engine_Type) < 0
        || PyModule_AddObjectRef(mod, "Event", (PyObject *)&Event_Type) < 0
        || PyModule_AddObjectRef(mod, "FabricPath",
                                 (PyObject *)&FabricPath_Type) < 0
        || PyModule_AddIntConstant(mod, "WHEEL_SLOTS", WHEEL_SLOTS) < 0
        || PyModule_AddIntConstant(mod, "COMPACT_MIN_HEAP",
                                   COMPACT_MIN_HEAP) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
