/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal gem5-style event queue: events are (time, callback) pairs
 * executed in non-decreasing time order; ties are broken by insertion
 * order so simulations are fully deterministic. The queue owns the
 * simulated clock — curTick() only advances when events execute.
 *
 * Storage layout (hot path, see bench_simspeed):
 *
 *  - Callbacks live in a slab of fixed-size slots with inline storage
 *    (no per-event heap allocation for anything up to kInlineBytes,
 *    which covers every lambda in the simulator and a std::function);
 *    larger callables are boxed behind a pointer in the same slot.
 *  - The heap itself holds POD (time, id) pairs only, so sift
 *    operations move 16 bytes, never a std::function.
 *  - An EventId packs (sequence << kSlotBits | slot). The sequence is
 *    monotonic, so comparing ids preserves the insertion-order
 *    tie-break exactly; the slot gives O(1) id -> callback lookup.
 *  - deschedule() frees the slot immediately (O(1)) and leaves a
 *    tombstone in the heap; a popped entry whose slot no longer holds
 *    its id is skipped. An id that already ran (or was already
 *    cancelled) no longer occupies its slot, so descheduling it is a
 *    true no-op — the slot either is free or belongs to a newer event
 *    with a different sequence.
 */

#ifndef VDNN_SIM_EVENT_QUEUE_HH
#define VDNN_SIM_EVENT_QUEUE_HH

#include "common/logging.hh"
#include "common/types.hh"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace vdnn::sim
{

/** Identifier of a scheduled event (usable for cancellation). */
using EventId = std::uint64_t;

class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute time @p when.
     * @p when must not be in the past.
     * @return an id that can later be passed to deschedule().
     */
    template <typename F>
    EventId
    schedule(TimeNs when, F &&fn)
    {
        VDNN_ASSERT(when >= curTime,
                    "scheduling into the past: when=%lld now=%lld",
                    (long long)when, (long long)curTime);
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, std::function<void()>>) {
            VDNN_ASSERT(fn != nullptr, "scheduling a null callback");
        }
        std::uint32_t slot = allocSlot();
        Slot &s = slots[slot];
        EventId id = (nextSeq++ << kSlotBits) | slot;
        s.id = id;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(s.storage))
                Fn(std::forward<F>(fn));
            s.ops = &InlineOps<Fn>::ops;
        } else {
            using Boxed = Fn *;
            ::new (static_cast<void *>(s.storage))
                Boxed(new Fn(std::forward<F>(fn)));
            s.ops = &BoxedOps<Fn>::ops;
        }
        heapPush(HeapEntry{when, id});
        ++liveEvents;
        return id;
    }

    /** Schedule @p fn @p delay after the current time. */
    template <typename F>
    EventId
    scheduleAfter(TimeNs delay, F &&fn)
    {
        VDNN_ASSERT(delay >= 0, "negative delay %lld",
                    (long long)delay);
        return schedule(curTime + delay, std::forward<F>(fn));
    }

    /** Cancel a pending event; no-op if it already ran or was cancelled. */
    void deschedule(EventId id);

    /** Execute the single earliest pending event. @return false if none. */
    bool step();

    /** Run until the queue drains. @return number of events executed. */
    std::uint64_t run();

    /**
     * Run while events exist with time <= @p until, then set the clock to
     * @p until (if it is ahead). @return number of events executed.
     */
    std::uint64_t runUntil(TimeNs until);

    /** Current simulated time. */
    TimeNs now() const { return curTime; }

    /** The clock itself, for readers that poll it without a call
     *  (mem::UsageTracker). Valid for the queue's lifetime. */
    const TimeNs *timeSource() const { return &curTime; }

    /** True when no live events remain. */
    bool empty() const { return liveEvents == 0; }

    /** Number of live (non-cancelled, pending) events. */
    std::uint64_t pending() const { return liveEvents; }

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

  private:
    /** Low bits of an EventId address the slot; high bits order. */
    static constexpr unsigned kSlotBits = 22;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t(1) << kSlotBits) - 1;
    /** Inline callback storage; fits a std::function with room over. */
    static constexpr std::size_t kInlineBytes = 48;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** Per-callable-type operations on a slot's storage. */
    struct Ops
    {
        /** Run the callback in @p p and destroy it. */
        void (*invokeAndDestroy)(void *p);
        /** Move-construct @p dst from @p src and destroy @p src. */
        void (*relocate)(void *dst, void *src);
        /** Destroy the callback in @p p without running it. */
        void (*destroy)(void *p);
    };

    template <typename Fn>
    struct InlineOps
    {
        static void
        invokeAndDestroy(void *p)
        {
            Fn *f = static_cast<Fn *>(p);
            (*f)();
            f->~Fn();
        }
        static void
        relocate(void *dst, void *src)
        {
            Fn *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        }
        static void
        destroy(void *p)
        {
            static_cast<Fn *>(p)->~Fn();
        }
        static constexpr Ops ops{&invokeAndDestroy, &relocate,
                                 &destroy};
    };

    template <typename Fn>
    struct BoxedOps
    {
        static Fn *
        unbox(void *p)
        {
            return *static_cast<Fn **>(p);
        }
        static void
        invokeAndDestroy(void *p)
        {
            Fn *f = unbox(p);
            (*f)();
            delete f;
        }
        static void
        relocate(void *dst, void *src)
        {
            *static_cast<Fn **>(dst) = unbox(src);
        }
        static void
        destroy(void *p)
        {
            delete unbox(p);
        }
        static constexpr Ops ops{&invokeAndDestroy, &relocate,
                                 &destroy};
    };

    struct Slot
    {
        EventId id = 0; // 0 = free
        const Ops *ops = nullptr;
        std::uint32_t nextFree = kNoSlot;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /** What the heap orders: 16 POD bytes per pending event. */
    struct HeapEntry
    {
        TimeNs when;
        EventId id;
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    void heapPush(HeapEntry e);
    HeapEntry heapPop();
    /** Drop tombstones off the heap top. @return false when empty. */
    bool pruneTop();
    /** Pop the (live) top entry and execute it. */
    void executeTop();

    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    std::uint32_t freeHead = kNoSlot;
    TimeNs curTime = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t liveEvents = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace vdnn::sim

#endif // VDNN_SIM_EVENT_QUEUE_HH
