/**
 * @file
 * Generation-checked slot vector: the live-allocation table of the
 * memory pool and of the pinned host allocator.
 *
 * Entries live in one contiguous vector and released slots go on a
 * free-slot stack for reuse, so a warm table inserts and erases
 * without touching the heap. An id packs a 31-bit generation above a
 * 32-bit slot index, and a slot's generation advances every time it
 * is released: a double release, or a stale id whose slot has since
 * been reused, is caught instead of freeing someone else's block.
 */

#ifndef VDNN_MEM_SLOT_TABLE_HH
#define VDNN_MEM_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vdnn::mem
{

template <typename T>
class SlotTable
{
  public:
    /** Store @p value. @return its id (always >= 0). */
    std::int64_t
    insert(const T &value)
    {
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = std::uint32_t(slots.size());
            slots.push_back(Slot{});
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        Slot &s = slots[slot];
        s.value = value;
        s.live = true;
        ++count;
        return (std::int64_t(s.gen & kGenMask) << 32) | std::int64_t(slot);
    }

    /** The live entry @p id names; nullptr when the id was never
     *  issued, was released, or names a slot reused since. */
    T *
    find(std::int64_t id)
    {
        if (id < 0)
            return nullptr;
        std::uint64_t slot = std::uint64_t(id) & 0xffffffffu;
        std::uint32_t gen = std::uint32_t(std::uint64_t(id) >> 32);
        if (slot >= slots.size())
            return nullptr;
        Slot &s = slots[slot];
        return s.live && (s.gen & kGenMask) == gen ? &s.value : nullptr;
    }

    /** Release the entry @p id; it must be live (find() != nullptr). */
    void
    erase(std::int64_t id)
    {
        std::uint32_t slot = std::uint32_t(std::uint64_t(id) & 0xffffffffu);
        Slot &s = slots[slot];
        s.live = false;
        ++s.gen;
        freeSlots.push_back(slot);
        --count;
    }

    /** Release every entry; every id issued so far goes stale. */
    void
    clear()
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].live) {
                slots[i].live = false;
                ++slots[i].gen;
                freeSlots.push_back(std::uint32_t(i));
            }
        }
        count = 0;
    }

    /** Number of live entries. */
    std::size_t size() const { return count; }

    /** Call @p fn on every live entry. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &s : slots) {
            if (s.live)
                fn(s.value);
        }
    }

  private:
    /** Generations keep 31 bits so ids stay non-negative. */
    static constexpr std::uint32_t kGenMask = 0x7fffffffu;

    struct Slot
    {
        T value{};
        std::uint32_t gen = 0;
        bool live = false;
    };

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::size_t count = 0;
};

} // namespace vdnn::mem

#endif // VDNN_MEM_SLOT_TABLE_HH
