/**
 * @file
 * A reusable FIFO ring buffer.
 *
 * A queue that fills and drains forever (a CUDA stream's command
 * queue) must not call the allocator as it cycles, which std::deque
 * does every few hundred bytes of traffic. This ring keeps its
 * storage: it grows by doubling while the queue is deeper than ever
 * before and never shrinks, so a warm queue pushes and pops without
 * touching the heap.
 */

#ifndef VDNN_COMMON_FIFO_HH
#define VDNN_COMMON_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace vdnn
{

template <typename T>
class Fifo
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return ring[head]; }
    const T &front() const { return ring[head]; }

    void
    push_back(T value)
    {
        if (count == ring.size())
            grow();
        ring[(head + count) & (ring.size() - 1)] = std::move(value);
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & (ring.size() - 1);
        --count;
    }

  private:
    /** Double the capacity (a power of two), unwrapping the contents. */
    void
    grow()
    {
        std::vector<T> bigger(ring.empty() ? 8 : 2 * ring.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
        ring = std::move(bigger);
        head = 0;
    }

    std::vector<T> ring;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace vdnn

#endif // VDNN_COMMON_FIFO_HH
