/**
 * @file
 * Fair-share arbiter for the PCIe DMA engines.
 *
 * When several tenants of a shared device offload or prefetch
 * concurrently, their DMAs queue on the same copy engine (one per
 * direction, as on Titan X). A plain FIFO grant order lets a
 * burst-happy tenant monopolize the link: whoever enqueues first
 * drains first, and a tenant with many queued transfers starves the
 * others. This arbiter instead grants the engine by fair share over
 * the *bytes already served*: among the queued candidates, the client
 * with the fewest served bytes goes next (deficit-style round-robin at
 * whole-transfer granularity), so two tenants that keep the link busy
 * each receive ~half its bandwidth.
 *
 * Like DRR's bounded deficit counter, the credit a tenant can hold
 * against its peers is capped: at every grant, each queued tenant's
 * service is raised to within kMaxCreditBytes of the furthest-ahead
 * queued tenant. A tenant that was idle — or admitted long after a
 * co-tenant moved gigabytes uncontended — gets at most that one
 * bounded burst of priority instead of starving the incumbent until
 * their lifetime byte counts converge.
 *
 * With a single client (exclusive training, or one tenant active at a
 * time) every pick degenerates to the FIFO head, so the arbiter is
 * always on without perturbing single-tenant timelines.
 */

#ifndef VDNN_INTERCONNECT_ARBITER_HH
#define VDNN_INTERCONNECT_ARBITER_HH

#include "common/types.hh"

#include <cstddef>
#include <vector>

namespace vdnn::ic
{

class FairShareArbiter
{
  public:
    /**
     * Maximum service credit (bytes) a queued tenant may hold over the
     * furthest-ahead queued tenant. Bounds how long a freshly arrived
     * tenant can monopolize the link before alternation resumes (a
     * couple of feature maps).
     */
    static constexpr Bytes kMaxCreditBytes = Bytes(256) * 1024 * 1024;

    /**
     * Choose which queued transfer is granted the engine next.
     * Raises lagging tenants' service floors (see kMaxCreditBytes)
     * before comparing.
     * @param candidates owning clients of the queued transfers, in
     *        FIFO order (one entry per transfer; repeats allowed)
     * @return index into @p candidates: the first transfer of the
     *         client with the least service; FIFO order breaks ties
     */
    std::size_t pick(const std::vector<int> &candidates);

    /** Account @p bytes of link service to @p client. */
    void charge(int client, Bytes bytes);

    /** Total bytes granted to @p client so far. */
    Bytes servedBytes(int client) const;

    /** Forget all service history. */
    void resetService();

  private:
    /** Grow the table to cover @p client and return its service. */
    Bytes &servedFor(int client);

    /**
     * Bytes served per client. Client ids are small dense integers
     * (tenant ids), so the table is a flat vector: charge() — once per
     * completed DMA — is an indexed increment instead of a hash lookup.
     */
    std::vector<Bytes> served;
};

} // namespace vdnn::ic

#endif // VDNN_INTERCONNECT_ARBITER_HH
