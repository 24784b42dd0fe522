/**
 * @file
 * Placement policies: which device of the cluster a job lands on.
 *
 * The multi-device Scheduler keeps one admission ledger per device;
 * when a queued job's reservation could be admitted, the pluggable
 * PlacementPolicy picks the device from a per-device load snapshot.
 * Placement is the serve layer's second policy axis, orthogonal to
 * the SchedPolicy that orders iterations *within* a device:
 *
 *  - BestFitPlacement packs jobs onto the feasible device with the
 *    least free ledger bytes (classic best-fit). Densest
 *    consolidation — frees whole devices for giant arrivals — but a
 *    skewed arrival burst piles tenants onto one device while its
 *    siblings idle; the rebalance sweep's migrations exist to undo
 *    exactly that.
 *  - RoundRobinPlacement rotates over the feasible devices.
 *  - LoadBalancePlacement picks the feasible device with the fewest
 *    resident tenants (queue depth), breaking ties toward the most
 *    free bytes — keeps per-device service rates even.
 */

#ifndef VDNN_SERVE_PLACEMENT_HH
#define VDNN_SERVE_PLACEMENT_HH

#include "common/types.hh"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace vdnn::serve
{

/** One device's load, as offered to a PlacementPolicy. */
struct DeviceLoad
{
    int device = -1;
    /** Admission-ledger capacity (the device pool size). */
    Bytes capacity = 0;
    /** Reservation bytes committed on that ledger. */
    Bytes reserved = 0;
    /** Device-resident tenants (the device's queue depth). */
    int runningJobs = 0;
    /** The candidate job's reservation fits this device right now. */
    bool fits = false;

    Bytes freeBytes() const
    {
        return reserved < capacity ? capacity - reserved : 0;
    }
};

/**
 * Chooses the device for one admission. Policies may keep state
 * across calls (round-robin cursor); a Scheduler owns one instance
 * for its whole run.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Short label (reports). */
    virtual std::string name() const = 0;

    /**
     * Pick a device for the candidate job. @p loads has one entry per
     * device, in device order. @return the chosen entry's device id —
     * it must have fits == true — or -1 to defer the job (nothing
     * fits now).
     *
     * The Scheduler calls place() only when at least one entry fits:
     * with none, -1 is the only legal answer, so it answers -1 itself.
     * A stateful policy therefore sees only the calls where it has a
     * choice, and a queued job whose demand the admission sweep has
     * already refused in that pass is not offered again.
     */
    virtual int place(const std::vector<DeviceLoad> &loads) = 0;
};

/** Best fit by free ledger bytes (densest feasible device). */
class BestFitPlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "best-fit"; }
    int place(const std::vector<DeviceLoad> &loads) override;
};

/** Rotate over the feasible devices. */
class RoundRobinPlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "round-robin"; }
    int place(const std::vector<DeviceLoad> &loads) override;

  private:
    std::size_t cursor = 0;
};

/** Fewest resident tenants first; ties toward the most free bytes. */
class LoadBalancePlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "load-balance"; }
    int place(const std::vector<DeviceLoad> &loads) override;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_PLACEMENT_HH
