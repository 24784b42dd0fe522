/**
 * @file
 * Time-aware memory usage tracker.
 *
 * Binds a memory pool's usage counter to the simulated clock so that
 * peak and *time-weighted average* usage (the metrics of Figs. 11/15)
 * can be computed. The clock is read through a pointer to the
 * simulated time (sim::EventQueue::timeSource()), so the mem library
 * depends on neither the GPU runtime nor the simulator, and the read
 * on every pool allocation and release is one load, not a call.
 */

#ifndef VDNN_MEM_USAGE_TRACKER_HH
#define VDNN_MEM_USAGE_TRACKER_HH

#include "common/types.hh"
#include "stats/time_weighted.hh"

namespace vdnn::mem
{

class UsageTracker
{
  public:
    /**
     * @param clock        the current simulated time; must outlive
     *                      the tracker
     * @param keep_timeline keep all change points (for timeline dumps)
     */
    explicit UsageTracker(const TimeNs *clock, bool keep_timeline = false);

    /** Record that usage is now @p current bytes. */
    void onUsage(Bytes current);

    /** Close the observation window at the current clock value. */
    void finish();

    /** Peak usage in bytes. */
    Bytes peakBytes() const;

    /** Time-weighted average usage in bytes (valid after finish()). */
    Bytes averageBytes() const;

    const stats::TimeWeighted &signal() const { return tw; }

  private:
    const TimeNs *clock;
    stats::TimeWeighted tw;
};

} // namespace vdnn::mem

#endif // VDNN_MEM_USAGE_TRACKER_HH
