#include "mem/usage_tracker.hh"

#include "common/logging.hh"

#include <cmath>

namespace vdnn::mem
{

UsageTracker::UsageTracker(const TimeNs *clock_, bool keep_timeline)
    : clock(clock_), tw(keep_timeline)
{
    VDNN_ASSERT(clock != nullptr, "usage tracker needs a clock");
}

void
UsageTracker::onUsage(Bytes current)
{
    tw.record(*clock, double(current));
}

void
UsageTracker::finish()
{
    tw.finish(*clock);
}

Bytes
UsageTracker::peakBytes() const
{
    return Bytes(std::llround(tw.peak()));
}

Bytes
UsageTracker::averageBytes() const
{
    return Bytes(std::llround(tw.average()));
}

} // namespace vdnn::mem
