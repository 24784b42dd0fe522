#include "serve/job.hh"

#include "common/logging.hh"

namespace vdnn::serve
{

JobId
JobQueue::take(std::size_t i)
{
    VDNN_ASSERT(i < ids.size(), "queue index %zu out of range", i);
    JobId id = ids[i];
    ids.erase(ids.begin() + std::ptrdiff_t(i));
    return id;
}

} // namespace vdnn::serve
