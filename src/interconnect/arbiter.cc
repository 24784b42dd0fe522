#include "interconnect/arbiter.hh"

#include "common/logging.hh"

#include <algorithm>

namespace vdnn::ic
{

Bytes &
FairShareArbiter::servedFor(int client)
{
    VDNN_ASSERT(client >= 0, "negative arbiter client id %d", client);
    if (std::size_t(client) >= served.size())
        served.resize(std::size_t(client) + 1, 0);
    return served[std::size_t(client)];
}

std::size_t
FairShareArbiter::pick(const std::vector<int> &candidates)
{
    VDNN_ASSERT(!candidates.empty(), "pick() from an empty queue");

    // Bounded deficit: forgive service history beyond kMaxCreditBytes
    // of credit, so a tenant that was idle while others moved data
    // uncontended cannot starve them on (re)arrival.
    Bytes max_served = 0;
    for (int c : candidates)
        max_served = std::max(max_served, servedBytes(c));
    for (int c : candidates) {
        Bytes &s = servedFor(c);
        s = std::max(s, max_served - kMaxCreditBytes);
    }

    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        // Strict < keeps the earliest (FIFO) transfer on ties, and the
        // first queued transfer of each client.
        if (servedBytes(candidates[i]) < servedBytes(candidates[best]))
            best = i;
    }
    return best;
}

void
FairShareArbiter::charge(int client, Bytes bytes)
{
    VDNN_ASSERT(bytes >= 0, "negative service charge");
    servedFor(client) += bytes;
}

Bytes
FairShareArbiter::servedBytes(int client) const
{
    if (client < 0 || std::size_t(client) >= served.size())
        return 0;
    return served[std::size_t(client)];
}

void
FairShareArbiter::resetService()
{
    std::fill(served.begin(), served.end(), 0);
}

} // namespace vdnn::ic
