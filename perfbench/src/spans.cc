#include "spans.hh"

#include <chrono>
#include <fstream>
#include <iomanip>

namespace perfbench
{

std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanRecorder::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.run = curRun;
    s.startNs = hostNowNs();
    spans.push_back(s);
    stack.push_back(int(spans.size()) - 1);
    return stack.back();
}

void
SpanRecorder::close(int index)
{
    Span &s = spans[std::size_t(index)];
    s.endNs = hostNowNs();
    stack.pop_back();
    if (s.parent >= 0)
        spans[std::size_t(s.parent)].childNs += s.endNs - s.startNs;
}

std::map<std::string, SpanRecorder::Totals>
SpanRecorder::totals() const
{
    std::map<std::string, Totals> out;
    for (const Span &s : spans) {
        double dur = double(s.endNs - s.startNs) * 1e-9;
        Totals &t = out[s.name];
        t.totalS[s.run] += dur;
        t.selfS[s.run] += dur - double(s.childNs) * 1e-9;
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.run
           << ",\"ts\":" << double(s.startNs - t0) * 1e-3
           << ",\"dur\":" << double(s.endNs - s.startNs) * 1e-3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"self_us\":"
           << double(s.endNs - s.startNs - s.childNs) * 1e-3 << "}}";
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace perfbench
