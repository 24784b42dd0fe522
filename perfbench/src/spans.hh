/**
 * @file
 * The benchmark's own span recorder (traced runs only).
 *
 * A span covers one call the benchmark makes into a simulator module's
 * public function — net::build*, Session::setup, Planner::plan,
 * check::verifyPlan, Scheduler::submit/run, ... — and records its name,
 * host start/end (steady clock), parent span and run id (the workload
 * repetition it belongs to). Spans are kept in memory and written out
 * once at the end. Nesting is strict (one thread, RAII scopes), so a
 * span's self time is its duration minus its direct children's.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t childNs = 0; ///< time covered by direct children
    int parent = -1;          ///< index into the recorder, -1 = root
    int run = 0;
};

class SpanRecorder
{
  public:
    /** Subsequent spans belong to repetition @p run. */
    void setRun(int run) { curRun = run; }

    int open(const char *name);
    void close(int index);

    /** Per span name: per-run summed duration and self time, seconds. */
    struct Totals
    {
        std::map<int, double> totalS;
        std::map<int, double> selfS;
    };
    std::map<std::string, Totals> totals() const;

    /** Chrome trace-event JSON ('X' events; tid = run id). */
    bool writeJson(const std::string &path) const;

    std::size_t size() const { return spans.size(); }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
    int curRun = 0;
};

/** RAII span; a null recorder (untraced runs) makes it a no-op. */
class Scope
{
  public:
    Scope(SpanRecorder *rec_, const char *name)
        : rec(rec_), index(rec_ ? rec_->open(name) : -1)
    {}
    ~Scope()
    {
        if (rec)
            rec->close(index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder *rec;
    int index;
};

/** Host steady-clock time in nanoseconds. */
std::int64_t hostNowNs();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
