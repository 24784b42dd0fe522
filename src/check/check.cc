#include "check/check.hh"

#include "common/logging.hh"

namespace vdnn::check
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:
        return "info";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

const char *
diagCodeName(DiagCode c)
{
    switch (c) {
      case DiagCode::BadStructure:
        return "BadStructure";
      case DiagCode::SyncOrder:
        return "SyncOrder";
      case DiagCode::UseUnallocated:
        return "UseUnallocated";
      case DiagCode::ReadOffloaded:
        return "ReadOffloaded";
      case DiagCode::DoubleOffload:
        return "DoubleOffload";
      case DiagCode::DoubleRelease:
        return "DoubleRelease";
      case DiagCode::MissingGradient:
        return "MissingGradient";
      case DiagCode::MissingWorkspace:
        return "MissingWorkspace";
      case DiagCode::UnjoinedDma:
        return "UnjoinedDma";
      case DiagCode::LeakedAlloc:
        return "LeakedAlloc";
      case DiagCode::HostLeak:
        return "HostLeak";
      case DiagCode::OffloadCoverage:
        return "OffloadCoverage";
      case DiagCode::PlanShape:
        return "PlanShape";
      case DiagCode::Infeasible:
        return "Infeasible";
      case DiagCode::IneligibleOffload:
        return "IneligibleOffload";
      case DiagCode::CompressedDense:
        return "CompressedDense";
      case DiagCode::BadDmaScale:
        return "BadDmaScale";
      case DiagCode::StaticPlanTraffic:
        return "StaticPlanTraffic";
      case DiagCode::PriorityConflict:
        return "PriorityConflict";
      case DiagCode::ShareExceeded:
        return "ShareExceeded";
      case DiagCode::LedgerChain:
        return "LedgerChain";
      case DiagCode::LedgerNonZero:
        return "LedgerNonZero";
      case DiagCode::BadTransition:
        return "BadTransition";
      case DiagCode::DoubleResidency:
        return "DoubleResidency";
      case DiagCode::LostJob:
        return "LostJob";
      case DiagCode::DeltaSign:
        return "DeltaSign";
      case DiagCode::OutcomeMismatch:
        return "OutcomeMismatch";
    }
    return "?";
}

std::string
Diagnostic::str() const
{
    std::string where;
    if (op >= 0)
        where += strFormat(" op %d", op);
    if (layer >= 0)
        where += strFormat(" layer %d", layer);
    if (buffer >= 0)
        where += strFormat(" buffer %d", buffer);
    return strFormat("%s[%s]%s: %s", severityName(severity),
                     diagCodeName(code), where.c_str(), message.c_str());
}

int
CheckResult::errorCount() const
{
    int n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::Error;
    return n;
}

int
CheckResult::warningCount() const
{
    int n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::Warning;
    return n;
}

std::string
CheckResult::report() const
{
    std::string out;
    for (const Diagnostic &d : diags) {
        out += d.str();
        out += '\n';
    }
    return out;
}

Diagnostic &
CheckResult::add(DiagCode code, Severity sev, std::string message,
                 int op, int layer, int buffer)
{
    Diagnostic d;
    d.code = code;
    d.severity = sev;
    d.message = std::move(message);
    d.op = op;
    d.layer = layer;
    d.buffer = buffer;
    diags.push_back(std::move(d));
    return diags.back();
}

void
CheckResult::merge(const CheckResult &other)
{
    diags.insert(diags.end(), other.diags.begin(), other.diags.end());
    peakTransientBytes =
        std::max(peakTransientBytes, other.peakTransientBytes);
    persistentBytes = std::max(persistentBytes, other.persistentBytes);
    provablePeakBytes =
        std::max(provablePeakBytes, other.provablePeakBytes);
    dmasIssued += other.dmasIssued;
    dmasJoined += other.dmasJoined;
}

bool
CheckConfig::defaultEnabled()
{
#ifdef VDNN_CHECK_OFF_BY_DEFAULT
    return false;
#else
    return true;
#endif
}

} // namespace vdnn::check
