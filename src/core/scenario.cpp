#include "core/scenario.hpp"

namespace ftsim {

Scenario
Scenario::gsMath()
{
    return Scenario{};  // The defaults *are* the GS/MATH run.
}

Scenario
Scenario::commonsense15k()
{
    Scenario s;
    s.medianSeqLen = 79;   // CS median (paper Table II).
    s.lengthSigma = 0.45;  // CS lengths spread wider than GS/MATH.
    s.numQueries = 15000.0;
    return s;
}

Scenario
Scenario::openOrca()
{
    Scenario s;
    s.numQueries = 2e6;
    return s;
}

Result<Scenario>
Scenario::validated() const
{
    if (medianSeqLen < 1)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: medianSeqLen must be >= 1"};
    if (lengthSigma < 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: lengthSigma must be >= 0"};
    if (numQueries <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: numQueries must be > 0"};
    if (epochs <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: epochs must be > 0"};
    return *this;
}

std::string
Scenario::describe() const
{
    return strCat(model.name, sparse ? " (sparse)" : " (dense)", ", ",
                  numQueries, " queries, median ", medianSeqLen,
                  " tokens (sigma ", lengthSigma, "), ", epochs,
                  " epochs");
}

std::string
Scenario::canonicalKey() const
{
    std::string key;
    key.reserve(256);
    appendCanonicalKey(key);
    return key;
}

void
Scenario::appendCanonicalKey(std::string& out) const
{
    // Exact throughout: keys must distinguish doubles past the 6
    // significant digits a plain double gets, or two tenants' distinct
    // scenarios would alias one cached answer.
    model.appendFingerprint(out);
    strAppend(out, "|seq=", medianSeqLen, "|sigma=", Exact{lengthSigma},
              "|q=", Exact{numQueries}, "|ep=", Exact{epochs},
              "|sparse=", sparse,
              "|cal=", Exact{calibration.hostOverheadUs}, ',',
              Exact{calibration.matmulEfficiency}, ',',
              Exact{calibration.vectorEfficiency}, ',',
              Exact{calibration.dequantEfficiency}, ',',
              Exact{calibration.memoryEfficiency}, ',',
              Exact{calibration.blocksPerSm}, ',',
              Exact{calibration.minOccupancy}, ',',
              Exact{calibration.stepOverheadMs}, ',',
              Exact{calibration.optimizerPasses});
}

}  // namespace ftsim
