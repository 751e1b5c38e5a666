#ifndef FTSIM_TESTS_STATS_ROWS_HPP
#define FTSIM_TESTS_STATS_ROWS_HPP

/**
 * @file
 * Test helper: reads the dynamic per-name rows (`serve.tenant.<name>.*`,
 * `serve.source.<label>.*`) back out of a registry snapshot.
 */

#include <cstdint>
#include <map>
#include <string>

#include "common/stats_registry.hpp"

namespace ftsim {

/**
 * Every `<prefix><name>.<field>` counter in @p snap, keyed by name.
 * Names may contain dots (source labels are "host:port#n").
 */
inline std::map<std::string, std::uint64_t>
statRows(const StatsSnapshot& snap, const std::string& prefix,
         const std::string& field)
{
    const std::string suffix = "." + field;
    std::map<std::string, std::uint64_t> rows;
    for (const StatEntry& e : snap.entries) {
        if (e.name.size() <= prefix.size() + suffix.size() ||
            e.name.compare(0, prefix.size(), prefix) != 0 ||
            e.name.compare(e.name.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
            continue;
        rows[e.name.substr(prefix.size(), e.name.size() - prefix.size() -
                                              suffix.size())] = e.count;
    }
    return rows;
}

}  // namespace ftsim

#endif  // FTSIM_TESTS_STATS_ROWS_HPP
