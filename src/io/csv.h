#ifndef RDBSC_IO_CSV_H_
#define RDBSC_IO_CSV_H_

#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "util/status.h"

namespace rdbsc::io {

/// CSV persistence so instances and assignments can round-trip to disk
/// (and users can bring their own task/worker data, e.g. real check-in
/// datasets, instead of the built-in generators).
///
/// Formats (one header line, then one row per record):
///   tasks.csv    x,y,start,end,beta
///   workers.csv  x,y,velocity,dir_lo,dir_hi,confidence,available_from
///                (dir_lo == dir_hi encodes a single direction; the pair
///                 (0, 2*pi) round-trips a full circle)
///   pairs.csv    worker,task          (task -1 = unassigned)
/// All parsing is strict: wrong column counts or unparsable numbers fail
/// with InvalidArgument naming the line. In pairs.csv each worker id must
/// be an integer in [0, rows) that appears once, and each task id an
/// integer >= -1.

util::Status WriteTasksCsv(const std::string& path,
                           const std::vector<core::Task>& tasks);
util::StatusOr<std::vector<core::Task>> ReadTasksCsv(const std::string& path);

util::Status WriteWorkersCsv(const std::string& path,
                             const std::vector<core::Worker>& workers);
util::StatusOr<std::vector<core::Worker>> ReadWorkersCsv(
    const std::string& path);

util::Status WriteAssignmentCsv(const std::string& path,
                                const core::Assignment& assignment);
util::StatusOr<core::Assignment> ReadAssignmentCsv(const std::string& path);

/// Convenience: loads tasks + workers into an Instance.
util::StatusOr<core::Instance> ReadInstanceCsv(
    const std::string& tasks_path, const std::string& workers_path,
    double now = 0.0,
    core::ArrivalPolicy policy = core::ArrivalPolicy::kStrict);

}  // namespace rdbsc::io

#endif  // RDBSC_IO_CSV_H_
