// Trace (de)serialization: a line-oriented text format for job instances,
// so externally collected traces (or generated workloads) can be stored,
// shipped, and replayed without the generator.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "workload/job_instance.h"

namespace phoebe::workload {

/// Serialize jobs into the text trace format:
///
///   trace v1 <num_jobs>
///   beginjob <job_id> <template_id> <day> <submit_time> <job_name> <input_name>
///   <job-graph text (see dag::JobGraph::ToText)>
///   endgraph
///   truth <input> <output> <exec> <wall> <tasks> <start> <end> <ttl> <tfs>   # per stage
///   est <cost> <exclusive> <in_card> <card> <out_bytes>                      # per stage
///   endjob
///
/// Names must not contain whitespace (generated names never do).
std::string SerializeTrace(const std::vector<JobInstance>& jobs);
/// SerializeTrace appended to `*out`, for callers that reuse one buffer or
/// serialize a single job without copying it into a vector.
void AppendTrace(std::string* out, std::span<const JobInstance> jobs);

/// Parse a trace produced by SerializeTrace. Validates graph structure and
/// per-stage array sizes. Sole Status-first entry point: on error `*out`
/// is untouched and the Status names the malformed job/stage (never a
/// crash; fuzz_parser_test pins this).
Status ParseTrace(std::string_view text, std::vector<JobInstance>* out);

}  // namespace phoebe::workload
