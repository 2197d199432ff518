#include "workload/trace.h"

#include "common/strings.h"

namespace phoebe::workload {

void AppendTrace(std::string* out, std::span<const JobInstance> jobs) {
  StrAppend(out, "trace v1 ", jobs.size(), '\n');
  for (const JobInstance& job : jobs) {
    PHOEBE_CHECK_MSG(job.truth.size() == job.graph.num_stages() &&
                         job.est.size() == job.graph.num_stages(),
                     "job arrays inconsistent with graph");
    StrAppend(out, "beginjob ", job.job_id, ' ', job.template_id, ' ', job.day, ' ',
              job.submit_time, ' ', job.job_name, ' ', job.norm_input_name, '\n');
    *out += job.graph.ToText();
    *out += "endgraph\n";
    for (const StageTruth& t : job.truth) {
      StrAppend(out, "truth ", t.input_bytes, ' ', t.output_bytes, ' ', t.exec_seconds,
                ' ', t.wall_seconds, ' ', t.num_tasks, ' ', t.start_time, ' ', t.end_time,
                ' ', t.ttl, ' ', t.tfs, '\n');
    }
    for (const StageEstimates& e : job.est) {
      StrAppend(out, "est ", e.est_cost, ' ', e.est_exclusive_cost, ' ',
                e.est_input_cardinality, ' ', e.est_cardinality, ' ', e.est_output_bytes,
                '\n');
    }
    *out += "endjob\n";
  }
}

std::string SerializeTrace(const std::vector<JobInstance>& jobs) {
  std::string out;
  AppendTrace(&out, jobs);
  return out;
}

Status ParseTrace(std::string_view text, std::vector<JobInstance>* out) {
  PHOEBE_CHECK(out != nullptr);
  std::vector<std::string_view> lines;
  SplitInto(text, '\n', &lines);
  size_t i = 0;
  auto next = [&]() -> const std::string_view* {
    while (i < lines.size() && lines[i].empty()) ++i;
    return i < lines.size() ? &lines[i++] : nullptr;
  };
  // One token vector, reused for every line: tokens are views of `text`.
  std::vector<std::string_view> tok;

  const std::string_view* line = next();
  if (!line) return Status::InvalidArgument("empty trace");
  SplitInto(*line, ' ', &tok);
  if (tok.size() != 3 || tok[0] != "trace" || tok[1] != "v1") {
    return Status::InvalidArgument("bad trace header (expected 'trace v1 <n>')");
  }
  int64_t n_jobs_decl = 0;
  if (!ParseInt64(tok[2], &n_jobs_decl).ok() || n_jobs_decl < 0) {
    return Status::InvalidArgument("bad trace header: job count not a number");
  }
  // Every job occupies at least three lines; a declared count beyond that is
  // a lie (or a fuzzed header) and must not drive a giant reserve().
  if (static_cast<size_t>(n_jobs_decl) > lines.size()) {
    return Status::InvalidArgument(
        StrFormat("trace header declares %lld jobs but has only %zu lines",
                  static_cast<long long>(n_jobs_decl), lines.size()));
  }
  const size_t n_jobs = static_cast<size_t>(n_jobs_decl);

  std::vector<JobInstance> jobs;
  jobs.reserve(n_jobs);
  for (size_t j = 0; j < n_jobs; ++j) {
    line = next();
    if (!line) return Status::InvalidArgument("truncated trace: missing beginjob");
    SplitInto(*line, ' ', &tok);
    if (tok.size() != 7 || tok[0] != "beginjob") {
      return Status::InvalidArgument(
          StrFormat("job %zu: bad beginjob line '%s'", j, std::string(*line).c_str()));
    }
    JobInstance job;
    if (!ParseInt64(tok[1], &job.job_id).ok() || !ParseInt32(tok[2], &job.template_id).ok() ||
        !ParseInt32(tok[3], &job.day).ok() ||
        !ParseFiniteDouble(tok[4], &job.submit_time).ok()) {
      return Status::InvalidArgument(
          StrFormat("job %zu: bad beginjob fields '%s'", j, std::string(*line).c_str()));
    }
    job.job_name = tok[5];
    job.norm_input_name = tok[6];

    // Graph block up to 'endgraph': its lines are contiguous in `text`, so
    // the graph parser reads them in place (blank lines in between are
    // skipped there as here).
    const char* graph_begin = nullptr;
    const char* graph_end = nullptr;
    while (true) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated trace: missing endgraph");
      if (*line == "endgraph") break;
      if (graph_begin == nullptr) graph_begin = line->data();
      graph_end = line->data() + line->size();
    }
    const std::string_view graph_text =
        graph_begin == nullptr
            ? std::string_view()
            : std::string_view(graph_begin, static_cast<size_t>(graph_end - graph_begin));
    PHOEBE_RETURN_NOT_OK(dag::JobGraph::FromText(graph_text, &job.graph));

    const size_t n = job.graph.num_stages();
    job.truth.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated trace: missing truth");
      SplitInto(*line, ' ', &tok);
      if (tok.size() != 10 || tok[0] != "truth") {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad truth line", j, s));
      }
      StageTruth t;
      bool ok = ParseFiniteDouble(tok[1], &t.input_bytes).ok() &&
                ParseFiniteDouble(tok[2], &t.output_bytes).ok() &&
                ParseFiniteDouble(tok[3], &t.exec_seconds).ok() &&
                ParseFiniteDouble(tok[4], &t.wall_seconds).ok() &&
                ParseInt32(tok[5], &t.num_tasks).ok() &&
                ParseFiniteDouble(tok[6], &t.start_time).ok() &&
                ParseFiniteDouble(tok[7], &t.end_time).ok() &&
                ParseFiniteDouble(tok[8], &t.ttl).ok() && ParseFiniteDouble(tok[9], &t.tfs).ok();
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad truth fields", j, s));
      }
      if (t.num_tasks < 1) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: num_tasks < 1", j, s));
      }
      job.truth.push_back(t);
    }
    job.est.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      line = next();
      if (!line) return Status::InvalidArgument("truncated trace: missing est");
      SplitInto(*line, ' ', &tok);
      if (tok.size() != 6 || tok[0] != "est") {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad est line", j, s));
      }
      StageEstimates e;
      bool ok = ParseFiniteDouble(tok[1], &e.est_cost).ok() &&
                ParseFiniteDouble(tok[2], &e.est_exclusive_cost).ok() &&
                ParseFiniteDouble(tok[3], &e.est_input_cardinality).ok() &&
                ParseFiniteDouble(tok[4], &e.est_cardinality).ok() &&
                ParseFiniteDouble(tok[5], &e.est_output_bytes).ok();
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("job %zu stage %zu: bad est fields", j, s));
      }
      job.est.push_back(e);
    }
    line = next();
    if (!line || *line != "endjob") {
      return Status::InvalidArgument(StrFormat("job %zu: missing endjob", j));
    }
    jobs.push_back(std::move(job));
  }
  *out = std::move(jobs);
  return Status::OK();
}

}  // namespace phoebe::workload
