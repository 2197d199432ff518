#include "dag/job_graph.h"

#include <algorithm>
#include <deque>

#include "common/strings.h"

namespace phoebe::dag {

bool Stage::HasOperator(OperatorKind kind) const {
  return std::find(operators.begin(), operators.end(), kind) != operators.end();
}

StageId JobGraph::AddStage(Stage stage) {
  stage.id = static_cast<StageId>(stages_.size());
  stages_.push_back(std::move(stage));
  upstream_.emplace_back();
  downstream_.emplace_back();
  return stages_.back().id;
}

Status JobGraph::AddEdge(StageId from, StageId to) {
  auto in_range = [this](StageId id) {
    return id >= 0 && static_cast<size_t>(id) < stages_.size();
  };
  if (!in_range(from) || !in_range(to)) {
    return Status::InvalidArgument(
        StrFormat("edge (%d, %d) references unknown stage", from, to));
  }
  if (from == to) {
    return Status::InvalidArgument(StrFormat("self-loop on stage %d", from));
  }
  const auto& down = downstream_[static_cast<size_t>(from)];
  if (std::find(down.begin(), down.end(), to) != down.end()) {
    return Status::AlreadyExists(StrFormat("duplicate edge (%d, %d)", from, to));
  }
  edges_.push_back(Edge{from, to});
  downstream_[static_cast<size_t>(from)].push_back(to);
  upstream_[static_cast<size_t>(to)].push_back(from);
  return Status::OK();
}

const Stage& JobGraph::stage(StageId id) const {
  PHOEBE_CHECK(id >= 0 && static_cast<size_t>(id) < stages_.size());
  return stages_[static_cast<size_t>(id)];
}

Stage& JobGraph::mutable_stage(StageId id) {
  PHOEBE_CHECK(id >= 0 && static_cast<size_t>(id) < stages_.size());
  return stages_[static_cast<size_t>(id)];
}

const std::vector<StageId>& JobGraph::upstream(StageId id) const {
  PHOEBE_CHECK(id >= 0 && static_cast<size_t>(id) < upstream_.size());
  return upstream_[static_cast<size_t>(id)];
}

const std::vector<StageId>& JobGraph::downstream(StageId id) const {
  PHOEBE_CHECK(id >= 0 && static_cast<size_t>(id) < downstream_.size());
  return downstream_[static_cast<size_t>(id)];
}

std::vector<StageId> JobGraph::Roots() const {
  std::vector<StageId> roots;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (upstream_[i].empty()) roots.push_back(static_cast<StageId>(i));
  }
  return roots;
}

std::vector<StageId> JobGraph::Leaves() const {
  std::vector<StageId> leaves;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (downstream_[i].empty()) leaves.push_back(static_cast<StageId>(i));
  }
  return leaves;
}

Status JobGraph::Validate() const {
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].id != static_cast<StageId>(i)) {
      return Status::Internal(StrFormat("stage %zu has id %d", i, stages_[i].id));
    }
    if (stages_[i].num_tasks < 1) {
      return Status::InvalidArgument(
          StrFormat("stage %zu has %d tasks", i, stages_[i].num_tasks));
    }
  }
  auto order = TopologicalOrder();
  if (!order.ok()) return order.status();
  return Status::OK();
}

Result<std::vector<StageId>> JobGraph::TopologicalOrder() const {
  TopoScratch scratch;
  std::vector<StageId> order;
  PHOEBE_RETURN_NOT_OK(TopologicalOrderInto(&scratch, &order));
  return order;
}

Status JobGraph::TopologicalOrderInto(TopoScratch* scratch,
                                      std::vector<StageId>* out) const {
  std::vector<int>& indeg = scratch->indeg;
  indeg.assign(stages_.size(), 0);
  for (const Edge& e : edges_) ++indeg[static_cast<size_t>(e.to)];

  // Min-id-first ready set keeps the order deterministic; with dense ids a
  // sorted deque insertion is fine for the graph sizes we handle.
  std::vector<StageId>& ready = scratch->ready;
  ready.clear();
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<StageId>(i));
  }
  // Process in ascending id order via a sorted stack (reverse-sorted vector).
  std::sort(ready.rbegin(), ready.rend());

  out->clear();
  out->reserve(stages_.size());
  while (!ready.empty()) {
    StageId u = ready.back();
    ready.pop_back();
    out->push_back(u);
    for (StageId v : downstream_[static_cast<size_t>(u)]) {
      if (--indeg[static_cast<size_t>(v)] == 0) {
        // Insert keeping reverse-sorted order.
        auto it = std::lower_bound(ready.begin(), ready.end(), v, std::greater<>());
        ready.insert(it, v);
      }
    }
  }
  if (out->size() != stages_.size()) {
    return Status::FailedPrecondition("job graph contains a cycle");
  }
  return Status::OK();
}

Result<int> JobGraph::CriticalPathLength() const {
  PHOEBE_ASSIGN_OR_RETURN(std::vector<StageId> order, TopologicalOrder());
  if (order.empty()) return 0;
  std::vector<int> depth(stages_.size(), 1);
  for (StageId u : order) {
    for (StageId v : downstream_[static_cast<size_t>(u)]) {
      depth[static_cast<size_t>(v)] =
          std::max(depth[static_cast<size_t>(v)], depth[static_cast<size_t>(u)] + 1);
    }
  }
  return *std::max_element(depth.begin(), depth.end());
}

bool JobGraph::Reaches(StageId ancestor, StageId descendant) const {
  if (ancestor == descendant) return true;
  std::vector<bool> seen(stages_.size(), false);
  std::deque<StageId> frontier{ancestor};
  seen[static_cast<size_t>(ancestor)] = true;
  while (!frontier.empty()) {
    StageId u = frontier.front();
    frontier.pop_front();
    for (StageId v : downstream_[static_cast<size_t>(u)]) {
      if (v == descendant) return true;
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        frontier.push_back(v);
      }
    }
  }
  return false;
}

std::string JobGraph::ToText() const {
  std::string out;
  StrAppend(&out, "job ", name_, '\n');
  for (const Stage& s : stages_) {
    StrAppend(&out, "stage ", s.name, ' ', s.stage_type, ' ', s.num_tasks, ' ');
    for (size_t i = 0; i < s.operators.size(); ++i) {
      if (i) out += ',';
      out += OperatorKindName(s.operators[i]);
    }
    out += '\n';
  }
  for (const Edge& e : edges_) StrAppend(&out, "edge ", e.from, ' ', e.to, '\n');
  return out;
}

Status JobGraph::FromText(std::string_view text, JobGraph* out) {
  PHOEBE_CHECK(out != nullptr);
  JobGraph g;
  int lineno = 0;
  std::vector<std::string_view> lines, tok, ops;
  SplitInto(text, '\n', &lines);
  for (std::string_view line : lines) {
    ++lineno;
    // Trim trailing CR and surrounding whitespace.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    size_t start = line.find_first_not_of(' ');
    if (start == std::string_view::npos) continue;
    line.remove_prefix(start);
    if (line[0] == '#') continue;

    SplitInto(line, ' ', &tok);
    if (tok[0] == "job") {
      g.set_name(tok.size() > 1 ? std::string(tok[1]) : "");
    } else if (tok[0] == "stage") {
      if (tok.size() != 5) {
        return Status::InvalidArgument(
            StrFormat("line %d: expected 'stage <name> <type> <tasks> <ops>'", lineno));
      }
      Stage s;
      s.name = tok[1];
      if (!ParseInt32(tok[2], &s.stage_type).ok() || !ParseInt32(tok[3], &s.num_tasks).ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: bad stage type/tasks '%.*s %.*s'", lineno,
                      static_cast<int>(tok[2].size()), tok[2].data(),
                      static_cast<int>(tok[3].size()), tok[3].data()));
      }
      SplitInto(tok[4], ',', &ops);
      for (std::string_view op : ops) {
        OperatorKind k = OperatorKindFromName(op);
        if (k == OperatorKind::kMaxValue) {
          return Status::InvalidArgument(StrFormat("line %d: unknown operator '%.*s'", lineno,
                                                   static_cast<int>(op.size()), op.data()));
        }
        s.operators.push_back(k);
      }
      g.AddStage(std::move(s));
    } else if (tok[0] == "edge") {
      if (tok.size() != 3) {
        return Status::InvalidArgument(StrFormat("line %d: expected 'edge <u> <v>'", lineno));
      }
      StageId from = kInvalidStage, to = kInvalidStage;
      if (!ParseInt32(tok[1], &from).ok() || !ParseInt32(tok[2], &to).ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: bad edge ids '%.*s %.*s'", lineno,
                      static_cast<int>(tok[1].size()), tok[1].data(),
                      static_cast<int>(tok[2].size()), tok[2].data()));
      }
      PHOEBE_RETURN_NOT_OK(g.AddEdge(from, to));
    } else {
      return Status::InvalidArgument(StrFormat("line %d: unknown directive '%.*s'", lineno,
                                               static_cast<int>(tok[0].size()),
                                               tok[0].data()));
    }
  }
  PHOEBE_RETURN_NOT_OK(g.Validate());
  *out = std::move(g);
  return Status::OK();
}

}  // namespace phoebe::dag
