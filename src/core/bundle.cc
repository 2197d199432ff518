#include "core/bundle.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/checksum.h"
#include "common/strings.h"

namespace phoebe::core {

namespace {

// ---------------------------------------------------------------------------
// Config section: one "key value" line per PipelineConfig field. The key set
// is exact for format version 1 — an unknown or missing key is a parse
// error, so config drift needs a version bump instead of silently loading.
// ---------------------------------------------------------------------------

// Format v1 carries a `batch_inference` flag per model stack from when
// scalar scoring was selectable. There is one inference path now, so the
// flag is written as a constant (keeping bundle bytes and checksums stable)
// and its stored value, 0 or 1, is read and ignored.
constexpr const char* kBatchInferenceLine = "1";

/// One `key value` line; a double value goes through AppendDouble.
template <typename T>
void AppendKv(std::string* out, const std::string& key, const T& value) {
  StrAppend(out, key, ' ', value, '\n');
}

std::string JoinInts(const std::vector<int>& v) {
  if (v.empty()) return "-";
  std::vector<std::string> pieces;
  pieces.reserve(v.size());
  for (int x : v) pieces.push_back(StrFormat("%d", x));
  return Join(pieces, ",");
}

void AppendGbdt(std::string* out, const std::string& p, const ml::GbdtParams& g) {
  AppendKv(out, p + ".num_trees", StrFormat("%d", g.num_trees));
  AppendKv(out, p + ".num_leaves", StrFormat("%d", g.num_leaves));
  AppendKv(out, p + ".learning_rate", g.learning_rate);
  AppendKv(out, p + ".max_bins", StrFormat("%d", g.max_bins));
  AppendKv(out, p + ".min_data_in_leaf", StrFormat("%d", g.min_data_in_leaf));
  AppendKv(out, p + ".lambda", g.lambda);
  AppendKv(out, p + ".min_gain", g.min_gain);
  AppendKv(out, p + ".subsample", g.subsample);
  AppendKv(out, p + ".feature_fraction", g.feature_fraction);
  AppendKv(out, p + ".seed", StrFormat("%lld", static_cast<long long>(g.seed)));
  AppendKv(out, p + ".early_stopping_rounds", StrFormat("%d", g.early_stopping_rounds));
  AppendKv(out, p + ".validation_fraction", g.validation_fraction);
  AppendKv(out, p + ".objective", StrFormat("%d", static_cast<int>(g.objective)));
  AppendKv(out, p + ".quantile_alpha", g.quantile_alpha);
}

void AppendMlp(std::string* out, const std::string& p, const ml::MlpParams& m) {
  AppendKv(out, p + ".hidden", JoinInts(m.hidden));
  AppendKv(out, p + ".epochs", StrFormat("%d", m.epochs));
  AppendKv(out, p + ".batch_size", StrFormat("%d", m.batch_size));
  AppendKv(out, p + ".learning_rate", m.learning_rate);
  AppendKv(out, p + ".weight_decay", m.weight_decay);
  AppendKv(out, p + ".seed", StrFormat("%lld", static_cast<long long>(m.seed)));
  AppendKv(out, p + ".standardize", m.standardize ? "1" : "0");
}

void AppendPredictor(std::string* out, const std::string& p, const PredictorConfig& c) {
  AppendKv(out, p + ".kind", StrFormat("%d", static_cast<int>(c.kind)));
  AppendKv(out, p + ".min_samples_per_type", StrFormat("%d", c.min_samples_per_type));
  AppendKv(out, p + ".batch_inference", kBatchInferenceLine);
  AppendKv(out, p + ".features.query_optimizer", c.features.query_optimizer ? "1" : "0");
  AppendKv(out, p + ".features.historic", c.features.historic ? "1" : "0");
  AppendKv(out, p + ".features.text", c.features.text ? "1" : "0");
  AppendKv(out, p + ".features.stage_type_id", c.features.stage_type_id ? "1" : "0");
  AppendKv(out, p + ".features.text_dims", StrFormat("%zu", c.features.text_dims));
  AppendGbdt(out, p + ".gbdt", c.gbdt);
  AppendMlp(out, p + ".mlp", c.mlp);
}

std::string SerializeConfig(const PipelineConfig& cfg) {
  std::string out;
  AppendKv(&out, "delta", cfg.delta);
  AppendPredictor(&out, "exec", cfg.exec_predictor);
  AppendPredictor(&out, "size", cfg.size_predictor);
  AppendGbdt(&out, "ttl.gbdt", cfg.ttl.gbdt);
  AppendKv(&out, "ttl.min_samples_per_type",
           StrFormat("%d", cfg.ttl.min_samples_per_type));
  AppendKv(&out, "ttl.batch_inference", kBatchInferenceLine);
  return out;
}

/// Key/value view of a parsed config section with strict typed getters.
/// Tracks which keys were consumed so leftovers are rejected.
class ConfigMap {
 public:
  static Result<ConfigMap> Parse(const std::string& text) {
    ConfigMap m;
    for (const std::string& line : Split(text, '\n')) {
      if (line.empty()) continue;
      size_t sp = line.find(' ');
      if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
        return Status::InvalidArgument("bundle config: malformed line '" + line + "'");
      }
      std::string key = line.substr(0, sp);
      std::string value = line.substr(sp + 1);
      if (!m.kv_.emplace(std::move(key), std::move(value)).second) {
        return Status::InvalidArgument("bundle config: duplicate key in '" + line + "'");
      }
    }
    return m;
  }

  Result<std::string> Raw(const std::string& key) {
    auto it = kv_.find(key);
    if (it == kv_.end()) {
      return Status::InvalidArgument("bundle config: missing key '" + key + "'");
    }
    used_.insert(key);
    return it->second;
  }

  Result<int> Int(const std::string& key) {
    PHOEBE_ASSIGN_OR_RETURN(std::string raw, Raw(key));
    int32_t v = 0;
    if (!ParseInt32(raw, &v).ok()) {
      return Status::InvalidArgument("bundle config: bad int for '" + key + "'");
    }
    return static_cast<int>(v);
  }

  Result<uint64_t> Seed(const std::string& key) {
    PHOEBE_ASSIGN_OR_RETURN(std::string raw, Raw(key));
    int64_t v = 0;
    if (!ParseInt64(raw, &v).ok() || v < 0) {
      return Status::InvalidArgument("bundle config: bad seed for '" + key + "'");
    }
    return static_cast<uint64_t>(v);
  }

  Result<double> Double(const std::string& key) {
    PHOEBE_ASSIGN_OR_RETURN(std::string raw, Raw(key));
    double v = 0.0;
    if (!ParseFiniteDouble(raw, &v).ok()) {
      return Status::InvalidArgument("bundle config: bad double for '" + key + "'");
    }
    return v;
  }

  Result<bool> Bool(const std::string& key) {
    PHOEBE_ASSIGN_OR_RETURN(int v, Int(key));
    if (v != 0 && v != 1) {
      return Status::InvalidArgument("bundle config: bad bool for '" + key + "'");
    }
    return v == 1;
  }

  Status CheckAllUsed() const {
    for (const auto& [key, value] : kv_) {
      if (!used_.count(key)) {
        return Status::InvalidArgument("bundle config: unknown key '" + key + "'");
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> kv_;
  std::set<std::string> used_;
};

Status ParseGbdt(ConfigMap& m, const std::string& p, ml::GbdtParams* g) {
  PHOEBE_ASSIGN_OR_RETURN(g->num_trees, m.Int(p + ".num_trees"));
  PHOEBE_ASSIGN_OR_RETURN(g->num_leaves, m.Int(p + ".num_leaves"));
  PHOEBE_ASSIGN_OR_RETURN(g->learning_rate, m.Double(p + ".learning_rate"));
  PHOEBE_ASSIGN_OR_RETURN(g->max_bins, m.Int(p + ".max_bins"));
  PHOEBE_ASSIGN_OR_RETURN(g->min_data_in_leaf, m.Int(p + ".min_data_in_leaf"));
  PHOEBE_ASSIGN_OR_RETURN(g->lambda, m.Double(p + ".lambda"));
  PHOEBE_ASSIGN_OR_RETURN(g->min_gain, m.Double(p + ".min_gain"));
  PHOEBE_ASSIGN_OR_RETURN(g->subsample, m.Double(p + ".subsample"));
  PHOEBE_ASSIGN_OR_RETURN(g->feature_fraction, m.Double(p + ".feature_fraction"));
  PHOEBE_ASSIGN_OR_RETURN(g->seed, m.Seed(p + ".seed"));
  PHOEBE_ASSIGN_OR_RETURN(g->early_stopping_rounds, m.Int(p + ".early_stopping_rounds"));
  PHOEBE_ASSIGN_OR_RETURN(g->validation_fraction, m.Double(p + ".validation_fraction"));
  PHOEBE_ASSIGN_OR_RETURN(int objective, m.Int(p + ".objective"));
  if (objective < 0 || objective > static_cast<int>(ml::GbdtObjective::kQuantile)) {
    return Status::InvalidArgument("bundle config: bad gbdt objective");
  }
  g->objective = static_cast<ml::GbdtObjective>(objective);
  PHOEBE_ASSIGN_OR_RETURN(g->quantile_alpha, m.Double(p + ".quantile_alpha"));
  return Status::OK();
}

Status ParseMlp(ConfigMap& m, const std::string& p, ml::MlpParams* out) {
  PHOEBE_ASSIGN_OR_RETURN(std::string hidden, m.Raw(p + ".hidden"));
  out->hidden.clear();
  if (hidden != "-") {
    for (const std::string& piece : Split(hidden, ',')) {
      int32_t width = 0;
      if (!ParseInt32(piece, &width).ok() || width <= 0) {
        return Status::InvalidArgument("bundle config: bad mlp hidden widths");
      }
      out->hidden.push_back(width);
    }
  }
  PHOEBE_ASSIGN_OR_RETURN(out->epochs, m.Int(p + ".epochs"));
  PHOEBE_ASSIGN_OR_RETURN(out->batch_size, m.Int(p + ".batch_size"));
  PHOEBE_ASSIGN_OR_RETURN(out->learning_rate, m.Double(p + ".learning_rate"));
  PHOEBE_ASSIGN_OR_RETURN(out->weight_decay, m.Double(p + ".weight_decay"));
  PHOEBE_ASSIGN_OR_RETURN(out->seed, m.Seed(p + ".seed"));
  PHOEBE_ASSIGN_OR_RETURN(out->standardize, m.Bool(p + ".standardize"));
  return Status::OK();
}

Status ParsePredictor(ConfigMap& m, const std::string& p, PredictorConfig* c) {
  PHOEBE_ASSIGN_OR_RETURN(int kind, m.Int(p + ".kind"));
  if (kind < 0 || kind > static_cast<int>(ModelKind::kMlpGeneral)) {
    return Status::InvalidArgument("bundle config: bad model kind");
  }
  c->kind = static_cast<ModelKind>(kind);
  PHOEBE_ASSIGN_OR_RETURN(c->min_samples_per_type, m.Int(p + ".min_samples_per_type"));
  PHOEBE_RETURN_NOT_OK(m.Bool(p + ".batch_inference").status());
  PHOEBE_ASSIGN_OR_RETURN(c->features.query_optimizer,
                          m.Bool(p + ".features.query_optimizer"));
  PHOEBE_ASSIGN_OR_RETURN(c->features.historic, m.Bool(p + ".features.historic"));
  PHOEBE_ASSIGN_OR_RETURN(c->features.text, m.Bool(p + ".features.text"));
  PHOEBE_ASSIGN_OR_RETURN(c->features.stage_type_id,
                          m.Bool(p + ".features.stage_type_id"));
  PHOEBE_ASSIGN_OR_RETURN(int text_dims, m.Int(p + ".features.text_dims"));
  if (text_dims < 1) return Status::InvalidArgument("bundle config: bad text_dims");
  c->features.text_dims = static_cast<size_t>(text_dims);
  PHOEBE_RETURN_NOT_OK(ParseGbdt(m, p + ".gbdt", &c->gbdt));
  PHOEBE_RETURN_NOT_OK(ParseMlp(m, p + ".mlp", &c->mlp));
  return Status::OK();
}

Result<PipelineConfig> ParseConfig(const std::string& text) {
  PHOEBE_ASSIGN_OR_RETURN(ConfigMap m, ConfigMap::Parse(text));
  PipelineConfig cfg;
  PHOEBE_ASSIGN_OR_RETURN(cfg.delta, m.Double("delta"));
  PHOEBE_RETURN_NOT_OK(ParsePredictor(m, "exec", &cfg.exec_predictor));
  PHOEBE_RETURN_NOT_OK(ParsePredictor(m, "size", &cfg.size_predictor));
  PHOEBE_RETURN_NOT_OK(ParseGbdt(m, "ttl.gbdt", &cfg.ttl.gbdt));
  PHOEBE_ASSIGN_OR_RETURN(cfg.ttl.min_samples_per_type,
                          m.Int("ttl.min_samples_per_type"));
  PHOEBE_RETURN_NOT_OK(m.Bool("ttl.batch_inference").status());
  PHOEBE_RETURN_NOT_OK(m.CheckAllUsed());
  return cfg;
}

// ---------------------------------------------------------------------------
// Byte-length-framed section reader over the raw file text.
// ---------------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= text_.size(); }

  /// Next line without its newline. Fails at end of input.
  Result<std::string> ReadLine() {
    if (AtEnd()) return Status::InvalidArgument("bundle: unexpected end of file");
    size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      return Status::InvalidArgument("bundle: missing newline (truncated file)");
    }
    std::string line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  /// Exactly `n` payload bytes followed by one separator newline.
  Result<std::string> ReadBytes(size_t n) {
    if (n > text_.size() - pos_) {
      return Status::InvalidArgument("bundle: section length exceeds file size");
    }
    std::string payload = text_.substr(pos_, n);
    pos_ += n;
    if (AtEnd() || text_[pos_] != '\n') {
      return Status::InvalidArgument("bundle: section not newline-terminated");
    }
    ++pos_;
    return payload;
  }

  /// A `section <name> <nbytes>` header + its payload.
  Result<std::string> ReadSection(const std::string& name) {
    PHOEBE_ASSIGN_OR_RETURN(std::string header, ReadLine());
    std::vector<std::string> pieces = Split(header, ' ');
    int64_t n = 0;
    if (pieces.size() != 3 || pieces[0] != "section" || pieces[1] != name ||
        !ParseInt64(pieces[2], &n).ok() || n < 0) {
      return Status::InvalidArgument("bundle: expected 'section " + name +
                                     " <nbytes>', got '" + header + "'");
    }
    return ReadBytes(static_cast<size_t>(n));
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

void AppendSection(std::string* out, const std::string& name,
                   const std::string& payload) {
  *out += StrFormat("section %s %zu\n", name.c_str(), payload.size());
  *out += payload;
  *out += '\n';
}

// Atomic publish: write to a sibling temp file, then rename over the target.
// Concurrent readers (a serve daemon reloading on SIGHUP, a lifecycle run
// promoting into the same path the daemon watches) see either the old bundle
// or the new one, never a half-written file.
Status WriteFile(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    if (!f) return Status::IoError("cannot open for write: " + tmp);
    f << content;
    if (!f.good()) return Status::IoError("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

}  // namespace

PipelineBundle::PipelineBundle(PipelineConfig config) : config_(std::move(config)) {
  exec_ = std::make_unique<StageCostPredictor>(config_.exec_predictor,
                                               Target::kExecSeconds);
  size_ = std::make_unique<StageCostPredictor>(config_.size_predictor,
                                               Target::kOutputBytes);
  ttl_ = std::make_unique<TtlEstimator>(config_.ttl);
}

PipelineBundle::PipelineBundle(PipelineConfig config,
                               std::unique_ptr<StageCostPredictor> exec,
                               std::unique_ptr<StageCostPredictor> size,
                               std::unique_ptr<TtlEstimator> ttl,
                               telemetry::HistoricStats stats)
    : config_(std::move(config)),
      exec_(std::move(exec)),
      size_(std::move(size)),
      ttl_(std::move(ttl)),
      stats_(std::move(stats)),
      trained_(true) {
  PHOEBE_CHECK(exec_ && size_ && ttl_);
  PHOEBE_CHECK(exec_->trained() && size_->trained() && ttl_->trained());
  // The payload is everything the checksum line guards; computing it here
  // makes checksum() a stable identity for "this trained state" that shard
  // blobs can embed without ever writing the bundle to disk.
  std::string payload;
  AppendSection(&payload, "config", SerializeConfig(config_));
  AppendSection(&payload, "exec", exec_->ToText());
  AppendSection(&payload, "size", size_->ToText());
  AppendSection(&payload, "ttl", ttl_->ToText());
  AppendSection(&payload, "stats", stats_.ToText());
  payload += "end_bundle\n";
  checksum_ = Crc32(payload);
}

Result<std::string> PipelineBundle::ToText() const {
  if (!trained_) {
    return Status::FailedPrecondition("cannot serialize an untrained bundle");
  }
  std::string payload;
  AppendSection(&payload, "config", SerializeConfig(config_));
  AppendSection(&payload, "exec", exec_->ToText());
  AppendSection(&payload, "size", size_->ToText());
  AppendSection(&payload, "ttl", ttl_->ToText());
  AppendSection(&payload, "stats", stats_.ToText());
  payload += "end_bundle\n";

  std::string out = StrFormat("%s %d\n", kMagic, kFormatVersion);
  out += StrFormat("checksum %08x\n", Crc32(payload));
  out += payload;
  return out;
}

Result<std::shared_ptr<const PipelineBundle>> PipelineBundle::FromText(
    const std::string& text) {
  Reader r(text);

  PHOEBE_ASSIGN_OR_RETURN(std::string magic_line, r.ReadLine());
  {
    std::vector<std::string> pieces = Split(magic_line, ' ');
    if (pieces.size() != 2 || pieces[0] != kMagic) {
      return Status::InvalidArgument("not a phoebe bundle (bad magic)");
    }
    int32_t version = 0;
    if (!ParseInt32(pieces[1], &version).ok()) {
      return Status::InvalidArgument("bundle: malformed format version");
    }
    if (version != kFormatVersion) {
      return Status::InvalidArgument(
          StrFormat("unsupported bundle format version %d (expected %d)", version,
                    kFormatVersion));
    }
  }

  PHOEBE_ASSIGN_OR_RETURN(std::string checksum_line, r.ReadLine());
  {
    std::vector<std::string> pieces = Split(checksum_line, ' ');
    uint32_t stored = 0;
    if (pieces.size() != 2 || pieces[0] != "checksum" ||
        !ParseHexU32(pieces[1], &stored).ok()) {
      return Status::InvalidArgument("bundle: malformed checksum line");
    }
    uint32_t actual = Crc32(text.data() + r.pos(), text.size() - r.pos());
    if (actual != stored) {
      return Status::InvalidArgument(
          StrFormat("bundle checksum mismatch: stored %08x, computed %08x "
                    "(corrupt or truncated file)",
                    stored, actual));
    }
  }

  PHOEBE_ASSIGN_OR_RETURN(std::string config_text, r.ReadSection("config"));
  PHOEBE_ASSIGN_OR_RETURN(PipelineConfig config, ParseConfig(config_text));

  auto exec = std::make_unique<StageCostPredictor>(config.exec_predictor,
                                                   Target::kExecSeconds);
  auto size = std::make_unique<StageCostPredictor>(config.size_predictor,
                                                   Target::kOutputBytes);
  auto ttl = std::make_unique<TtlEstimator>(config.ttl);

  PHOEBE_ASSIGN_OR_RETURN(std::string exec_text, r.ReadSection("exec"));
  PHOEBE_RETURN_NOT_OK(exec->LoadFromText(exec_text));
  PHOEBE_ASSIGN_OR_RETURN(std::string size_text, r.ReadSection("size"));
  PHOEBE_RETURN_NOT_OK(size->LoadFromText(size_text));
  PHOEBE_ASSIGN_OR_RETURN(std::string ttl_text, r.ReadSection("ttl"));
  PHOEBE_RETURN_NOT_OK(ttl->LoadFromText(ttl_text));
  PHOEBE_ASSIGN_OR_RETURN(std::string stats_text, r.ReadSection("stats"));
  PHOEBE_ASSIGN_OR_RETURN(telemetry::HistoricStats stats,
                          telemetry::HistoricStats::FromText(stats_text));

  PHOEBE_ASSIGN_OR_RETURN(std::string trailer, r.ReadLine());
  if (trailer != "end_bundle") {
    return Status::InvalidArgument("bundle: missing end_bundle trailer");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("bundle: trailing bytes after end_bundle");
  }

  return std::shared_ptr<const PipelineBundle>(
      new PipelineBundle(std::move(config), std::move(exec), std::move(size),
                         std::move(ttl), std::move(stats)));
}

Status PipelineBundle::SaveToFile(const std::string& path,
                                  obs::MetricsRegistry* metrics) const {
  obs::ScopedTimer timer(
      metrics != nullptr ? metrics->histogram("bundle.save.seconds") : nullptr);
  PHOEBE_ASSIGN_OR_RETURN(std::string text, ToText());
  if (metrics != nullptr) {
    metrics->gauge("bundle.file.bytes")->Set(static_cast<double>(text.size()));
  }
  return WriteFile(path, text);
}

Result<std::shared_ptr<const PipelineBundle>> PipelineBundle::LoadFromFile(
    const std::string& path, obs::MetricsRegistry* metrics) {
  obs::ScopedTimer timer(
      metrics != nullptr ? metrics->histogram("bundle.load.seconds") : nullptr);
  PHOEBE_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(path));
  if (metrics != nullptr) {
    metrics->gauge("bundle.file.bytes")->Set(static_cast<double>(text.size()));
  }
  return FromText(text);
}

}  // namespace phoebe::core
