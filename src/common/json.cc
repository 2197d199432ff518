#include "common/json.h"

#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "common/strings.h"

namespace phoebe {

void JsonWriter::MaybeComma() {
  if (stack_.empty()) return;
  if (pending_key_) return;  // value directly follows its key
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

void JsonWriter::Escape(const std::string& s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  pending_key_ = false;
  out_ += '{';
  stack_.push_back(Scope::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  PHOEBE_CHECK(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_);
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  pending_key_ = false;
  out_ += '[';
  stack_.push_back(Scope::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  PHOEBE_CHECK(!stack_.empty() && stack_.back() == Scope::kArray && !pending_key_);
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& k) {
  PHOEBE_CHECK(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_);
  MaybeComma();
  Escape(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  MaybeComma();
  pending_key_ = false;
  Escape(v);
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) { return Value(std::string(v)); }

JsonWriter& JsonWriter::Value(double v) {
  MaybeComma();
  pending_key_ = false;
  if (std::isfinite(v)) {
    AppendDouble(&out_, v);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  MaybeComma();
  pending_key_ = false;
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  MaybeComma();
  pending_key_ = false;
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  pending_key_ = false;
  out_ += "null";
  return *this;
}

}  // namespace phoebe
