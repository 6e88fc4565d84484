#include "obs/report.h"

#include <algorithm>
#include <cstdio>

namespace dtfe::obs {

namespace {
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && written == body.size();
}

void append_metrics_object(std::string& out, const MetricsSnapshot& m) {
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : m.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_number(out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : m.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_number(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : m.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      append_number(out, h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      append_number(out, h.counts[i]);
    }
    out += "],\"sum\":";
    append_number(out, h.sum);
    out += ",\"count\":";
    append_number(out, h.count);
    out += '}';
  }
  out += "}}";
}
}  // namespace

RunReport::RankRow& RunReport::row_for(int rank) {
  for (RankRow& r : ranks_)
    if (r.rank == rank) return r;
  RankRow row;
  row.rank = rank;
  ranks_.push_back(std::move(row));
  return ranks_.back();
}

void RunReport::add_rank_values(
    int rank, std::vector<std::pair<std::string, double>> values) {
  RankRow& row = row_for(rank);
  for (auto& kv : values) row.values.push_back(std::move(kv));
}

void RunReport::add_rank_tags(
    int rank, std::vector<std::pair<std::string, std::string>> tags) {
  RankRow& row = row_for(rank);
  for (auto& kv : tags) row.tags.push_back(std::move(kv));
}

void RunReport::add_summary(std::string key, double value) {
  summary_.emplace_back(std::move(key), value);
}

std::string RunReport::to_json() const {
  std::vector<RankRow> ranks = ranks_;
  std::stable_sort(ranks.begin(), ranks.end(),
                   [](const RankRow& a, const RankRow& b) {
                     return a.rank < b.rank;
                   });
  std::string out = "{";
  out += "\"summary\":{";
  bool first = true;
  for (const auto& [k, v] : summary_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_number(out, v);
  }
  out += "},\"ranks\":[";
  first = true;
  for (const RankRow& r : ranks) {
    if (!first) out += ',';
    first = false;
    out += "{\"rank\":";
    out += std::to_string(r.rank);
    for (const auto& [k, v] : r.values) {
      out += ',';
      append_json_string(out, k);
      out += ':';
      append_number(out, v);
    }
    if (!r.tags.empty()) {
      out += ",\"tags\":{";
      bool first_tag = true;
      for (const auto& [k, v] : r.tags) {
        if (!first_tag) out += ',';
        first_tag = false;
        append_json_string(out, k);
        out += ':';
        append_json_string(out, v);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"metrics\":";
  append_metrics_object(out, metrics_);
  out += '}';
  return out;
}

std::string metrics_to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  append_metrics_object(out, snapshot);
  return out;
}

bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot) {
  return write_file(path, metrics_to_json(snapshot));
}

std::string RunReport::to_csv() const {
  std::vector<RankRow> ranks = ranks_;
  std::stable_sort(ranks.begin(), ranks.end(),
                   [](const RankRow& a, const RankRow& b) {
                     return a.rank < b.rank;
                   });
  std::string out = "kind,rank,name,value\n";
  const auto row = [&out](const char* kind, const std::string& rank,
                          const std::string& name, double v) {
    out += kind;
    out += ',';
    out += rank;
    out += ',';
    out += name;
    out += ',';
    append_number(out, v);
    out += '\n';
  };
  for (const auto& [k, v] : summary_) row("summary", "", k, v);
  for (const RankRow& r : ranks)
    for (const auto& [k, v] : r.values)
      row("phase", std::to_string(r.rank), k, v);
  for (const RankRow& r : ranks)
    for (const auto& [k, v] : r.tags) {
      // String values are quoted (error messages can contain commas).
      out += "tag,";
      out += std::to_string(r.rank);
      out += ',';
      out += k;
      out += ",\"";
      for (const char c : v) {
        if (c == '"') out += '"';
        out += c;
      }
      out += "\"\n";
    }
  for (const auto& [k, v] : metrics_.counters) row("counter", "", k, v);
  for (const auto& [k, v] : metrics_.gauges) row("gauge", "", k, v);
  for (const auto& [name, h] : metrics_.histograms) {
    row("histogram_sum", "", name, h.sum);
    row("histogram_count", "", name, h.count);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      const std::string label =
          name + (b < h.bounds.size()
                      ? "_le_" + std::to_string(h.bounds[b])
                      : "_overflow");
      row("histogram_bucket", "", label, h.counts[b]);
    }
  }
  return out;
}

bool RunReport::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

bool RunReport::write_csv(const std::string& path) const {
  return write_file(path, to_csv());
}

}  // namespace dtfe::obs
