// Minimal machine-readable benchmark output: each harness appends flat
// {string|number} objects to a records array and writes BENCH_<name>.json
// into the working directory, so perf trajectories can be tracked run over
// run without parsing human-oriented tables.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dvf/common/string_util.hpp"

namespace dvf::bench {

class JsonRecords {
 public:
  class Record {
   public:
    Record() { out_.precision(12); }
    Record& field(const std::string& key, const std::string& value) {
      add_key(key);
      out_ << json_escape_string(value);
      return *this;
    }
    Record& field(const std::string& key, double value) {
      add_key(key);
      out_ << value;
      return *this;
    }
    Record& field(const std::string& key, std::uint64_t value) {
      add_key(key);
      out_ << value;
      return *this;
    }
    Record& field(const std::string& key, unsigned value) {
      return field(key, static_cast<std::uint64_t>(value));
    }
    [[nodiscard]] std::string str() const { return "{" + out_.str() + "}"; }

   private:
    void add_key(const std::string& key) {
      if (!out_.str().empty()) {
        out_ << ", ";
      }
      out_ << json_escape_string(key) << ": ";
    }
    std::ostringstream out_;
  };

  void add(const Record& record) { records_.push_back(record.str()); }

  /// Attaches an observability metrics object (one line of JSON, as
  /// dvf::obs::render_metrics_json produces) to the output.
  void set_metrics(std::string metrics_json) {
    metrics_json_ = std::move(metrics_json);
  }

  /// Writes {"benchmark": <name>, "records": [...]} to BENCH_<name>.json,
  /// plus a "metrics" block when one was attached.
  void write(const std::string& name) const {
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    out << "{\n  \"benchmark\": " << json_escape_string(name)
        << ",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "    " << records_[i] << (i + 1 < records_.size() ? "," : "")
          << "\n";
    }
    out << "  ]";
    if (!metrics_json_.empty()) {
      out << ",\n  \"metrics\": " << metrics_json_;
    }
    out << "\n}\n";
    std::cout << "wrote " << path << " (" << records_.size()
              << " record(s))\n";
  }

 private:
  std::vector<std::string> records_;
  std::string metrics_json_;
};

}  // namespace dvf::bench
