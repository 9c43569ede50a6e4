#include "fl/checkpoint.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wire/container.h"

namespace fedtrip::fl {

void save_parameters(const std::string& path,
                     const std::vector<float>& params) {
  wire::Record rec{wire::RecordType::kCheckpoint, 0,
                   wire::serialize_params(params)};
  wire::write_container_file(path, {rec});
}

std::vector<float> load_parameters_file(const std::string& path) {
  const auto buf = wire::read_file(path);
  try {
    for (const auto& rec : wire::read_container(buf.data(), buf.size())) {
      if (rec.type == wire::RecordType::kCheckpoint) {
        return wire::deserialize_params(rec.bytes.data(), rec.bytes.size());
      }
    }
  } catch (const wire::WireError& e) {
    throw std::runtime_error("bad checkpoint " + path + ": " + e.what());
  }
  throw std::runtime_error("no checkpoint record in " + path);
}

HistoryCsvWriter::HistoryCsvWriter(const std::string& path)
    : out_(path), path_(path) {
  if (!out_) throw std::runtime_error("cannot open for write: " + path);
  out_.precision(17);  // lossless double round-trip
  out_ << "round,test_accuracy,train_loss,cum_gflops,cum_comm_mb,"
          "cum_mb_down,cum_mb_up,cum_comm_seconds,mean_staleness,"
          "max_staleness,dropped,unavailable,deadline_deferred,"
          "mean_compute_s,mean_comm_s\n";
  if (!out_) throw std::runtime_error("write failed: " + path);
}

void HistoryCsvWriter::append(const RoundRecord& r) {
  out_ << r.round << ',' << r.test_accuracy << ',' << r.train_loss << ','
       << r.cum_gflops << ',' << r.cum_comm_mb << ',' << r.cum_mb_down
       << ',' << r.cum_mb_up << ',' << r.cum_comm_seconds << ','
       << r.mean_staleness << ',' << r.max_staleness << ',' << r.dropped
       << ',' << r.unavailable << ',' << r.deadline_deferred << ','
       << r.mean_compute_seconds << ',' << r.mean_comm_seconds << '\n';
  out_.flush();
  if (!out_) throw std::runtime_error("write failed: " + path_);
  ++rows_;
}

void save_history_csv(const std::string& path,
                      const std::vector<RoundRecord>& history) {
  HistoryCsvWriter csv(path);
  for (const auto& r : history) csv.append(r);
}

std::vector<RoundRecord> load_history_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  std::vector<RoundRecord> history;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    RoundRecord r;
    char comma;
    // Every row carries all 15 columns of the header.
    ss >> r.round >> comma >> r.test_accuracy >> comma >> r.train_loss >>
        comma >> r.cum_gflops >> comma >> r.cum_comm_mb >> comma >>
        r.cum_mb_down >> comma >> r.cum_mb_up >> comma >>
        r.cum_comm_seconds >> comma >> r.mean_staleness >> comma >>
        r.max_staleness >> comma >> r.dropped >> comma >> r.unavailable >>
        comma >> r.deadline_deferred >> comma >> r.mean_compute_seconds >>
        comma >> r.mean_comm_seconds;
    if (ss.fail()) throw std::runtime_error("bad CSV row: " + line);
    history.push_back(r);
  }
  return history;
}

}  // namespace fedtrip::fl
