#include "fl/checkpoint.h"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

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

namespace {

// The comma-separated fields of one history row, read in order. A field
// must parse whole with std::from_chars: a real accepts what the writer
// prints, nan, -nan, inf and -inf included (a NaN keeps its sign), and a
// count is digits only.
class RowReader {
 public:
  explicit RowReader(std::string_view row) : rest_(row) {}

  template <typename T>
  RowReader& operator>>(T& out) {
    if (!ok_ || done_) {
      ok_ = false;
      return *this;
    }
    const std::size_t comma = rest_.find(',');
    const std::string_view field = rest_.substr(0, comma);
    done_ = comma == std::string_view::npos;
    rest_.remove_prefix(done_ ? rest_.size() : comma + 1);
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, out);
    ok_ = !field.empty() && ec == std::errc() && ptr == end;
    return *this;
  }

  // Whether every field parsed and none is left over.
  bool complete() const { return ok_ && done_; }

 private:
  std::string_view rest_;
  bool ok_ = true;
  bool done_ = false;
};

}  // namespace

std::vector<RoundRecord> load_history_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  std::vector<RoundRecord> history;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RowReader row(line);
    RoundRecord r;
    // Every row carries all 15 columns of the header, and no more.
    row >> r.round >> r.test_accuracy >> r.train_loss >> r.cum_gflops >>
        r.cum_comm_mb >> r.cum_mb_down >> r.cum_mb_up >> r.cum_comm_seconds >>
        r.mean_staleness >> r.max_staleness >> r.dropped >> r.unavailable >>
        r.deadline_deferred >> r.mean_compute_seconds >> r.mean_comm_seconds;
    if (!row.complete()) throw std::runtime_error("bad CSV row: " + line);
    history.push_back(r);
  }
  return history;
}

}  // namespace fedtrip::fl
