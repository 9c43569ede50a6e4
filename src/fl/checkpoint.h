// Checkpointing and result export.
//
//  - save/load of flat parameter vectors as wire containers (the versioned
//    FTWIRE format of docs/WIRE_FORMAT.md — the same byte format payloads
//    use) so long experiments can resume and final models can be shipped;
//  - CSV export of per-round histories for external plotting (the Fig 5/6/7
//    series).
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "fl/types.h"

namespace fedtrip::fl {

/// Writes a parameter vector to `path` as an FTWIRE container with one
/// checkpoint record. Throws std::runtime_error on I/O failure.
void save_parameters(const std::string& path, const std::vector<float>& params);

/// Reads a parameter vector written by save_parameters. Throws
/// std::runtime_error on I/O failure or format mismatch.
std::vector<float> load_parameters_file(const std::string& path);

/// Streaming CSV export of per-round histories: opens `path` and writes the
/// header immediately, then one row per append(), flushed as it goes — the
/// file is valid CSV after every round, and memory stays O(1) in round
/// count. Feed it to Simulation::set_round_sink for long runs:
///
///   HistoryCsvWriter csv("history.csv");
///   sim.set_round_sink([&](const fl::RoundRecord& r) { csv.append(r); });
///
/// A file written row-by-row is byte-identical to save_history_csv over the
/// same records (that function is implemented on this class).
class HistoryCsvWriter {
 public:
  /// Opens `path` and writes the header. Throws std::runtime_error when the
  /// file cannot be opened.
  explicit HistoryCsvWriter(const std::string& path);

  /// Appends one row and flushes it. Throws std::runtime_error on a failed
  /// write.
  void append(const RoundRecord& rec);

  std::size_t rows() const { return rows_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::size_t rows_ = 0;
};

/// Writes a per-round history as CSV with a header row:
/// round,test_accuracy,train_loss,cum_gflops,cum_comm_mb,cum_mb_down,
/// cum_mb_up,cum_comm_seconds,mean_staleness,max_staleness,dropped,
/// unavailable,deadline_deferred,mean_compute_s,mean_comm_s
void save_history_csv(const std::string& path,
                      const std::vector<RoundRecord>& history);

/// Parses a CSV produced by save_history_csv, non-finite values (nan,
/// -nan, inf, -inf) included. Every row must carry exactly the 15 columns;
/// a shorter, longer or malformed row throws std::runtime_error.
std::vector<RoundRecord> load_history_csv(const std::string& path);

}  // namespace fedtrip::fl
