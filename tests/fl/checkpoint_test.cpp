#include "fl/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "wire/container.h"

namespace fedtrip::fl {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  std::string temp(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(CheckpointTest, ParamsRoundTrip) {
  const std::string path = temp("params.bin");
  std::vector<float> params{1.0f, -2.5f, 3.25f, 0.0f};
  save_parameters(path, params);
  EXPECT_EQ(load_parameters_file(path), params);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, EmptyParamsRoundTrip) {
  const std::string path = temp("empty.bin");
  save_parameters(path, {});
  EXPECT_TRUE(load_parameters_file(path).empty());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LargeParamsRoundTrip) {
  const std::string path = temp("large.bin");
  std::vector<float> params(100'000);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = static_cast<float>(i) * 0.001f;
  }
  save_parameters(path, params);
  EXPECT_EQ(load_parameters_file(path), params);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, WritesWireContainerFormat) {
  // Checkpoints are FTWIRE containers (docs/WIRE_FORMAT.md) with one
  // checkpoint record — the same byte format payloads use.
  const std::string path = temp("wirefmt.bin");
  save_parameters(path, {1.0f, 2.0f});
  const auto buf = wire::read_file(path);
  ASSERT_TRUE(wire::is_container(buf.data(), buf.size()));
  const auto records = wire::read_container(buf.data(), buf.size());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, wire::RecordType::kCheckpoint);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, PreWireFormatIsRejected) {
  // FTWIRE is the only checkpoint format: a file in the pre-wire layout
  // (magic FEDTRIP1, host-endian u64 count, raw floats) is a bad
  // checkpoint like any other non-FTWIRE file.
  const std::string path = temp("fedtrip1_ckpt.bin");
  const std::vector<float> params{0.5f, -1.5f, 2.0f};
  {
    std::ofstream out(path, std::ios::binary);
    const char magic[8] = {'F', 'E', 'D', 'T', 'R', 'I', 'P', '1'};
    out.write(magic, sizeof(magic));
    const std::uint64_t n = params.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(params.data()),
              static_cast<std::streamsize>(params.size() * sizeof(float)));
  }
  try {
    load_parameters_file(path);
    ADD_FAILURE() << "a FEDTRIP1 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad checkpoint " + path),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ContainerWithoutCheckpointRecordThrows) {
  const std::string path = temp("nockpt.bin");
  wire::write_container_file(path, {{wire::RecordType::kPayload, 0, {}}});
  EXPECT_THROW(load_parameters_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW(load_parameters_file(temp("nonexistent.bin")),
               std::runtime_error);
}

TEST_F(CheckpointTest, BadMagicThrows) {
  const std::string path = temp("garbage.bin");
  std::ofstream(path) << "this is not a checkpoint";
  EXPECT_THROW(load_parameters_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TruncatedFileThrows) {
  const std::string path = temp("trunc.bin");
  save_parameters(path, std::vector<float>(100, 1.0f));
  // Truncate mid-payload.
  std::ofstream out(path, std::ios::binary | std::ios::in);
  out.seekp(50);
  out.close();
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(0, std::ios::end);
  }
  std::ofstream trunc(temp("trunc2.bin"), std::ios::binary);
  std::ifstream src(path, std::ios::binary);
  std::vector<char> buf(60);
  src.read(buf.data(), 60);
  trunc.write(buf.data(), 60);
  trunc.close();
  EXPECT_THROW(load_parameters_file(temp("trunc2.bin")), std::runtime_error);
  std::remove(path.c_str());
  std::remove(temp("trunc2.bin").c_str());
}

TEST_F(CheckpointTest, HistoryCsvRoundTrip) {
  const std::string path = temp("hist.csv");
  std::vector<RoundRecord> history;
  for (std::size_t t = 1; t <= 5; ++t) {
    RoundRecord r;
    r.round = t;
    r.test_accuracy = 0.1 * static_cast<double>(t);
    r.train_loss = 2.0 / static_cast<double>(t);
    r.cum_gflops = 1.5 * static_cast<double>(t);
    r.cum_comm_mb = 4.0 * static_cast<double>(t);
    r.cum_mb_down = 2.5 * static_cast<double>(t);
    r.cum_mb_up = 1.5 * static_cast<double>(t);
    r.cum_comm_seconds = 0.25 * static_cast<double>(t);
    r.mean_staleness = 0.5 * static_cast<double>(t);
    r.max_staleness = t;
    r.dropped = 2 * t;
    r.unavailable = 3 * t;
    r.deadline_deferred = t % 3;
    r.mean_compute_seconds = 0.125 * static_cast<double>(t);
    r.mean_comm_seconds = 0.0625 * static_cast<double>(t);
    history.push_back(r);
  }
  save_history_csv(path, history);
  auto loaded = load_history_csv(path);
  ASSERT_EQ(loaded.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(loaded[i].round, history[i].round);
    EXPECT_NEAR(loaded[i].test_accuracy, history[i].test_accuracy, 1e-9);
    EXPECT_NEAR(loaded[i].train_loss, history[i].train_loss, 1e-9);
    EXPECT_NEAR(loaded[i].cum_gflops, history[i].cum_gflops, 1e-9);
    EXPECT_NEAR(loaded[i].cum_comm_mb, history[i].cum_comm_mb, 1e-9);
    EXPECT_NEAR(loaded[i].cum_mb_down, history[i].cum_mb_down, 1e-9);
    EXPECT_NEAR(loaded[i].cum_mb_up, history[i].cum_mb_up, 1e-9);
    EXPECT_NEAR(loaded[i].cum_comm_seconds, history[i].cum_comm_seconds,
                1e-9);
    EXPECT_NEAR(loaded[i].mean_staleness, history[i].mean_staleness, 1e-9);
    EXPECT_EQ(loaded[i].max_staleness, history[i].max_staleness);
    EXPECT_EQ(loaded[i].dropped, history[i].dropped);
    EXPECT_EQ(loaded[i].unavailable, history[i].unavailable);
    EXPECT_EQ(loaded[i].deadline_deferred, history[i].deadline_deferred);
    EXPECT_NEAR(loaded[i].mean_compute_seconds,
                history[i].mean_compute_seconds, 1e-9);
    EXPECT_NEAR(loaded[i].mean_comm_seconds, history[i].mean_comm_seconds,
                1e-9);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, EmptyHistoryCsv) {
  const std::string path = temp("empty.csv");
  save_history_csv(path, {});
  EXPECT_TRUE(load_history_csv(path).empty());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CsvHeaderIsStable) {
  // The exact header is the documented RoundRecord CSV schema
  // (docs/EXPERIMENTS.md); external plotting scripts key on these names.
  // Appending columns is fine (update this string and the doc together);
  // renaming or reordering existing ones is a breaking change.
  const std::string path = temp("header.csv");
  save_history_csv(path, {});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "round,test_accuracy,train_loss,cum_gflops,cum_comm_mb,"
            "cum_mb_down,cum_mb_up,cum_comm_seconds,mean_staleness,"
            "max_staleness,dropped,unavailable,deadline_deferred,"
            "mean_compute_s,mean_comm_s");
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, EveryRowNeedsAllFifteenColumns) {
  // Rows of the 5-, 8- and 11-column layouts (before the comm, scheduler
  // and client columns) and rows cut off inside a column group are all
  // rejected: no field defaults to zero.
  const char* kHeader =
      "round,test_accuracy,train_loss,cum_gflops,cum_comm_mb,"
      "cum_mb_down,cum_mb_up,cum_comm_seconds,mean_staleness,"
      "max_staleness,dropped,unavailable,deadline_deferred,"
      "mean_compute_s,mean_comm_s\n";
  const char* kShortRows[] = {
      "3,0.5,1.25,2.5,4.5",                            // 5 columns
      "3,0.5,1.25,2.5,4.5,2.0",                        // 6
      "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75",               // 8
      "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75,1.5,2",         // 10
      "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75,1.5,2,4",       // 11
      "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75,1.5,2,4,1,2",   // 13
      "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75,1.5,2,4,1,2,3"  // 14
  };
  const std::string path = temp("short_rows.csv");
  for (const char* row : kShortRows) {
    std::ofstream(path) << kHeader << row << "\n";
    EXPECT_THROW(load_history_csv(path), std::runtime_error) << row;
  }
  std::ofstream(path) << kHeader
                      << "3,0.5,1.25,2.5,4.5,2.0,2.5,0.75,1.5,2,4,1,2,3,4\n";
  ASSERT_EQ(load_history_csv(path).size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedtrip::fl
