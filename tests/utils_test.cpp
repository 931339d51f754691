// Tests for the utility layer: thread pool semantics, CLI parsing, table
// rendering, formatting helpers, logging levels.

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "utils/cli.hpp"
#include "utils/logging.hpp"
#include "utils/stopwatch.hpp"
#include "utils/table.hpp"
#include "utils/thread_pool.hpp"

namespace fedkemf::utils {
namespace {

TEST(ThreadPool, InlineModeRunsEverything) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, [&](std::size_t i) { hits[i] = static_cast<int>(i) + 1; });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(hits[i], i + 1);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "should not be called"; });
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ResultsIndependentOfPoolSize) {
  // Sum of i*i computed with different pool sizes must agree — this is the
  // determinism contract the FL simulator relies on.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<long> partial(100, 0);
    pool.parallel_for(100, [&](std::size_t i) { partial[i] = static_cast<long>(i * i); });
    return std::accumulate(partial.begin(), partial.end(), 0L);
  };
  const long expected = run(0);
  EXPECT_EQ(run(1), expected);
  EXPECT_EQ(run(4), expected);
  EXPECT_EQ(run(9), expected);
}

TEST(Cli, ParsesAllTypes) {
  Cli cli("test", "desc");
  int i = 1;
  double d = 1.0;
  bool b = false;
  std::string s = "x";
  std::size_t z = 2;
  cli.flag("int", &i, "an int");
  cli.flag("dbl", &d, "a double");
  cli.flag("flag", &b, "a bool");
  cli.flag("str", &s, "a string");
  cli.flag("size", &z, "a size");
  const char* argv[] = {"prog", "--int", "42", "--dbl=2.5", "--flag", "--str", "hello",
                        "--size", "7"};
  std::string error;
  ASSERT_TRUE(cli.try_parse(9, argv, &error)) << error;
  EXPECT_EQ(i, 42);
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(z, 7u);
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("test", "desc");
  int i = 0;
  cli.flag("int", &i, "an int");
  const char* argv[] = {"prog", "--bogus", "1"};
  std::string error;
  EXPECT_FALSE(cli.try_parse(3, argv, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(Cli, RejectsBadValue) {
  Cli cli("test", "desc");
  int i = 0;
  cli.flag("int", &i, "an int");
  const char* argv[] = {"prog", "--int", "notanumber"};
  std::string error;
  EXPECT_FALSE(cli.try_parse(3, argv, &error));
}

TEST(Cli, RejectsMissingValue) {
  Cli cli("test", "desc");
  int i = 0;
  cli.flag("int", &i, "an int");
  const char* argv[] = {"prog", "--int"};
  std::string error;
  EXPECT_FALSE(cli.try_parse(2, argv, &error));
}

TEST(Cli, RejectsNegativeForUnsigned) {
  Cli cli("test", "desc");
  std::size_t z = 0;
  cli.flag("size", &z, "a size");
  const char* argv[] = {"prog", "--size", "-3"};
  std::string error;
  EXPECT_FALSE(cli.try_parse(3, argv, &error));
}

TEST(Cli, HelpIsReported) {
  Cli cli("test", "desc");
  const char* argv[] = {"prog", "--help"};
  std::string error;
  EXPECT_FALSE(cli.try_parse(2, argv, &error));
  EXPECT_EQ(error, "help");
  EXPECT_NE(cli.usage().find("desc"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  Table table({"A", "Bee"});
  table.row().cell("x").cell(std::int64_t{42});
  table.row().cell("longer").cell(3.14159, 2);
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("| A      | Bee  |"), std::string::npos);
  EXPECT_NE(md.find("| longer | 3.14 |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table table({"name", "value"});
  table.add_row({"with,comma", "with\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthValidated) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Formatting, Bytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(2.1 * 1024 * 1024), "2.10MB");
  EXPECT_EQ(format_bytes(4.01 * 1024 * 1024 * 1024), "4.01GB");
}

TEST(Formatting, SpeedupAndPercent) {
  EXPECT_EQ(format_speedup(51.08), "51.08x");
  EXPECT_EQ(format_percent(0.6495), "64.95%");
  EXPECT_EQ(format_percent(0.65, 0), "65%");
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kInfo);
}

TEST(Logging, SetAndGetLevel) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info("test") << "suppressed at error level";  // must not crash
  set_log_level(before);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_LT(watch.seconds(), 1.0);
}

}  // namespace
}  // namespace fedkemf::utils
