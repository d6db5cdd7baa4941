#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/alloc_count.hpp"
#include "harness/trace.hpp"

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheChildrenUnion) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("a", 10, 30, 0),
      span("b", 20, 50, 0),   // overlaps a: 10..50 is covered once
      span("a.x", 12, 18, 1),
      span("c", 90, 120, 0),  // runs past the root: only 90..100 counts
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, NoChildrenMeansSelfIsTheDuration) {
  EXPECT_EQ(self_times({span("only", 5, 9, -1)}), (std::vector<std::int64_t>{4}));
}

TEST(ProbeLayer, NamesTheSeamLayers) {
  EXPECT_EQ(probe_layer("backend.perf_read"), "backend");
  EXPECT_EQ(probe_layer("pfm.read_file"), "pfm");
  EXPECT_EQ(probe_layer("transport.send"), "transport");
  EXPECT_EQ(probe_layer("papi.read"), "");
  EXPECT_EQ(probe_layer("backendless"), "");
}

TEST(Tracer, FoldsOperationsIntoAggregates) {
  Tracer tracer;
  tracer.add(Count::kHostReads);  // outside any operation
  for (int i = 0; i < 3; ++i) {
    const int root = tracer.begin("papi.read");
    const int backend = tracer.begin("backend.perf_read_group");
    tracer.add(Count::kBackendCalls);
    tracer.end(backend);
    const int host = tracer.begin("pfm.read_file");
    tracer.add(Count::kHostReads, 2);
    tracer.end(host);
    tracer.end(root);
  }
  const int region = tracer.begin("region");
  const int add = tracer.begin("papi.add_event");
  const int open = tracer.begin("backend.perf_event_open");
  tracer.end(open);
  tracer.end(add);
  tracer.end(region);
  tracer.flush();

  const OpAggregate& reads = tracer.ops().at("papi.read");
  EXPECT_EQ(reads.ops, 3u);
  EXPECT_EQ(reads.counts[Count::kBackendCalls], 3u);
  EXPECT_EQ(reads.counts[Count::kHostReads], 6u);
  ASSERT_EQ(reads.program_ns.size(), 3u);
  // Program time is the duration minus the probe spans.
  EXPECT_DOUBLE_EQ(reads.program_total_ns,
                   reads.duration_ns - reads.layer_ns.at("backend") -
                       reads.layer_ns.at("pfm"));
  EXPECT_LE(reads.program_total_ns, reads.duration_ns);

  const OpAggregate& regions = tracer.ops().at("region");
  EXPECT_TRUE(regions.probe_ns.count("backend.perf_event_open"));
  ASSERT_TRUE(tracer.children().count("papi.add_event"));
  EXPECT_EQ(tracer.children().at("papi.add_event").self_ns.size(), 1u);
  EXPECT_FALSE(tracer.children().count("backend.perf_event_open"));

  const Counts total = tracer.total_counts();
  EXPECT_EQ(total[Count::kHostReads], 7u);
}

TEST(Tracer, ChargesAllocationsToTheOpenOperation) {
  Tracer tracer;
  set_alloc_counting(true);
  // Direct calls: unlike new-expressions they may not be elided.
  const int root = tracer.begin("op");
  void* a = ::operator new(16);
  void* b = ::operator new(16);
  tracer.end(root);
  void* outside = ::operator new(16);
  set_alloc_counting(false);
  tracer.flush();
  ::operator delete(a);
  ::operator delete(b);
  ::operator delete(outside);
  EXPECT_EQ(tracer.ops().at("op").counts[Count::kAllocs], 2u);
}

TEST(Tracer, WritesChromeTraceEvents) {
  Tracer tracer;
  const int root = tracer.begin("service.daemon.tick");
  tracer.end(tracer.begin("transport.send"));
  tracer.end(root);
  tracer.flush();
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(tracer.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"transport.send\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
