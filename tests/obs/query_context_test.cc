#include "obs/query_context.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tsc::obs {
namespace {

TEST(QueryContextTest, ChargesGoToTheInstalledContext) {
  QueryContext context("t1");
  ScopedQueryContext scope(&context);
#ifndef TSC_OBS_DISABLED
  ASSERT_EQ(CurrentQueryContext(), &context);
#endif
  ChargeCacheHit();
  ChargeCacheHit();
  ChargeCacheMiss();
  ChargeBlocksFetched(4);
  ChargeIoBytes(1024);
  ChargeRowsScanned(30);
  ChargeDeltaProbes(1);
  ChargeAdmissionWaitUs(250);

  const QueryCostVector costs = CurrentQueryContext() == nullptr
                                    ? QueryCostVector{}
                                    : context.Costs();
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(costs.cache_hits, 2u);
  EXPECT_EQ(costs.cache_misses, 1u);
  EXPECT_EQ(costs.blocks_fetched, 4u);
  EXPECT_EQ(costs.io_bytes, 1024u);
  EXPECT_EQ(costs.rows_scanned, 30u);
  EXPECT_EQ(costs.delta_probes, 1u);
  EXPECT_EQ(costs.admission_wait_us, 250u);
#endif
}

TEST(QueryContextTest, ChargesWithNoContextAreDropped) {
  ASSERT_EQ(CurrentQueryContext(), nullptr);
  // Must not crash; there is nowhere to account them.
  ChargeCacheHit();
  ChargeIoBytes(123);
}

TEST(QueryContextTest, ScopesNestAndRestore) {
  QueryContext outer("outer");
  QueryContext inner("inner");
  {
    ScopedQueryContext outer_scope(&outer);
    ChargeRowsScanned(1);
    {
      ScopedQueryContext inner_scope(&inner);
      ChargeRowsScanned(10);
#ifndef TSC_OBS_DISABLED
      EXPECT_EQ(CurrentQueryContext(), &inner);
#endif
    }
#ifndef TSC_OBS_DISABLED
    EXPECT_EQ(CurrentQueryContext(), &outer);
#endif
    ChargeRowsScanned(2);
  }
  EXPECT_EQ(CurrentQueryContext(), nullptr);
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(outer.Costs().rows_scanned, 3u);
  EXPECT_EQ(inner.Costs().rows_scanned, 10u);
#endif
}

TEST(QueryContextTest, WorkerThreadsChargeTheParentContext) {
  // The propagation pattern the executor pool uses:
  // the request thread hands its context into worker lambdas, which
  // re-install it for their own charges.
  QueryContext context("cross-thread");
  {
    ScopedQueryContext scope(&context);
    QueryContext* parent = CurrentQueryContext();
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([parent] {
        EXPECT_EQ(CurrentQueryContext(), nullptr);  // fresh thread
        ScopedQueryContext worker_scope(parent);
        for (int i = 0; i < 100; ++i) ChargeCacheHit();
        ChargeIoBytes(10);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
#ifndef TSC_OBS_DISABLED
  EXPECT_EQ(context.Costs().cache_hits, 400u);
  EXPECT_EQ(context.Costs().io_bytes, 40u);
#endif
}

TEST(QueryContextTest, KvStringCarriesEveryField) {
  QueryCostVector costs;
  costs.admission_wait_us = 1;
  costs.cache_hits = 2;
  costs.cache_misses = 3;
  costs.blocks_fetched = 4;
  costs.io_bytes = 5;
  costs.rows_scanned = 6;
  costs.delta_probes = 7;
  costs.rollup_hits = 8;
  costs.scan_fallbacks = 9;
  costs.agg_nodes_read = 10;
  costs.serialize_us = 11;
  const std::string kv = costs.ToKvString();
  EXPECT_EQ(kv,
            "admission_wait_us=1 cache_hits=2 cache_misses=3 "
            "blocks_fetched=4 io_bytes=5 rows_scanned=6 delta_probes=7 "
            "rollup_hits=8 scan_fallbacks=9 agg_nodes_read=10 "
            "serialize_us=11");
  EXPECT_NE(kv.find("admission_wait_us=1"), std::string::npos) << kv;
  EXPECT_NE(kv.find("cache_hits=2"), std::string::npos) << kv;
  EXPECT_NE(kv.find("cache_misses=3"), std::string::npos) << kv;
  EXPECT_NE(kv.find("blocks_fetched=4"), std::string::npos) << kv;
  EXPECT_NE(kv.find("io_bytes=5"), std::string::npos) << kv;
  EXPECT_NE(kv.find("rows_scanned=6"), std::string::npos) << kv;
  EXPECT_NE(kv.find("delta_probes=7"), std::string::npos) << kv;
  EXPECT_NE(kv.find("rollup_hits=8"), std::string::npos) << kv;
  EXPECT_NE(kv.find("scan_fallbacks=9"), std::string::npos) << kv;
  EXPECT_NE(kv.find("agg_nodes_read=10"), std::string::npos) << kv;
  EXPECT_NE(kv.find("serialize_us=11"), std::string::npos) << kv;
}

TEST(QueryContextTest, TraceIdsAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = GenerateTraceId();
    ASSERT_EQ(id.size(), 16u) << id;
    for (const char c : id) {
      ASSERT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id " << id;
  }
}

}  // namespace
}  // namespace tsc::obs
