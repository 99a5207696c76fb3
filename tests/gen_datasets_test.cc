#include "gen/datasets.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "bench/bench_util.h"

namespace ctbus::gen {
namespace {

TEST(DatasetsTest, MidtownIsTinyAndComplete) {
  const Dataset d = MakeMidtown();
  EXPECT_EQ(d.name, "midtown");
  EXPECT_EQ(d.road.graph().num_vertices(), 100);
  EXPECT_TRUE(d.road.graph().IsConnected());
  EXPECT_EQ(d.transit.num_routes(), 4);
  EXPECT_GT(d.transit.num_stops(), 0);
  EXPECT_GT(d.num_trips, 0);
  EXPECT_GT(d.road.TotalTripCount(), 0);
}

TEST(DatasetsTest, ChicagoLikeShape) {
  const Dataset d = MakeChicagoLike(0.25);
  EXPECT_EQ(d.name, "chicago_like");
  EXPECT_TRUE(d.road.graph().IsConnected());
  EXPECT_GT(d.transit.num_stops(), 50);
  EXPECT_GT(d.transit.num_active_edges(), 50);
  EXPECT_GT(d.num_trips, 1000);
}

TEST(DatasetsTest, NycLikeIsBiggerThanChicagoLike) {
  const Dataset chi = MakeChicagoLike(0.25);
  const Dataset nyc = MakeNycLike(0.25);
  EXPECT_GT(nyc.road.graph().num_vertices(),
            chi.road.graph().num_vertices());
  EXPECT_GT(nyc.transit.num_routes(), chi.transit.num_routes());
}

TEST(DatasetsTest, DatasetsAreDeterministic) {
  const Dataset a = MakeChicagoLike(0.1);
  const Dataset b = MakeChicagoLike(0.1);
  EXPECT_EQ(a.road.graph().num_edges(), b.road.graph().num_edges());
  EXPECT_EQ(a.transit.num_stops(), b.transit.num_stops());
  EXPECT_EQ(a.num_trips, b.num_trips);
  for (int e = 0; e < a.road.graph().num_edges(); ++e) {
    EXPECT_EQ(a.road.trip_count(e), b.road.trip_count(e));
  }
}

TEST(DatasetsTest, AllBoroughsPresent) {
  const auto boroughs = AllBoroughs(0.2);
  ASSERT_EQ(boroughs.size(), 5u);
  EXPECT_EQ(boroughs[0].name, "Manhattan");
  EXPECT_EQ(boroughs[4].name, "Bronx");
  for (const auto& b : boroughs) {
    EXPECT_TRUE(b.road.graph().IsConnected()) << b.name;
    EXPECT_GT(b.transit.num_active_routes(), 0) << b.name;
    EXPECT_GT(b.num_trips, 0) << b.name;
  }
}

TEST(DatasetsTest, BoroughNames) {
  EXPECT_EQ(BoroughName(Borough::kManhattan), "Manhattan");
  EXPECT_EQ(BoroughName(Borough::kStatenIsland), "Staten Island");
}

TEST(DatasetsTest, ScaleGrowsNetworks) {
  const Dataset small = MakeChicagoLike(0.1);
  const Dataset large = MakeChicagoLike(0.3);
  EXPECT_GT(large.road.graph().num_vertices(),
            small.road.graph().num_vertices());
  EXPECT_GT(large.transit.num_routes(), small.transit.num_routes());
  EXPECT_GT(large.num_trips, small.num_trips);
}

// bench::DatasetFingerprint and trip total of every preset at scale 0.5,
// recorded with the generator that grew one full tree per origin on one
// thread. The trip trees may fan out, but no preset may move.
struct PinnedPreset {
  const char* name;
  std::uint64_t fingerprint;
  std::int64_t trips;
};

constexpr PinnedPreset kPinned[] = {
    {"midtown", 0x1013b44fbf27c508ULL, 400},
    {"chicago", 0x93429961bb2e55b2ULL, 25000},
    {"nyc", 0x7347f301daf5dfb5ULL, 20000},
    {"manhattan", 0x20c8e81645c91d74ULL, 8000},
    {"queens", 0x487624923c645b50ULL, 7000},
    {"brooklyn", 0x2dea03055be7f3b9ULL, 7500},
    {"staten_island", 0x6f2c3cf63e49f5c0ULL, 4000},
    {"bronx", 0x519d5a48cf33989aULL, 5000},
};

TEST(DatasetsTest, PresetsMatchTheirPinnedFingerprintsAtAnyThreadCount) {
  ASSERT_EQ(DatasetNames().size(), std::size(kPinned));
  for (const PinnedPreset& pin : kPinned) {
    for (const int threads : {1, 2, 3}) {
      const Dataset d = MakeDatasetByName(pin.name, 0.5, threads);
      EXPECT_EQ(bench::DatasetFingerprint(d), pin.fingerprint)
          << pin.name << " at " << threads << " threads";
      EXPECT_EQ(d.num_trips, pin.trips) << pin.name;
    }
  }
}

}  // namespace
}  // namespace ctbus::gen
