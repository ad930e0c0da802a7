//===- tests/cache_test.cpp - Software cache tests -------------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Correctness of all four software caches, including a parameterised
// randomised property test: any interleaving of reads and writes through
// any cache, followed by a flush, must leave main memory identical to a
// flat reference model.
//
//===----------------------------------------------------------------------===//

#include "offload/Offload.h"
#include "offload/SetAssociativeCache.h"
#include "offload/StreamBuffer.h"
#include "offload/WriteCombiner.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

using CacheFactory =
    std::function<std::unique_ptr<SoftwareCacheBase>(OffloadContext &)>;

struct CacheCase {
  const char *Name;
  CacheFactory Make;
};

CacheCase cacheCases[] = {
    {"direct-mapped",
     [](OffloadContext &Ctx) -> std::unique_ptr<SoftwareCacheBase> {
       return std::make_unique<DirectMappedCache>(
           Ctx, DirectMappedCache::Params{64, 16, 8});
     }},
    {"set-associative",
     [](OffloadContext &Ctx) -> std::unique_ptr<SoftwareCacheBase> {
       return std::make_unique<SetAssociativeCache>(
           Ctx, SetAssociativeCache::Params{64, 8, 4, 16});
     }},
    {"stream-buffer",
     [](OffloadContext &Ctx) -> std::unique_ptr<SoftwareCacheBase> {
       return std::make_unique<StreamBuffer>(Ctx,
                                             StreamBuffer::Params{512, 6});
     }},
    {"write-combiner",
     [](OffloadContext &Ctx) -> std::unique_ptr<SoftwareCacheBase> {
       return std::make_unique<WriteCombiner>(Ctx,
                                              WriteCombiner::Params{512, 4});
     }},
};

class AllCachesTest : public ::testing::TestWithParam<CacheCase> {};

} // namespace

INSTANTIATE_TEST_SUITE_P(Caches, AllCachesTest,
                         ::testing::ValuesIn(cacheCases),
                         [](const auto &Info) {
                           std::string Name = Info.param.Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST_P(AllCachesTest, ReadsSeeMainMemory) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  for (uint32_t I = 0; I != 1024; ++I)
    M.mainMemory().writeValue<uint32_t>(G + I * 4, I * 2654435761u);

  offloadSync(M, [&](OffloadContext &Ctx) {
    auto Cache = GetParam().Make(Ctx);
    for (uint32_t I = 0; I != 1024; ++I) {
      uint32_t Value;
      Cache->read(&Value, G + I * 4, 4);
      ASSERT_EQ(Value, I * 2654435761u) << GetParam().Name << " at " << I;
    }
  });
}

TEST_P(AllCachesTest, WritesReachMainMemoryAfterFlush) {
  Machine M;
  GlobalAddr G = M.allocGlobal(2048);
  offloadSync(M, [&](OffloadContext &Ctx) {
    auto Cache = GetParam().Make(Ctx);
    for (uint32_t I = 0; I != 512; ++I) {
      uint32_t Value = I ^ 0xA5A5A5A5u;
      Cache->write(G + I * 4, &Value, 4);
    }
    Cache->flush();
    // Main memory is correct even before the cache is destroyed.
    for (uint32_t I = 0; I != 512; ++I)
      ASSERT_EQ(M.mainMemory().readValue<uint32_t>(G + I * 4),
                I ^ 0xA5A5A5A5u);
  });
}

TEST_P(AllCachesTest, ReadAfterWriteSeesOwnData) {
  Machine M;
  GlobalAddr G = M.allocGlobal(1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    auto Cache = GetParam().Make(Ctx);
    for (uint32_t I = 0; I != 64; ++I) {
      uint64_t Value = 0xC0FFEE00ull + I;
      Cache->write(G + I * 8, &Value, 8);
      uint64_t Back = 0;
      Cache->read(&Back, G + I * 8, 8);
      ASSERT_EQ(Back, Value) << GetParam().Name;
    }
  });
}

TEST_P(AllCachesTest, DestructorFlushesDirtyData) {
  Machine M;
  GlobalAddr G = M.allocGlobal(256);
  offloadSync(M, [&](OffloadContext &Ctx) {
    {
      auto Cache = GetParam().Make(Ctx);
      uint32_t Value = 0x5EED5EEDu;
      Cache->write(G, &Value, 4);
    } // Destroyed without explicit flush.
    EXPECT_EQ(M.mainMemory().readValue<uint32_t>(G), 0x5EED5EEDu);
  });
}

TEST_P(AllCachesTest, RandomisedOpsMatchReferenceModel) {
  Machine M;
  constexpr uint32_t Region = 8192;
  GlobalAddr G = M.allocGlobal(Region);
  std::vector<uint8_t> Reference(Region);
  SplitMix64 Rng(0xCACE + std::string_view(GetParam().Name).size());
  for (uint32_t I = 0; I != Region; ++I) {
    Reference[I] = static_cast<uint8_t>(Rng.next());
    M.mainMemory().writeValue<uint8_t>(G + I, Reference[I]);
  }

  offloadSync(M, [&](OffloadContext &Ctx) {
    auto Cache = GetParam().Make(Ctx);
    for (int Op = 0; Op != 2000; ++Op) {
      uint32_t Size = 1u << Rng.nextBelow(6); // 1..32 bytes.
      uint32_t Offset =
          static_cast<uint32_t>(Rng.nextBelow(Region - Size));
      if (Rng.nextBool(0.4f)) {
        uint8_t Buffer[32];
        for (uint32_t I = 0; I != Size; ++I) {
          Buffer[I] = static_cast<uint8_t>(Rng.next());
          Reference[Offset + I] = Buffer[I];
        }
        Cache->write(G + Offset, Buffer, Size);
      } else {
        uint8_t Buffer[32];
        Cache->read(Buffer, G + Offset, Size);
        for (uint32_t I = 0; I != Size; ++I)
          ASSERT_EQ(Buffer[I], Reference[Offset + I])
              << GetParam().Name << " op " << Op << " offset "
              << Offset + I;
      }
    }
    Cache->flush();
    for (uint32_t I = 0; I != Region; ++I)
      ASSERT_EQ(M.mainMemory().readValue<uint8_t>(G + I), Reference[I]);
  });
}

TEST_P(AllCachesTest, StatsAccumulateAndReset) {
  Machine M;
  GlobalAddr G = M.allocGlobal(1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    auto Cache = GetParam().Make(Ctx);
    uint32_t Value;
    Cache->read(&Value, G, 4);
    Cache->read(&Value, G, 4);
    EXPECT_GT(Cache->stats().Hits + Cache->stats().Misses, 0u);
    Cache->resetStats();
    EXPECT_EQ(Cache->stats().Hits, 0u);
    EXPECT_EQ(Cache->stats().Misses, 0u);
  });
}

//===----------------------------------------------------------------------===//
// Behavioural specifics per cache.
//===----------------------------------------------------------------------===//

TEST(DirectMappedCache, RepeatedLineAccessHits) {
  Machine M;
  GlobalAddr G = M.allocGlobal(1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    DirectMappedCache Cache(Ctx, {64, 16, 8});
    uint32_t Value;
    for (int I = 0; I != 16; ++I)
      Cache.read(&Value, G + (I % 4) * 4, 4); // All in one 64-byte line.
    EXPECT_EQ(Cache.stats().Misses, 1u);
    EXPECT_EQ(Cache.stats().Hits, 15u);
  });
}

TEST(DirectMappedCache, ConflictingLinesThrash) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64 * 1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    DirectMappedCache Cache(Ctx, {64, 16, 8});
    // Addresses 16 lines apart map to the same slot: ping-pong misses.
    uint32_t Value;
    for (int I = 0; I != 10; ++I) {
      Cache.read(&Value, G, 4);
      Cache.read(&Value, G + 64 * 16, 4);
    }
    EXPECT_EQ(Cache.stats().Misses, 20u);
  });
}

TEST(SetAssociativeCache, AssociativityAbsorbsConflicts) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64 * 1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    // Same geometry as the thrashing test, but 4 ways over 4 sets.
    SetAssociativeCache Cache(Ctx, {64, 4, 4, 16});
    uint32_t Value;
    for (int I = 0; I != 10; ++I) {
      Cache.read(&Value, G, 4);
      Cache.read(&Value, G + 64 * 4, 4); // Same set, different way.
    }
    EXPECT_EQ(Cache.stats().Misses, 2u);
    EXPECT_EQ(Cache.stats().Hits, 18u);
  });
}

TEST(SetAssociativeCache, LruEvictsOldest) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64 * 1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {64, 1, 2, 16}); // One set, two ways.
    uint32_t Value;
    Cache.read(&Value, G, 4);        // A: miss.
    Cache.read(&Value, G + 64, 4);   // B: miss.
    Cache.read(&Value, G, 4);        // A: hit (makes B the LRU).
    Cache.read(&Value, G + 128, 4);  // C: miss, evicts B.
    Cache.read(&Value, G, 4);        // A: still resident.
    EXPECT_EQ(Cache.stats().Hits, 2u);
    EXPECT_EQ(Cache.stats().Misses, 3u);
    Cache.read(&Value, G + 64, 4); // B: was evicted -> miss.
    EXPECT_EQ(Cache.stats().Misses, 4u);
  });
}

TEST(SetAssociativeCache, DirtyEvictionWritesBack) {
  Machine M;
  GlobalAddr G = M.allocGlobal(64 * 1024);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {64, 1, 1, 16}); // Single line.
    uint32_t Value = 0xBEEF;
    Cache.write(G, &Value, 4);
    uint32_t Other;
    Cache.read(&Other, G + 4096, 4); // Evicts the dirty line.
    EXPECT_EQ(Cache.stats().Writebacks, 1u);
    EXPECT_EQ(M.mainMemory().readValue<uint32_t>(G), 0xBEEFu);
  });
}

TEST(SetAssociativeCache, InvalidateDropsDirtyData) {
  Machine M;
  GlobalAddr G = M.allocGlobal(1024);
  M.mainMemory().writeValue<uint32_t>(G, 111);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {64, 4, 2, 16});
    uint32_t Value = 222;
    Cache.write(G, &Value, 4);
    Cache.invalidate(); // Documented: dirty data is dropped.
    EXPECT_EQ(M.mainMemory().readValue<uint32_t>(G), 111u);
    uint32_t Back;
    Cache.read(&Back, G, 4);
    EXPECT_EQ(Back, 111u);
  });
}

//===----------------------------------------------------------------------===//
// Asynchronous prefetch (the Balart et al. elaboration).
//===----------------------------------------------------------------------===//

TEST(SetAssociativeCache, PrefetchedLineHitsWithCorrectData) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  for (int I = 0; I != 512; ++I)
    M.mainMemory().writeValue<uint64_t>(G + I * 8, I * 5ull);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {128, 8, 2, 16});
    Cache.prefetch(G + 256);
    EXPECT_EQ(Cache.prefetchesIssued(), 1u);
    uint64_t Value;
    Cache.read(&Value, G + 256, 8); // Counts as a hit.
    EXPECT_EQ(Value, 32 * 5ull);
    EXPECT_EQ(Cache.stats().Hits, 1u);
    EXPECT_EQ(Cache.stats().Misses, 0u);
  });
}

TEST(SetAssociativeCache, EarlyPrefetchHidesTheLatency) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  uint64_t ColdCost = 0, PrefetchedCost = 0;
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {128, 8, 2, 16});
    uint64_t Value;

    uint64_t Start = Ctx.clock().now();
    Cache.read(&Value, G, 8); // Cold demand miss.
    ColdCost = Ctx.clock().now() - Start;

    Cache.prefetch(G + 1024);
    Ctx.compute(10000); // Useful work while the fill is in flight.
    Start = Ctx.clock().now();
    Cache.read(&Value, G + 1024, 8);
    PrefetchedCost = Ctx.clock().now() - Start;
  });
  // The fill completed during the compute: only lookup cost remains.
  EXPECT_LT(PrefetchedCost * 4, ColdCost);
}

TEST(SetAssociativeCache, ImmediateUseOfPrefetchPaysResidualWait) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {128, 8, 2, 16});
    Cache.prefetch(G);
    uint64_t Start = Ctx.clock().now();
    uint64_t Value;
    Cache.read(&Value, G, 8); // No time passed: waits the fill out.
    uint64_t Cost = Ctx.clock().now() - Start;
    EXPECT_GE(Cost, M.config().DmaLatencyCycles / 2);
  });
}

TEST(SetAssociativeCache, PrefetchIsIdempotent) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {128, 8, 2, 16});
    Cache.prefetch(G);
    Cache.prefetch(G);     // Already pending.
    Cache.prefetch(G + 8); // Same line.
    EXPECT_EQ(Cache.prefetchesIssued(), 1u);
    uint64_t Value;
    Cache.read(&Value, G, 8);
    Cache.prefetch(G); // Already resident.
    EXPECT_EQ(Cache.prefetchesIssued(), 1u);
  });
}

TEST(SetAssociativeCache, ManyPrefetchesThenSweepAllHit) {
  Machine M;
  GlobalAddr G = M.allocGlobal(8192);
  for (int I = 0; I != 1024; ++I)
    M.mainMemory().writeValue<uint64_t>(G + I * 8, I * 3ull);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {128, 16, 4, 16});
    for (uint32_t Line = 0; Line != 16; ++Line)
      Cache.prefetch(G + Line * 128);
    for (uint32_t I = 0; I != 256; ++I) {
      uint64_t Value;
      Cache.read(&Value, G + I * 8, 8);
      ASSERT_EQ(Value, I * 3ull);
    }
    EXPECT_EQ(Cache.stats().Misses, 0u);
  });
}

TEST(SetAssociativeCache, RandomisedOpsWithPrefetchesMatchReference) {
  // The E6-style randomised property test with asynchronous prefetch
  // hints sprinkled in: hints must never change results.
  Machine M;
  constexpr uint32_t Region = 8192;
  GlobalAddr G = M.allocGlobal(Region);
  std::vector<uint8_t> Reference(Region);
  SplitMix64 Rng(0x9F37);
  for (uint32_t I = 0; I != Region; ++I) {
    Reference[I] = static_cast<uint8_t>(Rng.next());
    M.mainMemory().writeValue<uint8_t>(G + I, Reference[I]);
  }

  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache Cache(Ctx, {64, 8, 4, 16});
    for (int Op = 0; Op != 3000; ++Op) {
      uint32_t Size = 1u << Rng.nextBelow(4);
      uint32_t Offset =
          static_cast<uint32_t>(Rng.nextBelow(Region - Size));
      switch (Rng.nextBelow(3)) {
      case 0: {
        uint8_t Buffer[8];
        for (uint32_t I = 0; I != Size; ++I) {
          Buffer[I] = static_cast<uint8_t>(Rng.next());
          Reference[Offset + I] = Buffer[I];
        }
        Cache.write(G + Offset, Buffer, Size);
        break;
      }
      case 1: {
        uint8_t Buffer[8];
        Cache.read(Buffer, G + Offset, Size);
        for (uint32_t I = 0; I != Size; ++I)
          ASSERT_EQ(Buffer[I], Reference[Offset + I]) << "op " << Op;
        break;
      }
      case 2:
        Cache.prefetch(G + Offset);
        break;
      }
    }
    Cache.flush();
    for (uint32_t I = 0; I != Region; ++I)
      ASSERT_EQ(M.mainMemory().readValue<uint8_t>(G + I), Reference[I]);
  });
}

namespace {

/// Every DMA command issued: local, global, size, tag and issue cycle.
struct DmaIssueLog : DmaObserver {
  std::vector<std::array<uint64_t, 5>> Issues;
  void onIssue(const DmaTransfer &Transfer) override {
    Issues.push_back({Transfer.Local.Value, Transfer.Global.Value,
                      Transfer.Size, Transfer.Tag, Transfer.IssueCycle});
  }
};

/// What one cache did before its destruction, and the clock after it.
struct CacheLife {
  CacheStats Stats;
  uint64_t ClockAfter = 0;
  std::vector<uint8_t> ReadBytes;
};

struct LivesRun {
  DmaIssueLog Log;
  std::vector<CacheLife> Lives;
  std::vector<uint8_t> Memory;
};

constexpr uint32_t TraceRegion = 2048;
constexpr unsigned NumLives = 3;

/// One block that builds NumLives caches in turn, each in its own local
/// scope (as a resident worker's descriptors do), on one shared line
/// table when \p ShareTable is set and on a table of its own otherwise.
/// Each life replays a seeded trace of reads, writes and prefetches over
/// a region four times the cache's capacity (dirty evictions included),
/// and ends with writes and with prefetches of lines nothing touched
/// yet, so dirty lines and pending fills are both left at destruction.
template <typename CacheT>
LivesRun runCacheLives(typename CacheT::Params P, bool ShareTable) {
  Machine M;
  GlobalAddr G = M.allocGlobal(TraceRegion + NumLives * 512);
  SplitMix64 Fill(0x11FE);
  for (uint32_t I = 0; I != TraceRegion; ++I)
    M.mainMemory().writeValue<uint8_t>(G + I,
                                       static_cast<uint8_t>(Fill.next()));
  LivesRun Run;
  M.addObserver(&Run.Log);
  offloadSync(M, [&](OffloadContext &Ctx) {
    SetAssociativeCache::LineTable Table;
    for (unsigned Life = 0; Life != NumLives; ++Life) {
      OffloadContext::LocalScope Scope(Ctx);
      CacheLife Result;
      {
        std::optional<CacheT> Cache;
        if (ShareTable)
          Cache.emplace(Ctx, P, Table);
        else
          Cache.emplace(Ctx, P);
        SplitMix64 Rng(0x7ACE + Life);
        uint8_t Buffer[24];
        for (int Op = 0; Op != 300; ++Op) {
          uint32_t Size = 1 + static_cast<uint32_t>(Rng.nextBelow(24));
          uint32_t Offset =
              static_cast<uint32_t>(Rng.nextBelow(TraceRegion - Size));
          uint64_t Kind = Op < 296 ? Rng.nextBelow(8) : 4;
          if (Kind < 3) {
            Cache->read(Buffer, G + Offset, Size);
            Result.ReadBytes.insert(Result.ReadBytes.end(), Buffer,
                                    Buffer + Size);
          } else if (Kind < 6) {
            for (uint32_t I = 0; I != Size; ++I)
              Buffer[I] = static_cast<uint8_t>(Rng.next());
            Cache->write(G + Offset, Buffer, Size);
          } else {
            Cache->prefetch(G + Offset);
          }
        }
        for (uint32_t Line = 0; Line != 3; ++Line)
          Cache->prefetch(G + TraceRegion + Life * 512 + Line * 128);
        Result.Stats = Cache->stats();
      }
      Result.ClockAfter = Ctx.clock().now();
      Run.Lives.push_back(std::move(Result));
    }
  });
  M.removeObserver(&Run.Log);
  for (uint32_t I = 0; I != TraceRegion; ++I)
    Run.Memory.push_back(M.mainMemory().readValue<uint8_t>(G + I));
  return Run;
}

/// A cache on a line table an earlier cache used must do exactly what a
/// freshly built one does: the same DMA issues at the same cycles, the
/// same profile counters, the same clock and the same data.
template <typename CacheT>
void expectSharedTableMatchesFresh(typename CacheT::Params P) {
  LivesRun Fresh = runCacheLives<CacheT>(P, /*ShareTable=*/false);
  LivesRun Shared = runCacheLives<CacheT>(P, /*ShareTable=*/true);
  EXPECT_EQ(Shared.Log.Issues, Fresh.Log.Issues);
  ASSERT_EQ(Shared.Lives.size(), Fresh.Lives.size());
  for (unsigned Life = 0; Life != NumLives; ++Life) {
    SCOPED_TRACE("life " + std::to_string(Life));
    const CacheStats &Want = Fresh.Lives[Life].Stats;
    const CacheStats &Got = Shared.Lives[Life].Stats;
    // The trace must reach the paths a reset has to undo.
    EXPECT_GT(Want.Hits, 0u);
    EXPECT_GT(Want.Writebacks, 0u);
    EXPECT_EQ(Got.Hits, Want.Hits);
    EXPECT_EQ(Got.Misses, Want.Misses);
    EXPECT_EQ(Got.Evictions, Want.Evictions);
    EXPECT_EQ(Got.Writebacks, Want.Writebacks);
    EXPECT_EQ(Got.BytesFilled, Want.BytesFilled);
    EXPECT_EQ(Got.BytesWrittenBack, Want.BytesWrittenBack);
    EXPECT_EQ(Got.LookupCycles, Want.LookupCycles);
    EXPECT_EQ(Shared.Lives[Life].ClockAfter, Fresh.Lives[Life].ClockAfter);
    EXPECT_EQ(Shared.Lives[Life].ReadBytes, Fresh.Lives[Life].ReadBytes);
  }
  EXPECT_EQ(Shared.Memory, Fresh.Memory);
}

} // namespace

TEST(SetAssociativeCache, SharedLineTableMatchesFreshCache) {
  expectSharedTableMatchesFresh<SetAssociativeCache>({64, 4, 2, 16});
}

TEST(DirectMappedCache, SharedLineTableMatchesFreshCache) {
  expectSharedTableMatchesFresh<DirectMappedCache>({64, 8, 8});
}

TEST(StreamBuffer, SequentialScanPrefetches) {
  Machine M;
  constexpr uint32_t Bytes = 64 * 1024;
  GlobalAddr G = M.allocGlobal(Bytes);
  offloadSync(M, [&](OffloadContext &Ctx) {
    StreamBuffer Stream(Ctx, {4096, 6});
    uint32_t Value;
    for (uint32_t I = 0; I != Bytes / 4; ++I)
      Stream.read(&Value, G + I * 4, 4);
    // One cold miss; every window rotation lands in the prefetch.
    EXPECT_EQ(Stream.stats().Misses, 1u);
  });
}

TEST(StreamBuffer, RandomAccessDegrades) {
  Machine M;
  GlobalAddr G = M.allocGlobal(1 << 20);
  offloadSync(M, [&](OffloadContext &Ctx) {
    StreamBuffer Stream(Ctx, {512, 6});
    SplitMix64 Rng(77);
    uint32_t Value;
    for (int I = 0; I != 64; ++I)
      Stream.read(&Value, G + Rng.nextBelow((1 << 20) - 4), 4);
    // Random access defeats the stream: mostly misses.
    EXPECT_GT(Stream.stats().Misses, 48u);
  });
}

TEST(WriteCombiner, ContiguousWritesCombineIntoOnePut) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  offloadSync(M, [&](OffloadContext &Ctx) {
    WriteCombiner Combiner(Ctx, {1024, 4});
    for (uint32_t I = 0; I != 64; ++I) {
      uint64_t Value = I;
      Combiner.write(G + I * 8, &Value, 8);
    }
    Combiner.flush();
    EXPECT_EQ(Combiner.stats().Writebacks, 1u); // One combined put.
    EXPECT_EQ(Combiner.stats().Hits, 63u);
    for (uint32_t I = 0; I != 64; ++I)
      ASSERT_EQ(M.mainMemory().readValue<uint64_t>(G + I * 8), I);
  });
}

TEST(WriteCombiner, NonContiguousWriteFlushes) {
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  offloadSync(M, [&](OffloadContext &Ctx) {
    WriteCombiner Combiner(Ctx, {1024, 4});
    uint64_t Value = 1;
    Combiner.write(G, &Value, 8);
    Value = 2;
    Combiner.write(G + 1024, &Value, 8); // Gap: forces a flush.
    Combiner.flush();
    EXPECT_EQ(Combiner.stats().Writebacks, 2u);
    EXPECT_EQ(M.mainMemory().readValue<uint64_t>(G), 1u);
    EXPECT_EQ(M.mainMemory().readValue<uint64_t>(G + 1024), 2u);
  });
}

TEST(CacheCostModel, LookupOverheadOrdering) {
  // "Software cache lookup introduces some overhead" — and the designs
  // trade lookup cost against flexibility: write-combiner < stream <
  // direct-mapped < set-associative per access.
  Machine M;
  GlobalAddr G = M.allocGlobal(4096);
  uint64_t Cost[4] = {0, 0, 0, 0};
  for (int Case = 0; Case != 4; ++Case) {
    offloadSync(M, [&](OffloadContext &Ctx) {
      auto Cache = cacheCases[Case].Make(Ctx);
      uint32_t Value;
      Cache->read(&Value, G, 4); // Warm.
      uint64_t Start = Ctx.clock().now();
      for (int I = 0; I != 100; ++I)
        Cache->read(&Value, G, 4);
      Cost[Case] = Ctx.clock().now() - Start;
    });
  }
  // direct-mapped cheaper than set-associative on pure hits.
  EXPECT_LT(Cost[0], Cost[1]);
}
