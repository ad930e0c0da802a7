//===- sim/FaultInjector.cpp - Seeded deterministic fault schedule --------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"

#include "support/Diag.h"

using namespace omm;
using namespace omm::sim;

/// Derives one accelerator's stream seed so the streams are decorrelated
/// even for adjacent machine seeds (SplitMix64's own output mixing).
static uint64_t streamSeed(uint64_t MachineSeed, unsigned AccelId) {
  SplitMix64 Mixer(MachineSeed + 0x9E3779B97F4A7C15ull * (AccelId + 1));
  return Mixer.next();
}

FaultInjector::FaultInjector(const FaultInjectionConfig &Config,
                             unsigned NumAccelerators)
    : Config(Config) {
  Streams.resize(NumAccelerators);
  for (unsigned I = 0; I != NumAccelerators; ++I)
    Streams[I].Rng = SplitMix64(streamSeed(Config.Seed, I));
}

FaultInjector::AccelStream &FaultInjector::stream(unsigned AccelId) {
  if (AccelId >= Streams.size())
    reportFatalError("fault injector: accelerator id out of range");
  return Streams[AccelId];
}

bool FaultInjector::launchFails(unsigned AccelId) {
  AccelStream &S = stream(AccelId);
  uint64_t Index = S.LaunchIndex++;
  if (S.KillAtLaunch != NoKill && Index >= S.KillAtLaunch) {
    S.KillAtLaunch = NoKill;
    return true;
  }
  // Zero rates draw nothing, keeping an idle injector bit-invisible.
  return Config.AccelDeathRate > 0.0f &&
         S.Rng.nextBool(Config.AccelDeathRate);
}

bool FaultInjector::chunkFails(unsigned AccelId) {
  AccelStream &S = stream(AccelId);
  uint64_t Index = S.ChunkIndex++;
  if (S.KillAtChunk != NoKill && Index >= S.KillAtChunk) {
    S.KillAtChunk = NoKill;
    return true;
  }
  return Config.AccelDeathRate > 0.0f &&
         S.Rng.nextBool(Config.AccelDeathRate);
}

bool FaultInjector::dmaCommandFails(unsigned AccelId) {
  if (Config.DmaFailRate <= 0.0f)
    return false;
  AccelStream &S = stream(AccelId);
  // The cap models the MFC recovering after a bounded burst and is what
  // makes the runtime's retry loop finite even at DmaFailRate = 1.
  if (S.ConsecutiveDmaFails >= Config.MaxDmaRetries) {
    S.ConsecutiveDmaFails = 0;
    return false;
  }
  if (S.Rng.nextBool(Config.DmaFailRate)) {
    ++S.ConsecutiveDmaFails;
    return true;
  }
  S.ConsecutiveDmaFails = 0;
  return false;
}

uint64_t FaultInjector::transferDelay(unsigned AccelId) {
  if (Config.DmaDelayRate <= 0.0f || Config.DmaDelayCycles == 0)
    return 0;
  return stream(AccelId).Rng.nextBool(Config.DmaDelayRate)
             ? Config.DmaDelayCycles
             : 0;
}

uint64_t FaultInjector::killWastedCycles(unsigned AccelId) {
  return stream(AccelId).Rng.nextBelow(Config.KillWastedCyclesMax + 1);
}

TimingFault FaultInjector::classifyTiming(unsigned AccelId) {
  AccelStream &S = stream(AccelId);
  uint64_t Index = S.TimingIndex++;
  if (S.HangAt != NoKill && Index >= S.HangAt) {
    S.HangAt = NoKill;
    return {/*Hangs=*/true, 1.0f};
  }
  if (S.StraggleAt != NoKill && Index >= S.StraggleAt) {
    S.StraggleAt = NoKill;
    return {/*Hangs=*/false, S.StraggleSlowdown};
  }
  // Zero rates draw nothing, keeping an idle injector bit-invisible and
  // leaving the death/DMA streams of existing schedules undisturbed.
  if (Config.HangRate > 0.0f && S.Rng.nextBool(Config.HangRate))
    return {/*Hangs=*/true, 1.0f};
  if (Config.StragglerRate > 0.0f && S.Rng.nextBool(Config.StragglerRate))
    return {/*Hangs=*/false,
            S.Rng.nextFloatInRange(Config.StragglerSlowdownMin,
                                   Config.StragglerSlowdownMax)};
  return {};
}

void FaultInjector::scheduleKill(unsigned AccelId, uint64_t LaunchIndex) {
  AccelStream &S = stream(AccelId);
  S.KillAtLaunch = S.LaunchIndex + LaunchIndex;
}

void FaultInjector::scheduleChunkKill(unsigned AccelId,
                                      uint64_t ChunkIndex) {
  AccelStream &S = stream(AccelId);
  S.KillAtChunk = S.ChunkIndex + ChunkIndex;
}

void FaultInjector::scheduleHang(unsigned AccelId, uint64_t Index) {
  AccelStream &S = stream(AccelId);
  S.HangAt = S.TimingIndex + Index;
}

void FaultInjector::scheduleStraggler(unsigned AccelId, uint64_t Index,
                                      float Slowdown) {
  AccelStream &S = stream(AccelId);
  S.StraggleAt = S.TimingIndex + Index;
  S.StraggleSlowdown = Slowdown;
}
