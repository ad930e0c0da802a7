//===- domains/Domain.cpp - Inner/outer dispatch domains -----------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "domains/Domain.h"

#include <cassert>

using namespace omm;
using namespace omm::domains;
using namespace omm::sim;

void OffloadDomain::addDuplicate(MethodId Method, DuplicateId Id,
                                 LocalMethod Body, uint32_t CodeBytes) {
  assert(Method != NoMethod && "annotating the null method");
  int Index = findOuter(Method);
  if (Index < 0) {
    Outer.push_back(Method);
    Inner.emplace_back();
    Index = static_cast<int>(Outer.size()) - 1;
  }
  InnerDomain &Dom = Inner[Index];
  for (const InnerEntry &Entry : Dom.Duplicates)
    assert(Entry.Id != Id && "duplicate signature registered twice");
  Dom.Duplicates.push_back(InnerEntry{Id, std::move(Body), CodeBytes});
  TotalCodeBytes += CodeBytes;
}

int OffloadDomain::findOuter(MethodId Method) const {
  for (size_t I = 0, E = Outer.size(); I != E; ++I)
    if (Outer[I] == Method)
      return static_cast<int>(I);
  return -1;
}

unsigned OffloadDomain::duplicateCount() const {
  unsigned Count = 0;
  for (const InnerDomain &Dom : Inner)
    Count += static_cast<unsigned>(Dom.Duplicates.size());
  return Count;
}

void OffloadDomain::reserveCode(offload::OffloadContext &Ctx) const {
  if (TotalCodeBytes == 0)
    return;
  // The duplicates' code occupies local store for the block's lifetime,
  // and uploading it costs time proportional to its size.
  Ctx.localAlloc(static_cast<uint32_t>(TotalCodeBytes));
  Ctx.compute(DomainCosts::CodeLoadLatency +
              DomainCosts::CodeLoadPerByte * TotalCodeBytes);
}

void OffloadDomain::setCodeBudget(uint64_t Bytes) {
  if (Bytes != 0)
    for (const InnerDomain &Dom : Inner)
      for (const InnerEntry &Entry : Dom.Duplicates)
        if (Entry.CodeBytes > Bytes)
          reportFatalError("domain: code budget smaller than a single "
                           "duplicate");
  CodeBudget = Bytes;
  ResidentBytes = 0;
  for (InnerDomain &Dom : Inner)
    for (InnerEntry &Entry : Dom.Duplicates)
      Entry.Resident = false;
}

void OffloadDomain::touchOverlay(offload::OffloadContext &Ctx,
                                 InnerEntry &Entry) {
  Entry.LastUse = ++OverlayTick;
  if (Entry.Resident)
    return;

  // Evict LRU residents until the new duplicate fits.
  while (ResidentBytes + Entry.CodeBytes > CodeBudget) {
    InnerEntry *Victim = nullptr;
    for (InnerDomain &Dom : Inner)
      for (InnerEntry &Candidate : Dom.Duplicates)
        if (Candidate.Resident &&
            (!Victim || Candidate.LastUse < Victim->LastUse))
          Victim = &Candidate;
    assert(Victim && "budget accounting out of sync");
    Victim->Resident = false;
    ResidentBytes -= Victim->CodeBytes;
    ++CodeEvictions;
  }

  // Upload: fixed latency plus per-byte transfer (the code comes from
  // main memory like any other data).
  Ctx.compute(DomainCosts::CodeLoadLatency +
              DomainCosts::CodeLoadPerByte * Entry.CodeBytes);
  Entry.Resident = true;
  ResidentBytes += Entry.CodeBytes;
  ++CodeUploads;
}

const LocalMethod *OffloadDomain::lookup(offload::OffloadContext &Ctx,
                                         MethodId Method, DuplicateId Id) {
  ++Stats.Lookups;

  // Stage 1: linear search of the outer domain.
  int Index = -1;
  for (size_t I = 0, E = Outer.size(); I != E; ++I) {
    ++Stats.OuterScanSteps;
    Ctx.compute(DomainCosts::OuterScanPerEntry);
    if (Outer[I] == Method) {
      Index = static_cast<int>(I);
      break;
    }
  }

  // Stage 2: match the duplicate identifier in the inner domain.
  if (Index >= 0) {
    InnerDomain &Dom = Inner[Index];
    for (InnerEntry &Entry : Dom.Duplicates) {
      Ctx.compute(DomainCosts::InnerMatchPerEntry);
      if (Entry.Id == Id) {
        ++Stats.Hits;
        if (CodeBudget != 0)
          touchOverlay(Ctx, Entry);
        Ctx.compute(DomainCosts::CallOverhead);
        return &Entry.Body;
      }
    }
  }

  // Miss: report (the paper's "exception ... providing information which
  // the programmer can use to tell the compiler which methods should be
  // pre-compiled"), then try the on-demand loader elaboration.
  ++Stats.Misses;
  if (Diags)
    Diags->error("domain miss: no accelerator duplicate for method '" +
                 Registry.methodName(Method) + "' with signature " +
                 Id.str() +
                 "; annotate it for this offload or enable on-demand "
                 "loading");

  if (OnDemandLoader) {
    if (LocalMethod Loaded = OnDemandLoader(Method, Id)) {
      ++Stats.OnDemandLoads;
      constexpr uint32_t LoadedCodeBytes = 1024;
      Ctx.compute(DomainCosts::CodeLoadLatency +
                  DomainCosts::CodeLoadPerByte * LoadedCodeBytes);
      addDuplicate(Method, Id, std::move(Loaded), LoadedCodeBytes);
      // The freshly added duplicate is the last entry of its method's
      // inner domain.
      int NewIndex = findOuter(Method);
      assert(NewIndex >= 0 && "on-demand load failed to register");
      ++Stats.Hits;
      Ctx.compute(DomainCosts::CallOverhead);
      return &Inner[NewIndex].Duplicates.back().Body;
    }
  }
  return nullptr;
}

MethodId OffloadDomain::resolveSlotMemoised(offload::OffloadContext &Ctx,
                                            uint64_t VtableAddr,
                                            unsigned Slot) {
  if (MemoEnabled) {
    Ctx.compute(DomainCosts::MemoLookupCycles);
    for (const MemoEntry &Entry : Memo)
      if (Entry.VtableAddr == VtableAddr && Entry.Slot == Slot) {
        ++Stats.MemoHits;
        return Entry.Method;
      }
    ++Stats.MemoMisses;
  }
  MethodId Method = Ctx.outerRead<MethodId>(
      GlobalAddr(VtableAddr) + 8 + uint64_t(Slot) * sizeof(MethodId));
  if (MemoEnabled)
    Memo.push_back(MemoEntry{VtableAddr, Slot, Method});
  return Method;
}

bool OffloadDomain::callOnOuterObject(offload::OffloadContext &Ctx,
                                      GlobalAddr Obj, unsigned Slot,
                                      uint64_t Arg) {
  // Transfer 1: the header of the outer object is always fetched.
  uint64_t VtableAddr = Ctx.outerRead<uint64_t>(Obj);
  // Transfer 2 is elided by the memo after the first object of a class.
  MethodId Method = resolveSlotMemoised(Ctx, VtableAddr, Slot);
  const LocalMethod *Body = lookup(Ctx, Method, DuplicateId::thisOuter());
  if (!Body)
    return false;
  (*Body)(Ctx, DispatchTarget::outer(Obj), Arg);
  return true;
}

bool OffloadDomain::callOnLocalObject(offload::OffloadContext &Ctx,
                                      LocalAddr LocalObj, unsigned Slot,
                                      uint64_t Arg) {
  // The object was prefetched: the header read is local.
  uint64_t VtableAddr = Ctx.localRead<uint64_t>(LocalObj);
  MethodId Method = resolveSlotMemoised(Ctx, VtableAddr, Slot);
  const LocalMethod *Body = lookup(Ctx, Method, DuplicateId::thisLocal());
  if (!Body)
    return false;
  (*Body)(Ctx, DispatchTarget::local(LocalObj), Arg);
  return true;
}
