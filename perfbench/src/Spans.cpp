//===- perfbench/src/Spans.cpp - Layer spans for the traced run -----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include <cstring>

namespace pb {

LayerTotals &Tracer::slot(const char *Name) {
  for (LayerTotals &T : Totals)
    if (T.Name == Name || std::strcmp(T.Name, Name) == 0)
      return T;
  Totals.push_back(LayerTotals{Name, 0, 0, 0});
  return Totals.back();
}

LayerTotals Tracer::find(const char *Name) const {
  for (const LayerTotals &T : Totals)
    if (std::strcmp(T.Name, Name) == 0)
      return T;
  return LayerTotals{Name, 0, 0, 0};
}

void Tracer::beginOp(const char *RootName, uint64_t OpId, uint64_t StartNs) {
  Cur.clear();
  Stack.clear();
  CurOp = OpId;
  begin(RootName, StartNs);
}

uint32_t Tracer::begin(const char *Name, uint64_t StartNs) {
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.Parent = Stack.empty() ? NoParent : Stack.back();
  uint32_t Idx = static_cast<uint32_t>(Cur.size());
  Cur.push_back(S);
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::end(uint32_t Idx, uint64_t EndNs) {
  Cur[Idx].EndNs = EndNs;
  // Spans close innermost first; tolerate an out-of-order close by
  // popping through it.
  while (!Stack.empty()) {
    uint32_t Top = Stack.back();
    Stack.pop_back();
    if (Top == Idx)
      break;
    Cur[Top].EndNs = EndNs;
  }
}

void Tracer::record(const char *Name, uint64_t StartNs, uint64_t EndNs) {
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Stack.empty() ? NoParent : Stack.back();
  Cur.push_back(S);
}

void Tracer::endOp(uint64_t EndNs) {
  if (Cur.empty())
    return;
  while (!Stack.empty()) {
    Cur[Stack.back()].EndNs = EndNs;
    Stack.pop_back();
  }
  ChildNs.assign(Cur.size(), 0);
  for (const Span &S : Cur)
    if (S.Parent != NoParent)
      ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  uint32_t Base = static_cast<uint32_t>(Kept.size());
  bool Keep = Kept.size() + Cur.size() <= KeepCap;
  for (size_t I = 0; I != Cur.size(); ++I) {
    Span S = Cur[I];
    S.OpId = CurOp;
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    LayerTotals &T = slot(S.Name);
    ++T.Count;
    T.TotalNs += Dur;
    T.SelfNs += Dur - ChildNs[I];
    if (Keep) {
      if (S.Parent != NoParent)
        S.Parent += Base;
      Kept.push_back(S);
    }
  }
  if (!Keep)
    Dropped += Cur.size();
  ++Ops;
  Cur.clear();
}

void Tracer::absorbTotals(const Tracer &O) {
  for (const LayerTotals &T : O.Totals) {
    LayerTotals &Mine = slot(T.Name);
    Mine.Count += T.Count;
    Mine.TotalNs += T.TotalNs;
    Mine.SelfNs += T.SelfNs;
  }
  Ops += O.Ops;
  Dropped += O.Dropped;
}

void Tracer::writeEvents(std::FILE *F, bool &First) const {
  for (size_t I = 0; I != Kept.size(); ++I) {
    const Span &S = Kept[I];
    long long Parent = S.Parent == NoParent ? -1 : static_cast<long long>(S.Parent);
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}",
                 First ? "" : ",", S.Name, Thread, S.StartNs * 1e-3,
                 (S.EndNs - S.StartNs) * 1e-3,
                 static_cast<unsigned long long>(S.OpId), I, Parent);
    First = false;
  }
}

bool writeTraceFile(const std::string &Path,
                    const std::vector<const Tracer *> &Tracers) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  bool First = true;
  for (const Tracer *T : Tracers)
    T->writeEvents(F, First);
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace pb
