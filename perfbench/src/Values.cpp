//===- perfbench/src/Values.cpp - The paper's evaluation values -----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Values.h"

namespace pb {

Raw makeRaw(Rng &R, Kind K, size_t Bytes) {
  Raw V;
  V.K = K;
  size_t Elem = K == Kind::Ints ? 4 : K == Kind::Rects ? 16 : DirentBytes;
  size_t Min = K == Kind::Ints ? 2 : 1;
  V.N = static_cast<uint32_t>(std::max(Min, Bytes / Elem));
  V.Payload = V.N * Elem;
  if (K == Kind::Ints || K == Kind::Rects) {
    V.Words.resize(K == Kind::Ints ? V.N : 4 * size_t(V.N));
    for (int32_t &W : V.Words)
      W = static_cast<int32_t>(R.next());
    return V;
  }
  V.Names.resize(V.N);
  V.Info.resize(30 * size_t(V.N));
  V.Tags.resize(16 * size_t(V.N));
  for (std::string &Name : V.Names) {
    Name.resize(DirentNameLen);
    for (char &C : Name)
      C = static_cast<char>('a' + R.below(26));
  }
  for (uint32_t &W : V.Info)
    W = static_cast<uint32_t>(R.next());
  for (uint8_t &T : V.Tags)
    T = static_cast<uint8_t>(R.next());
  return V;
}

uint32_t rawChecksum(const Raw &V) {
  if (V.K == Kind::Ints)
    return mixWords(reinterpret_cast<const uint32_t *>(V.Words.data()) + 2,
                    V.N - 2);
  uint32_t H = 2166136261u;
  if (V.K == Kind::Rects) {
    const auto *W = reinterpret_cast<const uint32_t *>(V.Words.data());
    for (uint32_t I = 0; I != V.N; ++I)
      H = I ? mixWords(W + 4 * I, 4, H) : mixWords(W + 2, 2, H);
    return H;
  }
  for (uint32_t I = 0; I != V.N; ++I) {
    const uint32_t *Info = &V.Info[30 * size_t(I)];
    H = I ? mixWords(Info, 30, H) : mixWords(Info + 2, 28, H);
    H = static_cast<uint32_t>(fnv1a(&V.Tags[16 * size_t(I)], 16, H));
    H = static_cast<uint32_t>(fnv1a(V.Names[I].data(), V.Names[I].size(), H));
  }
  return H;
}

std::vector<uint8_t> xdrIntsReference(const Raw &V) {
  std::vector<uint8_t> Out;
  Out.reserve(4 + 4 * size_t(V.N));
  auto Put = [&](uint32_t W) {
    for (int Shift = 24; Shift >= 0; Shift -= 8)
      Out.push_back(static_cast<uint8_t>(W >> Shift));
  };
  Put(V.N);
  for (int32_t W : V.Words)
    Put(static_cast<uint32_t>(W));
  return Out;
}

} // namespace pb
