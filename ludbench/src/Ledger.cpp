//===- ludbench/src/Ledger.cpp - Spans, self times, sample stats ----------===//

#include "Ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace ludbench;

namespace {

std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

} // namespace

uint32_t Tracer::begin(const char *Name) {
  if (!Enabled)
    return kNone;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  uint32_t Id = uint32_t(Spans.size());
  Spans.push_back({Name, Open.empty() ? kNone : Open.back(), Now, -1});
  Open.push_back(Id);
  return Id;
}

void Tracer::end(uint32_t Id) {
  if (Id == kNone)
    return;
  Spans[Id].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - Epoch)
                        .count();
  // Scopes close innermost first, so Id is the top of the open stack.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::vector<uint32_t> Tracer::roots(const char *Name) const {
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent == kNone && Spans[I].EndNs >= 0 &&
        std::strcmp(Spans[I].Name, Name) == 0)
      Out.push_back(I);
  return Out;
}

double Tracer::duration(uint32_t Id) const {
  return double(Spans[Id].EndNs - Spans[Id].StartNs) * 1e-9;
}

template <typename Fn> void Tracer::forSubtree(uint32_t Root, Fn F) const {
  // Children are recorded after their parent, and a subtree is contiguous
  // in recording order: it ends at the first span whose ancestry leaves it.
  F(Root);
  std::vector<uint32_t> Stack{Root};
  for (uint32_t I = Root + 1; I < Spans.size(); ++I) {
    while (!Stack.empty() && Spans[I].Parent != Stack.back())
      Stack.pop_back();
    if (Stack.empty())
      return;
    F(I);
    Stack.push_back(I);
  }
}

double Tracer::total(uint32_t Root, const char *Name) const {
  double Sum = 0;
  forSubtree(Root, [&](uint32_t I) {
    if (std::strcmp(Spans[I].Name, Name) == 0)
      Sum += duration(I);
  });
  return Sum;
}

std::map<std::string, double> Tracer::selfTimes(uint32_t Root) const {
  std::map<std::string, double> Self;
  forSubtree(Root, [&](uint32_t I) {
    Self[layerOf(Spans[I].Name)] += duration(I);
    if (I != Root)
      Self[layerOf(Spans[Spans[I].Parent].Name)] -= duration(I);
  });
  return Self;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (uint32_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %u, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 I, S.Parent == kNone ? -1LL : (long long)S.Parent, S.Name,
                 (long long)S.StartNs, (long long)S.EndNs);
  }
  return std::fclose(F) == 0;
}

double ludbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double ludbench::sumOfMedians(const std::vector<std::vector<double>> &Parts) {
  double Sum = 0;
  for (const std::vector<double> &V : Parts)
    Sum += median(V);
  return Sum;
}

double ludbench::percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Pct / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double ludbench::tailPercentile(size_t N) {
  double Best = 0;
  for (double P : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Samples strictly above the nearest-rank position.
    size_t Rank = size_t(std::ceil(P / 100.0 * double(N)));
    if (N >= Rank + 10)
      Best = P;
  }
  return Best;
}
