//===- support/Profiler.cpp - Hierarchical scoped self-profiler ----------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Profiler.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define AM_PROF_HAVE_RUSAGE 1
#define AM_PROF_INTERPOSE_NEW 1
#endif

using namespace am;
using namespace am::prof;

//===----------------------------------------------------------------------===//
// Allocation accounting: replacement global operator new
//===----------------------------------------------------------------------===//

namespace {

// constinit so the counters are live before any static constructor — the
// replacement operator new below runs for every allocation in the
// process, including those made during static initialization.
constinit std::atomic<uint64_t> GAllocBytes{0};
constinit std::atomic<uint64_t> GAllocCalls{0};

#ifdef AM_PROF_INTERPOSE_NEW

inline void countAlloc(std::size_t Size) noexcept {
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  GAllocCalls.fetch_add(1, std::memory_order_relaxed);
}

void *profAlloc(std::size_t Size) noexcept {
  countAlloc(Size);
  // malloc(0) may return nullptr; operator new must not (for non-throwing
  // success), so never pass 0 through.
  return std::malloc(Size ? Size : 1);
}

void *profAllocAligned(std::size_t Size, std::size_t Align) noexcept {
  countAlloc(Size);
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, Align, Size ? Size : Align) != 0)
    return nullptr;
  return P;
}

#endif // AM_PROF_INTERPOSE_NEW

} // namespace

#ifdef AM_PROF_INTERPOSE_NEW

// Replacement allocation functions ([new.delete.single] / [new.delete.array]).
// Everything funnels through malloc/free, so sized and aligned deallocation
// forms all forward to free and sanitizer mallocs stay interposed underneath.

void *operator new(std::size_t Size) {
  if (void *P = profAlloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) {
  if (void *P = profAlloc(Size))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return profAlloc(Size);
}

void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return profAlloc(Size);
}

void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = profAllocAligned(Size, static_cast<std::size_t>(Align)))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size, std::align_val_t Align) {
  if (void *P = profAllocAligned(Size, static_cast<std::size_t>(Align)))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  return profAllocAligned(Size, static_cast<std::size_t>(Align));
}

void *operator new[](std::size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  return profAllocAligned(Size, static_cast<std::size_t>(Align));
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

#endif // AM_PROF_INTERPOSE_NEW

uint64_t prof::allocatedBytes() {
  return GAllocBytes.load(std::memory_order_relaxed);
}

uint64_t prof::allocationCount() {
  return GAllocCalls.load(std::memory_order_relaxed);
}

bool prof::allocTrackingAvailable() {
#ifdef AM_PROF_INTERPOSE_NEW
  return true;
#else
  return false;
#endif
}

uint64_t prof::peakRssBytes() {
#ifdef AM_PROF_HAVE_RUSAGE
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
#ifdef __APPLE__
  return static_cast<uint64_t>(RU.ru_maxrss); // bytes on Darwin
#else
  return static_cast<uint64_t>(RU.ru_maxrss) * 1024; // kilobytes elsewhere
#endif
#else
  return 0;
#endif
}

void prof::recordMemoryGauges(stats::Registry &R) {
  if (uint64_t Peak = peakRssBytes())
    R.gauge("mem.peak_rss_bytes").set(static_cast<int64_t>(Peak));
  if (allocTrackingAvailable()) {
    R.gauge("mem.alloc_bytes").set(static_cast<int64_t>(allocatedBytes()));
    R.gauge("mem.alloc_count").set(static_cast<int64_t>(allocationCount()));
  }
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

namespace {
thread_local Profiler *ThreadOverride = nullptr;
} // namespace

Profiler &Profiler::get() { return of(telemetry::Session::current()); }

Profiler &Profiler::of(telemetry::Session &S) {
  return ThreadOverride ? *ThreadOverride : S.profiler();
}

Profiler *Profiler::setThreadOverride(Profiler *P) {
  Profiler *Prev = ThreadOverride;
  ThreadOverride = P;
  return Prev;
}

void Profiler::reset() {
  Nodes.clear();
  Stack.clear();
  Node Root;
  Root.Name = "root";
  Nodes.push_back(std::move(Root));
  RootStartNs = nowNs();
}

uint32_t Profiler::childNamed(uint32_t Parent, std::string_view Name) {
  // Linear scan: phase trees are a few dozen nodes with single-digit
  // fan-out, so a per-node map would cost more than it saves.
  for (uint32_t Child : Nodes[Parent].Children)
    if (Nodes[Child].Name == Name)
      return Child;
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Node N;
  N.Name = std::string(Name);
  N.Parent = Parent;
  Nodes.push_back(std::move(N));
  Nodes[Parent].Children.push_back(Id);
  return Id;
}

void Profiler::enter(std::string_view Name) {
  uint32_t Parent = Stack.empty() ? RootId : Stack.back().NodeId;
  uint32_t Id = childNamed(Parent, Name);
  Node &N = Nodes[Id];
  ++N.Calls;
  if (N.Calls == 1)
    N.FirstStartUs = trace::epochNowUs();
  Stack.push_back({Id, nowNs(), allocatedBytes(), allocationCount()});
}

void Profiler::leave() {
  if (Stack.empty())
    return; // tolerate unbalanced instrumentation
  Frame F = Stack.back();
  Stack.pop_back();
  Node &N = Nodes[F.NodeId];
  N.WallNs += nowNs() - F.StartNs;
  N.AllocBytes += allocatedBytes() - F.StartAllocBytes;
  N.AllocCalls += allocationCount() - F.StartAllocCalls;
  N.LastEndUs = trace::epochNowUs();
}

void Profiler::mergeNode(uint32_t DstParent, const Profiler &Src,
                         uint32_t SrcId) {
  const Node &S = Src.Nodes[SrcId];
  uint32_t DstId = childNamed(DstParent, S.Name);
  Node &D = Nodes[DstId];
  bool Fresh = D.Calls == 0;
  D.Calls += S.Calls;
  D.WallNs += S.WallNs;
  D.AllocBytes += S.AllocBytes;
  D.AllocCalls += S.AllocCalls;
  if (Fresh || (S.FirstStartUs != 0 && S.FirstStartUs < D.FirstStartUs))
    D.FirstStartUs = S.FirstStartUs;
  if (S.LastEndUs > D.LastEndUs)
    D.LastEndUs = S.LastEndUs;
  // Name-sorted recursion: the merged shape is a function of the scope
  // *sets*, not of the order worker threads happened to enter them.
  std::vector<uint32_t> Order(S.Children.begin(), S.Children.end());
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Src.Nodes[A].Name < Src.Nodes[B].Name;
  });
  for (uint32_t Child : Order)
    mergeNode(DstId, Src, Child);
}

void Profiler::merge(const Profiler &Worker) {
  uint32_t DstParent = Stack.empty() ? RootId : Stack.back().NodeId;
  std::vector<uint32_t> Order(Worker.Nodes[RootId].Children.begin(),
                              Worker.Nodes[RootId].Children.end());
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Worker.Nodes[A].Name < Worker.Nodes[B].Name;
  });
  for (uint32_t Child : Order)
    mergeNode(DstParent, Worker, Child);
}

std::string Profiler::treeShape() const {
  std::string Out;
  // Preorder, children in first-entry order: `name(calls){child,...}`.
  auto Render = [&](auto &&Self, uint32_t Id) -> void {
    const Node &N = Nodes[Id];
    Out += N.Name;
    if (Id != RootId) {
      Out += '(';
      Out += std::to_string(N.Calls);
      Out += ')';
    }
    if (!N.Children.empty()) {
      Out += '{';
      bool First = true;
      for (uint32_t Child : N.Children) {
        if (!First)
          Out += ',';
        First = false;
        Self(Self, Child);
      }
      Out += '}';
    }
  };
  Render(Render, RootId);
  return Out;
}

std::string Profiler::toCollapsedString() const {
  std::string Out;
  std::vector<std::string> Path;
  auto Render = [&](auto &&Self, uint32_t Id) -> void {
    const Node &N = Nodes[Id];
    if (Id != RootId) {
      Path.push_back(N.Name);
      // Exclusive time: inclusive minus the children's inclusive time
      // (clamped — clock jitter can make the sum exceed the parent).
      uint64_t ChildNs = 0;
      for (uint32_t Child : N.Children)
        ChildNs += Nodes[Child].WallNs;
      uint64_t SelfNs = N.WallNs > ChildNs ? N.WallNs - ChildNs : 0;
      for (size_t I = 0; I < Path.size(); ++I) {
        if (I)
          Out += ';';
        Out += Path[I];
      }
      Out += ' ';
      Out += std::to_string(SelfNs);
      Out += '\n';
    }
    for (uint32_t Child : N.Children)
      Self(Self, Child);
    if (Id != RootId)
      Path.pop_back();
  };
  Render(Render, RootId);
  return Out;
}

std::string Profiler::toJsonString() const {
  std::string Out;
  json::Writer W(Out);
  auto RenderNode = [&](auto &&Self, uint32_t Id) -> void {
    const Node &N = Nodes[Id];
    W.beginObject();
    W.key("name").value(N.Name);
    W.key("calls").value(N.Calls);
    W.key("wall_ns").value(Id == RootId ? nowNs() - RootStartNs : N.WallNs);
    W.key("alloc_bytes").value(N.AllocBytes);
    W.key("alloc_calls").value(N.AllocCalls);
    W.key("first_start_us").value(N.FirstStartUs);
    W.key("last_end_us").value(N.LastEndUs);
    W.key("children").beginArray();
    for (uint32_t Child : N.Children)
      Self(Self, Child);
    W.endArray();
    W.endObject();
  };
  W.beginObject();
  W.key("schema").value("amprof-v1");
  W.key("clock").value("steady; *_us offsets share the --trace epoch");
  W.key("shape").value(treeShape());
  W.key("alloc_tracking").value(allocTrackingAvailable());
  W.key("tree");
  RenderNode(RenderNode, RootId);
  W.key("collapsed").value(toCollapsedString());
  W.endObject();
  return Out;
}

bool Profiler::writeJsonFile(const std::string &Path) const {
  std::ofstream OutFile(Path, std::ios::binary);
  if (!OutFile)
    return false;
  OutFile << toJsonString() << "\n";
  return static_cast<bool>(OutFile);
}
