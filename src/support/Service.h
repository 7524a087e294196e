//===- support/Service.h - Optimization service failure envelope -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `amserve-v1` optimization service: the newline-framed JSON
/// protocol, the FNV-1a-keyed LRU result cache, the retry/backoff
/// policy, the request engine with its failure envelope, and the
/// long-lived server loop behind `tools/amserved`.
///
/// One request is one JSON object on one line:
///
///   {"id":N,"source":"graph {...}","passes":"uniform",
///    "limits":"wall-ms=500","guarded":true}
///
/// and one response is one JSON object on one line:
///
///   {"schema":"amserve-v1","id":N,"status":"ok","hash":"...",
///    "cached":false,"wall_ns":N,"rollbacks":N,"limits_hit":false,
///    "blocks_before":N,...,"program":"graph {...}",
///    "counters":{...},"remarks":{...}}
///
/// Response statuses — the failure envelope, one per way a request can
/// go wrong without taking the daemon with it:
///
///   ok                  optimized program attached; byte-identical to
///                       one-shot `amopt` output for the same program
///                       and pass spec, cache hit or miss, any thread
///                       count;
///   rolled_back         guarded pipeline rolled back >=1 pass; the
///                       program is still the (safe) pipeline output;
///   bad_request         unparseable JSON, unparseable program, unknown
///                       pass or malformed limits — request rejected,
///                       connection kept;
///   timeout             the per-request deadline fired (watchdog
///                       cancellation or wall budget); the program
///                       attached is the canonical *input* — a clean
///                       rollback, nothing half-transformed;
///   limits              a non-deadline PipelineLimits budget (growth,
///                       evals, am-rounds) stopped the run; program is
///                       the canonical input;
///   resource_exhausted  std::bad_alloc during the run, downgraded to a
///                       response; program is the canonical input;
///   oversized           the request frame exceeded max_request_bytes;
///   overloaded          admission queue full — the request was shed
///                       before any work; `retry_after_ms` hints when to
///                       retry;
///   error               any other contained failure (worker exception);
///                       `error` carries the text.
///
/// The engine never lets a request's failure escape: parse errors,
/// thrown worker exceptions and allocation failure are all converted to
/// responses, and the next request on the same worker proceeds with a
/// fresh telemetry session and a reset per-worker AmContext.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_SERVICE_H
#define AM_SUPPORT_SERVICE_H

#include "support/EventLog.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace am::service {

inline constexpr const char *ProtocolSchema = "amserve-v1";

/// Per-service resource policy (the knobs `amserved` exposes).
struct ServiceLimits {
  /// Per-request wall deadline in milliseconds (0 = none).  Folded into
  /// PipelineLimits::MaxWallMs (the tighter of the two wins) and
  /// enforced between passes; the server watchdog additionally cancels
  /// requests that blow the deadline inside a pass.
  double DeadlineMs = 10000.0;
  /// Largest accepted request frame in bytes (0 = unlimited).
  uint64_t MaxRequestBytes = 4u << 20;
  /// Bound on requests admitted but not yet answered; beyond it new
  /// requests are shed with `overloaded`.
  unsigned QueueCapacity = 64;
  /// LRU result cache capacity in entries (0 disables caching).
  unsigned CacheEntries = 256;
  /// The `retry_after_ms` hint attached to `overloaded` responses.
  uint64_t RetryAfterMs = 50;
};

/// One parsed request.
struct Request {
  uint64_t Id = 0;
  std::string Source;           ///< Program text.
  std::string Passes = "uniform";
  std::string LimitsSpec;       ///< parseLimitsSpec syntax; may be empty.
  bool Guarded = true;
};

/// One response.  Counters/RemarkKinds are name-sorted like
/// fleet::JobEvent's (the stats registry emits them sorted).
struct Response {
  uint64_t Id = 0;
  std::string Status;  ///< See the file comment for the envelope.
  std::string Program; ///< Optimized output, or canonical input on
                       ///< timeout/limits/resource_exhausted.
  std::string Error;   ///< Diagnostic text for non-ok statuses.
  std::string Hash;    ///< hex16(fnv1a64(canonical input)); empty if the
                       ///< source never parsed.
  bool Cached = false;
  bool LimitsHit = false;
  uint64_t WallNs = 0;
  uint64_t Rollbacks = 0;
  uint64_t RetryAfterMs = 0; ///< Only meaningful with status overloaded.
  uint64_t BlocksBefore = 0, BlocksAfter = 0;
  uint64_t InstrsBefore = 0, InstrsAfter = 0;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, uint64_t>> RemarkKinds;

  bool ok() const { return Status == "ok" || Status == "rolled_back"; }
};

/// Renders \p R as one amserve-v1 request line (no trailing newline).
std::string renderRequest(const Request &R);

/// Parses one request line.  False with \p Err on malformed JSON or a
/// missing `source`; unknown members are ignored (forward compatibility).
bool parseRequest(const std::string &Line, Request &Out, std::string *Err);

/// Renders \p R as one amserve-v1 response line (no trailing newline).
std::string renderResponse(const Response &R);

/// Parses one response line.  False with \p Err on malformed JSON or a
/// schema mismatch.
bool parseResponse(const std::string &Line, Response &Out, std::string *Err);

/// The cache identity of a request: FNV-1a over the canonical program
/// text and every execution-relevant knob (passes, limits, guarded).
/// Textually different sources that parse to the same canonical program
/// share an entry by construction.
uint64_t requestKey(const std::string &CanonicalProgram, const Request &R);

/// Jittered exponential backoff: attempt 0,1,2,... maps to a delay in
/// [Base*2^n / 2, Base*2^n), capped at \p CapMs.  Deterministic in
/// (Attempt, Seed) — the jitter is a hash, not a clock — so tests can
/// assert the schedule and two clients with different seeds still
/// decorrelate.
uint64_t backoffDelayMs(unsigned Attempt, uint64_t BaseMs, uint64_t CapMs,
                        uint64_t Seed);

/// Thread-safe LRU cache of ok responses keyed by requestKey().
class ResultCache {
public:
  explicit ResultCache(unsigned Capacity) : Capacity(Capacity) {}

  /// True on hit; \p Out receives the stored response with Cached set.
  bool lookup(uint64_t Key, Response &Out);

  /// Stores \p R (only ok() responses are worth keeping; the caller
  /// filters).  Evicts the least recently used entry beyond capacity.
  void insert(uint64_t Key, const Response &R);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  size_t size() const;

private:
  unsigned Capacity;
  mutable std::mutex Mu;
  std::list<uint64_t> Order; ///< Front = most recently used.
  struct Entry {
    Response R;
    std::list<uint64_t>::iterator It;
  };
  std::unordered_map<uint64_t, Entry> Map;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

/// Executes requests with full crash containment.  One Engine is shared
/// by all workers of a server; handle() is thread-safe (each call runs
/// under its own telemetry::Session and the calling worker's thread-local
/// AmContext, reset per request).
class Engine {
public:
  explicit Engine(const ServiceLimits &L) : L(L), Cache(L.CacheEntries) {}

  /// Handles one request on the calling thread.  \p Cancel, when
  /// non-null, is the watchdog's deadline flag: once set, the pipeline
  /// stops at the next pass boundary and the response reports `timeout`.
  /// Never throws; every failure becomes a response.
  Response handle(const Request &R, std::atomic<bool> *Cancel = nullptr);

  /// The response for a request shed at admission.
  Response overloadedResponse(uint64_t Id) const;

  /// The response for a frame that exceeded MaxRequestBytes.
  Response oversizedResponse(uint64_t Id) const;

  ResultCache &cache() { return Cache; }
  const ServiceLimits &limits() const { return L; }

private:
  ServiceLimits L;
  ResultCache Cache;
};

/// Converts a response into the amevents-v1 record the daemon logs for
/// it (Name = "req:<id>", Preset = "serve").  \p Index is the arrival
/// sequence number.
fleet::JobEvent responseEvent(const Response &R, uint64_t Index);

/// Configuration of one Server.
struct ServerOptions {
  ServiceLimits Limits;
  /// Worker threads executing requests (>=1).
  unsigned Workers = 1;
  /// Unix-domain socket path; empty = stdio mode (read requests from fd
  /// 0, write responses to fd 1 — one process per client, used by the
  /// tests and for piping).
  std::string SocketPath;
  /// Optional amevents-v1 log of every completed request.
  std::string EventsPath;
  /// Print per-request lines to stderr.
  bool Verbose = false;
};

/// The long-lived accept/dispatch loop.  Lifecycle:
///
///   Server S(Opts);
///   // from a signal watcher thread: S.requestDrain();
///   int Rc = S.run();   // 0 on clean drain
///
/// run() accepts connections (or reads stdin), parses frames, sheds
/// beyond-capacity requests with `overloaded`, executes the rest on the
/// worker pool under per-request watchdog deadlines, and writes each
/// response back on the connection it came from.  requestDrain() (safe
/// from any thread; the signal handler itself only writes a self-pipe —
/// see tools/amserved.cpp) stops admission, lets in-flight requests
/// finish or time out, flushes the event log, and makes run() return 0.
class Server {
public:
  explicit Server(const ServerOptions &Opts);
  ~Server();

  int run();
  void requestDrain();

  Engine &engine() { return Eng; }

  struct Stats {
    uint64_t Accepted = 0;  ///< Frames admitted to the queue.
    uint64_t Completed = 0; ///< Responses written for admitted requests.
    uint64_t Shed = 0;      ///< overloaded responses.
    uint64_t Oversized = 0; ///< oversized responses.
    uint64_t BadFrames = 0; ///< bad_request responses for unparseable JSON.
  };
  Stats stats() const;

  /// Completed request events (for the drain-time history rollup).
  std::vector<fleet::JobEvent> takeEvents();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
  Engine Eng;
};

} // namespace am::service

#endif // AM_SUPPORT_SERVICE_H
