//===- workloads/ParallelDriver.h - Sharded profiling driver ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded profiling driver: runs are sharded over a small thread pool
/// with one ProfileSession (and one Heap and engine) per shard, and the
/// per-shard sessions are folded back into one with
/// ProfileSession::mergeFrom. Nothing is shared between in-flight shards,
/// so no locks sit on the event hot path; the fold happens once, after the
/// pool drains, in shard-index order. Because the fold order is fixed and
/// mergeFrom re-interns nodes in the source graph's creation order, the
/// merged profile is identical whatever Threads is set to — Threads = 1
/// reproduces the sequential result bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_WORKLOADS_PARALLELDRIVER_H
#define LUD_WORKLOADS_PARALLELDRIVER_H

#include "workloads/Driver.h"

#include <string>

namespace lud {

/// Sharded run of a full profile session: each shard is a ProfileSession
/// (substrate plus any enabled client analyses, one pass per shard), and
/// the fold covers client state too via ProfileSession::mergeFrom.
/// Shard-index order plus order-preserving client merges make the result
/// independent of Threads.
struct ShardedSession {
  /// Outcome of shard 0 (shards are deterministic replicas).
  RunResult Run;
  /// Executed instructions summed over all shards.
  uint64_t TotalInstrs = 0;
  /// Wall time for the whole batch, pool included.
  double Seconds = 0;
  /// Trace events recorded (live + record) or replayed, summed over shards.
  uint64_t Events = 0;
  /// First record/replay failure across the shards ("" when all succeeded).
  /// Live runs always leave this empty.
  std::string Error;
  /// Shard 0's session after folding shards 1..N-1 into it in index order;
  /// null when Shards == 0, or when a sharded replay failed (a partially
  /// replayed session must not be consumed).
  std::unique_ptr<ProfileSession> Session;
};

/// Runs \p Shards sessions configured by \p Cfg over \p M, at most
/// \p Threads at once, and folds them into one. When Cfg.RecordPath is set
/// each shard records to its own file, shardTracePath(RecordPath, S,
/// Shards); a caller-provided Cfg.RecordSink is handed to every shard
/// unchanged, which interleaves segments unless Shards == 1 or Threads ==
/// 1 (sequential shards append whole segments, which replays as the merged
/// session).
ShardedSession runShardedSession(const Module &M, unsigned Shards,
                                 SessionConfig Cfg = {}, unsigned Threads = 4);

// replayShardedSession — the replay twin of runShardedSession — lives in
// service/SessionManager.h now: it is a batch frontend over the service's
// SessionManager, so the sharded replay, lud-replay, and the lud-serve
// daemon all fold through one session-lifecycle API.

/// Per-shard trace file name: \p Path itself for a single shard, otherwise
/// "<Path>.shardN". Both the recording and replaying sides derive names
/// through this, so a record/replay pair only shares the base path.
std::string shardTracePath(const std::string &Path, unsigned Shard,
                           unsigned Shards);

} // namespace lud

#endif // LUD_WORKLOADS_PARALLELDRIVER_H
