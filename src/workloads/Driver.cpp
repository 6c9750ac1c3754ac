//===- workloads/Driver.cpp - Run workloads, collect metrics ---------------===//

#include "workloads/Driver.h"

#include "analysis/Report.h"
#include "obs/PhaseTimer.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

using namespace lud;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

} // namespace

ProfileSession::ProfileSession(SessionConfig Cfg) : Cfg(std::move(Cfg)) {}

ProfileSession::~ProfileSession() {
  // Flush order matters: the recorder's writer drains into the stream,
  // which writes into the file.
  Recorder.reset();
  RecordStream.reset();
  if (RecordFile)
    std::fclose(RecordFile);
}

void ProfileSession::ensureProfilers(const Module &M) {
  if (Cfg.CollectStats && !Stats)
    Stats = std::make_unique<obs::MetricsRegistry>();
  if ((Cfg.RecordSink || !Cfg.RecordPath.empty()) && !Recorder &&
      RecordErr.empty()) {
    OutStream *Sink = Cfg.RecordSink;
    if (!Sink) {
      RecordFile = std::fopen(Cfg.RecordPath.c_str(), "wb");
      if (!RecordFile) {
        RecordErr = "cannot write '" + Cfg.RecordPath + "'";
      } else {
        RecordStream = std::make_unique<FileOutStream>(RecordFile);
        Sink = RecordStream.get();
      }
    }
    if (Sink)
      Recorder = std::make_unique<trace::TraceRecorder>(*Sink);
  }
  if (Cfg.Clients.any())
    Cfg.Instrument = true; // Clients read the substrate's heap tags.
  if (Cfg.Instrument && !Slicing)
    Slicing = std::make_unique<SlicingProfiler>(Cfg.Slicing);
  // The client graphs follow the substrate's HotPathCaches setting, so the
  // cache-free reference path covers every Gcost builder.
  bool Memo = Cfg.Slicing.HotPathCaches;
  if (Cfg.Clients.hasCopy() && !Copy) {
    Copy = std::make_unique<CopyProfiler>(*Slicing);
    Copy->graph().setHotPathMemo(Memo);
  }
  if (Cfg.Clients.hasNullness() && !Null) {
    Null = std::make_unique<NullnessProfiler>();
    Null->graph().setHotPathMemo(Memo);
  }
  if (Cfg.Clients.hasTypestate() && !Type) {
    TypestateSpec Spec =
        Cfg.Typestate.NumStates ? Cfg.Typestate : lifecycleSpec(M);
    Type = std::make_unique<TypestateProfiler>(std::move(Spec), *Slicing);
    Type->graph().setHotPathMemo(Memo);
  }
}

TimedRun ProfileSession::run(const Module &M) {
  ensureProfilers(M);
  Heap H;
  TimedRun Out;
  obs::PhaseTimer Span(Stats.get(), "interpret");
  auto T0 = std::chrono::steady_clock::now();
  if (Recorder) {
    // Recording run: the recorder leads the pipeline so the trace captures
    // the hook stream regardless of which analyses ride along (a hook's
    // arguments are identical at every stage position; the order is only a
    // convention). Null stages are skipped, so this one instantiation
    // covers recorded baselines, substrate-only runs and full client sets.
    using Pipeline =
        ComposedProfiler<trace::TraceRecorder, SlicingProfiler, CopyProfiler,
                         NullnessProfiler, TypestateProfiler>;
    Pipeline P(Recorder.get(), Slicing.get(), Copy.get(), Null.get(),
               Type.get());
    Out.Run = runWithEngine(Cfg.Engine, M, H, P, Cfg.Run);
  } else if (!Slicing) {
    // Empty pipeline: the stock-JVM baseline, bit-identical in behavior to
    // the old NoopProfiler path.
    ComposedProfiler<> P;
    Out.Run = runWithEngine(Cfg.Engine, M, H, P, Cfg.Run);
  } else if (Cfg.Clients.empty()) {
    // Substrate only: keep the single-profiler instantiation so Table 1
    // overhead numbers measure the substrate, not pipeline dispatch.
    Out.Run = runWithEngine(Cfg.Engine, M, H, *Slicing, Cfg.Run);
  } else {
    // One pass, every client: substrate first (it writes the heap tags the
    // clients read), then the clients; disabled stages are null and skipped.
    using Pipeline = ComposedProfiler<SlicingProfiler, CopyProfiler,
                                      NullnessProfiler, TypestateProfiler>;
    Pipeline P(Slicing.get(), Copy.get(), Null.get(), Type.get());
    Out.Run = runWithEngine(Cfg.Engine, M, H, P, Cfg.Run);
  }
  Out.Seconds = secondsSince(T0);
  Span.stop();
  // The recorder's TraceWriter drained into the stream at endTrace, but a
  // file sink still has stdio buffering between it and the disk. Flush so
  // the trace is replayable as soon as run() returns, not only when the
  // session dies — the sharded driver keeps shard 0 alive as the fold
  // target while its trace file is already being consumed.
  if (RecordFile)
    std::fflush(RecordFile);
  if (Stats) {
    obs::MetricsRegistry &R = *Stats;
    R.add(R.counter("run.count"), 1);
    R.add(R.counter("run.instructions"), Out.Run.ExecutedInstrs);
    R.add(R.counter("run.calls"), Out.Run.Calls);
    R.add(R.counter("run.objects_allocated"), Out.Run.ObjectsAllocated);
    R.setMax(R.gauge("run.peak_frame_depth", obs::Unit::Count,
                     obs::Merge::Max),
             Out.Run.PeakFrameDepth);
    refreshDerivedStats();
  }
  return Out;
}

ReplayRun ProfileSession::replay(const Module &M, std::string_view Bytes) {
  ensureProfilers(M);
  ReplayRun Out;
  obs::PhaseTimer Span(Stats.get(), "replay");
  auto T0 = std::chrono::steady_clock::now();
  trace::ReplayStats RS;
  // Same pipeline shapes as run(), minus the recorder: replay feeds the
  // analyses, it does not transcode the trace.
  if (!Slicing) {
    ComposedProfiler<> P;
    Out.Ok = trace::replayTrace(M, Bytes, P, Out.Error, &RS);
  } else if (Cfg.Clients.empty()) {
    Out.Ok = trace::replayTrace(M, Bytes, *Slicing, Out.Error, &RS);
  } else {
    using Pipeline = ComposedProfiler<SlicingProfiler, CopyProfiler,
                                      NullnessProfiler, TypestateProfiler>;
    Pipeline P(Slicing.get(), Copy.get(), Null.get(), Type.get());
    Out.Ok = trace::replayTrace(M, Bytes, P, Out.Error, &RS);
  }
  Out.Events = RS.Events;
  Out.Segments = RS.Segments;
  Out.Seconds = secondsSince(T0);
  Span.stop();
  if (Stats) {
    obs::MetricsRegistry &R = *Stats;
    R.add(R.counter("replay.count"), 1);
    R.add(R.counter("replay.events"), RS.Events);
    R.add(R.counter("replay.segments"), RS.Segments);
    R.add(R.counter("replay.bytes"), Bytes.size());
    refreshDerivedStats();
  }
  return Out;
}

ReplayRun ProfileSession::replayFile(const Module &M,
                                     const std::string &Path) {
  std::string Bytes;
  if (!trace::readFileBytes(Path, Bytes)) {
    ReplayRun Out;
    Out.Error = "cannot read '" + Path + "': " +
                (errno ? std::strerror(errno) : "unknown error");
    return Out;
  }
  return replay(M, Bytes);
}

void ProfileSession::refreshDerivedStats() {
  if (!Stats)
    return;
  obs::PhaseTimer Span(Stats.get(), "collect");
  if (Recorder)
    Recorder->accountStats(*Stats);
  if (Slicing)
    Slicing->accountStats(*Stats);
  if (Copy)
    Copy->accountStats(*Stats);
  if (Null)
    Null->accountStats(*Stats);
  if (Type)
    Type->accountStats(*Stats);
}

void ProfileSession::mergeFrom(const ProfileSession &O) {
  if (Slicing && O.Slicing)
    Slicing->mergeFrom(*O.Slicing);
  if (Copy && O.Copy)
    Copy->mergeFrom(*O.Copy);
  if (Null && O.Null)
    Null->mergeFrom(*O.Null);
  if (Type && O.Type)
    Type->mergeFrom(*O.Type);
  if (Stats && O.Stats) {
    Stats->mergeFrom(*O.Stats);
    // Gauges and histograms must describe the *merged* profilers, not a
    // fold of per-shard snapshots; re-derive them now.
    refreshDerivedStats();
  }
}

void ProfileSession::printClientReports(const Module &M, OutStream &OS,
                                        size_t TopK) const {
  printClientSections(Cfg.Clients, Copy.get(), Null.get(), Type.get(), M, OS,
                      TopK);
}

SessionConfig SessionConfig::baseline(RunConfig RC) {
  SessionConfig SC;
  SC.Instrument = false;
  SC.Run = RC;
  return SC;
}

SessionConfig SessionConfig::profiled(SlicingConfig SCfg, RunConfig RC) {
  SessionConfig SC;
  SC.Slicing = SCfg;
  SC.Run = RC;
  return SC;
}

