//===- service/Render.h - The one report renderer ---------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// The one place a profiled run becomes report text. `lud-run` (live and
/// --replay), `lud-replay`, `lud-analyze` and the `lud-serve` daemon's
/// GET /report all render their "===" sections through these functions,
/// so the same folded session — or, for lud-analyze, the same graph —
/// produces byte-identical sections whichever frontend asks. The replay
/// summary prints the sealed FrozenGraph footprint ("sealed X KB"): unlike
/// the mutable DepGraph's capacity-dependent number, the sealed CSR
/// footprint is a pure function of the graph's contents, hence identical
/// however the sessions were buffered on the way in.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_RENDER_H
#define LUD_SERVICE_RENDER_H

#include "analysis/Clients.h"

#include <cstdint>
#include <string_view>

namespace lud {

class Module;
class OutStream;
class ProfileSession;
class FrozenGraph;

namespace serve {

/// Which report sections to render, mirroring the tools' flags; client
/// sections follow the session's own ClientSet.
struct ReportSpec {
  bool Report = false;
  bool Dead = false;
  bool Overwrites = false;
  bool Predicates = false;
  bool Methods = false;
  bool Caches = false;
  ClientOptions Client;
};

/// The two-line replay summary: events/trace counts and the Gcost size
/// line ("Gcost: N nodes, E edges, sealed X KB, CR c").
void renderReplaySummary(const ProfileSession &S, const FrozenGraph &FG,
                         uint64_t Events, uint64_t NumTraces, OutStream &OS);

/// The "===" report sections, in order: low-utility report, overwrites,
/// predicates, methods, cache effectiveness, client sections. One
/// CostModel over \p FG serves them all. \p S may be null when only a
/// graph exists (lud-analyze); the sections that read session state —
/// overwrites, predicates and clients — are then skipped. Spec.Dead is
/// not rendered here: bloat metrics come from renderBloatMetrics, so that
/// lud-run can put its optimizer section in between.
void renderReportSections(const Module &M, const ProfileSession *S,
                          const FrozenGraph &FG, const ReportSpec &Spec,
                          OutStream &OS);

/// The "=== \p Heading ===" section with the IPD/IPP/NLD line of the
/// dead-value analysis over \p FG, relative to \p Denominator executed
/// instruction instances.
void renderBloatMetrics(const FrozenGraph &FG, uint64_t Denominator,
                        OutStream &OS,
                        std::string_view Heading = "bloat metrics");

/// Summary, sections and (Spec.Dead) bloat metrics relative to the
/// graph's own frequency total — the whole report, as GET /report serves
/// it.
void renderReplayReport(const Module &M, const ProfileSession &S,
                        const FrozenGraph &FG, uint64_t Events,
                        uint64_t NumTraces, const ReportSpec &Spec,
                        OutStream &OS);

} // namespace serve
} // namespace lud

#endif // LUD_SERVICE_RENDER_H
