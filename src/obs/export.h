// Trace exporters: turn a merged trace (obs/merge.h; merge_recorders() of
// one recorder keeps its events and source ids) and optionally the metrics
// snapshots into files an analysis tool can open.
//
//   - JSONL:  one JSON object per event; jq/pandas-friendly, and the flat
//     format forensics/trace_import reads back.
//   - Chrome trace-event format: loads in chrome://tracing and Perfetto.
//     Continuous quantities (enforced RWND, virtual cwnd, DCTCP alpha,
//     queue occupancy) are emitted as counter tracks ("ph":"C") per source;
//     discrete events (ECN marks, drops, PACK/FACK, state changes) as
//     instant events ("ph":"i"). Metrics snapshots become counter tracks
//     under a separate "metrics" process.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"

namespace acdc::obs {

// Events come from the globally time-ordered multi-shard merge, so a
// sharded run exports one coherent trace instead of S arbitrarily
// interleaved rings.
void write_trace_jsonl(const MergedTrace& trace, std::ostream& os);
void write_chrome_trace(const MergedTrace& trace,
                        const MetricsRegistry* metrics, std::ostream& os);

// File helpers; return false when the file cannot be opened.
bool write_trace_jsonl_file(const MergedTrace& trace, const std::string& path);
bool write_chrome_trace_file(const MergedTrace& trace,
                             const MetricsRegistry* metrics,
                             const std::string& path);
bool write_metrics_csv_file(const MetricsRegistry& metrics,
                            const std::string& path);

// "a.b.c.d:port>a.b.c.d:port", or "" when the event has no flow identity.
std::string flow_to_string(const TraceEvent& ev);

}  // namespace acdc::obs
