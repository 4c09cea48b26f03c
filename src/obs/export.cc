#include "obs/export.h"

#include <fstream>
#include <ostream>
#include <sstream>

namespace acdc::obs {
namespace {

void append_quad(std::string& out, std::uint32_t ip, std::uint16_t port) {
  out += std::to_string((ip >> 24) & 0xff);
  out += '.';
  out += std::to_string((ip >> 16) & 0xff);
  out += '.';
  out += std::to_string((ip >> 8) & 0xff);
  out += '.';
  out += std::to_string(ip & 0xff);
  out += ':';
  out += std::to_string(port);
}

// Source/metric names are generated internally, but escape anyway so a
// hostile name cannot corrupt the JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void write_args_json(const TraceEvent& ev, std::ostream& os) {
  const EventMeta& meta = event_meta(ev.type);
  bool first = true;
  auto field = [&](const char* label, auto value) {
    if (label == nullptr) return;
    os << (first ? "" : ",") << '"' << label << "\":" << value;
    first = false;
  };
  field(meta.a, ev.a);
  field(meta.b, ev.b);
  field(meta.x, ev.x);
  if (first) os << "\"_\":0";  // keep args a valid non-empty object
}

// Whether this type reads as a continuous signal (counter track) rather
// than a discrete occurrence (instant event) in Perfetto.
bool is_counter_like(EventType type) {
  switch (type) {
    case EventType::kWindowEnforced:
    case EventType::kAlphaUpdate:
    case EventType::kCwndUpdate:
    case EventType::kQueueEnqueue:
    case EventType::kQueueOccupancy:
    case EventType::kTcpCwnd:
      return true;
    default:
      return false;
  }
}

// The one number a counter track should plot for this event.
double counter_value(const TraceEvent& ev) {
  if (ev.type == EventType::kAlphaUpdate) return ev.x;
  return static_cast<double>(ev.a);
}

const char* counter_track_name(EventType type) {
  switch (type) {
    case EventType::kWindowEnforced:
      return "rwnd_bytes";
    case EventType::kAlphaUpdate:
      return "alpha";
    case EventType::kCwndUpdate:
      return "vcc_cwnd_bytes";
    case EventType::kQueueEnqueue:
    case EventType::kQueueOccupancy:
      return "queue_bytes";
    case EventType::kTcpCwnd:
      return "tcp_cwnd_bytes";
    default:
      return "value";
  }
}

template <typename Fn>
bool write_file(const std::string& path, Fn&& fn) {
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) return false;
  fn(os);
  return os.good();
}

}  // namespace

std::string flow_to_string(const TraceEvent& ev) {
  if (!ev.flow_scoped()) return "";
  std::string out;
  append_quad(out, ev.src_ip, ev.src_port);
  out += '>';
  append_quad(out, ev.dst_ip, ev.dst_port);
  return out;
}

void write_trace_jsonl(const MergedTrace& trace, std::ostream& os) {
  trace.for_each([&](const TraceEvent& ev) {
    const EventMeta& meta = event_meta(ev.type);
    os << "{\"t_ns\":" << ev.t << ",\"type\":\"" << meta.name << '"';
    if (ev.source != 0) {
      os << ",\"src\":\"" << json_escape(trace.source_name(ev.source)) << '"';
    }
    const std::string flow = flow_to_string(ev);
    if (!flow.empty()) os << ",\"flow\":\"" << flow << '"';
    os << ',';
    write_args_json(ev, os);
    os << "}\n";
  });
}

void write_chrome_trace(const MergedTrace& trace,
                        const MetricsRegistry* metrics, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };

  // Process/thread naming metadata: pid 0 = datapath, tid = source id.
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"acdc datapath\"}}";
  for (std::uint32_t id = 0; id < trace.sources.size(); ++id) {
    const std::string& name = trace.sources[id];
    if (name.empty()) continue;
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << id
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }

  trace.for_each([&](const TraceEvent& ev) {
    const EventMeta& meta = event_meta(ev.type);
    const double ts_us = static_cast<double>(ev.t) / 1000.0;
    sep();
    if (is_counter_like(ev.type)) {
      os << "{\"name\":\"" << counter_track_name(ev.type)
         << "\",\"ph\":\"C\",\"ts\":" << ts_us << ",\"pid\":0,\"tid\":"
         << ev.source << ",\"args\":{\"" << meta.name
         << "\":" << counter_value(ev) << "}}";
      return;
    }
    os << "{\"name\":\"" << meta.name << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
       << ts_us << ",\"pid\":0,\"tid\":" << ev.source << ",\"args\":{";
    const std::string flow = flow_to_string(ev);
    if (!flow.empty()) os << "\"flow\":\"" << flow << "\",";
    write_args_json(ev, os);
    os << "}}";
  });

  if (metrics != nullptr && !metrics->snapshots().empty()) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"metrics\"}}";
    const auto& names = metrics->names();
    for (const auto& snap : metrics->snapshots()) {
      const double ts_us = static_cast<double>(snap.t) / 1000.0;
      for (std::size_t i = 0; i < snap.values.size(); ++i) {
        sep();
        os << "{\"name\":\"" << json_escape(names[i])
           << "\",\"ph\":\"C\",\"ts\":" << ts_us
           << ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" << snap.values[i]
           << "}}";
      }
    }
  }
  os << "\n]}\n";
}

bool write_trace_jsonl_file(const MergedTrace& trace,
                            const std::string& path) {
  return write_file(path, [&](std::ostream& os) {
    write_trace_jsonl(trace, os);
  });
}

bool write_chrome_trace_file(const MergedTrace& trace,
                             const MetricsRegistry* metrics,
                             const std::string& path) {
  return write_file(path, [&](std::ostream& os) {
    write_chrome_trace(trace, metrics, os);
  });
}

bool write_metrics_csv_file(const MetricsRegistry& metrics,
                            const std::string& path) {
  return write_file(path, [&](std::ostream& os) { metrics.write_csv(os); });
}

}  // namespace acdc::obs
