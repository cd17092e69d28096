#include "sim/flight_recorder.hpp"

#include <cstdio>

#include "common/metrics.hpp"

namespace la::sim {

const char* flight_event_kind_name(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kRetire: return "retire";
    case FlightEventKind::kTrap: return "trap";
    case FlightEventKind::kBusError: return "bus_error";
    case FlightEventKind::kCtrlState: return "ctrl_state";
    case FlightEventKind::kWatchdog: return "watchdog";
    case FlightEventKind::kFaultFired: return "fault_fired";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity, u32 pc_sample)
    : pc_sample_(pc_sample), retire_countdown_(pc_sample ? pc_sample : 1) {
  std::size_t cap = 16;
  while (cap < capacity) cap <<= 1;
  ring_.resize(cap);
  mask_ = cap - 1;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  const u64 n = head_ < ring_.size() ? head_ : ring_.size();
  out.reserve(static_cast<std::size_t>(n));
  for (u64 i = head_ - n; i != head_; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

std::string FlightRecorder::to_json(const std::string& reason, u64 cycle,
                                    int indent) const {
  const std::vector<FlightEvent> evs = events();
  const std::string nl = indent > 0 ? "\n" : "";
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent) : 0,
                        ' ');
  const std::string pad2 = pad + pad;

  std::string out = "{" + nl;
  out += pad + "\"reason\":";
  metrics::append_json_string(out, reason);
  out += "," + nl + pad + "\"cycle\":";
  metrics::append_json_number(out, static_cast<double>(cycle));
  out += "," + nl + pad + "\"capacity\":";
  metrics::append_json_number(out, static_cast<double>(ring_.size()));
  out += "," + nl + pad + "\"total_recorded\":";
  metrics::append_json_number(out, static_cast<double>(head_));
  const u64 dropped = head_ > ring_.size() ? head_ - ring_.size() : 0;
  out += "," + nl + pad + "\"dropped\":";
  metrics::append_json_number(out, static_cast<double>(dropped));
  out += "," + nl + pad + "\"events\":[" + nl;
  char buf[32];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const FlightEvent& e = evs[i];
    out += pad2 + "{\"cycle\":";
    metrics::append_json_number(out, static_cast<double>(e.cycle));
    out += ",\"kind\":\"";
    out += flight_event_kind_name(e.kind);
    out += "\",\"a\":\"0x";
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(e.a));
    out += buf;
    out += "\",\"b\":\"0x";
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(e.b));
    out += buf;
    out += "\"}";
    if (i + 1 != evs.size()) out += ",";
    out += nl;
  }
  out += pad + "]" + nl + "}" + nl;
  return out;
}

void FlightRecorder::clear() {
  head_ = 0;
  retire_countdown_ = pc_sample_ ? pc_sample_ : 1;
}

}  // namespace la::sim
