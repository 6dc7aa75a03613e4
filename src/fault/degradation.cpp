#include "fault/degradation.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace greencap::fault {

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  for (const DegradationEvent& e : events_) {
    os << "[" << e.component << "] t=" << e.at_s << "s " << e.detail;
    if (!e.from.empty() || !e.to.empty()) {
      os << ": " << e.from << " -> " << e.to;
    }
    if (!e.reason.empty()) {
      os << " (" << e.reason << ")";
    }
    os << '\n';
  }
  return os.str();
}

void DegradationReport::write_json(std::ostream& os) const {
  std::string out = "{\"degradations\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const DegradationEvent& e = events_[i];
    out += i == 0 ? "{\"component\": " : ", {\"component\": ";
    obs::json_append_string(out, e.component);
    out += ", \"detail\": ";
    obs::json_append_string(out, e.detail);
    out += ", \"from\": ";
    obs::json_append_string(out, e.from);
    out += ", \"to\": ";
    obs::json_append_string(out, e.to);
    out += ", \"reason\": ";
    obs::json_append_string(out, e.reason);
    out += ", \"at_s\": ";
    obs::json_append_number(out, e.at_s);
    out += "}";
  }
  out += "]}\n";
  os << out;
}

}  // namespace greencap::fault
