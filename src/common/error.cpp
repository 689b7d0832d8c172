#include "common/error.hpp"

#include <sstream>

namespace adept::detail {

void fail_check(const std::string& message) { throw Error(message); }

void fail_assert(const char* expr, const char* file, int line,
                 const std::string& message) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!message.empty()) os << " — " << message;
  throw Error(os.str());
}

}  // namespace adept::detail
