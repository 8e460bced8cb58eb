#include "common/cli.hpp"

#include <cstdlib>

namespace irrlu {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean flag
    }
  }
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() || it->second.empty()
             ? fallback
             : std::atoi(it->second.c_str());
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() || it->second.empty()
             ? fallback
             : std::atof(it->second.c_str());
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes")
    return true;
  return false;
}

}  // namespace irrlu
