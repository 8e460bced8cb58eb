// Minimal command-line flag parsing for the example and benchmark drivers.
// Supports "--name value" and "--name=value" plus boolean "--flag".
#pragma once

#include <map>
#include <string>
#include <vector>

namespace irrlu {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace irrlu
