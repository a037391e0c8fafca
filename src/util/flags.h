#ifndef TSC_UTIL_FLAGS_H_
#define TSC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsc {

/// Minimal command-line flag parser for the benchmark harnesses and
/// examples. Accepts "--name=value", "--name value" and bare "--name"
/// (boolean true). Unrecognized positional arguments are collected.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Comma-separated list of doubles, e.g. "--space=1,2,5,10".
  std::vector<double> GetDoubleList(
      const std::string& name, const std::vector<double>& default_value) const;
  /// Comma-separated list of integers.
  std::vector<std::int64_t> GetIntList(
      const std::string& name,
      const std::vector<std::int64_t>& default_value) const;

  /// Every flag name given, sorted, without the leading "--".
  std::vector<std::string> names() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tsc

#endif  // TSC_UTIL_FLAGS_H_
