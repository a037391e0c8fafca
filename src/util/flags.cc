#include "util/flags.h"

#include <cstdlib>
#include <sstream>

namespace tsc {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

FlagParser::FlagParser(int argc, char** argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::vector<std::string> FlagParser::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& entry : values_) out.push_back(entry.first);
  return out;
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& name,
                                std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& name, const std::vector<double>& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(std::strtod(token.c_str(), nullptr));
  }
  return out;
}

std::vector<std::int64_t> FlagParser::GetIntList(
    const std::string& name,
    const std::vector<std::int64_t>& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(std::strtoll(token.c_str(), nullptr, 10));
  }
  return out;
}

}  // namespace tsc
