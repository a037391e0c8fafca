#include "lib/baselines/lzss.h"

#include <cstdio>
#include <cstring>

namespace tsc {
namespace {

constexpr std::size_t kWindowBits = 12;
constexpr std::size_t kWindowSize = 1u << kWindowBits;  // 4096
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = kMinMatch + 15;  // 4-bit length field
constexpr std::size_t kHashSize = 1u << 15;
constexpr std::size_t kMaxChainDepth = 64;

std::size_t Hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 15);
}

}  // namespace

std::vector<std::uint8_t> LzssCompress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  const std::uint64_t original_size = input.size();
  out.resize(8);
  std::memcpy(out.data(), &original_size, 8);

  // Hash chains over 3-byte prefixes: head table + previous-position links.
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(input.size(), -1);

  std::size_t pos = 0;
  std::size_t control_index = 0;
  int control_bit = 8;  // forces a fresh control byte on first token

  auto begin_token = [&](bool literal) {
    if (control_bit == 8) {
      control_index = out.size();
      out.push_back(0);
      control_bit = 0;
    }
    if (literal) {
      out[control_index] =
          static_cast<std::uint8_t>(out[control_index] | (1u << control_bit));
    }
    ++control_bit;
  };

  while (pos < input.size()) {
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    if (pos + kMinMatch <= input.size()) {
      const std::size_t h = Hash3(&input[pos]);
      std::int64_t candidate = head[h];
      std::size_t depth = 0;
      while (candidate >= 0 && depth < kMaxChainDepth) {
        const std::size_t cand = static_cast<std::size_t>(candidate);
        if (pos - cand > kWindowSize) break;
        std::size_t len = 0;
        const std::size_t limit = std::min(kMaxMatch, input.size() - pos);
        while (len < limit && input[cand + len] == input[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_offset = pos - cand;
          if (len == kMaxMatch) break;
        }
        candidate = prev[cand];
        ++depth;
      }
      // Insert current position into its chain.
      prev[pos] = head[h];
      head[h] = static_cast<std::int64_t>(pos);
    }

    if (best_len >= kMinMatch) {
      begin_token(/*literal=*/false);
      const std::uint16_t offset = static_cast<std::uint16_t>(best_offset - 1);
      const std::uint8_t length = static_cast<std::uint8_t>(best_len - kMinMatch);
      out.push_back(static_cast<std::uint8_t>(offset & 0xff));
      out.push_back(static_cast<std::uint8_t>(((offset >> 8) & 0x0f) |
                                              (length << 4)));
      // Register the skipped positions in the hash chains too, so later
      // matches can point inside this match.
      for (std::size_t s = 1; s < best_len; ++s) {
        const std::size_t p = pos + s;
        if (p + kMinMatch <= input.size()) {
          const std::size_t h = Hash3(&input[p]);
          prev[p] = head[h];
          head[h] = static_cast<std::int64_t>(p);
        }
      }
      pos += best_len;
    } else {
      begin_token(/*literal=*/true);
      out.push_back(input[pos]);
      ++pos;
    }
  }
  return out;
}

StatusOr<std::vector<std::uint8_t>> LzssDecompress(
    std::span<const std::uint8_t> input) {
  if (input.size() < 8) return Status::IoError("truncated LZSS header");
  std::uint64_t original_size = 0;
  std::memcpy(&original_size, input.data(), 8);
  if (original_size > (1ULL << 40)) {
    return Status::IoError("implausible LZSS size");
  }
  std::vector<std::uint8_t> out;
  out.reserve(original_size);

  std::size_t pos = 8;
  std::uint8_t control = 0;
  int control_bit = 8;
  while (out.size() < original_size) {
    if (control_bit == 8) {
      if (pos >= input.size()) return Status::IoError("truncated LZSS body");
      control = input[pos++];
      control_bit = 0;
    }
    const bool literal = (control >> control_bit) & 1;
    ++control_bit;
    if (literal) {
      if (pos >= input.size()) return Status::IoError("truncated literal");
      out.push_back(input[pos++]);
    } else {
      if (pos + 1 >= input.size()) return Status::IoError("truncated match");
      const std::uint8_t lo = input[pos++];
      const std::uint8_t hi = input[pos++];
      const std::size_t offset =
          (static_cast<std::size_t>(hi & 0x0f) << 8 | lo) + 1;
      const std::size_t length = (hi >> 4) + kMinMatch;
      if (offset > out.size()) return Status::IoError("bad match offset");
      const std::size_t start = out.size() - offset;
      for (std::size_t s = 0; s < length; ++s) {
        out.push_back(out[start + s]);  // may overlap, byte-at-a-time is key
      }
    }
  }
  if (out.size() != original_size) return Status::IoError("size mismatch");
  return out;
}

std::vector<std::uint8_t> MatrixToBytes(const Matrix& m) {
  std::vector<std::uint8_t> bytes(m.data().size() * sizeof(double));
  if (!bytes.empty()) {
    std::memcpy(bytes.data(), m.data().data(), bytes.size());
  }
  return bytes;
}

std::vector<std::uint8_t> MatrixToText(const Matrix& m, int precision) {
  std::string text;
  text.reserve(m.data().size() * 8);
  char buf[64];
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      std::snprintf(buf, sizeof(buf), "%.*f", precision, m(i, j));
      if (j > 0) text += ',';
      text += buf;
    }
    text += '\n';
  }
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

double LzssRatio(std::span<const std::uint8_t> input) {
  if (input.empty()) return 0.0;
  const std::vector<std::uint8_t> compressed = LzssCompress(input);
  return static_cast<double>(compressed.size()) /
         static_cast<double>(input.size());
}

}  // namespace tsc
