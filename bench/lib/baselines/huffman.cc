#include "lib/baselines/huffman.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "lib/baselines/lzss.h"
#include "util/logging.h"

namespace tsc {
namespace {

constexpr std::size_t kSymbols = 256;
constexpr std::uint8_t kMaxCodeLength = 56;  // fits a u64 bit accumulator

/// Computes per-symbol code lengths from byte frequencies via the
/// standard Huffman tree construction. Returns all-zero lengths for an
/// empty input.
std::vector<std::uint8_t> CodeLengths(
    const std::vector<std::uint64_t>& freqs) {
  struct Node {
    std::uint64_t freq;
    int left;   // node index or -1
    int right;
    int symbol;  // leaf symbol or -1
  };
  std::vector<Node> nodes;
  using HeapEntry = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back(Node{freqs[s], -1, -1, static_cast<int>(s)});
    heap.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::uint8_t> lengths(kSymbols, 0);
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first assignment of depths as lengths.
  struct Frame {
    int node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack = {{heap.top().second, 0}};
  std::uint8_t max_len = 0;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(frame.node)];
    if (node.symbol >= 0) {
      lengths[static_cast<std::size_t>(node.symbol)] = frame.depth;
      max_len = std::max(max_len, frame.depth);
    } else {
      stack.push_back({node.left, static_cast<std::uint8_t>(frame.depth + 1)});
      stack.push_back({node.right, static_cast<std::uint8_t>(frame.depth + 1)});
    }
  }
  if (max_len > kMaxCodeLength) {
    // Pathological skew: fall back to fixed 8-bit codes (a valid
    // complete code over 256 symbols). Compression degrades, correctness
    // does not.
    std::fill(lengths.begin(), lengths.end(), 8);
  }
  return lengths;
}

/// Canonical code assignment: symbols sorted by (length, value) receive
/// consecutive codes per length.
void CanonicalCodes(const std::vector<std::uint8_t>& lengths,
                    std::vector<std::uint64_t>* codes) {
  codes->assign(kSymbols, 0);
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (lengths[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint64_t code = 0;
  std::uint8_t previous_length = 0;
  for (const std::size_t s : order) {
    code <<= (lengths[s] - previous_length);
    (*codes)[s] = code;
    ++code;
    previous_length = lengths[s];
  }
}

class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void Write(std::uint64_t code, std::uint8_t bits) {
    for (std::uint8_t i = bits; i-- > 0;) {
      const int bit = static_cast<int>((code >> i) & 1);
      acc_ = static_cast<std::uint8_t>((acc_ << 1) | bit);
      if (++filled_ == 8) {
        out_->push_back(acc_);
        acc_ = 0;
        filled_ = 0;
      }
    }
  }

  void Flush() {
    if (filled_ > 0) {
      out_->push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::vector<std::uint8_t>* out_;
  std::uint8_t acc_ = 0;
  int filled_ = 0;
};

class BitReader {
 public:
  BitReader(std::span<const std::uint8_t> data, std::size_t offset)
      : data_(data), byte_(offset) {}

  /// Returns -1 at end of data.
  int NextBit() {
    if (byte_ >= data_.size()) return -1;
    const int bit = (data_[byte_] >> (7 - bit_)) & 1;
    if (++bit_ == 8) {
      bit_ = 0;
      ++byte_;
    }
    return bit;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t byte_;
  int bit_ = 0;
};

}  // namespace

std::vector<std::uint8_t> HuffmanCompress(
    std::span<const std::uint8_t> input) {
  std::vector<std::uint64_t> freqs(kSymbols, 0);
  for (const std::uint8_t b : input) ++freqs[b];
  const std::vector<std::uint8_t> lengths = CodeLengths(freqs);
  std::vector<std::uint64_t> codes;
  CanonicalCodes(lengths, &codes);

  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + kSymbols + 16);
  const std::uint64_t size = input.size();
  out.resize(8);
  std::memcpy(out.data(), &size, 8);
  out.insert(out.end(), lengths.begin(), lengths.end());

  BitWriter writer(&out);
  for (const std::uint8_t b : input) writer.Write(codes[b], lengths[b]);
  writer.Flush();
  return out;
}

StatusOr<std::vector<std::uint8_t>> HuffmanDecompress(
    std::span<const std::uint8_t> input) {
  if (input.size() < 8 + kSymbols) {
    return Status::IoError("truncated huffman header");
  }
  std::uint64_t size = 0;
  std::memcpy(&size, input.data(), 8);
  if (size > (1ULL << 40)) return Status::IoError("implausible size");
  std::vector<std::uint8_t> lengths(input.begin() + 8,
                                    input.begin() + 8 + kSymbols);
  std::vector<std::uint64_t> codes;
  CanonicalCodes(lengths, &codes);

  // Decode table: for each length, the first canonical code and the
  // symbols of that length in canonical order.
  std::vector<std::vector<std::size_t>> symbols_by_length(kMaxCodeLength + 1);
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (lengths[s] > 0 && lengths[s] <= kMaxCodeLength) {
      symbols_by_length[lengths[s]].push_back(s);
    } else if (lengths[s] > kMaxCodeLength) {
      return Status::IoError("corrupt code length");
    }
  }
  std::vector<std::uint64_t> first_code(kMaxCodeLength + 1, 0);
  std::uint64_t code = 0;
  for (std::size_t len = 1; len <= kMaxCodeLength; ++len) {
    code <<= 1;
    first_code[len] = code;
    code += symbols_by_length[len].size();
  }

  std::vector<std::uint8_t> out;
  out.reserve(size);
  BitReader reader(input, 8 + kSymbols);
  while (out.size() < size) {
    std::uint64_t acc = 0;
    std::size_t len = 0;
    std::size_t symbol = kSymbols;
    while (len < kMaxCodeLength) {
      const int bit = reader.NextBit();
      if (bit < 0) return Status::IoError("truncated huffman body");
      acc = (acc << 1) | static_cast<std::uint64_t>(bit);
      ++len;
      const auto& bucket = symbols_by_length[len];
      if (!bucket.empty() && acc >= first_code[len] &&
          acc < first_code[len] + bucket.size()) {
        symbol = bucket[static_cast<std::size_t>(acc - first_code[len])];
        break;
      }
    }
    if (symbol == kSymbols) return Status::IoError("bad huffman code");
    out.push_back(static_cast<std::uint8_t>(symbol));
  }
  return out;
}

std::vector<std::uint8_t> DeflateLikeCompress(
    std::span<const std::uint8_t> input) {
  const std::vector<std::uint8_t> lz = LzssCompress(input);
  return HuffmanCompress(lz);
}

StatusOr<std::vector<std::uint8_t>> DeflateLikeDecompress(
    std::span<const std::uint8_t> input) {
  TSC_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> lz,
                       HuffmanDecompress(input));
  return LzssDecompress(lz);
}

}  // namespace tsc
