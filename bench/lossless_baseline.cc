// Reproduces the Section 5.1 lossless reference point: "the Lempel-Ziv
// (gzip) algorithm had a space requirement of s ~= 25% for both datasets".
// We run our from-scratch LZSS coder over both the raw binary matrix and
// its CSV-text rendering, verify the round trip, and report the achieved
// ratios — alongside a reminder of why this method cannot serve the
// paper's problem (no random access: any cell read decompresses the
// prefix).
//
// Flags: --phone_rows=2000

#include <cstdio>

#include "common/bench_datasets.h"
#include "lib/baselines/huffman.h"
#include "lib/baselines/lzss.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

void Report(const tsc::Dataset& dataset, tsc::TablePrinter* table) {
  const auto binary = tsc::MatrixToBytes(dataset.values);
  const auto text = tsc::MatrixToText(dataset.values);

  tsc::Timer timer;
  const auto binary_lz = tsc::LzssCompress(binary);
  const auto text_lz = tsc::LzssCompress(text);
  // The gzip analogue: LZ77 stage followed by a Huffman entropy stage.
  const auto binary_deflate = tsc::DeflateLikeCompress(binary);
  const auto text_deflate = tsc::DeflateLikeCompress(text);
  const double seconds = timer.ElapsedSeconds();

  // Round-trip check: lossless must mean lossless.
  const auto binary_back = tsc::DeflateLikeDecompress(binary_deflate);
  const auto text_back = tsc::DeflateLikeDecompress(text_deflate);
  const bool ok = binary_back.ok() && *binary_back == binary &&
                  text_back.ok() && *text_back == text;

  table->AddRow(
      {dataset.name,
       tsc::TablePrinter::Percent(100.0 * binary_lz.size() / binary.size()),
       tsc::TablePrinter::Percent(100.0 * binary_deflate.size() /
                                  binary.size()),
       tsc::TablePrinter::Percent(100.0 * text_lz.size() / text.size()),
       tsc::TablePrinter::Percent(100.0 * text_deflate.size() / text.size()),
       ok ? "yes" : "NO", tsc::TablePrinter::Num(seconds, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  tsc::FlagParser flags(argc, argv);
  const std::size_t phone_rows =
      static_cast<std::size_t>(flags.GetInt("phone_rows", 2000));

  std::printf("=== Lossless (LZ) baseline, cf. Section 5.1 ===\n\n");
  tsc::TablePrinter table({"dataset", "bin lz s%", "bin deflate s%",
                           "text lz s%", "text deflate s%", "roundtrip ok",
                           "compress s"});
  Report(tsc::bench::MakePhoneDataset(phone_rows), &table);
  Report(tsc::bench::MakeStockDataset(), &table);
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "paper reference: gzip needed s ~= 25%% on its datasets. Note that\n"
      "lossless LZ offers NO random access: answering a single-cell query\n"
      "requires decompressing everything before it, which is the paper's\n"
      "motivation for lossy compression with O(k) cell reconstruction.\n");
  return 0;
}
