#include "phylo/partition.hpp"

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

#include "util/error.hpp"

namespace plf::phylo {

PartitionSpec::PartitionSpec(std::vector<PartitionRange> ranges,
                             std::size_t n_columns)
    : ranges_(std::move(ranges)), n_columns_(n_columns) {
  PLF_CHECK(!ranges_.empty(), "partition spec needs at least one range");
  std::size_t cursor = 0;
  for (const PartitionRange& r : ranges_) {
    PLF_CHECK(!r.name.empty(), "partition range needs a name");
    PLF_CHECK(r.begin == cursor,
              "partition '" + r.name + "' starts at column " +
                  std::to_string(r.begin) + ", expected " +
                  std::to_string(cursor) +
                  " (ranges must be in order, disjoint, and covering)");
    PLF_CHECK(r.end > r.begin, "partition '" + r.name + "' is empty");
    PLF_CHECK(r.end <= n_columns,
              "partition '" + r.name + "' ends past the alignment (" +
                  std::to_string(r.end) + " > " + std::to_string(n_columns) +
                  ")");
    cursor = r.end;
  }
  PLF_CHECK(cursor == n_columns,
            "partitions cover only " + std::to_string(cursor) + " of " +
                std::to_string(n_columns) + " columns");
}

PartitionSpec PartitionSpec::uniform(std::size_t n_columns,
                                     std::size_t n_parts) {
  PLF_CHECK(n_parts >= 1, "uniform partition needs at least one part");
  PLF_CHECK(n_columns >= n_parts,
            "uniform partition: more parts than columns");
  std::vector<PartitionRange> ranges;
  const std::size_t base = n_columns / n_parts;
  const std::size_t extra = n_columns % n_parts;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n_parts; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    ranges.push_back(
        {"part" + std::to_string(i), cursor, cursor + size});
    cursor += size;
  }
  return PartitionSpec(std::move(ranges), n_columns);
}

PartitionSpec PartitionSpec::parse(const std::string& text,
                                   std::size_t n_columns) {
  std::vector<PartitionRange> ranges;
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    if (entry.empty()) {
      throw Error("partition spec '" + text + "' has an empty entry");
    }
    const std::size_t colon = entry.find(':');
    const std::size_t dash = entry.find('-', colon + 1);
    if (colon == std::string::npos || dash == std::string::npos) {
      throw Error("partition entry '" + entry +
                  "' is not of the form name:first-last");
    }
    // A column number is decimal digits and nothing else: "4x", " 0" and
    // "+0" are refused, as is SIZE_MAX, whose half-open end would wrap to 0.
    const auto column = [&entry](std::string_view digits) {
      std::size_t value = 0;
      const char* end = digits.data() + digits.size();
      const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
      if (ec != std::errc{} || ptr != end ||
          value == std::numeric_limits<std::size_t>::max()) {
        throw Error("partition entry '" + entry + "' has a bad column number");
      }
      return value;
    };
    const std::string_view fields(entry);
    PartitionRange r;
    r.name = entry.substr(0, colon);
    r.begin = column(fields.substr(colon + 1, dash - colon - 1));
    // Inclusive last column on the command line -> half-open internally.
    r.end = column(fields.substr(dash + 1)) + 1;
    ranges.push_back(std::move(r));
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return PartitionSpec(std::move(ranges), n_columns);
}

std::vector<Alignment> PartitionSpec::split(const Alignment& aln) const {
  PLF_CHECK(aln.n_columns() == n_columns_,
            "partition spec built for " + std::to_string(n_columns_) +
                " columns, alignment has " + std::to_string(aln.n_columns()));
  std::vector<Alignment> out;
  out.reserve(ranges_.size());
  for (const PartitionRange& r : ranges_) {
    std::vector<std::string> seqs;
    seqs.reserve(aln.n_taxa());
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) {
      seqs.push_back(aln.sequence(t).substr(r.begin, r.n_columns()));
    }
    out.emplace_back(aln.names(), std::move(seqs));
  }
  return out;
}

}  // namespace plf::phylo
