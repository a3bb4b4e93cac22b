// NEXUS file support — the format MrBayes actually reads.
//
// A tolerant subset sufficient for phylogenetic data interchange:
//   * DATA/CHARACTERS block: DIMENSIONS, FORMAT (datatype/missing/gap,
//     interleaved), MATRIX (sequential or interleaved);
//   * every other block (TREES, MRBAYES, ...) is skipped to its END;
//   * bracket comments `[...]` anywhere, case-insensitive keywords.
#pragma once

#include <string>

#include "phylo/alignment.hpp"

namespace plf::phylo {

struct NexusFile {
  Alignment alignment;  ///< from the DATA block (if present)
  bool has_alignment = false;
};

/// Parse NEXUS text. Throws plf::ParseError on malformed input.
NexusFile parse_nexus(const std::string& text);

/// Read a NEXUS file from disk.
NexusFile read_nexus_file(const std::string& path);

}  // namespace plf::phylo
