// Checksummed binary containers: the millisecond cold-start path. Two
// kinds of file share one versioned, section-tagged, length-prefixed
// container:
//   - a city snapshot (ROAD + TRNS) holds the networks, trip demand
//     already aggregated, so a restart skips TSV parsing, cross-reference
//     validation and trip ingestion (DatasetCatalog's snapshot_path,
//     `ctbus_server --snapshot`, `ctbus_snapshot build`);
//   - a PrecomputeCache spill entry (SKEY + PREC) holds one Delta(e)
//     precompute (universe + per-edge trace increments + the tr_0 anchor
//     + stats) under its key identity (dataset, snapshot version, network
//     fingerprint, option provenance), so a restart answers its first
//     query without a Dijkstra or Lanczos call (`--spill-dir`).
// The snapshot holds the networks, the spill holds the precompute: there
// is no other on-disk route for either.
//
// Container layout (all integers little-endian):
//   u32 magic "CTBS"        (kSnapshotMagic)
//   u32 format version      (kSnapshotFormatVersion; other values rejected)
//   u32 section count       (<= kMaxSnapshotSections)
//   per section: u32 tag, u64 payload bytes, u64 FNV-1a-64 checksum
//   section payloads, in table order, back to back — no trailing bytes.
//
// Decode discipline (shared with net/frame.cc): the section table is
// bounds-checked against the real file size before anything else; each
// section's checksum is verified over its raw payload BEFORE the payload
// is decoded, so a corrupt section can never drive an allocation; every
// field read goes through io::ByteReader (io/bytes.h), which rejects
// truncation, oversized list counts, and trailing bytes, and names the
// failing section + field + offset. Load never returns a partial
// object: on any failure the output is untouched.
//
// Byte stability: encoding iterates container state in dense id order, so
// encoding the same in-memory objects always produces the same bytes, and
// a Load immediately followed by a Save reproduces the input byte for
// byte. Doubles are stored as their exact IEEE-754 bit patterns, which is
// what makes a loaded precompute *bit-identical* to the one that was
// saved — the planners produce identical results over either.
#ifndef CTBUS_IO_SNAPSHOT_H_
#define CTBUS_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/planning_context.h"
#include "graph/graph.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"

namespace ctbus::io {

/// "CTBS" as a little-endian u32.
inline constexpr std::uint32_t kSnapshotMagic = 0x53425443u;
/// Bumped on any layout or checksum change, and also when the bits a spill
/// stores change for the same inputs (a new kernel behind the PREC trace
/// increments or tr_0): an older spill would otherwise be served as if this
/// binary had computed it. Loaders reject every other value (stale
/// formats: a diagnostic for Load, a plain miss for the spill). Version 6:
/// the SKEY provenance lost its probe-kind field (every estimator draws
/// Gaussian probes). Version 5: the trace increments come from the
/// eigenvalues-only root-free QL (linalg/dense_eigen.h).
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;
/// Hard bound on the section table, checked before it is walked.
inline constexpr std::uint32_t kMaxSnapshotSections = 16;

/// The CtBusOptions fields a Delta(e) precompute's output depends on, as
/// embedded in service::PrecomputeKey (budgets and thread knobs stay out).
/// Stored next to every serialized precompute so a loader can tell
/// whether a file answers its question.
struct PrecomputeProvenance {
  double tau = 0.0;
  int probes = 0;
  int lanczos_steps = 0;
  std::uint64_t seed = 0;

  bool operator==(const PrecomputeProvenance& other) const;
};

/// The one normalizer of the precompute identity: folds signed-zero tau,
/// throws std::invalid_argument on a NaN tau.
PrecomputeProvenance MakeProvenance(const core::CtBusOptions& options);

/// One city snapshot: the road and transit networks, nothing else.
struct Snapshot {
  graph::RoadNetwork road;
  graph::TransitNetwork transit;
};

/// A PrecomputeCache disk-spill record: the key identity (dataset,
/// snapshot version, a fingerprint of the networks the precompute was
/// built over, option provenance) plus the precompute itself.
struct PrecomputeCacheEntry {
  std::string dataset;
  std::uint64_t snapshot_version = 0;
  std::uint64_t network_fingerprint = 0;
  PrecomputeProvenance provenance;
  core::Precompute precompute;
};

/// FNV-1a-64 over the canonical road + transit encodings: the content
/// identity that guards spill files against snapshot-version collisions
/// across restarts (version numbers restart at 1; network bytes do not
/// lie). Deterministic and byte-stable like the encodings themselves.
std::uint64_t NetworkFingerprint(const graph::RoadNetwork& road,
                                 const graph::TransitNetwork& transit);

/// Stable (cross-process, cross-platform) FNV-1a-64 of a spill key:
/// dataset name, snapshot version, and provenance, serialized
/// canonically. std::hash is not stable across processes, so spill
/// filenames use this instead of service::PrecomputeKeyHash.
std::uint64_t StableSpillHash(const std::string& dataset,
                              std::uint64_t snapshot_version,
                              const PrecomputeProvenance& provenance);

// ------------------------------------------------------------ objects ----
// Standalone (de)serialization per object. Encode appends the canonical
// byte form; Decode consumes the WHOLE buffer (trailing bytes are an
// error), writes *out only on success, and reports failures as
// "field <name> at offset <n>: <reason>" through *error.

void EncodeRoadNetwork(const graph::RoadNetwork& road,
                       std::vector<std::uint8_t>* out);
bool DecodeRoadNetwork(const std::uint8_t* data, std::size_t size,
                       graph::RoadNetwork* out, std::string* error);

void EncodeTransitNetwork(const graph::TransitNetwork& transit,
                          std::vector<std::uint8_t>* out);
bool DecodeTransitNetwork(const std::uint8_t* data, std::size_t size,
                          graph::TransitNetwork* out, std::string* error);

void EncodeEdgeUniverse(const core::EdgeUniverse& universe,
                        std::vector<std::uint8_t>* out);
bool DecodeEdgeUniverse(const std::uint8_t* data, std::size_t size,
                        core::EdgeUniverse* out, std::string* error);

void EncodePrecompute(const core::Precompute& precompute,
                      std::vector<std::uint8_t>* out);
bool DecodePrecompute(const std::uint8_t* data, std::size_t size,
                      core::Precompute* out, std::string* error);

// --------------------------------------------------------- containers ----

/// Canonical byte form of a snapshot (header + section table + payloads).
std::vector<std::uint8_t> EncodeSnapshot(const Snapshot& snapshot);

/// Strict decode of a whole file image: exactly ROAD then TRNS (any other
/// section is "unknown section or out of canonical order"). On failure
/// returns false, sets *error (when non-null) to a diagnostic naming the
/// failing section, and leaves *out untouched.
bool DecodeSnapshot(const std::uint8_t* data, std::size_t size,
                    Snapshot* out, std::string* error);

/// EncodeSnapshot to `path`. False + *error on I/O failure.
bool SaveSnapshot(const Snapshot& snapshot, const std::string& path,
                  std::string* error = nullptr);

/// Reads and decodes `path`. nullopt + "path: reason" *error on missing
/// file, I/O failure, or any decode failure.
std::optional<Snapshot> LoadSnapshot(const std::string& path,
                                     std::string* error = nullptr);

std::vector<std::uint8_t> EncodePrecomputeCacheEntry(
    const PrecomputeCacheEntry& entry);
bool DecodePrecomputeCacheEntry(const std::uint8_t* data, std::size_t size,
                                PrecomputeCacheEntry* out,
                                std::string* error);
bool SavePrecomputeCacheEntry(const PrecomputeCacheEntry& entry,
                              const std::string& path,
                              std::string* error = nullptr);
std::optional<PrecomputeCacheEntry> LoadPrecomputeCacheEntry(
    const std::string& path, std::string* error = nullptr);

/// One section-table row, as reported by InspectSnapshot (ctbus_snapshot
/// inspect): the tag rendered as ASCII, declared payload bytes, stored
/// checksum, and whether the payload's actual checksum matches it.
struct SnapshotSectionInfo {
  std::string tag;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  bool checksum_ok = false;
};

/// Validates the header + section table of a file image and reports each
/// section (checksums verified, payloads NOT decoded). nullopt + *error if
/// the header or table itself is malformed.
std::optional<std::vector<SnapshotSectionInfo>> InspectSnapshot(
    const std::uint8_t* data, std::size_t size, std::string* error = nullptr);

/// Reads a whole file into `*out`. False + "path: reason" *error on
/// missing file or I/O failure. Shared by the loaders and the tools.
bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out,
                   std::string* error = nullptr);

/// Writes `bytes` to `path` (truncating). False + *error on I/O failure.
bool WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes,
                    std::string* error = nullptr);

}  // namespace ctbus::io

#endif  // CTBUS_IO_SNAPSHOT_H_
