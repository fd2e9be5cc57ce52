// On-disk cache of empirically tuned plans: the probe search runs once
// per (stencil fingerprint, extents-class, host fingerprint) per machine,
// and every later process adopts the stored winner.
//
// Format (docs/TUNING.md): one JSON object, schema-versioned, written
// through the common JsonWriter and read back with json_parse:
//
//   { "schema_version": 1,
//     "entries": [ { "key": "<stencil>|<extents>|<host>",
//                    "bsize_x": 144, "bsize_y": 144, "partime": 4,
//                    "tuned_mcells": 151.2, "baseline_mcells": 123.4,
//                    "candidates_probed": 18 }, ... ] }
//
// Durability rules:
//   * Writes go to a unique temp file in the same directory, then
//     ::rename() over the target -- readers never observe a torn file,
//     and concurrent engines sharing one path each publish a complete
//     document (last writer wins; put() merges the on-disk entries first
//     so parallel searches of different keys both survive).
//   * Corrupted / truncated / version-mismatched files are ignored and
//     rebuilt on the next put() -- never an error, just a re-search.
//   * The host fingerprint lives inside the key, so a new machine,
//     compiler, or kernel ISA silently invalidates every entry.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace fpga_stencil {

/// Identity of one tuning decision. All three parts are opaque strings
/// produced by HostAutotuner (stencil_fingerprint / extents_class) and
/// HostProfile::fingerprint.
struct TuningKey {
  std::string stencil_fp;
  std::string extents_class;
  std::string host_fp;

  /// The flat "<stencil>|<extents>|<host>" form stored in the file.
  [[nodiscard]] std::string flat() const {
    return stencil_fp + "|" + extents_class + "|" + host_fp;
  }
};

/// The stored winner: geometry deltas against the requested config (the
/// knobs tuning may change) plus the measurements that justified them.
struct TunedPlanEntry {
  std::int64_t bsize_x = 0;
  std::int64_t bsize_y = 1;
  int partime = 1;
  double tuned_mcells = 0.0;     ///< measured throughput of the winner
  double baseline_mcells = 0.0;  ///< measured throughput of the request
  std::int64_t candidates_probed = 0;
};

class TuningCache {
 public:
  static constexpr std::int64_t kSchemaVersion = 1;

  /// `path` is the backing JSON file; empty keeps the cache in-memory
  /// only (tests, ephemeral sessions). The file is loaded lazily and
  /// leniently: unreadable or invalid content is treated as empty.
  explicit TuningCache(std::string path = {});

  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  /// The entry for `key`, consulting memory first and then re-reading the
  /// backing file (another process may have published a search result
  /// since we last looked).
  [[nodiscard]] std::optional<TunedPlanEntry> find(const TuningKey& key);

  /// Inserts/overwrites and persists: merges the current on-disk entries,
  /// writes a temp file, renames it over `path`. Disk failures are
  /// swallowed (the in-memory entry still serves this process).
  void put(const TuningKey& key, const TunedPlanEntry& entry);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t size() const;

  /// Drops the in-memory entries (the file, if any, is untouched).
  void clear_memory();

 private:
  /// Parses `path_` and merges its entries under entries already in
  /// `into` (memory wins -- it is at least as fresh as what this process
  /// read before). Missing/corrupt/mismatched files merge nothing.
  void merge_from_disk_locked(std::map<std::string, TunedPlanEntry>& into);
  void save_locked();

  const std::string path_;
  mutable std::mutex mu_;
  std::map<std::string, TunedPlanEntry> entries_;
};

}  // namespace fpga_stencil
