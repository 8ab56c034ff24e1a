// Serialization of whole prepared states ("prepared bundles", .prep files):
// the sentinel-extended grammar, the Lemma 6.5 evaluation tables and — when
// they have materialized — the counting tables, sealed in the checksummed
// container of bundle_format.h.
//
// Sections of the payload, in order:
//
//   [grammar]   the rules with their ids preserved verbatim — deserialization
//               goes through Slp::FromRules, not the renumbering
//               CnfAssembler — so the tables stay aligned.
//   [tables]    q, the pool of distinct U/W bit-matrices, the per-nt indexes
//               into it, then the per-leaf M_Tx cell grids. Each matrix and
//               grid takes the smaller of a dense and a sparse layout: the
//               U/W matrices of real documents are mostly zero words, which
//               shrinks bundles by an order of magnitude and is what makes
//               warm-from-disk ≫ re-prepare.
//   [counter]   (optional, header flag) the CountTables snapshot: key-sorted
//               packed-triple counts, final states, total, overflow bit.
//
// Every bundle is written in format v2: a compact delta-varint grammar and
// every integer stream bitpacked behind a tag byte (src/storage/codec/).
// The reader also accepts the frozen format v1 (fixed-width raw sections);
// in v2 it accepts only the layouts this writer produces, so v2 bundles
// from older builds that used a retired stream codec fail as kCorruption.
// docs/STORAGE_CODECS.md has the byte-level map of both formats.
//
// Deserialization is strictly bounds-checked (see bundle_format.h) and
// returns Status errors — kCorruption for damaged input, kInvalidArgument
// for a bundle built for a different document or query — never aborting.
// The counter section is materialized *lazily*: the loaded PreparedState
// parses it on the first Count/At/Sample, so IsNonEmpty/Extract-only
// workloads never pay for it.

#ifndef SLPSPAN_STORAGE_PREPARED_BUNDLE_H_
#define SLPSPAN_STORAGE_PREPARED_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/internal.h"
#include "util/status.h"

namespace slpspan {
namespace storage {

using StatePtr = std::shared_ptr<const api_internal::PreparedState>;

/// Serializes `state` (grammar + tables + counter-if-materialized) into a
/// sealed format-v2 bundle image.
std::string SerializePreparedState(const api_internal::PreparedState& state,
                                   uint64_t doc_fp, uint64_t query_fp);

/// Deserializes a bundle image. The expected fingerprints come from the
/// (document, query) pair the caller wants to serve; a mismatch is
/// kInvalidArgument (the bundle is intact but belongs to someone else).
/// `recharge` is attached to the resulting state (see PreparedState).
Result<StatePtr> DeserializePreparedState(
    const uint8_t* data, size_t size, uint64_t expected_doc_fp,
    uint64_t expected_query_fp, api_internal::PreparedState::RechargeFn recharge);

/// Writes `bytes` to a uniquely-named temp file next to `final_path`
/// (pid + counter suffix, so concurrent writers — even across processes
/// sharing a spill directory — never interleave) and returns the temp
/// path; the caller renames it into place. The temp is removed on failure.
Result<std::string> WriteTempFile(const std::string& final_path,
                                  const std::string& bytes);

/// Atomic file write shared by bundle export and the spill store:
/// WriteTempFile + rename, with the temp removed on any failure.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Atomic bundle file write: SerializePreparedState + WriteFileAtomic.
Status WritePreparedBundleFile(const std::string& path,
                               const api_internal::PreparedState& state,
                               uint64_t doc_fp, uint64_t query_fp);

/// mmap-backed bundle file read (see mmap_file.h) + DeserializePreparedState.
Result<StatePtr> LoadPreparedBundleFile(
    const std::string& path, uint64_t expected_doc_fp,
    uint64_t expected_query_fp, api_internal::PreparedState::RechargeFn recharge);

/// Canonical spill-store file name for a fingerprint pair
/// ("pb-<doc_fp>-<query_fp>.prep", fingerprints in fixed-width hex). Bundles
/// dropped into a spill directory under this name are picked up by the
/// store's scan — the fleet pre-warming hook.
std::string SpillFileName(uint64_t doc_fp, uint64_t query_fp);

/// Inverse of SpillFileName; false if `name` is not a spill bundle name.
bool ParseSpillFileName(const std::string& name, uint64_t* doc_fp,
                        uint64_t* query_fp);

}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_PREPARED_BUNDLE_H_
