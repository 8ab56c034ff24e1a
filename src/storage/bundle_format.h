// Versioned, checksummed binary container for prepared-state bundles — the
// ".prep" wire format of the storage subsystem.
//
// Layout (all integers little-endian, fixed width):
//
//   magic      8   "SLPPREP\n"
//   version    u32 (1 or 2; only kBundleVersion is written, v1 is read-only)
//   flags      u32 (bit 0: counter section present)
//   doc_fp     u64 fingerprint of the *base* document grammar
//   query_fp   u64 fingerprint of the compiled query
//   payload    u64 byte length of everything after the header
//   checksum   u64 Checksum64 of the payload bytes
//   <payload>      sections: grammar, eval tables, optional counter
//
// Version 2 keeps the header identical and changes only the payload
// sections: integer streams are tagged, bitpacked streams (see
// src/storage/codec/codec.h and docs/STORAGE_CODECS.md). Version 1
// bundles remain readable; no writer produces them any more.
//
// Readers are strictly bounds-checked: every primitive read validates the
// remaining length first, so truncated or corrupt input surfaces as a
// Status (kCorruption) — never out-of-bounds access, never an abort. The
// checksum is an integrity check against bit rot and torn writes, not a
// security boundary; allocation sizes are nevertheless always validated
// against the remaining payload before any buffer is sized from file data.

#ifndef SLPSPAN_STORAGE_BUNDLE_FORMAT_H_
#define SLPSPAN_STORAGE_BUNDLE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/status.h"

namespace slpspan {
namespace storage {

inline constexpr char kBundleMagic[8] = {'S', 'L', 'P', 'P', 'R', 'E', 'P', '\n'};
inline constexpr uint32_t kBundleVersionV1 = 1;
inline constexpr uint32_t kBundleVersion = 2;
inline constexpr uint32_t kBundleFlagHasCounter = 1u << 0;
inline constexpr size_t kBundleHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// 64-bit payload checksum: four independent multiply-rotate lanes over
/// 32-byte blocks (xxHash-style), finalized with an avalanche mix. Chosen
/// over table-driven CRC-32 because it runs at memory speed — bundles are
/// megabytes and this pass sits on the warm-from-disk critical path.
uint64_t Checksum64(const uint8_t* data, size_t size);

/// Append-only little-endian encoder over a growing byte buffer.
class BundleWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) {
    buf_.push_back(static_cast<char>(v));
    buf_.push_back(static_cast<char>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  /// LEB128 (unsigned); 1 byte for values < 128, at most 10.
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    U8(static_cast<uint8_t>(v));
  }
  void Bytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
class BundleReader {
 public:
  BundleReader(const uint8_t* data, size_t size) : data_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  bool AtEnd() const { return data_ == end_; }
  const uint8_t* cursor() const { return data_; }

  Status U8(uint8_t* out) {
    if (remaining() < 1) return Truncated();
    *out = *data_++;
    return Status::OK();
  }
  Status U16(uint16_t* out) {
    if (remaining() < 2) return Truncated();
    *out = static_cast<uint16_t>(data_[0] | (data_[1] << 8));
    data_ += 2;
    return Status::OK();
  }
  Status U32(uint32_t* out) {
    if (remaining() < 4) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[i]) << (8 * i);
    data_ += 4;
    *out = v;
    return Status::OK();
  }
  Status U64(uint64_t* out) {
    if (remaining() < 8) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[i]) << (8 * i);
    data_ += 8;
    *out = v;
    return Status::OK();
  }
  Status Varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      uint8_t byte = 0;
      Status st = U8(&byte);
      if (!st.ok()) return st;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::Corruption("overlong varint");
  }
  Status Bytes(void* out, size_t size) {
    if (remaining() < size) return Truncated();
    std::memcpy(out, data_, size);
    data_ += size;
    return Status::OK();
  }
  /// Advances past `size` bytes without copying (zero-copy decoders read
  /// through cursor() first, then consume the range).
  Status Skip(size_t size) {
    if (remaining() < size) return Truncated();
    data_ += size;
    return Status::OK();
  }

 private:
  static Status Truncated() { return Status::Corruption("truncated bundle"); }

  const uint8_t* data_;
  const uint8_t* end_;
};

struct BundleHeader {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t doc_fp = 0;
  uint64_t query_fp = 0;
  uint64_t payload_size = 0;
};

/// Prepends a kBundleVersion header (with the payload's size and checksum
/// filled in) to a v2 `payload` and returns the complete bundle image.
std::string SealBundle(uint32_t flags, uint64_t doc_fp, uint64_t query_fp,
                       std::string payload);

/// Validates magic, version (1 and 2 are accepted), payload bounds and CRC
/// of a complete bundle image; on success the payload spans
/// [data + kBundleHeaderSize, data + kBundleHeaderSize + header.payload_size).
Result<BundleHeader> OpenBundle(const uint8_t* data, size_t size);

}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_BUNDLE_FORMAT_H_
