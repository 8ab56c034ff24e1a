// Prepared-bundle binary format: header encode/decode with checksums; the
// reader treats every input byte as untrusted and bounds-checks throughout.
#include "storage/bundle_format.h"

namespace slpspan {
namespace storage {

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;

inline uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

inline uint64_t Load64(const uint8_t* data) {
  uint64_t v;
  std::memcpy(&v, data, 8);
  return v;
}

}  // namespace

uint64_t Checksum64(const uint8_t* data, size_t size) {
  const uint64_t total = size;
  uint64_t h1 = kP1, h2 = kP2, h3 = kP3, h4 = kP1 ^ kP2;
  while (size >= 32) {
    // Four independent lanes: the multiply latency overlaps across lanes,
    // so this runs at close to memory bandwidth.
    h1 = Rotl(h1 ^ (Load64(data) * kP2), 29) * kP1;
    h2 = Rotl(h2 ^ (Load64(data + 8) * kP2), 31) * kP1;
    h3 = Rotl(h3 ^ (Load64(data + 16) * kP2), 33) * kP1;
    h4 = Rotl(h4 ^ (Load64(data + 24) * kP2), 37) * kP1;
    data += 32;
    size -= 32;
  }
  uint64_t h = Rotl(h1, 1) ^ Rotl(h2, 7) ^ Rotl(h3, 12) ^ Rotl(h4, 18) ^ total;
  while (size >= 8) {
    h = Rotl(h ^ (Load64(data) * kP2), 27) * kP1 + kP3;
    data += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    h = Rotl(h ^ (data[i] * kP3), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::string SealBundle(uint32_t flags, uint64_t doc_fp, uint64_t query_fp,
                       std::string payload) {
  BundleWriter header;
  header.Bytes(kBundleMagic, sizeof(kBundleMagic));
  header.U32(kBundleVersion);
  header.U32(flags);
  header.U64(doc_fp);
  header.U64(query_fp);
  header.U64(payload.size());
  header.U64(Checksum64(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size()));
  std::string out = header.TakeBuffer();
  // Writer-side invariant on bytes this function just produced — not
  // untrusted input (the reader path is strictly bounds-checked instead).
  SLPSPAN_DCHECK(out.size() == kBundleHeaderSize);  // repo-lint: allow(check-in-library)
  out += payload;
  return out;
}

Result<BundleHeader> OpenBundle(const uint8_t* data, size_t size) {
  if (size < kBundleHeaderSize) {
    return Status::Corruption("bundle shorter than its header");
  }
  BundleReader reader(data, size);
  char magic[sizeof(kBundleMagic)];
  (void)reader.Bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kBundleMagic, sizeof(kBundleMagic)) != 0) {
    return Status::Corruption("not a prepared-state bundle (bad magic)");
  }
  BundleHeader header;
  uint64_t checksum = 0;
  (void)reader.U32(&header.version);
  (void)reader.U32(&header.flags);
  (void)reader.U64(&header.doc_fp);
  (void)reader.U64(&header.query_fp);
  (void)reader.U64(&header.payload_size);
  (void)reader.U64(&checksum);
  if (header.version < kBundleVersionV1 || header.version > kBundleVersion) {
    return Status::Corruption("unsupported bundle version " +
                              std::to_string(header.version));
  }
  if (header.payload_size != size - kBundleHeaderSize) {
    return Status::Corruption("bundle payload size mismatch");
  }
  if (Checksum64(data + kBundleHeaderSize, header.payload_size) != checksum) {
    return Status::Corruption("bundle checksum mismatch");
  }
  return header;
}

}  // namespace storage
}  // namespace slpspan
