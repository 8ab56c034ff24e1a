// Tagged block-bitpacked u64 streams (see codec.h for the layout). A block
// of zeros costs one byte; the per-nt index arrays of real bundles pack to
// the pool's log2 in bits instead of 16 or 32.
//
// The unpack hot path is a 64-bit bit-buffer refilled with one unaligned
// 64-bit load per refill instead of byte-at-a-time: a refill tops the
// buffer up to >= 57 valid bits, so any width <= 57 needs at most one
// refill per value. Reads never cross the block's own byte span (exactly
// ceil(count*width/8) bytes are valid, and the stream may end right
// after), so the loop falls back to byte refills for the last < 8 bytes.
// Widths 58..63 (values near 2^64, never produced by our streams but legal
// input) take a 128-bit shift-register slow path.
#include "storage/codec/codec.h"

#include <bit>
#include <cstring>
#include <string>

namespace slpspan {
namespace storage {
namespace codec {

namespace {

constexpr size_t kBlockSize = 128;

inline size_t PackedBytes(size_t count, unsigned width) {
  return (count * width + 7) / 8;
}

// Widths 58..63 only (width 64 is a plain copy), so the mask cannot overflow.
void UnpackWide(const uint8_t* src, unsigned width, size_t count,
                uint64_t* dst) {
  const uint64_t mask = (uint64_t{1} << width) - 1;
  unsigned __int128 acc = 0;
  unsigned acc_bits = 0;
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < width) {
      acc |= static_cast<unsigned __int128>(*src++) << acc_bits;
      acc_bits += 8;
    }
    dst[i] = static_cast<uint64_t>(acc) & mask;
    acc >>= width;
    acc_bits -= width;
  }
}

// Unpacks `count` values of `width` bits (0 <= width <= 64) from `src`,
// which holds at least PackedBytes(count, width) bytes (already checked
// against the reader by the caller).
void Unpack(const uint8_t* src, unsigned width, size_t count, uint64_t* dst) {
  if (width == 0) {
    std::memset(dst, 0, count * sizeof(uint64_t));
    return;
  }
  if (width == 64) {
    std::memcpy(dst, src, count * sizeof(uint64_t));
    return;
  }
  if (width > 57) {
    UnpackWide(src, width, count, dst);
    return;
  }
  // Byte-aligned widths decode with plain widening loads.
  if (width == 8) {
    for (size_t i = 0; i < count; ++i) dst[i] = src[i];
    return;
  }
  if (width == 16) {
    for (size_t i = 0; i < count; ++i) {
      uint16_t v;
      std::memcpy(&v, src + 2 * i, sizeof v);
      dst[i] = v;
    }
    return;
  }
  if (width == 32) {
    for (size_t i = 0; i < count; ++i) {
      uint32_t v;
      std::memcpy(&v, src + 4 * i, sizeof v);
      dst[i] = v;
    }
    return;
  }

  const uint8_t* const end = src + PackedBytes(count, width);
  const uint64_t mask = (uint64_t{1} << width) - 1;
  uint64_t buf = 0;
  unsigned bits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (bits < width) {
      if (end - src >= 8) {
        uint64_t next;
        std::memcpy(&next, src, sizeof next);
        // Consume only the whole bytes that fit above the `bits` valid
        // bits; mask the rest off so the buffer's upper bits stay zero.
        const unsigned consumed = (64 - bits) >> 3;
        if (bits == 0) {
          buf = next;
        } else {
          buf |= (next & ((uint64_t{1} << (8 * consumed)) - 1)) << bits;
        }
        src += consumed;
        bits += 8 * consumed;
      } else {
        do {
          buf |= static_cast<uint64_t>(*src++) << bits;
          bits += 8;
        } while (bits < width);
      }
    }
    dst[i] = buf & mask;
    buf >>= width;
    bits -= width;
  }
}

}  // namespace

void WriteTaggedU64s(const uint64_t* values, size_t count, BundleWriter* w) {
  w->U8(kBitPackTag);
  for (size_t base = 0; base < count; base += kBlockSize) {
    const size_t n = count - base < kBlockSize ? count - base : kBlockSize;
    uint64_t max = 0;
    for (size_t i = 0; i < n; ++i) max |= values[base + i];
    const unsigned width = static_cast<unsigned>(std::bit_width(max));
    w->U8(static_cast<uint8_t>(width));
    unsigned __int128 acc = 0;
    unsigned acc_bits = 0;
    for (size_t i = 0; i < n; ++i) {
      acc |= static_cast<unsigned __int128>(values[base + i]) << acc_bits;
      acc_bits += width;
      while (acc_bits >= 8) {
        w->U8(static_cast<uint8_t>(acc));
        acc >>= 8;
        acc_bits -= 8;
      }
    }
    if (acc_bits > 0) w->U8(static_cast<uint8_t>(acc));
  }
}

Status ReadTaggedU64s(BundleReader* r, size_t count,
                      std::vector<uint64_t>* out) {
  uint8_t tag = 0;
  Status st = r->U8(&tag);
  if (!st.ok()) return st;
  if (tag != kBitPackTag) {
    return Status::Corruption("unknown codec tag " + std::to_string(tag));
  }
  // Minimum size: one width byte per block (an all-zero stream). The
  // division form is overflow-proof for adversarial counts.
  if (count / kBlockSize > r->remaining() ||
      r->remaining() < (count + kBlockSize - 1) / kBlockSize) {
    return Status::Corruption("truncated bitpack stream");
  }
  out->resize(count);
  for (size_t base = 0; base < count; base += kBlockSize) {
    const size_t n = count - base < kBlockSize ? count - base : kBlockSize;
    uint8_t width = 0;
    st = r->U8(&width);
    if (!st.ok()) return st;
    if (width > 64) return Status::Corruption("bitpack width out of range");
    const uint8_t* src = r->cursor();
    st = r->Skip(PackedBytes(n, width));
    if (!st.ok()) return st;
    Unpack(src, width, n, out->data() + base);
  }
  return Status::OK();
}

}  // namespace codec
}  // namespace storage
}  // namespace slpspan
