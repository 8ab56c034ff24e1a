// Prepared-state bundles: write a PreparedState to disk and load it back,
// optionally mmap-backed, with document/query fingerprint verification.
//
// There is one writer: format v2, whose sections route every integer
// stream through the bitpacked tagged streams of src/storage/codec/. The
// reader also accepts format v1 (raw sections), which is frozen: no build
// writes it any more. See docs/STORAGE_CODECS.md for the byte-level map.
#include "storage/prepared_bundle.h"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <utility>
#include <vector>

#include "core/count.h"
#include "core/tables.h"
#include "slp/slp.h"
#include "storage/bundle_format.h"
#include "storage/codec/codec.h"
#include "storage/mmap_file.h"

namespace slpspan {
namespace storage {

namespace {

using codec::ReadTaggedU64s;
using codec::WriteTaggedU64s;

// Per-matrix / per-grid layout tags: v1 bundles carry only the raw
// layouts, v2 bundles only the coded ones.
constexpr uint8_t kDense = 0;
constexpr uint8_t kSparse = 1;
constexpr uint8_t kDenseCoded = 2;
constexpr uint8_t kSparseCoded = 3;

// The v2 grammar section's tag byte (v1 has none). Tag 0, a v1-style rule
// listing, was only ever written together with retired stream codecs.
constexpr uint8_t kGrammarCompact = 1;

using LeafGrid = std::vector<std::vector<MarkerMask>>;

// ------------------------------------------------ format v1 (read only) ----

// Grammar: num_nts u32, root u32, then per non-terminal left u32, right
// u32 (right == kInvalidNt marks a leaf whose terminal symbol is `left`).
Result<Slp> ReadGrammarV1(BundleReader* r) {
  uint32_t num_nts = 0, root = 0;
  Status st = r->U32(&num_nts);
  if (st.ok()) st = r->U32(&root);
  if (!st.ok()) return st;
  if (num_nts == 0) return Status::Corruption("bundle grammar is empty");
  if (r->remaining() < static_cast<size_t>(num_nts) * 8) {
    return Status::Corruption("truncated bundle grammar");
  }
  std::vector<std::pair<uint32_t, NtId>> rules;
  rules.reserve(num_nts);
  for (uint32_t a = 0; a < num_nts; ++a) {
    uint32_t left = 0, right = 0;
    (void)r->U32(&left);
    (void)r->U32(&right);
    rules.emplace_back(left, right);
  }
  return Slp::FromRules(rules, root);
}

// Matrix: kDense (q rows of logical words) or kSparse (nonzero u32, then
// index u32 + bits u64 per non-zero word).
Status ReadMatrixV1(BundleReader* r, uint32_t q, BoolMatrix* out) {
  uint8_t format = 0;
  Status st = r->U8(&format);
  if (!st.ok()) return st;
  const uint32_t words = (q + 63) / 64;
  const size_t total_words = static_cast<size_t>(q) * words;
  if (format == kDense) {
    if (r->remaining() < total_words * 8) {
      return Status::Corruption("truncated dense matrix");
    }
    *out = BoolMatrix(q);
    for (uint32_t i = 0; i < q; ++i) {
      (void)r->Bytes(out->MutableRow(i), static_cast<size_t>(words) * 8);
    }
    // Pool adoption: loaded matrices join the multiply fast path with the
    // same aligned layout and frozen density profile as built ones.
    out->CacheRowPopcounts();
    return Status::OK();
  }
  if (format != kSparse) return Status::Corruption("unknown matrix format");
  uint32_t nonzero = 0;
  st = r->U32(&nonzero);
  if (!st.ok()) return st;
  if (r->remaining() < static_cast<size_t>(nonzero) * 12) {
    return Status::Corruption("truncated sparse matrix");
  }
  *out = BoolMatrix(q);
  for (uint32_t e = 0; e < nonzero; ++e) {
    uint32_t index = 0;
    uint64_t bits = 0;
    (void)r->U32(&index);
    (void)r->U64(&bits);
    if (index >= total_words) {
      return Status::Corruption("sparse matrix word index out of range");
    }
    out->MutableRow(index / words)[index % words] = bits;
  }
  out->CacheRowPopcounts();
  return Status::OK();
}

// Index arrays: u16 per entry when the pool has <= 0xFFFF matrices, else u32.
Status ReadMatrixIndexesV1(BundleReader* r, uint32_t n, uint32_t num_unique,
                           std::vector<uint32_t>* u_idx,
                           std::vector<uint32_t>* w_idx) {
  const bool narrow = num_unique <= 0xFFFF;
  if (r->remaining() < static_cast<size_t>(n) * 2 * (narrow ? 2 : 4)) {
    return Status::Corruption("truncated matrix index table");
  }
  for (std::vector<uint32_t>* dest : {u_idx, w_idx}) {
    dest->resize(n);
    for (uint32_t a = 0; a < n; ++a) {
      uint32_t idx = 0;
      if (narrow) {
        uint16_t idx16 = 0;
        (void)r->U16(&idx16);
        idx = idx16;
      } else {
        (void)r->U32(&idx);
      }
      if (idx >= num_unique) {
        return Status::Corruption("matrix index out of range");
      }
      (*dest)[a] = idx;
    }
  }
  return Status::OK();
}

Status ReadCellMasksV1(BundleReader* r, uint32_t len,
                       std::vector<MarkerMask>* cell) {
  if (r->remaining() < static_cast<size_t>(len) * 8) {
    return Status::Corruption("truncated leaf cell");
  }
  cell->resize(len);
  for (uint32_t m = 0; m < len; ++m) (void)r->U64(&(*cell)[m]);
  return Status::OK();
}

// Leaf grid: kDense (len u32 + masks per cell) or kSparse (nonempty u32,
// then index u32 + len u32 + masks per non-empty cell).
Status ReadLeafGridV1(BundleReader* r, uint32_t q, LeafGrid* grid) {
  uint8_t format = 0;
  Status st = r->U8(&format);
  if (!st.ok()) return st;
  const size_t cells = static_cast<size_t>(q) * q;
  if (format == kDense) {
    if (r->remaining() < cells * 4) {
      return Status::Corruption("truncated dense leaf grid");
    }
    grid->resize(cells);
    for (size_t c = 0; c < cells; ++c) {
      uint32_t len = 0;
      st = r->U32(&len);
      if (st.ok()) st = ReadCellMasksV1(r, len, &(*grid)[c]);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }
  if (format != kSparse) return Status::Corruption("unknown leaf grid format");
  uint32_t nonempty = 0;
  st = r->U32(&nonempty);
  if (!st.ok()) return st;
  if (r->remaining() < static_cast<size_t>(nonempty) * 8) {
    return Status::Corruption("truncated sparse leaf grid");
  }
  // A sparse grid materializes q×q cell vectors from almost no payload, so
  // cap the expansion factor: an honest bundle's other sections already
  // cost bytes proportional to q, making a grid thousands of times larger
  // than the whole remaining payload physically implausible — while a
  // forged q near 2^16 would otherwise demand ~100 GiB of empty vectors.
  if (cells / 1024 > r->remaining()) {
    return Status::Corruption("implausible leaf grid dimension");
  }
  grid->resize(cells);
  for (uint32_t e = 0; e < nonempty; ++e) {
    uint32_t index = 0, len = 0;
    (void)r->U32(&index);
    st = r->U32(&len);
    if (!st.ok()) return st;
    if (index >= cells) {
      return Status::Corruption("leaf cell index out of range");
    }
    st = ReadCellMasksV1(r, len, &(*grid)[index]);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// Counter: num u64, then per key-sorted entry varint key delta + varint
// count, then num_final u32 + u32 states, total u64, overflow u8.
Result<CountTables::Parts> ReadCounterPartsV1(BundleReader* r) {
  CountTables::Parts parts;
  uint64_t num_counts = 0;
  Status st = r->U64(&num_counts);
  if (!st.ok()) return st;
  if (num_counts > r->remaining() / 2) {  // every entry takes >= 2 bytes
    return Status::Corruption("truncated counter section");
  }
  parts.counts.reserve(num_counts);
  uint64_t key = 0;
  for (uint64_t e = 0; e < num_counts; ++e) {
    uint64_t delta = 0, count = 0;
    st = r->Varint(&delta);
    if (st.ok()) st = r->Varint(&count);
    if (!st.ok()) return st;
    key += delta;
    parts.counts.emplace_back(key, count);
  }
  uint32_t num_final = 0;
  st = r->U32(&num_final);
  if (!st.ok()) return st;
  if (r->remaining() < static_cast<size_t>(num_final) * 4) {
    return Status::Corruption("truncated counter final states");
  }
  parts.final_states.resize(num_final);
  for (uint32_t e = 0; e < num_final; ++e) (void)r->U32(&parts.final_states[e]);
  uint8_t overflow = 0;
  st = r->U64(&parts.total);
  if (st.ok()) st = r->U8(&overflow);
  if (!st.ok()) return st;
  parts.overflow = overflow != 0;
  return parts;
}

// ------------------------------------------------------------- grammar ----

// Compact grammar (Takasaka & I spirit): the SLP is topologically numbered
// — both children of an inner non-terminal have strictly smaller ids — so
// a rule a -> (left, right) stores the positive deltas a-left and a-right
// as varints, and a leaf bitmap plus varint terminal symbols covers the
// rest. Real grammars reference recent non-terminals constantly, so the
// deltas land in one or two bytes instead of v1's fixed eight per rule.
void WriteGrammar(const Slp& slp, BundleWriter* w) {
  w->U8(kGrammarCompact);
  const uint32_t n = slp.NumNonTerminals();
  w->Varint(n);
  w->Varint(slp.root());
  std::vector<uint8_t> leaf_bits((n + 7) / 8, 0);
  for (NtId a = 0; a < n; ++a) {
    if (slp.IsLeaf(a)) leaf_bits[a / 8] |= static_cast<uint8_t>(1u << (a % 8));
  }
  w->Bytes(leaf_bits.data(), leaf_bits.size());
  for (NtId a = 0; a < n; ++a) {
    if (slp.IsLeaf(a)) {
      w->Varint(slp.LeafSymbol(a));
    } else {
      w->Varint(a - slp.Left(a));
      w->Varint(a - slp.Right(a));
    }
  }
}

Result<Slp> ReadGrammar(BundleReader* r) {
  uint8_t tag = 0;
  Status st = r->U8(&tag);
  if (!st.ok()) return st;
  if (tag != kGrammarCompact) {
    return Status::Corruption("unknown grammar section tag");
  }
  uint64_t num_nts = 0, root = 0;
  st = r->Varint(&num_nts);
  if (st.ok()) st = r->Varint(&root);
  if (!st.ok()) return st;
  if (num_nts == 0) return Status::Corruption("bundle grammar is empty");
  if (num_nts > 0xFFFFFFFFull || root > 0xFFFFFFFFull) {
    return Status::Corruption("bundle grammar id out of range");
  }
  const uint32_t n = static_cast<uint32_t>(num_nts);
  const size_t bitmap_bytes = (static_cast<size_t>(n) + 7) / 8;
  if (r->remaining() < bitmap_bytes) {
    return Status::Corruption("truncated bundle grammar");
  }
  const uint8_t* leaf_bits = r->cursor();
  (void)r->Skip(bitmap_bytes);
  std::vector<std::pair<uint32_t, NtId>> rules;
  rules.reserve(n);
  for (uint32_t a = 0; a < n; ++a) {
    if ((leaf_bits[a / 8] >> (a % 8)) & 1) {
      uint64_t symbol = 0;
      st = r->Varint(&symbol);
      if (!st.ok()) return st;
      if (symbol > 0xFFFFFFFFull) {
        return Status::Corruption("bundle grammar symbol out of range");
      }
      rules.emplace_back(static_cast<uint32_t>(symbol), kInvalidNt);
    } else {
      uint64_t dl = 0, dr = 0;
      st = r->Varint(&dl);
      if (st.ok()) st = r->Varint(&dr);
      if (!st.ok()) return st;
      // Topological numbering: children are strictly smaller, so both
      // deltas are in [1, a].
      if (dl == 0 || dl > a || dr == 0 || dr > a) {
        return Status::Corruption("bundle grammar child delta out of range");
      }
      rules.emplace_back(a - static_cast<uint32_t>(dl),
                         a - static_cast<uint32_t>(dr));
    }
  }
  return Slp::FromRules(rules, static_cast<uint32_t>(root));
}

// ------------------------------------------------------------ matrices ----

// Each matrix takes the smaller of two layouts: dense-coded (every logical
// word through one tagged stream) or sparse-coded (the strictly increasing
// non-zero word positions plus the non-zero words themselves).
// Serialization iterates logical words only: the in-memory rows are padded
// to the kernel layer's 32-byte stride, but the .prep byte format stays
// padding-independent.
void WriteMatrix(const BoolMatrix& m, uint32_t q, BundleWriter* w) {
  const uint32_t words = m.logical_words_per_row();
  std::vector<uint64_t> all;
  all.reserve(static_cast<size_t>(q) * words);
  std::vector<uint64_t> positions, bits;
  for (uint32_t i = 0; i < q; ++i) {
    const uint64_t* row = m.Row(i);
    for (uint32_t k = 0; k < words; ++k) {
      all.push_back(row[k]);
      if (row[k] != 0) {
        positions.push_back(static_cast<uint64_t>(i) * words + k);
        bits.push_back(row[k]);
      }
    }
  }
  BundleWriter dense;
  WriteTaggedU64s(all.data(), all.size(), &dense);
  BundleWriter sparse;
  sparse.U32(static_cast<uint32_t>(positions.size()));
  WriteTaggedU64s(positions.data(), positions.size(), &sparse);
  WriteTaggedU64s(bits.data(), bits.size(), &sparse);
  if (sparse.buffer().size() < dense.buffer().size()) {
    w->U8(kSparseCoded);
    w->Bytes(sparse.buffer().data(), sparse.buffer().size());
  } else {
    w->U8(kDenseCoded);
    w->Bytes(dense.buffer().data(), dense.buffer().size());
  }
}

Status ReadMatrix(BundleReader* r, uint32_t q, BoolMatrix* out) {
  uint8_t format = 0;
  Status st = r->U8(&format);
  if (!st.ok()) return st;
  const uint32_t words = (q + 63) / 64;
  const size_t total_words = static_cast<size_t>(q) * words;
  if (format == kDenseCoded) {
    std::vector<uint64_t> all;
    st = ReadTaggedU64s(r, total_words, &all);
    if (!st.ok()) return st;
    *out = BoolMatrix(q);
    for (uint32_t i = 0; i < q; ++i) {
      uint64_t* row = out->MutableRow(i);
      for (uint32_t k = 0; k < words; ++k) {
        row[k] = all[static_cast<size_t>(i) * words + k];
      }
    }
    out->CacheRowPopcounts();
    return Status::OK();
  }
  if (format != kSparseCoded) {
    return Status::Corruption("unknown matrix format");
  }
  uint32_t nonzero = 0;
  st = r->U32(&nonzero);
  if (!st.ok()) return st;
  if (nonzero > total_words) {
    return Status::Corruption("sparse matrix overfull");
  }
  std::vector<uint64_t> positions, bits;
  st = ReadTaggedU64s(r, nonzero, &positions);
  if (st.ok()) st = ReadTaggedU64s(r, nonzero, &bits);
  if (!st.ok()) return st;
  *out = BoolMatrix(q);
  for (uint32_t e = 0; e < nonzero; ++e) {
    const uint64_t index = positions[e];
    if (index >= total_words) {
      return Status::Corruption("sparse matrix word index out of range");
    }
    out->MutableRow(static_cast<uint32_t>(index / words))[index % words] =
        bits[e];
  }
  out->CacheRowPopcounts();
  return Status::OK();
}

// The U/W matrices repeat massively across non-terminals, and EvalTables
// already stores them hash-consed (a pool of distinct matrices plus two
// per-nt indexes). The bundle mirrors that representation 1:1 — an
// order-of-magnitude smaller file, and deserialization adopts the pool
// without any per-nt matrix copies. The per-nt u/w index arrays — 2n
// values in [0, pool) — go through one tagged stream, which bitpacks them
// to ~log2(pool) bits each.
void WriteMatrixPool(const EvalTables& tables, uint32_t q, BundleWriter* w) {
  const std::vector<BoolMatrix>& pool = tables.pool();
  w->U32(static_cast<uint32_t>(pool.size()));
  for (const BoolMatrix& m : pool) WriteMatrix(m, q, w);
  std::vector<uint64_t> indexes;
  indexes.reserve(tables.u_indexes().size() + tables.w_indexes().size());
  for (const uint32_t idx : tables.u_indexes()) indexes.push_back(idx);
  for (const uint32_t idx : tables.w_indexes()) indexes.push_back(idx);
  WriteTaggedU64s(indexes.data(), indexes.size(), w);
}

Status ReadMatrixPool(BundleReader* r, bool v1, uint32_t n, uint32_t q,
                      std::vector<BoolMatrix>* pool,
                      std::vector<uint32_t>* u_idx,
                      std::vector<uint32_t>* w_idx) {
  uint32_t num_unique = 0;
  Status st = r->U32(&num_unique);
  if (!st.ok()) return st;
  if (num_unique == 0) return Status::Corruption("empty matrix pool");
  if (num_unique > r->remaining()) {  // every matrix takes >= 1 byte
    return Status::Corruption("truncated matrix pool");
  }
  pool->resize(num_unique);
  for (uint32_t m = 0; m < num_unique; ++m) {
    st = v1 ? ReadMatrixV1(r, q, &(*pool)[m]) : ReadMatrix(r, q, &(*pool)[m]);
    if (!st.ok()) return st;
  }
  if (v1) return ReadMatrixIndexesV1(r, n, num_unique, u_idx, w_idx);
  std::vector<uint64_t> indexes;
  st = ReadTaggedU64s(r, static_cast<size_t>(n) * 2, &indexes);
  if (!st.ok()) return st;
  u_idx->resize(n);
  w_idx->resize(n);
  for (uint32_t a = 0; a < 2 * n; ++a) {
    if (indexes[a] >= num_unique) {
      return Status::Corruption("matrix index out of range");
    }
    (a < n ? (*u_idx)[a] : (*w_idx)[a - n]) = static_cast<uint32_t>(indexes[a]);
  }
  return Status::OK();
}

// ---------------------------------------------------------- leaf cells ----

// Grids mirror the matrix layout choice: dense-coded streams every cell's
// length (mostly zero, which bitpacking collapses), sparse-coded streams
// the non-empty cell positions plus their lengths; the mask payload rides
// one tagged stream either way.
void WriteLeafGrid(const EvalTables& tables, NtId leaf, uint32_t q,
                   BundleWriter* w) {
  std::vector<uint64_t> lens, masks, positions, sparse_lens;
  lens.reserve(static_cast<size_t>(q) * q);
  for (StateId i = 0; i < q; ++i) {
    for (StateId j = 0; j < q; ++j) {
      const auto& cell = tables.LeafCell(leaf, i, j);
      lens.push_back(cell.size());
      if (!cell.empty()) {
        positions.push_back(static_cast<uint64_t>(i) * q + j);
        sparse_lens.push_back(cell.size());
      }
      for (const MarkerMask mask : cell) masks.push_back(mask);
    }
  }
  BundleWriter dense;
  WriteTaggedU64s(lens.data(), lens.size(), &dense);
  BundleWriter sparse;
  sparse.U32(static_cast<uint32_t>(positions.size()));
  WriteTaggedU64s(positions.data(), positions.size(), &sparse);
  WriteTaggedU64s(sparse_lens.data(), sparse_lens.size(), &sparse);
  if (sparse.buffer().size() < dense.buffer().size()) {
    w->U8(kSparseCoded);
    w->Bytes(sparse.buffer().data(), sparse.buffer().size());
  } else {
    w->U8(kDenseCoded);
    w->Bytes(dense.buffer().data(), dense.buffer().size());
  }
  WriteTaggedU64s(masks.data(), masks.size(), w);
}

// Shared tail of the two grid layouts: validate the per-cell lengths, then
// decode the single mask stream and deal it out.
Status FillGridFromLens(BundleReader* r, const std::vector<uint64_t>& cells_at,
                        const std::vector<uint64_t>& lens, size_t cells,
                        LeafGrid* grid) {
  uint64_t total_masks = 0;
  for (size_t e = 0; e < lens.size(); ++e) {
    if (lens[e] > 0xFFFFFFFFull) {
      return Status::Corruption("leaf cell length out of range");
    }
    total_masks += lens[e];
    if (total_masks > (uint64_t{1} << 32)) {
      return Status::Corruption("leaf grid mask count out of range");
    }
    if (cells_at[e] >= cells) {
      return Status::Corruption("leaf cell index out of range");
    }
  }
  std::vector<uint64_t> masks;
  Status st = ReadTaggedU64s(r, static_cast<size_t>(total_masks), &masks);
  if (!st.ok()) return st;
  grid->resize(cells);
  size_t offset = 0;
  for (size_t e = 0; e < lens.size(); ++e) {
    const size_t len = static_cast<size_t>(lens[e]);
    (*grid)[static_cast<size_t>(cells_at[e])].assign(
        masks.begin() + offset, masks.begin() + offset + len);
    offset += len;
  }
  return Status::OK();
}

Status ReadLeafGrid(BundleReader* r, uint32_t q, LeafGrid* grid) {
  uint8_t format = 0;
  Status st = r->U8(&format);
  if (!st.ok()) return st;
  if (format != kDenseCoded && format != kSparseCoded) {
    return Status::Corruption("unknown leaf grid format");
  }
  const size_t cells = static_cast<size_t>(q) * q;
  // Same implausible-dimension cap as v1's sparse layout: every grid still
  // costs at least cells/128 stream bytes when dense and a position stream
  // when sparse.
  if (cells / 1024 > r->remaining()) {
    return Status::Corruption("implausible leaf grid dimension");
  }
  if (format == kDenseCoded) {
    std::vector<uint64_t> lens;
    st = ReadTaggedU64s(r, cells, &lens);
    if (!st.ok()) return st;
    std::vector<uint64_t> cells_at(cells);
    for (size_t c = 0; c < cells; ++c) cells_at[c] = c;
    return FillGridFromLens(r, cells_at, lens, cells, grid);
  }
  uint32_t nonempty = 0;
  st = r->U32(&nonempty);
  if (!st.ok()) return st;
  if (nonempty > cells) {
    return Status::Corruption("leaf grid overfull");
  }
  std::vector<uint64_t> positions, lens;
  st = ReadTaggedU64s(r, nonempty, &positions);
  if (st.ok()) st = ReadTaggedU64s(r, nonempty, &lens);
  if (!st.ok()) return st;
  return FillGridFromLens(r, positions, lens, cells, grid);
}

// ------------------------------------------------------------- counter ----

// Counts are key-sorted, so keys delta-encode to small values; keys and
// counts ride two tagged streams, and the final states pack too.
void WriteCounter(const CountTables& counter, BundleWriter* w) {
  const CountTables::Parts parts = counter.ExportParts();
  w->U64(parts.counts.size());
  std::vector<uint64_t> deltas, counts;
  deltas.reserve(parts.counts.size());
  counts.reserve(parts.counts.size());
  uint64_t prev_key = 0;
  for (const auto& [key, count] : parts.counts) {
    deltas.push_back(key - prev_key);
    counts.push_back(count);
    prev_key = key;
  }
  WriteTaggedU64s(deltas.data(), deltas.size(), w);
  WriteTaggedU64s(counts.data(), counts.size(), w);
  w->U32(static_cast<uint32_t>(parts.final_states.size()));
  std::vector<uint64_t> finals(parts.final_states.begin(),
                               parts.final_states.end());
  WriteTaggedU64s(finals.data(), finals.size(), w);
  w->U64(parts.total);
  w->U8(parts.overflow ? 1 : 0);
}

Result<CountTables::Parts> ReadCounterParts(BundleReader* r) {
  CountTables::Parts parts;
  uint64_t num_counts = 0;
  Status st = r->U64(&num_counts);
  if (!st.ok()) return st;
  // Each entry takes >= 1 stream byte after the densest packing; the
  // stream decoder re-checks its own exact minimum.
  if (num_counts / 128 > r->remaining()) {
    return Status::Corruption("truncated counter section");
  }
  std::vector<uint64_t> deltas, counts;
  st = ReadTaggedU64s(r, static_cast<size_t>(num_counts), &deltas);
  if (st.ok()) st = ReadTaggedU64s(r, static_cast<size_t>(num_counts), &counts);
  if (!st.ok()) return st;
  parts.counts.reserve(num_counts);
  uint64_t key = 0;
  for (uint64_t e = 0; e < num_counts; ++e) {
    key += deltas[e];
    parts.counts.emplace_back(key, counts[e]);
  }
  uint32_t num_final = 0;
  st = r->U32(&num_final);
  if (!st.ok()) return st;
  std::vector<uint64_t> finals;
  st = ReadTaggedU64s(r, num_final, &finals);
  if (!st.ok()) return st;
  parts.final_states.resize(num_final);
  for (uint32_t e = 0; e < num_final; ++e) {
    if (finals[e] > 0xFFFFFFFFull) {
      return Status::Corruption("counter final state out of range");
    }
    parts.final_states[e] = static_cast<StateId>(finals[e]);
  }
  uint8_t overflow = 0;
  st = r->U64(&parts.total);
  if (st.ok()) st = r->U8(&overflow);
  if (!st.ok()) return st;
  parts.overflow = overflow != 0;
  return parts;
}

}  // namespace

// ----------------------------------------------------------- top level ----

std::string SerializePreparedState(const api_internal::PreparedState& state,
                                   uint64_t doc_fp, uint64_t query_fp) {
  const Slp& slp = state.prepared.slp();
  const EvalTables& tables = state.prepared.tables();
  const uint32_t q = tables.q();

  BundleWriter payload;
  WriteGrammar(slp, &payload);
  payload.U32(q);
  WriteMatrixPool(tables, q, &payload);
  uint32_t num_leaves = 0;
  for (NtId a = 0; a < slp.NumNonTerminals(); ++a) num_leaves += slp.IsLeaf(a);
  payload.U32(num_leaves);
  for (NtId a = 0; a < slp.NumNonTerminals(); ++a) {
    if (slp.IsLeaf(a)) WriteLeafGrid(tables, a, q, &payload);
  }

  uint32_t flags = 0;
  if (const CountTables* counter = state.CounterIfReady()) {
    flags |= kBundleFlagHasCounter;
    WriteCounter(*counter, &payload);
  }
  return SealBundle(flags, doc_fp, query_fp, payload.TakeBuffer());
}

Result<StatePtr> DeserializePreparedState(
    const uint8_t* data, size_t size, uint64_t expected_doc_fp,
    uint64_t expected_query_fp,
    api_internal::PreparedState::RechargeFn recharge) {
  Result<BundleHeader> header = OpenBundle(data, size);
  if (!header.ok()) return header.status();
  if (header->doc_fp != expected_doc_fp) {
    return Status::InvalidArgument(
        "bundle was built for a different document (fingerprint mismatch)");
  }
  if (header->query_fp != expected_query_fp) {
    return Status::InvalidArgument(
        "bundle was built for a different query (fingerprint mismatch)");
  }

  const bool v1 = header->version == kBundleVersionV1;
  BundleReader reader(data + kBundleHeaderSize, header->payload_size);

  Result<Slp> slp = v1 ? ReadGrammarV1(&reader) : ReadGrammar(&reader);
  if (!slp.ok()) return slp.status();

  uint32_t q = 0;
  Status st = reader.U32(&q);
  if (!st.ok()) return st;
  if (q == 0 || q > 0xFFFF) {
    return Status::Corruption("bundle state count out of range");
  }
  const uint32_t n = slp->NumNonTerminals();
  std::vector<BoolMatrix> pool;
  std::vector<uint32_t> u_idx, w_idx;
  st = ReadMatrixPool(&reader, v1, n, q, &pool, &u_idx, &w_idx);
  if (!st.ok()) return st;
  uint32_t num_leaves = 0;
  st = reader.U32(&num_leaves);
  if (!st.ok()) return st;
  if (num_leaves > reader.remaining()) {  // every grid takes >= 1 byte
    return Status::Corruption("truncated leaf grids");
  }
  std::vector<LeafGrid> leaf_cells(num_leaves);
  for (uint32_t l = 0; l < num_leaves; ++l) {
    st = v1 ? ReadLeafGridV1(&reader, q, &leaf_cells[l])
            : ReadLeafGrid(&reader, q, &leaf_cells[l]);
    if (!st.ok()) return st;
  }
  Result<EvalTables> tables =
      EvalTables::FromParts(*slp, q, std::move(pool), std::move(u_idx),
                            std::move(w_idx), std::move(leaf_cells));
  if (!tables.ok()) return tables.status();

  // The counter section is kept as raw bytes on the PreparedState (charged
  // to its MemoryUsage) and materialized lazily on the first
  // Count/At/Sample — it needs the query's evaluation automaton, and
  // check-only workloads never pay for it; the bytes are released once
  // parsed. The section was covered by the bundle checksum above; one that
  // still fails validation against the rebuilt tables falls back to a
  // from-scratch build.
  std::string counter_section;
  api_internal::PreparedState::CounterLoader loader;
  if ((header->flags & kBundleFlagHasCounter) != 0) {
    counter_section.assign(reinterpret_cast<const char*>(reader.cursor()),
                           reader.remaining());
    loader = [v1](const Slp& bound_slp, const Nfa& nfa,
                     const EvalTables& bound_tables,
                     const std::string& section) -> std::optional<CountTables> {
      BundleReader counter_reader(
          reinterpret_cast<const uint8_t*>(section.data()), section.size());
      Result<CountTables::Parts> parts =
          v1 ? ReadCounterPartsV1(&counter_reader)
             : ReadCounterParts(&counter_reader);
      if (!parts.ok()) return std::nullopt;
      Result<CountTables> counter = CountTables::FromParts(
          bound_slp, nfa, bound_tables, std::move(parts).value());
      if (!counter.ok()) return std::nullopt;
      return std::move(counter).value();
    };
  }

  return std::make_shared<const api_internal::PreparedState>(
      PreparedDocument::FromParts(std::move(slp).value(),
                                  std::move(tables).value()),
      std::move(recharge), std::move(counter_section), std::move(loader));
}

Result<std::string> WriteTempFile(const std::string& final_path,
                                  const std::string& bytes) {
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = final_path + ".tmp." + std::to_string(::getpid()) +
                          "." +
                          std::to_string(counter.fetch_add(1,
                                                           std::memory_order_relaxed));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open for writing: " + tmp);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::InvalidArgument("write failed: " + tmp);
  }
  return tmp;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  Result<std::string> tmp = WriteTempFile(path, bytes);
  if (!tmp.ok()) return tmp.status();
  std::error_code ec;
  std::filesystem::rename(*tmp, path, ec);
  if (ec) {
    std::filesystem::remove(*tmp, ec);
    return Status::InvalidArgument("cannot move file into place: " + path);
  }
  return Status::OK();
}

Status WritePreparedBundleFile(const std::string& path,
                               const api_internal::PreparedState& state,
                               uint64_t doc_fp, uint64_t query_fp) {
  return WriteFileAtomic(path, SerializePreparedState(state, doc_fp, query_fp));
}

Result<StatePtr> LoadPreparedBundleFile(
    const std::string& path, uint64_t expected_doc_fp,
    uint64_t expected_query_fp,
    api_internal::PreparedState::RechargeFn recharge) {
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  try {
    return DeserializePreparedState(file->data(), file->size(),
                                    expected_doc_fp, expected_query_fp,
                                    std::move(recharge));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory deserializing " + path);
  }
}

std::string SpillFileName(uint64_t doc_fp, uint64_t query_fp) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "pb-%016" PRIx64 "-%016" PRIx64 ".prep",
                doc_fp, query_fp);
  return buf;
}

bool ParseSpillFileName(const std::string& name, uint64_t* doc_fp,
                        uint64_t* query_fp) {
  if (name.size() != 3 + 16 + 1 + 16 + 5) return false;
  if (name.rfind("pb-", 0) != 0 || name[19] != '-' ||
      name.compare(36, 5, ".prep") != 0) {
    return false;
  }
  auto parse_hex = [](const std::string& s, size_t pos, uint64_t* out) {
    uint64_t v = 0;
    for (size_t i = 0; i < 16; ++i) {
      const char c = s[pos + i];
      uint64_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
      else return false;
      v = (v << 4) | digit;
    }
    *out = v;
    return true;
  };
  return parse_hex(name, 3, doc_fp) && parse_hex(name, 20, query_fp);
}

}  // namespace storage
}  // namespace slpspan
