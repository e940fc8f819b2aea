#include "nn/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

namespace targad {
namespace nn {

namespace {

// On-disk structures. Fixed-width fields, no implicit padding; asserted so
// a compiler that disagrees about layout fails the build instead of
// producing unreadable files.
struct ArtifactHeader {
  char magic[8];
  uint32_t version;
  uint32_t dtype;
  uint64_t num_sections;
  uint64_t meta_offset;
  uint64_t meta_size;
  uint64_t table_offset;
  uint64_t file_size;
  uint64_t reserved;
};
static_assert(sizeof(ArtifactHeader) == 64, "header must be 64 bytes");

struct SectionDesc {
  uint64_t offset;
  uint64_t rows;
  uint64_t cols;
};
static_assert(sizeof(SectionDesc) == 24, "section descriptor must be 24 bytes");

struct ArtifactFooter {
  uint64_t trailer_magic;
  uint64_t checksum;  ///< FNV-1a 64 of bytes [0, file_size - 8).
};
static_assert(sizeof(ArtifactFooter) == 16, "footer must be 16 bytes");

constexpr char kMagic[8] = {'T', 'A', 'R', 'G', 'A', 'D', '1', '\0'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint64_t kTrailerMagic = 0x31445A4747524154ull;  // "TARGGZD1"
constexpr size_t kPayloadAlign = 64;

constexpr uint32_t kDtypeTagFloat32 = 1;
constexpr uint32_t kDtypeTagFloat64 = 2;

uint32_t DtypeTag(Dtype dtype) {
  return dtype == Dtype::kFloat32 ? kDtypeTagFloat32 : kDtypeTagFloat64;
}

size_t ElemSize(Dtype dtype) {
  return dtype == Dtype::kFloat32 ? sizeof(float) : sizeof(double);
}

size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void ArtifactWriter::AddTensor(size_t rows, size_t cols, const void* data) {
  sections_.push_back(PendingSection{rows, cols, data});
}

std::string ArtifactWriter::Serialize() const {
  const size_t elem = ElemSize(dtype_);

  // Lay the file out front to back; payload offsets are 64-byte aligned so
  // mapped tensor pointers are cache-line aligned (the mapping base is page
  // aligned, a multiple of 64).
  const size_t meta_offset = sizeof(ArtifactHeader);
  const size_t table_offset = AlignUp(meta_offset + meta_.size(), 8);
  std::vector<SectionDesc> table(sections_.size());
  size_t cursor = table_offset + sections_.size() * sizeof(SectionDesc);
  for (size_t i = 0; i < sections_.size(); ++i) {
    cursor = AlignUp(cursor, kPayloadAlign);
    table[i].offset = cursor;
    table[i].rows = sections_[i].rows;
    table[i].cols = sections_[i].cols;
    cursor += sections_[i].rows * sections_[i].cols * elem;
  }
  const size_t file_size = cursor + sizeof(ArtifactFooter);

  ArtifactHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.dtype = DtypeTag(dtype_);
  header.num_sections = sections_.size();
  header.meta_offset = meta_offset;
  header.meta_size = meta_.size();
  header.table_offset = table_offset;
  header.file_size = file_size;

  std::string buf(file_size, '\0');
  std::memcpy(buf.data(), &header, sizeof(header));
  std::memcpy(buf.data() + meta_offset, meta_.data(), meta_.size());
  if (!table.empty()) {
    std::memcpy(buf.data() + table_offset, table.data(),
                table.size() * sizeof(SectionDesc));
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    std::memcpy(buf.data() + table[i].offset, sections_[i].data,
                sections_[i].rows * sections_[i].cols * elem);
  }

  ArtifactFooter footer{};
  footer.trailer_magic = kTrailerMagic;
  std::memcpy(buf.data() + cursor, &footer.trailer_magic,
              sizeof(footer.trailer_magic));
  footer.checksum = Fnv1a64(buf.data(), file_size - sizeof(footer.checksum));
  std::memcpy(buf.data() + cursor + sizeof(footer.trailer_magic),
              &footer.checksum, sizeof(footer.checksum));
  return buf;
}

Status ArtifactWriter::WriteFile(const std::string& path) const {
  // Servers map artifacts MAP_PRIVATE, and a private mapping still shows
  // later writes to (and faults on truncation of) pages it has not copied.
  // So the file is never rewritten in place: the bytes go to a sibling temp
  // file that is synced and then renamed over `path`, which leaves any
  // mapped inode intact.
  static std::atomic<uint64_t> temp_counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(temp_counter.fetch_add(1));
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IOError("artifact: cannot open for write: ", temp);
  const std::string buf = Serialize();
  size_t written = 0;
  while (written < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + written, buf.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  const bool synced = written == buf.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed || ::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return Status::IOError("artifact: write failed: ", path);
  }
  return Status::OK();
}

Result<std::shared_ptr<const MappedArtifact>> MappedArtifact::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("artifact: cannot open ", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("artifact: cannot stat ", path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < sizeof(ArtifactHeader) + sizeof(ArtifactFooter)) {
    ::close(fd);
    return Status::InvalidArgument("artifact: ", path, ": file too short (",
                                   size, " bytes)");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping outlives the descriptor; closing now keeps the fd budget
  // independent of how many cold models the registry knows about.
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("artifact: mmap failed for ", path);
  }

  auto artifact = std::shared_ptr<MappedArtifact>(new MappedArtifact());
  artifact->base_ = base;
  artifact->size_ = size;
  const auto* bytes = static_cast<const unsigned char*>(base);

  ArtifactHeader header{};
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("artifact: ", path, ": bad magic");
  }
  if (header.version != kFormatVersion) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": unsupported format version ",
                                   header.version);
  }
  if (header.dtype != kDtypeTagFloat32 && header.dtype != kDtypeTagFloat64) {
    return Status::InvalidArgument("artifact: ", path, ": unknown dtype tag ",
                                   header.dtype);
  }
  if (header.file_size != size) {
    return Status::InvalidArgument("artifact: ", path, ": header claims ",
                                   header.file_size, " bytes, file has ",
                                   size);
  }

  ArtifactFooter footer{};
  std::memcpy(&footer, bytes + size - sizeof(footer), sizeof(footer));
  if (footer.trailer_magic != kTrailerMagic) {
    return Status::InvalidArgument("artifact: ", path, ": bad trailer magic");
  }
  const uint64_t computed = Fnv1a64(bytes, size - sizeof(footer.checksum));
  if (computed != footer.checksum) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": checksum mismatch (file corrupt?)");
  }

  artifact->version_ = header.version;
  artifact->dtype_ = header.dtype == kDtypeTagFloat32 ? Dtype::kFloat32
                                                      : Dtype::kFloat64;
  const size_t payload_floor = size - sizeof(footer);
  if (header.meta_offset > payload_floor ||
      header.meta_size > payload_floor - header.meta_offset) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": meta blob out of bounds");
  }
  artifact->meta_ = std::string_view(
      reinterpret_cast<const char*>(bytes + header.meta_offset),
      header.meta_size);

  const size_t table_bytes = header.num_sections * sizeof(SectionDesc);
  if (header.num_sections > payload_floor / sizeof(SectionDesc) ||
      header.table_offset > payload_floor ||
      table_bytes > payload_floor - header.table_offset) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": section table out of bounds");
  }

  const size_t elem = ElemSize(artifact->dtype_);
  artifact->sections_.reserve(header.num_sections);
  for (uint64_t i = 0; i < header.num_sections; ++i) {
    SectionDesc desc{};
    std::memcpy(&desc, bytes + header.table_offset + i * sizeof(SectionDesc),
                sizeof(desc));
    if (desc.offset % kPayloadAlign != 0) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " payload misaligned");
    }
    // Overflow-safe bounds check: rows*cols*elem must fit before the footer.
    if (desc.rows != 0 && desc.cols > payload_floor / desc.rows) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " shape overflows");
    }
    const size_t payload = desc.rows * desc.cols * elem;
    if (desc.offset > payload_floor || payload > payload_floor - desc.offset) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " truncated (", payload, " bytes at ",
                                     desc.offset, ", file ends at ",
                                     payload_floor, ")");
    }
    artifact->sections_.push_back(
        Section{static_cast<size_t>(desc.rows), static_cast<size_t>(desc.cols),
                bytes + desc.offset});
  }
  return std::shared_ptr<const MappedArtifact>(std::move(artifact));
}

MappedArtifact::~MappedArtifact() {
  if (base_ != nullptr) {
    ::munmap(const_cast<void*>(base_), size_);
  }
}

template <typename T>
Result<const T*> MappedArtifact::Tensor(size_t i, size_t rows,
                                        size_t cols) const {
  const bool want_f32 = std::is_same_v<T, float>;
  if (want_f32 != (dtype_ == Dtype::kFloat32)) {
    return Status::InvalidArgument("artifact: section ", i,
                                   " element type does not match dtype ",
                                   DtypeName(dtype_));
  }
  if (i >= sections_.size()) {
    return Status::InvalidArgument("artifact: no section ", i, " (file has ",
                                   sections_.size(), ")");
  }
  const Section& s = sections_[i];
  if (s.rows != rows || s.cols != cols) {
    return Status::InvalidArgument("artifact: section ", i, " is ", s.rows,
                                   "x", s.cols, ", expected ", rows, "x",
                                   cols);
  }
  return static_cast<const T*>(s.data);
}

template Result<const float*> MappedArtifact::Tensor<float>(size_t, size_t,
                                                            size_t) const;
template Result<const double*> MappedArtifact::Tensor<double>(size_t, size_t,
                                                              size_t) const;

}  // namespace nn
}  // namespace targad
