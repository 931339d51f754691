#include "fl/checkpoint/format.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "core/record.hpp"
#include "utils/logging.hpp"

namespace fedkemf::ckpt {
namespace {

namespace fs = std::filesystem;

/// Every header or CRC failure is a std::runtime_error.
constexpr core::RecordFormat kCheckpointRecord{"checkpoint", kCheckpointMagic,
                                               kCheckpointFormatVersion, 0,
                                               core::throw_error<std::runtime_error>};

std::string checkpoint_file_name(std::uint64_t next_round) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt_%08llu.bin",
                static_cast<unsigned long long>(next_round));
  return name;
}

/// fsync a directory so a rename inside it is durable, not just ordered.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse directory fds
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

const Section* Checkpoint::find(const std::string& name) const {
  for (const Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::uint8_t>& Checkpoint::section(const std::string& name) {
  for (Section& s : sections) {
    if (s.name == name) return s.bytes;
  }
  sections.push_back(Section{name, {}});
  return sections.back().bytes;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint) {
  core::ByteWriter writer = core::begin_record();
  writer.write_u64(checkpoint.next_round);
  writer.write_string(checkpoint.algorithm);
  writer.write_u32(static_cast<std::uint32_t>(checkpoint.sections.size()));
  for (const Section& s : checkpoint.sections) {
    writer.write_string(s.name);
    writer.write_u64(s.bytes.size());
    writer.write_bytes(s.bytes);
  }
  std::vector<std::uint8_t> out = writer.take();
  core::seal_record(out, kCheckpointMagic, kCheckpointFormatVersion);
  return out;
}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> payload) {
  core::ByteReader reader(core::open_record(payload, kCheckpointRecord));
  Checkpoint checkpoint;
  checkpoint.next_round = reader.read_u64();
  checkpoint.algorithm = reader.read_string();
  const std::uint32_t count = reader.read_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.name = reader.read_string();
    const std::span<const std::uint8_t> bytes = reader.read_bytes(reader.read_u64());
    s.bytes.assign(bytes.begin(), bytes.end());
    checkpoint.sections.push_back(std::move(s));
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("checkpoint: trailing bytes after the last section");
  }
  return checkpoint;
}

void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp_path = path + ".tmp";
  {
    std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
    if (file == nullptr) {
      throw std::runtime_error("checkpoint: cannot open '" + tmp_path + "'");
    }
    const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
    const bool flushed = std::fflush(file) == 0;
    const bool synced = ::fsync(::fileno(file)) == 0;
    std::fclose(file);
    if (written != bytes.size() || !flushed || !synced) {
      std::remove(tmp_path.c_str());
      throw std::runtime_error("checkpoint: write failed for '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("checkpoint: cannot rename '" + tmp_path + "' to '" + path +
                             "'");
  }
  fsync_dir(fs::path(path).parent_path().string());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) throw std::runtime_error("checkpoint: read failed for '" + path + "'");
  return bytes;
}

CheckpointManager::CheckpointManager(std::string dir, std::size_t retain)
    : dir_(std::move(dir)), retain_(retain) {
  if (dir_.empty()) throw std::invalid_argument("CheckpointManager: empty directory");
  if (retain_ == 0) throw std::invalid_argument("CheckpointManager: retain must be >= 1");
  fs::create_directories(dir_);
}

std::string CheckpointManager::write(const Checkpoint& checkpoint) {
  const std::string file = checkpoint_file_name(checkpoint.next_round);
  const std::string path = (fs::path(dir_) / file).string();
  atomic_write_file(path, encode_checkpoint(checkpoint));

  std::vector<ManifestEntry> entries = manifest();
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const ManifestEntry& e) { return e.file == file; }),
                entries.end());
  entries.push_back(ManifestEntry{file, checkpoint.next_round});

  // Prune beyond the retention budget, oldest first.  The manifest is
  // rewritten before the files are unlinked so a crash between the two never
  // leaves the manifest naming a deleted checkpoint.
  std::vector<ManifestEntry> pruned;
  if (entries.size() > retain_) {
    pruned.assign(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(entries.size() - retain_));
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(pruned.size()));
  }
  write_manifest(entries);
  for (const ManifestEntry& old : pruned) {
    std::error_code ec;
    fs::remove(fs::path(dir_) / old.file, ec);
  }
  return path;
}

std::vector<ManifestEntry> CheckpointManager::manifest() const {
  std::vector<ManifestEntry> entries;
  std::ifstream file(fs::path(dir_) / "MANIFEST");
  if (file) {
    std::string line;
    while (std::getline(file, line)) {
      std::istringstream fields(line);
      ManifestEntry entry;
      if (fields >> entry.file >> entry.next_round) entries.push_back(std::move(entry));
    }
    if (!entries.empty()) return entries;
  }
  // Manifest missing or unreadable: recover by scanning for checkpoint files.
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    const std::string name = dirent.path().filename().string();
    unsigned long long round = 0;
    if (std::sscanf(name.c_str(), "ckpt_%llu.bin", &round) == 1 &&
        name == checkpoint_file_name(round)) {
      entries.push_back(ManifestEntry{name, round});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.next_round < b.next_round;
            });
  return entries;
}

bool CheckpointManager::has_checkpoint() const { return !manifest().empty(); }

std::optional<Checkpoint> CheckpointManager::load_latest_valid() const {
  const std::vector<ManifestEntry> entries = manifest();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const std::string path = (fs::path(dir_) / it->file).string();
    try {
      return decode_checkpoint(read_file(path));
    } catch (const std::exception& error) {
      utils::log_warn("checkpoint")
          << "skipping invalid checkpoint '" << path << "': " << error.what();
    }
  }
  return std::nullopt;
}

void CheckpointManager::write_manifest(const std::vector<ManifestEntry>& entries) const {
  std::string text;
  for (const ManifestEntry& entry : entries) {
    text += entry.file;
    text += ' ';
    text += std::to_string(entry.next_round);
    text += '\n';
  }
  atomic_write_file((fs::path(dir_) / "MANIFEST").string(),
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace fedkemf::ckpt
