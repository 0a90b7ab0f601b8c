#include "storage/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "storage/storage_error.h"
#include "util/string_utils.h"

namespace causumx {
namespace {

[[noreturn]] void ThrowIo(const std::string& op, const std::string& path,
                          int err) {
  throw StorageError(StorageErrorKind::kIo,
                     StrFormat("storage: %s failed for '%s': %s", op.c_str(),
                               path.c_str(), std::strerror(err)));
}

// Directory part of `path` ("" -> ".").
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) ThrowIo("open directory", dir, errno);
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ThrowIo("fsync directory", dir, err);
  }
  ::close(fd);
}

}  // namespace

void WriteFileDurable(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ThrowIo("open", tmp, errno);

  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      ThrowIo("write", tmp, err);
    }
    off += static_cast<size_t>(n);
  }

  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    ThrowIo("fsync", tmp, err);
  }
  if (::close(fd) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    ThrowIo("close", tmp, err);
  }

  // The previous durable file is superseded only here, after the new
  // bytes are fully on disk.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    ThrowIo("rename", tmp, err);
  }
  FsyncDir(DirName(path));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw StorageError(StorageErrorKind::kIo,
                       "storage: cannot open '" + path + "' for reading");
  }
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    bytes.append(buf, static_cast<size_t>(in.gcount()));
  }
  // eof() alone is the clean exit; bad() means the stream failed
  // mid-read and the bytes gathered so far cannot be trusted.
  if (in.bad()) {
    throw StorageError(StorageErrorKind::kIo,
                       "storage: stream failed mid-read on '" + path + "'");
  }
  return bytes;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::string EncodeFileStem(const std::string& name) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (unsigned char c : name) {
    bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

std::string DecodeFileStem(const std::string& stem) {
  auto hex = [&](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(stem.size());
  for (size_t i = 0; i < stem.size(); ++i) {
    if (stem[i] != '%') {
      out.push_back(stem[i]);
      continue;
    }
    if (i + 2 >= stem.size() || hex(stem[i + 1]) < 0 || hex(stem[i + 2]) < 0) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         "storage: malformed %XX escape in file stem '" +
                             stem + "'");
    }
    out.push_back(
        static_cast<char>((hex(stem[i + 1]) << 4) | hex(stem[i + 2])));
    i += 2;
  }
  return out;
}

void CreateDirectories(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // ENOTDIR on a file
  if (ec) ThrowIo("create directory", dir, ec.value());
}

std::vector<std::string> ListDirFiles(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    if (FileExists(dir + "/" + name)) names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace causumx
