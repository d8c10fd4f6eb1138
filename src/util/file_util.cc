#include "src/util/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

namespace p2pdb {

template <class Bytes>
Status ReadFile(const std::string& path, Bytes* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int error = errno;
    std::string what = "cannot open " + path + ": " + std::strerror(error);
    return error == ENOENT ? Status::NotFound(what) : Status::Internal(what);
  }
  char chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    out->insert(out->end(), chunk, chunk + n);
  }
  const int error = errno;
  ::close(fd);
  if (n == 0) return Status::OK();
  return Status::Internal("cannot read " + path + ": " + std::strerror(error));
}

template <class Bytes>
Status WriteFile(const std::string& path, const Bytes& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    const int error = errno;
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(error));
  }
  const char* data = reinterpret_cast<const char*>(bytes.data());
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int error = errno;
      ::close(fd);
      return Status::Internal("cannot write " + path + ": " +
                              std::strerror(error));
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    const int error = errno;
    return Status::Internal("cannot close " + path + ": " +
                            std::strerror(error));
  }
  return Status::OK();
}

template Status ReadFile(const std::string&, std::string*);
template Status ReadFile(const std::string&, std::vector<uint8_t>*);
template Status WriteFile(const std::string&, const std::string&);
template Status WriteFile(const std::string&, const std::vector<uint8_t>&);

}  // namespace p2pdb
