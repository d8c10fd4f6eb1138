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

template Status ReadFile(const std::string&, std::string*);
template Status ReadFile(const std::string&, std::vector<uint8_t>*);

}  // namespace p2pdb
