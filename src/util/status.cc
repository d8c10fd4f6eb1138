#include "src/util/status.h"

namespace p2pdb {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kProtocolError:
      return "ProtocolError";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace p2pdb
