#include "src/net/runtime.h"

namespace p2pdb::net {

// Runtime is an interface; implementations live in sim_runtime.cc and
// tcp_runtime.cc. This translation unit anchors the vtable.

}  // namespace p2pdb::net
