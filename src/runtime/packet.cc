#include "runtime/packet.h"

#include "runtime/fields.h"

namespace crew::runtime {

CREW_FIELD_CODEC(WorkflowPacket)

}  // namespace crew::runtime
