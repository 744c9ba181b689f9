#include "accel/pipeline.hpp"

namespace spatten {

SpAttenConfig
SpAttenConfig::eighth()
{
    SpAttenConfig c;
    c.qk.num_multipliers = 64;
    c.pv.num_multipliers = 64;
    c.qk.max_tree_outputs = 1;
    c.softmax.parallelism = 1;
    c.topk_parallelism = 2;
    c.key_sram_kb = 24;
    c.value_sram_kb = 24;
    c.hbm.channels = 2; // 64 GB/s, matching the A3 comparison setup.
    return c;
}

} // namespace spatten
