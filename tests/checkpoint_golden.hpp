// The serialized text of FullCheckpoint() in test_checkpoint_roundtrip.cpp,
// recorded before the checkpoint format moved to a single record walk. It
// reaches every record and every field kind, so it pins the format's bytes
// and seeds the checkpoint mutation test in test_malformed_inputs.cpp.
#pragma once

namespace daos {

inline constexpr char kFullCheckpointText[] =
    "daos-checkpoint v1\n"
    "at 123456\n"
    "attrs 5000 100000 1000000 10 1000 0 2\n"
    "sched 1 123461 123556 124456\n"
    "rng 1 2 3 4\n"
    "counters 10 1 7 6 2 0x1.6666666666666p-1\n"
    "engine 1\n"
    "targets 2\n"
    "target 1 1\n"
    "region 1073741824 1075838976 3 2 5 1073745920\n"
    "target 4 2\n"
    "region 2147483648 2151677952 1 0 9 2147491840\n"
    "region 2151677952 2155872256 1 0 9 2151686144\n"
    "schemes 1\n"
    "scheme 4096 67108864 samples 0x1p+1 percent 0x1p-1 2000000 "
    "18446744073709551615 pageout\n"
    "policy 4194304 5000 1000000 3 7 1 free_mem_rate 100000 700 500 100\n"
    "stats 40 163840 12 49152 1 1 3 5 20480 2 0\n"
    "backoff 3 5000000\n"
    "quota 1000000 8192 0x1.5555555555555p-2 4194304 65536 0x1.4p+1\n"
    "wmark 0 1100000\n"
    "recorder 1000000 2000000 2\n"
    "snapshot 1000000 0 2\n"
    "srow 1073741824 1075838976 3 5\n"
    "srow 1075838976 1077936128 0 1\n"
    "snapshot 1000000 1 1\n"
    "srow 2147483648 2155872256 1 9\n"
    "end\n";

}  // namespace daos
