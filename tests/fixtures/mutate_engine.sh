#!/bin/sh
# Copy an aligned-engine URNC checkpoint with node 0's engine state
# corrupted, for the urn_postmortem corrupt-input checks
# (tools/CMakeLists.txt).
#
#   mutate_engine.sh <in.urnc> <out.urnc> rng_spare|competitor
#
#   rng_spare   node 0's rng record sets the v1 have-spare flag
#   competitor  node 0 gains a competitor entry naming node 0 itself,
#               which is never a neighbour (the section grows 20 bytes)
#
# Offsets walk the little-endian v1 layout: the file header and scenario
# section (core/checkpoint.cpp), then the engine section, the last one
# in the file (radio::Engine::save_state with AlignedMedium::save), whose
# per-node rng records (41 bytes: 4 words, flag, spare) precede the node
# records of ColoringNode::save_state.
set -e
in=$1
out=$2
u64() { od -An -tu8 -j"$1" -N8 "$in" | tr -d ' '; }
u32() { od -An -tu4 -j"$1" -N4 "$in" | tr -d ' '; }
le32() {
  printf '\\%o\\%o\\%o\\%o' $(($1 & 255)) $((($1 >> 8) & 255)) \
    $((($1 >> 16) & 255)) $((($1 >> 24) & 255))
}
len_at=$((20 + $(u32 16)))         # engine section length
e=$((len_at + 4))
n=$(u64 "$e")
at=$((e + 57 + 41 + 9 * n))        # stats, medium rng, status, decisions
at=$((at + 8 + 4 * $(u64 "$at")))  # live list
at=$((at + 8 + 4 * $(u64 "$at")))  # undecided list
rngs=$((at + 17))                  # wake cursor, id-order flag, pending
case $3 in
  rng_spare)
    cp "$in" "$out"
    printf '\1' | dd of="$out" bs=1 seek=$((rngs + 32)) conv=notrunc \
      2>/dev/null
    ;;
  competitor)
    node=$((rngs + 41 * n))        # node 0: |P_v| is its u32 at +30
    head -c $((node + 30)) "$in" > "$out"
    printf "$(le32 $(($(u32 $((node + 30))) + 1)))" >> "$out"
    printf '\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0' >> "$out"
    tail -c +$((node + 35)) "$in" >> "$out"
    printf "$(le32 $(($(u32 "$len_at") + 20)))" |
      dd of="$out" bs=1 seek="$len_at" conv=notrunc 2>/dev/null
    ;;
  *) echo "unknown field: $3" >&2; exit 2 ;;
esac
