#!/bin/sh
# Copy a URNC checkpoint with one scenario field corrupted, for the
# urn_postmortem corrupt-input checks (tools/CMakeLists.txt).
#
#   mutate_scenario.sh <in.urnc> <out.urnc> wake|drop|alpha
#
#   wake   node 0's wake slot becomes -5
#   drop   drop_probability becomes 1.5
#   alpha  params.alpha becomes -1.0
#
# Offsets follow the little-endian scenario layout of core/checkpoint.cpp:
# a 20-byte file header (its last u32 is the section length S), then the
# params (alpha at byte 40), node and edge counts (edges at byte 82), the
# edges, the wake slots, ..., and drop_probability as the last 8 bytes.
set -e
in=$1
out=$2
u64() { od -An -tu8 -j"$1" -N8 "$in" | tr -d ' '; }
u32() { od -An -tu4 -j"$1" -N4 "$in" | tr -d ' '; }
case $3 in
  wake) at=$((98 + 8 * $(u64 82))); bytes='\373\377\377\377\377\377\377\377' ;;
  drop) at=$((20 + $(u32 16) - 8)); bytes='\0\0\0\0\0\0\370\77' ;;
  alpha) at=40; bytes='\0\0\0\0\0\0\360\277' ;;
  *) echo "unknown field: $3" >&2; exit 2 ;;
esac
cp "$in" "$out"
printf "$bytes" | dd of="$out" bs=1 seek="$at" conv=notrunc 2>/dev/null
