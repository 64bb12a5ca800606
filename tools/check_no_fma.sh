#!/usr/bin/env bash
# Contraction guard for the dense kernels, registered with CTest as
# `dense_kernels_no_fma`.
#
# Contract (docs/ARCHITECTURE.md "Determinism"): the Cholesky factor
# and substitution in src/linalg/lsq.cpp are compiled once per x86-64
# ISA level and must write the same bytes in every clone, so no clone
# may fuse a multiply and an add.  The byte-equality test only runs
# the clone the host CPU selects; this check disassembles every clone.
#
# usage: check_no_fma.sh <objdump> <object files, ';'-separated>
# The object list is CMake's $<TARGET_OBJECTS:ictm>; only lsq.cpp's
# object is checked.
set -u

OBJDUMP=${1:?usage: check_no_fma.sh <objdump> <objects>}
IFS=';' read -r -a OBJECTS <<< "${2:?usage: check_no_fma.sh <objdump> <objects>}"

OBJ=
for o in "${OBJECTS[@]}"; do
  case "$o" in
    */lsq.cpp.o | */lsq.cpp.obj) OBJ=$o ;;
  esac
done
if [ -z "$OBJ" ]; then
  echo "FAIL: no lsq.cpp object among the library's objects"
  exit 1
fi

if ! ASM=$("$OBJDUMP" -d --no-show-raw-insn "$OBJ"); then
  echo "FAIL: $OBJDUMP could not disassemble $OBJ"
  exit 1
fi
FMA=$(printf '%s\n' "$ASM" | grep -E 'vfmadd|vfmsub|vfnmadd|vfnmsub')
if [ -n "$FMA" ]; then
  echo "FAIL: fused multiply-add in $OBJ:"
  printf '%s\n' "$FMA" | head -20
  exit 1
fi
CLONES=$(printf '%s\n' "$ASM" | grep -c '^[0-9a-f]* <.*CholeskyFactorInPlace')
echo "ok: no fused multiply-add in $OBJ ($CLONES factor symbols)"
