#!/bin/sh
# Usage: check_no_fma.sh OBJDUMP LIBRARY
#
# Disassembles LIBRARY (the specialized kernel library) and fails on any
# fused multiply-add or multiply-subtract (vfmadd, vfmsub, vfnmadd,
# vfnmsub): the kernels are bit-exact with the interpreter only while mul
# and add round separately. It also fails when the library holds no
# 256-bit multiply, i.e. when the AVX2 row loop is missing and this check
# would inspect nothing. On a CPU without AVX2 that loop never runs, so
# this static check is its only exactness guard there.
#
# Exits 77 (ctest: skipped) when OBJDUMP is not an executable.
objdump=$1
lib=$2
if [ -z "$objdump" ] || ! command -v "$objdump" >/dev/null 2>&1; then
  echo "objdump not available: cannot inspect $lib"
  exit 77
fi
listing=$("$objdump" -d --no-show-raw-insn "$lib") || exit 1
fused=$(printf '%s\n' "$listing" | grep -E '[[:space:]]v(fmadd|fmsub|fnmadd|fnmsub)')
if [ -n "$fused" ]; then
  echo "fused multiply-add in $lib:"
  printf '%s\n' "$fused" | head -n 20
  exit 1
fi
wide=$(printf '%s\n' "$listing" | grep -cE '[[:space:]]vmulps[[:space:]].*%ymm')
if [ "$wide" -eq 0 ]; then
  echo "no 256-bit vmulps in $lib: the AVX2 row loop is missing"
  exit 1
fi
echo "no FMA in $lib ($wide 256-bit multiplies checked)"
