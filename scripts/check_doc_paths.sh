#!/usr/bin/env bash
# Docs check: every source path cited in the docs and in code comments must
# exist.
#
# Scans README.md, DESIGN.md, EXPERIMENTS.md and the files under src/,
# tests/ and bench/ for "layer/file.hpp" / "layer/file.cpp" tokens (any
# number of directory parts) and requires each to name a file relative to
# the repo root, src/ or src/sens/. CHANGES.md and ROADMAP.md are history
# and may cite files that are gone. Run from anywhere; CI runs it in the
# docs-check job and ctest as `docs.paths`.
set -u
cd "$(dirname "$0")/.."

paths=$(grep -rhoE "([A-Za-z0-9_.-]+/)+[A-Za-z0-9_]+\.(hpp|cpp)" \
          README.md DESIGN.md EXPERIMENTS.md src tests bench 2>/dev/null | sort -u)

fail=0
for p in $paths; do
  if [ ! -f "$p" ] && [ ! -f "src/$p" ] && [ ! -f "src/sens/$p" ]; then
    where=$(grep -rlF "$p" README.md DESIGN.md EXPERIMENTS.md src tests bench 2>/dev/null |
            head -1)
    echo "::error file=${where}::cited path ${p} does not exist"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_doc_paths: all cited source paths resolve ($(echo "$paths" | wc -w | tr -d ' ') paths)"
fi
exit $fail
