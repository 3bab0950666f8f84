#!/usr/bin/env bash
# doclint.sh — fail when a Go package is missing its doc comment.
#
# Library packages (the root bmac package and everything under internal/)
# must have a file opening with the canonical `// Package <name> ...`
# header. Command packages (cmd/, examples/, and the perfbench benchmark
# command) must open with a doc comment too (`// Command ...` or a
# scenario description). go vet does not
# enforce either, so CI runs this check alongside it — the README points
# readers at `go doc`, and empty docs defeat that.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
dirs=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec dirname {} \; | sort -u)
for d in $dirs; do
  case "$d" in
  ./cmd/*|./examples/*|./perfbench)
    # package main: any leading doc comment counts.
    if ! head -1 "$d"/*.go | grep -q '^// '; then
      echo "doclint: no leading doc comment in $d" >&2
      fail=1
    fi
    ;;
  *)
    if ! grep -l -E '^// Package [a-zA-Z0-9_]+' "$d"/*.go >/dev/null 2>&1; then
      echo "doclint: no '// Package ...' comment in $d" >&2
      fail=1
    fi
    ;;
  esac
done

if [ "$fail" -ne 0 ]; then
  echo "doclint: add a package comment (see ARCHITECTURE.md for each package's role)" >&2
  exit 1
fi

# Guarded-by annotations are documentation with teeth: a `// guarded by
# <mu>` comment naming a field that does not exist (or one that is not a
# sync.Mutex/RWMutex) would silently guard nothing. bmaclint's
# annotations-only mode validates them without the full access analysis.
if ! go run ./cmd/bmaclint -only guardedby -annotations ./...; then
  echo "doclint: fix the guarded-by annotations above (each must name a sibling sync.Mutex/RWMutex field)" >&2
  exit 1
fi

echo "doclint: every package documented, guarded-by annotations valid"
