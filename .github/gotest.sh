#!/usr/bin/env bash
# gotest is go test for targeted CI steps: it also fails when a -run
# pattern, or any one of its |-separated alternatives, matches no test
# in the given packages, so a renamed or deleted test cannot silently
# drop out of a step. Alternatives are split at every |, so a pattern
# must be a flat list of top-level test names (no groups, no subtest
# paths). Usage: bash .github/gotest.sh [go test args].
set -o pipefail

pat=""
pkgs=()
prev=""
for a in "$@"; do
  if [ "$prev" = "-run" ]; then
    pat=$a
  else
    case "$a" in
      -run=*) pat=${a#-run=} ;;
      -*) ;;
      .*|*/*) pkgs+=("$a") ;;
    esac
  fi
  prev=$a
done

if [ -n "$pat" ]; then
  IFS='|' read -ra alts <<< "$pat"
  for alt in "${alts[@]}"; do
    listed=$(go test -list "$alt" "${pkgs[@]}") || exit 1
    if ! grep -Eq '^(Test|Example|Fuzz|Benchmark)' <<< "$listed"; then
      echo "go test $*: the -run alternative '$alt' matches no test"
      exit 1
    fi
  done
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out" || exit 1
if grep -q '\[no tests to run\]' "$out"; then
  echo "go test $*: the -run pattern matched no test"
  exit 1
fi
