#!/bin/sh
# Usage: check_flag_rejected.sh <flag> <bench binary> [args...]
#
# Runs the bench with the given arguments and passes only if it exits with
# status 2 and names `--<flag>` as unknown on stderr: a mistyped flag must
# stop a bench before any work instead of silently running its defaults.
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <flag> <bench binary> [args...]" >&2
  exit 2
fi
flag="$1"
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got $status from: $*" >&2
  exit 1
fi
case "$err" in
  *"unknown flag --$flag"*) echo "rejected --$flag: $err" ;;
  *)
    echo "stderr does not name --$flag: $err" >&2
    exit 1
    ;;
esac
