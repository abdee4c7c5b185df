#!/usr/bin/env bash
# Self-tests of the benchmark, including the --smoke pass over all five
# workloads (untraced and traced).  Not part of the tier-1 suite.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 -m pytest bench/tests -q "$@"
