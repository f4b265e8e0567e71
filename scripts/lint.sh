#!/usr/bin/env bash
# Runs the project's static-analysis suite (internal/lint) over the
# repository — the same gate CI enforces as a blocking step and
# go test ./internal/lint repeats as TestRepoClean. Exits non-zero on
# any finding; see internal/lint/INVARIANTS.md for what is checked and
# how to waive a finding with a reason. cmd/qaload, a module of its own,
# is loaded beside the tree as a use-only root: unusedexport counts its
# calls, and nothing in it is reported.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/qalint "${@:-./...}"
