#!/usr/bin/env bash
# Smoke-runs the control-loop benchmark: every workload, untraced and
# traced, at smoke size (1 repeat / 2 periods / 300 rounds, probes
# included; under 30 s once built), then the package's own tests.
# Exits non-zero if any output check or test fails. Meant to be wired
# into CI by a later issue; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo run --release --offline --quiet -- --workload all --smoke --seed "${1:-1}"
cargo test --offline --quiet
