#!/usr/bin/env bash
# The benchmark's one command. With no arguments it runs the whole suite
# (every workload, --trace 0 then --trace 1) and writes benchmark/out/;
# with arguments it passes them on, which is how the driver starts one run:
#   benchmark/run.sh --workload storm_drain --seed 2026 --seconds 25 --trace 0
# Start it from the repo root. The build goes to CARGO_TARGET_DIR when set.
set -euo pipefail
if [ "$#" -eq 0 ]; then
    set -- suite
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
