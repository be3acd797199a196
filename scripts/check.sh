#!/usr/bin/env bash
# Tier-1 gate and fast sanity checks.
#
# Usage:
#   scripts/check.sh          release build + the root test suite (tier-1)
#   scripts/check.sh smoke    build + run the end-to-end engine/link smoke bin
#   scripts/check.sh bench    build + run dspbench against the committed
#                             BENCH_dsp.json baseline; fails if any DSP
#                             kernel regresses by more than BENCH_TOL
#                             percent (default 15; throughput is reported
#                             but informational — see EXPERIMENTS.md)
#   scripts/check.sh obs      observability gate: builds the workspace with
#                             AND without the obs feature, clippy with
#                             -D warnings, rustdoc with -D warnings (a
#                             broken intra-doc link fails), the
#                             allocation-regression tests with telemetry
#                             enabled AND with span timelines
#                             on (`obs-trace`; the warm path must stay at
#                             zero heap allocations in both), trace/recorder
#                             thread-determinism in both feature configs,
#                             the 1k-user city trace acceptance run, and a
#                             trace-export smoke (`smoke --trace`)
#   scripts/check.sh stream   streaming gate: chunk-size-invariance /
#                             whole-record-parity / bounded-memory tests,
#                             then the allocation gate (covers the streamed
#                             trial)
#   scripts/check.sh net      network gate: builds uwb-net, runs its unit +
#                             acceptance tests (isolation bit-parity,
#                             co-channel contention, thread determinism),
#                             the allocation gate (covers the warm 2-link
#                             network round), then netbench against the
#                             committed BENCH_net.json baseline; fails if
#                             any gated metric regresses by more than
#                             BENCH_TOL percent (default 15)
#   scripts/check.sh mac      MAC gate: uwb-mac unit + acceptance tests
#                             (conservation, light-load latency, saturation
#                             knee, hidden-terminal ARQ recovery, thread
#                             determinism), the allocation gate (covers the
#                             warm MAC discrete-event trial), the slow
#                             8-user thread-parity sweep, then macbench
#                             against the committed BENCH_mac.json
#                             baseline; fails if any gated metric regresses
#                             by more than BENCH_TOL percent (default 15;
#                             delivered fraction and mean latency are
#                             bit-deterministic pins, so any drift there
#                             means MAC/PHY behavior changed)
#   scripts/check.sh perfbench
#                             repository benchmark sanity: perfbench's own
#                             unit tests, then a 1 s untraced run of each
#                             workload at seed 0; fails unless every result
#                             line says "correct": true (stored fingerprints,
#                             1-thread parity, conservation laws). Not part
#                             of `all`: CI runs it as its own job
#   scripts/check.sh all      tier-1, then the whole workspace's tests, then
#                             smoke, then obs, then stream, then net, then
#                             mac
set -eu
cd "$(dirname "$0")/.."

mode="${1:-tier1}"

tier1() {
    echo "== tier-1: cargo build --release =="
    cargo build --release
    echo "== tier-1: cargo test -q =="
    cargo test -q
}

smoke() {
    echo "== smoke: engine + link sanity =="
    cargo build --release -p uwb-bench --bin smoke
    ./target/release/smoke
}

bench() {
    local tol="${BENCH_TOL:-15}"
    echo "== bench: dspbench vs committed BENCH_dsp.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin dspbench
    UWB_THREADS=1 ./target/release/dspbench --check BENCH_dsp.json --tol "$tol"
}

obs() {
    echo "== obs: workspace builds with telemetry compiled out =="
    cargo build -q --workspace --no-default-features
    echo "== obs: workspace builds with telemetry on =="
    cargo build -q --workspace
    echo "== obs: clippy -D warnings (both configurations) =="
    cargo clippy -q --workspace -- -D warnings
    cargo clippy -q --workspace --no-default-features -- -D warnings
    echo "== obs: rustdoc -D warnings (intra-doc links resolve) =="
    RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
    echo "== obs: zero-allocation warm path with telemetry enabled =="
    cargo test -q --test alloc_regression
    echo "== obs: zero-allocation warm path with span timelines on =="
    cargo test -q --test alloc_regression --features obs-trace
    echo "== obs: telemetry determinism + schema =="
    cargo test -q --test montecarlo_determinism
    cargo test -q --test telemetry_schema
    echo "== obs: trace + flight-recorder determinism (obs, then obs-trace) =="
    cargo test -q --test trace_determinism
    cargo test -q --test trace_determinism --features obs-trace
    cargo test -q -p uwb-obs --features obs-trace
    echo "== obs: 1,000-user city round trace, 1/2/4/8-thread bit-parity =="
    cargo test -q --release --test trace_determinism --features obs-trace -- --ignored
    echo "== obs: span-timeline export (smoke --trace) =="
    cargo build --release -p uwb-bench --features obs-trace --bin smoke
    ./target/release/smoke --trace target/trace.json
    test -s target/trace.json
    echo "== obs: feature matrix (precise Gaussian stream) =="
    cargo test -q -p uwb-sim --features precise
}

stream() {
    echo "== stream: chunk-size invariance + whole-record parity + bounded memory =="
    cargo test -q --release --test stream_parity
    echo "== stream: zero-allocation warm streamed trial =="
    cargo test -q --release --test alloc_regression
}

net() {
    local tol="${BENCH_TOL:-15}"
    echo "== net: uwb-net unit + acceptance tests =="
    cargo build -q -p uwb-net
    cargo test -q -p uwb-net
    echo "== net: zero-allocation warm network round =="
    cargo test -q --release --test alloc_regression
    echo "== net: 1,000-user sparse round, 1/2/4/8-thread fingerprint =="
    cargo test -q --release -p uwb-net --test net_acceptance -- --ignored
    echo "== net: netbench vs committed BENCH_net.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin netbench
    UWB_THREADS=1 ./target/release/netbench --check BENCH_net.json --tol "$tol"
}

mac() {
    local tol="${BENCH_TOL:-15}"
    echo "== mac: uwb-mac unit + acceptance tests =="
    cargo build -q -p uwb-mac
    cargo test -q -p uwb-mac
    echo "== mac: zero-allocation warm MAC trial =="
    cargo test -q --release --test alloc_regression
    echo "== mac: 8-user contended run, 1/2/4/8-thread fingerprint =="
    cargo test -q --release -p uwb-mac --test mac_acceptance -- --ignored
    echo "== mac: macbench vs committed BENCH_mac.json (tol ${tol}%) =="
    cargo build --release -p uwb-bench --bin macbench
    UWB_THREADS=1 ./target/release/macbench --check BENCH_mac.json --tol "$tol"
}

perfbench() {
    local manifest=perfbench/Cargo.toml
    # Build (and write traces) outside the benchmark's own directory.
    export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
    echo "== perfbench: benchmark unit tests =="
    cargo test --release --offline --manifest-path "$manifest"
    echo "== perfbench: 1 s run per workload, seed 0 (fingerprints, thread parity) =="
    local w line
    for w in link_acq_awgn link_ber_cm3 net_ring_8user mac_city_1k; do
        line=$(cargo run --release --offline -q --manifest-path "$manifest" -- \
            --workload "$w" --seed 0 --seconds 1 --trace 0 | tail -n 1) || {
            echo "perfbench: $w exited non-zero" >&2
            exit 1
        }
        echo "$w: $line"
        case "$line" in
        *'"correct": true'*) ;;
        *)
            echo "perfbench: $w did not report \"correct\": true" >&2
            exit 1
            ;;
        esac
    done
}

case "$mode" in
tier1)
    tier1
    ;;
smoke)
    smoke
    ;;
bench)
    bench
    ;;
obs)
    obs
    ;;
stream)
    stream
    ;;
net)
    net
    ;;
mac)
    mac
    ;;
perfbench)
    perfbench
    ;;
all)
    tier1
    echo "== workspace: cargo test -q --workspace =="
    cargo test -q --workspace
    smoke
    obs
    stream
    net
    mac
    ;;
*)
    echo "usage: scripts/check.sh [tier1|smoke|bench|obs|stream|net|mac|perfbench|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: OK ($mode)"
