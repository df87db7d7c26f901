#!/usr/bin/env bash
# The full offline CI gate: formatting, lints, release build, tests.
# Requires nothing beyond the baked-in Rust toolchain — the workspace is
# hermetic (no registry crates), so this runs with the network off.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (default features)"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo clippy (heavy-tests)"
    cargo clippy --workspace --all-targets --features heavy-tests -- -D warnings
else
    echo "==> clippy unavailable in this toolchain; skipping lint step"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (default features)"
cargo test -q

echo "==> exp_scenarios --smoke (scenario corpus + strategy A/B + golden digests)"
scen=$(cargo run --release -q -p acr-bench --bin exp_scenarios -- --smoke | tee /dev/stderr | grep -E '^(corpus|report)_digest=')
# The corpus content itself is regression-pinned (golden_corpus.rs); the
# bench must be running on exactly that corpus, and the beam repairs it
# reports must decide as pinned.
if ! grep -qx 'corpus_digest=b1380ed19022fbaf' <<<"$scen"; then
    echo "FAIL: exp_scenarios ran on a corpus that does not match the golden pin" >&2
    exit 1
fi
if ! grep -qx 'report_digest=54719dd0d7a7c600' <<<"$scen"; then
    echo "FAIL: exp_scenarios' beam repairs decided differently ($scen)" >&2
    exit 1
fi

# The paper's Table 1 and Figure 3, checked mechanically: both binaries
# are deterministic and run in about a second, so a change that is not
# meant to alter what they reproduce must print them byte-identically.
echo "==> exp_table1 / exp_fig3 (stdout digests against pins)"
for pin in exp_table1:c03296aa50a1f4bc exp_fig3:b6b10fbb080cbfe2; do
    got=$(cargo run --release -q -p acr-bench --bin "${pin%%:*}" | sha256sum | cut -c1-16)
    if [ "$got" != "${pin##*:}" ]; then
        echo "FAIL: ${pin%%:*} printed different output (sha256 prefix $got, pinned ${pin##*:})" >&2
        exit 1
    fi
done

echo "==> trace_repair example (ACR_TRACE/ACR_JOURNAL env path)"
obs_tmp=$(mktemp -d)
ACR_TRACE="$obs_tmp/trace.json" ACR_JOURNAL="$obs_tmp/journal.jsonl" \
    cargo run --release -q --example trace_repair >/dev/null
grep -q '"traceEvents"' "$obs_tmp/trace.json"
grep -q '"schema":"acr-journal/v6"' "$obs_tmp/journal.jsonl"
rm -rf "$obs_tmp"

echo "==> span_profile example (one traced pass over the wan(24,48) incidents)"
profile=$(cargo run --release -q --example span_profile -- 1)
grep -q '^engine.teardown ' <<<"$profile"
# The static baseline runs beside the cold commit, off the job's thread.
sed -n "/^off the job's thread/,\$p" <<<"$profile" | grep -q '^flow.analyze '

echo "==> acrd smoke (daemon-served repair == one-shot batch, JSONL over stdin)"
acrd_daemon=$(./target/release/acrd --emit-corpus | ./target/release/acrd | tee /dev/stderr | grep -E '^(report_digest=|jobs=)')
acrd_batch=$(./target/release/acrd --batch | tee /dev/stderr | grep '^report_digest=')
if ! grep -qF "$acrd_batch" <<<"$acrd_daemon"; then
    echo "FAIL: daemon-served reports diverged from one-shot batch ($acrd_daemon vs $acrd_batch)" >&2
    exit 1
fi
# Graceful shutdown: the queue must be fully drained at EOF.
if ! grep -q 'queue_depth=0' <<<"$acrd_daemon"; then
    echo "FAIL: acrd exited with work still queued ($acrd_daemon)" >&2
    exit 1
fi

echo "==> cargo test (heavy-tests: the proptest suites)"
cargo test -q --workspace --features heavy-tests

# benchmark/ is a package of its own that this repository's PRs may not
# edit; its tests link the public API it measures, so an API cut that
# would break it fails here first.
echo "==> cargo test (benchmark/: the repair-job benchmark against the current API)"
cargo test -q --manifest-path benchmark/Cargo.toml

# The wrong-`Fixed` defect the benchmark pinned as a known failure is
# fixed (incremental ≡ full); its test stays ignored there until a
# `benchmark` PR restores the class to the workloads, so run it here.
echo "==> cargo test (benchmark/: known_failures, ignored tests included)"
cargo test -q --manifest-path benchmark/Cargo.toml --test known_failures -- --ignored

# Decisions, checked mechanically: the smoke suite's decision digest per
# workload must be the pinned one in both of its runs — end to end and
# traced; results.json records the pair. A perf PR moves the timings this
# prints, never these.
echo "==> benchmark/run.sh --smoke --seed 78 (decision digests, end to end and traced)"
benchmark/run.sh --smoke --seed 78
for pin in corpus12:5c9179f0ddc4760b scenarios8:b38b374edf65a19d \
    serve_stream:523a5a4c6b8a6c3b wan72:623e3a50acef2f77; do
    runs=$(grep -o "\"decision_digest\":\"${pin##*:}\"" benchmark/out/results.json | wc -l || true)
    if [ "$runs" != 2 ]; then
        echo "FAIL: ${pin%%:*} decided differently: $runs of its 2 runs have decision_digest ${pin##*:}" >&2
        exit 1
    fi
done

echo "CI OK"
