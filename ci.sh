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

# Doc links to deleted or private items fail here instead of going stale.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (default features)"
cargo test -q

echo "==> exp_scenarios --smoke (scenario corpus + strategy A/B + golden digests)"
# Each output below is captured, then printed to stderr for the log
# through the script's own descriptor, so `./ci.sh > log 2>&1` keeps every
# line in order (a `tee -a /dev/stderr` reopens the file and its lines get
# overwritten by later stdout).
scen_out=$(cargo run --release -q -p acr-bench --bin exp_scenarios -- --smoke)
printf '%s\n' "$scen_out" >&2
scen=$(grep -E '^(corpus|report|outcome)_digest=' <<<"$scen_out")
# The corpus content itself is regression-pinned (golden_corpus.rs); the
# bench must be running on exactly that corpus, and the beam repairs it
# reports must decide as pinned. `outcome_digest` pins the repairs
# themselves (acr_serve::outcome_signature: everything but the final
# iteration's validation-order fields) and moves only with a change
# meant to alter what gets repaired; `report_digest` also covers the
# final iteration's fitness / kept counts, which a change to the
# validation order may move.
if ! grep -qx 'corpus_digest=b1380ed19022fbaf' <<<"$scen"; then
    echo "FAIL: exp_scenarios ran on a corpus that does not match the golden pin" >&2
    exit 1
fi
if ! grep -qx 'outcome_digest=02df1b3f1b8118ba' <<<"$scen"; then
    echo "FAIL: exp_scenarios' beam repairs repaired differently ($scen)" >&2
    exit 1
fi
if ! grep -qx 'report_digest=d6c8f8cdb4406a29' <<<"$scen"; then
    echo "FAIL: exp_scenarios' beam repairs decided differently ($scen)" >&2
    exit 1
fi

# The paper's Table 1 and Figure 3, and the lint's detection table and
# A/B, checked mechanically: the binaries are deterministic and run in a
# few seconds, so a change that is not meant to alter what they
# reproduce must print them byte-identically.
# exp_lint runs once for both of its checks: its stdout goes to a file
# (hashed as is — a `$(...)` capture would strip trailing newlines), then
# to stderr for the log.
echo "==> exp_table1 / exp_fig3 / exp_lint (stdout digests against pins)"
lint_out=$(mktemp)
cargo run --release -q -p acr-bench --bin exp_lint >"$lint_out"
cat "$lint_out" >&2
for pin in exp_table1:204f7bd91a522511 exp_fig3:b6b10fbb080cbfe2 exp_lint:a0660ccdba85a200; do
    if [ "${pin%%:*}" = exp_lint ]; then
        got=$(sha256sum <"$lint_out" | cut -c1-16)
    else
        got=$(cargo run --release -q -p acr-bench --bin "${pin%%:*}" | sha256sum | cut -c1-16)
    fi
    if [ "$got" != "${pin##*:}" ]; then
        echo "FAIL: ${pin%%:*} printed different output (sha256 prefix $got, pinned ${pin##*:})" >&2
        exit 1
    fi
done

# The lint's own A/B, spelled out: how many Table-1 classes a static
# pass sees, and what lint seeding and pruning save the repairs. The
# digest above already covers these lines; these greps say which one
# moved.
echo "==> exp_lint (static detection + lint-on/off repair A/B against pins)"
for want in 'statically visible fault types: 8/9' \
    'total candidate validations: 440 (lint off) vs 116 (lint on)'; do
    if ! grep -qF "$want" "$lint_out"; then
        echo "FAIL: exp_lint no longer prints '$want'" >&2
        exit 1
    fi
done
rm -f "$lint_out"

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
acrd_daemon_out=$(./target/release/acrd --emit-corpus | ./target/release/acrd)
printf '%s\n' "$acrd_daemon_out" >&2
acrd_daemon=$(grep -E '^(report_digest=|jobs=)' <<<"$acrd_daemon_out")
acrd_batch_out=$(./target/release/acrd --batch)
printf '%s\n' "$acrd_batch_out" >&2
acrd_batch=$(grep -E '^(report|outcome)_digest=' <<<"$acrd_batch_out")
if ! grep -qF "$(grep '^report_digest=' <<<"$acrd_batch")" <<<"$acrd_daemon"; then
    echo "FAIL: daemon-served reports diverged from one-shot batch ($acrd_daemon vs $acrd_batch)" >&2
    exit 1
fi
# The batch's repairs themselves, pinned as for exp_scenarios above.
if ! grep -qx 'outcome_digest=d2fa7a375a252158' <<<"$acrd_batch"; then
    echo "FAIL: acrd --batch repaired differently ($acrd_batch)" >&2
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
# prints. These digests also cover the final iteration's fitness / kept /
# lint_rejected / invalid counts, so a change to the validation order
# may move them too; what guards the repairs themselves is the
# `outcome_digest` pins of exp_scenarios and acrd --batch above.
echo "==> benchmark/run.sh --smoke --seed 78 (decision digests, end to end and traced)"
benchmark/run.sh --smoke --seed 78
for pin in corpus12:91109c08aafe8dc0 scenarios8:9c4ca0b41b94805c \
    serve_stream:c3d111f11529cf70 wan72:f4f02d48c84a40cb; do
    runs=$(grep -o "\"decision_digest\":\"${pin##*:}\"" benchmark/out/results.json | wc -l || true)
    if [ "$runs" != 2 ]; then
        echo "FAIL: ${pin%%:*} decided differently: $runs of its 2 runs have decision_digest ${pin##*:}" >&2
        exit 1
    fi
done

echo "CI OK"
