#!/usr/bin/env bash
# Tier-1 gate + lint gate + CLI smoke test. Run from the workspace root.
#
#   scripts/ci.sh          # everything (tier-1, workspace tests, clippy, fmt, smoke, soak, bench-smoke, fuzz-smoke, explore-smoke, scale-smoke, batch-smoke, serve-smoke, serve-soak, perf-selftest)
#   scripts/ci.sh tier1    # just the build + test gate
#   scripts/ci.sh workspace-tests # every workspace crate's tests (tier-1's
#                              # root `cargo test` runs only the compc package)
#   scripts/ci.sh lint     # clippy + rustfmt + rustdoc links + no threads inside a check
#   scripts/ci.sh smoke    # compc-check observability smoke test + Figures 1-4
#                          # output and DOT diffed against docs/results/
#   scripts/ci.sh soak     # chaos sweep + deadline smoke (robustness gate)
#   scripts/ci.sh bench-smoke  # E21 kernel table + capped E22 scaling sweep +
#                              # tri-backend verdict equivalence + BENCH schemas
#   scripts/ci.sh fuzz-smoke   # corpus replay + time-budgeted differential
#                              # fuzz (engine vs oracle vs theorem gates)
#   scripts/ci.sh serve-smoke  # compc-serve daemon end-to-end: stream the
#                              # Figure 3 appends, checkpoint restart
#                              # mid-stream, grep the violation verdict,
#                              # two concurrent clients against one daemon
#   scripts/ci.sh serve-soak   # kill-anywhere crash-recovery soak: SIGKILL
#                              # the journaled daemon at random points,
#                              # assert zero acked-append loss and
#                              # bit-identical recovered verdicts
#   scripts/ci.sh perf-selftest # the repository benchmark's self-test: every
#                              # workload at tiny size, metric names and
#                              # units against BENCHMARK.json, planted wrong
#                              # verdicts rejected (also catches public-API
#                              # changes that break perfbench/driver)
#   scripts/ci.sh scale-smoke  # an 18,420-node stack system must be found
#                              # not Comp-C within 3 s (fails if a check
#                              # scans all member pairs or sizes order rows
#                              # by the largest node id again), a 3,000-node
#                              # general system within 0.25 s and a
#                              # 4,000-leaf chain within 0.2 s (fail if a
#                              # load closes orders pair by pair again);
#                              # the chain closing a cycle within 1.5 s and
#                              # against its input order within 0.1 s, both
#                              # exit 2 (fail if an invalid spec's replay
#                              # gets slow again)
#   scripts/ci.sh batch-smoke  # a mixed compc-gen corpus reports the same at
#                              # --jobs 1 and 2, and a --checkpoint rerun
#                              # has nothing left with the same exit code
#   scripts/ci.sh explore-smoke # exhaustive sweep at CI bounds with the
#                              # naive counting/constancy cross-checks:
#                              # clean verdicts on every trace-inequivalent
#                              # composite schedule, nonzero class count,
#                              # naive/pruned agreement
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

tier1() {
    echo "==> tier-1: cargo build --release"
    cargo build --release
    echo "==> tier-1: cargo test -q"
    cargo test -q
}

# The root `cargo test` tests only the `compc` package; the unit tests of
# the other workspace crates (compc-core's session, compc-model,
# compc-graph, ...) run here.
workspace_tests() {
    echo "==> workspace-tests: cargo test -q --workspace"
    cargo test -q --workspace
}

lint() {
    echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> lint: cargo fmt --check"
    cargo fmt --check
    echo "==> lint: cargo doc with warnings denied (no broken or private doc links)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand --exclude criterion
    echo "==> lint: no threads inside a check (crates/core, crates/graph, crates/model)"
    # Each check runs on its caller's thread; parallelism lives across batch
    # items. Threads inside one check bought nothing measured (EXPERIMENTS.md
    # E17, E28), so bringing them back takes a measured change that also
    # removes this guard.
    if grep -rnE 'thread::(scope|spawn|Builder)' crates/core/src crates/graph/src crates/model/src; then
        echo "lint: thread spawn inside the checking crates (see above)" >&2
        exit 1
    fi
    echo "==> lint: every stage 'all' runs has a job in .github/workflows/ci.yml"
    for fn in $(sed -n '/^    all)$/,/;;/p' scripts/ci.sh | grep -E '^ +[a-z_0-9]+$'); do
        grep -q "scripts/ci.sh ${fn//_/-}\$" .github/workflows/ci.yml \
            || { echo "lint: stage ${fn//_/-} has no CI job" >&2; exit 1; }
    done
}

# End-to-end observability smoke: the Figure 3 scenario must fail at level 3
# with a T1/T2 witness cycle, --trace must narrate every reduction level as
# NDJSON, and --explain must name the failing level. fig_examples must then
# reproduce the committed Figures 1-4 report and front DOT byte for byte
# (only the "DOT files written to" line names a different directory).
smoke() {
    echo "==> smoke: compc-check --trace --explain on Figure 3"
    cargo build --release -q --bin compc-check
    out="$(./target/release/compc-check examples/figure3_incorrect.json --trace --explain || true)"
    echo "$out" | grep -q '"event":"check_start"' \
        || { echo "smoke: missing check_start trace event" >&2; exit 1; }
    [ "$(echo "$out" | grep -c '"event":"level"')" -eq 3 ] \
        || { echo "smoke: expected 3 level trace events" >&2; exit 1; }
    echo "$out" | grep -q '"failed_level":3' \
        || { echo "smoke: trace does not name failing level 3" >&2; exit 1; }
    echo "$out" | grep -q 'failed at level 3 of 3' \
        || { echo "smoke: --explain does not name failing level 3" >&2; exit 1; }
    echo "$out" | grep -q 'witness cycle: T1 -> T2 -> T1' \
        || { echo "smoke: --explain does not render the witness cycle" >&2; exit 1; }
    echo "==> smoke: fig_examples reproduces the committed Figures 1-4 output and DOT"
    cargo build --release -q -p compc-bench --bin fig_examples
    tmp="$(mktemp -d /tmp/compc-figs-XXXXXX)"
    trap 'rm -rf "$tmp"' EXIT
    ./target/release/fig_examples --dot "$tmp/dot" > "$tmp/figures.txt"
    diff <(grep -v '^DOT files written to ' docs/results/e1_e4_figures.txt) \
        <(grep -v '^DOT files written to ' "$tmp/figures.txt") \
        || { echo "smoke: fig_examples output differs from docs/results/e1_e4_figures.txt" >&2; exit 1; }
    diff -r docs/results/dot "$tmp/dot" \
        || { echo "smoke: fig_examples DOT differs from docs/results/dot" >&2; exit 1; }
    rm -rf "$tmp"
    trap - EXIT
    echo "==> smoke: per-level trace counters over tests/corpus match docs/results/level_counts.txt"
    diff docs/results/level_counts.txt <(level_counts) \
        || { echo "smoke: per-level trace counters differ from docs/results/level_counts.txt" >&2; exit 1; }
    echo "==> smoke: OK"
}

# The trace events of every corpus system, timings stripped: the per-level
# counters (constraint_edges, observed_edges, closure_edges, pairs_forgotten,
# serialization_pairs, front sizes) that docs/results/level_counts.txt pins.
level_counts() {
    for f in tests/corpus/*.json; do
        { ./target/release/compc-check "$f" --trace || true; } \
            | grep '^{"event"' | sed -E 's/,"elapsed_ns":[0-9]+//'
    done
}

# Robustness soak: a fixed-seed chaos sweep of faulted simulator runs
# (every exported schedule must be Comp-C and the sweep must actually
# inject faults — exp_chaos asserts both and aborts otherwise), plus a
# deadline smoke: a tiny --deadline-ms on a large random system must time
# out with exit code 3, not hang, crash or misreport.
soak() {
    echo "==> soak: chaos sweep (60 faulted sims, recovery invariant)"
    cargo build --release -q -p compc-bench --bin exp_chaos
    cargo build --release -q -p compc --bin compc-gen --bin compc-check
    ./target/release/exp_chaos 60 6 \
        || { echo "soak: chaos sweep failed" >&2; exit 1; }
    echo "==> soak: deadline smoke (large random system, --deadline-ms 0)"
    big="$(mktemp /tmp/compc-soak-XXXXXX.json)"
    trap 'rm -f "$big"' EXIT
    ./target/release/compc-gen --shape general --roots 24 --density 0.3 --seed 7 > "$big"
    set +e
    ./target/release/compc-check "$big" --deadline-ms 0 > /dev/null
    code=$?
    set -e
    rm -f "$big"
    trap - EXIT
    [ "$code" -eq 3 ] \
        || { echo "soak: expected exit 3 on timeout, got $code" >&2; exit 1; }
    echo "==> soak: OK"
}

# Bitset-backend gate: every kernel backend (sparse BTree, dense bitset,
# compressed chunked + SCC-condensed) must stay verdict-equivalent on a
# random-system spot check, the reduced E21 table and a size-capped E22
# scaling sweep must run clean (their in-process assertions compare the
# backends bit for bit before timing), and the emitted JSON documents must
# match the BENCH_4 and BENCH_7 schemas.
bench_smoke() {
    echo "==> bench-smoke: sparse/dense/compressed verdict equivalence (30 systems)"
    cargo build --release -q -p compc-bench --bin exp_scaling
    ./target/release/exp_scaling --verify 30 \
        || { echo "bench-smoke: backend verdict equivalence failed" >&2; exit 1; }
    echo "==> bench-smoke: reduced E21 kernel table"
    json="$(mktemp /tmp/compc-bench-XXXXXX.json)"
    ./target/release/exp_scaling --kernels-e21 3 --json-out "$json" > /dev/null \
        || { rm -f "$json"; echo "bench-smoke: E21 kernel sweep failed" >&2; exit 1; }
    echo "==> bench-smoke: validating BENCH_4 schema"
    jq -e '
        .bench == "BENCH_4"
        and .experiment == "E21"
        and (.iters | type == "number")
        and (.seed | type == "number")
        and (.crossover_default | type == "number")
        and (.kernels | type == "array" and length > 0)
        and all(.kernels[];
            (.kernel | type == "string")
            and (.nodes | type == "number")
            and (.edges | type == "number")
            and (.btree_ns | type == "number" and . > 0)
            and (.bit_ns | type == "number" and . > 0)
            and (.speedup | type == "number" and . > 0))
    ' "$json" > /dev/null \
        || { rm -f "$json"; echo "bench-smoke: emitted JSON does not match the BENCH_4 schema" >&2; exit 1; }
    echo "==> bench-smoke: capped E22 scaling sweep (4k nodes, all backends)"
    ./target/release/exp_scaling --kernels 2 --max-nodes 4096 --json-out "$json" > /dev/null \
        || { rm -f "$json"; echo "bench-smoke: E22 scaling sweep failed" >&2; exit 1; }
    echo "==> bench-smoke: validating BENCH_7 schema"
    jq -e '
        .bench == "BENCH_7"
        and .experiment == "E22"
        and (.iters | type == "number")
        and (.seed | type == "number")
        and (.dense_crossover_default | type == "number")
        and (.compressed_crossover_default | type == "number")
        and (.mem_budget_bytes | type == "number")
        and (.reach_sample_sources | type == "number")
        and (.kernels | type == "array" and length > 0)
        and all(.kernels[];
            (.kernel | type == "string")
            and (.backend | IN("btree", "dense", "compressed"))
            and (.nodes | type == "number")
            and (.edges | type == "number")
            and ((.mean_ns | type == "number" and . > 0) or (.skipped | type == "string")))
        and (.crossovers | type == "array" and length > 0)
        and all(.crossovers[]; .kernel | type == "string")
    ' "$json" > /dev/null \
        || { rm -f "$json"; echo "bench-smoke: emitted JSON does not match the BENCH_7 schema" >&2; exit 1; }
    rm -f "$json"
    if [ -f BENCH_4.json ]; then
        jq -e '.bench == "BENCH_4" and (.kernels | length > 0)' BENCH_4.json > /dev/null \
            || { echo "bench-smoke: committed BENCH_4.json is malformed" >&2; exit 1; }
    fi
    if [ -f BENCH_7.json ]; then
        # The committed full sweep must carry the memory-wall evidence: a
        # measured compressed closure at >= 100k nodes where plain dense
        # rows were skipped for blowing the memory budget.
        jq -e '
            .bench == "BENCH_7"
            and ([.kernels[] | select(.backend == "compressed"
                    and .nodes >= 100000 and (.mean_ns | type == "number"))] | length > 0)
            and ([.kernels[] | select(.backend == "dense"
                    and .nodes >= 100000 and (.skipped | type == "string"))] | length > 0)
        ' BENCH_7.json > /dev/null \
            || { echo "bench-smoke: committed BENCH_7.json lacks the >=100k compressed-vs-dense evidence" >&2; exit 1; }
    fi
    echo "==> bench-smoke: seconds-scale serve-bench (group commit, 2 shards)"
    cargo build --release -q --bin compc-serve --bin serve-bench
    ./target/release/serve-bench --connections 2 --sessions 2 --dispatch-shards 2 \
        --roots 2 --duration-ms 800 --warmup-ms 150 --batches 1,16 --out "$json" \
        || { rm -f "$json"; echo "bench-smoke: serve-bench run failed" >&2; exit 1; }
    echo "==> bench-smoke: validating BENCH_9 schema"
    jq -e '
        .bench == "BENCH_9"
        and .experiment == "E23"
        and (.seed | type == "number")
        and (.connections | type == "number")
        and (.sessions | type == "number")
        and (.dispatch_shards | type == "number")
        and (.arrival | IN("poisson", "pareto", "uniform"))
        and .journaled == true
        and (.runs | type == "array" and length >= 2)
        and all(.runs[];
            (.commit_batch | type == "number" and . > 0)
            and (.acked_appends | type == "number" and . > 0)
            and (.appends_per_sec | type == "number" and . > 0)
            and (.p50_us | type == "number" and . > 0)
            and (.p99_us | type == "number" and . > 0)
            and (.fsyncs | type == "number" and . > 0))
        and (.speedup_last_vs_first | type == "number" and . > 0)
    ' "$json" > /dev/null \
        || { rm -f "$json"; echo "bench-smoke: emitted JSON does not match the BENCH_9 schema" >&2; exit 1; }
    rm -f "$json"
    if [ -f BENCH_9.json ]; then
        # The committed artifact is the group-commit headline: batch 64
        # must carry at least 3x the acked appends/sec of batch 1 on the
        # same journaled daemon.
        jq -e '
            .bench == "BENCH_9"
            and (.runs | length >= 2)
            and (.runs[0].commit_batch == 1)
            and (.speedup_last_vs_first >= 3)
        ' BENCH_9.json > /dev/null \
            || { echo "bench-smoke: committed BENCH_9.json lacks the >=3x group-commit speedup" >&2; exit 1; }
    fi
    echo "==> bench-smoke: OK"
}

# Differential-oracle gate: replay the committed corpus (every entry must
# get its filename-encoded verdict from both closure backends and the
# brute-force oracle), then fuzz mutated systems for a fixed time budget
# with a fixed seed — the engines, the oracle, and the structural theorem
# gates (SCC/FCC/JCC/CSR) must agree on every system. A disagreement is a
# checker bug: compc-fuzz exits 1 and drops a shrunk reproducer in /tmp;
# triage per TESTING.md.
fuzz_smoke() {
    echo "==> fuzz-smoke: corpus replay + 30 s differential fuzz (seed 1)"
    cargo build --release -q -p compc-fuzz
    ./target/release/compc-fuzz --seed 1 --seconds 30 --corpus tests/corpus \
        || { echo "fuzz-smoke: corpus replay or differential cross-check failed" >&2; exit 1; }
    echo "==> fuzz-smoke: OK"
}

# Batch gate: items are claimed largest first and run one pipeline each
# (read, parse, build, check, render) on the workers, but are reported in
# input order. A mixed compc-gen corpus (four shapes, six seeds, growing
# sizes, Comp-C and violating) must give the same per-item report and exit
# code at --jobs 1 and --jobs 2; a --checkpoint run must record every item,
# and its rerun must find nothing left to check and keep the exit code.
batch_smoke() {
    echo "==> batch-smoke: mixed compc-gen corpus at --jobs 1 and --jobs 2"
    cargo build --release -q -p compc --bin compc-gen --bin compc-check
    local dir shape seed density items code1 code2 code3 code4
    dir="$(mktemp -d /tmp/compc-batch-smoke-XXXXXX)"
    trap 'rm -rf "$dir"' EXIT
    mkdir "$dir/corpus"
    for shape in stack fork join general; do
        for seed in 1 2 3 4 5 6; do
            if [ $((seed % 2)) -eq 0 ]; then density=0.3; else density=0.02; fi
            ./target/release/compc-gen --shape "$shape" --seed "$seed" \
                --roots $((seed * 3)) --density "$density" > "$dir/corpus/$shape-$seed.json"
        done
    done
    items=24
    set +e
    ./target/release/compc-check "$dir/corpus" --jobs 1 > "$dir/jobs1.out"
    code1=$?
    ./target/release/compc-check "$dir/corpus" --jobs 2 > "$dir/jobs2.out"
    code2=$?
    set -e
    grep -q ': Comp-C$' "$dir/jobs1.out" && grep -q ': NOT Comp-C' "$dir/jobs1.out" \
        || { echo "batch-smoke: the corpus lacks a Comp-C or a violating item" >&2; exit 1; }
    [ "$code1" -eq 1 ] && [ "$code2" -eq "$code1" ] \
        || { echo "batch-smoke: exit codes $code1 (--jobs 1) and $code2 (--jobs 2), expected 1" >&2; exit 1; }
    diff <(grep -v ' systems (' "$dir/jobs1.out") <(grep -v ' systems (' "$dir/jobs2.out") \
        || { echo "batch-smoke: per-item reports differ between --jobs 1 and --jobs 2" >&2; exit 1; }
    echo "==> batch-smoke: --checkpoint run, then a rerun with nothing left"
    set +e
    ./target/release/compc-check "$dir/corpus" --jobs 2 --checkpoint "$dir/cp.txt" > /dev/null
    code3=$?
    ./target/release/compc-check "$dir/corpus" --jobs 2 --checkpoint "$dir/cp.txt" > "$dir/rerun.out"
    code4=$?
    set -e
    [ "$(wc -l < "$dir/cp.txt")" -eq "$items" ] \
        || { echo "batch-smoke: the checkpoint does not record all $items items" >&2; exit 1; }
    grep -q 'nothing left to check' "$dir/rerun.out" \
        || { echo "batch-smoke: the rerun checked items again" >&2; exit 1; }
    [ "$code3" -eq "$code1" ] && [ "$code4" -eq "$code3" ] \
        || { echo "batch-smoke: checkpoint exit codes $code3 then $code4, expected $code1" >&2; exit 1; }
    rm -rf "$dir"
    trap - EXIT
    echo "==> batch-smoke: OK"
}

# Daemon gate: split the Figure 3 scenario into per-root append requests,
# stream the first half into a checkpointing compc-serve over TCP (pure
# bash, /dev/tcp), shut it down gracefully, restart it from the checkpoint,
# stream the rest, and require the violation verdict on the final append.
# The daemon must also exit with the documented code 1 (violation served).
serve_smoke() {
    echo "==> serve-smoke: compc-serve checkpoint restart on Figure 3"
    cargo build --release -q --bin compc-serve
    local dir reqs total split port cp log daemon_pid code
    dir="$(mktemp -d /tmp/compc-serve-smoke-XXXXXX)"
    trap 'rm -rf "$dir"' EXIT
    ./target/release/compc-serve --split examples/figure3_incorrect.json > "$dir/requests.ndjson"
    total="$(wc -l < "$dir/requests.ndjson")"
    [ "$total" -ge 2 ] \
        || { echo "serve-smoke: expected >= 2 append fragments, got $total" >&2; exit 1; }
    split=$((total / 2))
    cp="$dir/checkpoint.json"
    log="$dir/daemon.log"

    # One daemon run: starts on a free port, streams the given request
    # lines, sends the shutdown op, and prints the responses. The daemon's
    # exit code lands in $code.
    run_phase() {
        : > "$log"
        # --backend compressed drives the whole stream through the
        # SCC-condensed chunked kernel, so the daemon gate also exercises
        # the newest closure backend end to end.
        ./target/release/compc-serve --listen 127.0.0.1:0 --checkpoint "$cp" \
            --backend compressed 2> "$log" &
        daemon_pid=$!
        port=""
        for _ in $(seq 1 100); do
            port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        [ -n "$port" ] || { echo "serve-smoke: daemon never announced its port" >&2; exit 1; }
        exec 3<>"/dev/tcp/127.0.0.1/$port"
        local line response
        while IFS= read -r line; do
            printf '%s\n' "$line" >&3
            IFS= read -r response <&3
            printf '%s\n' "$response"
        done
        printf '{"op": "shutdown"}\n' >&3
        IFS= read -r response <&3
        printf '%s\n' "$response"
        exec 3>&- 3<&-
        set +e
        wait "$daemon_pid"
        code=$?
        set -e
    }

    echo "==> serve-smoke: phase 1 ($split of $total appends, then shutdown)"
    head -n "$split" "$dir/requests.ndjson" > "$dir/phase1.ndjson"
    run_phase < "$dir/phase1.ndjson" > "$dir/phase1.out"
    grep -q '"ok":true' "$dir/phase1.out" \
        || { echo "serve-smoke: phase 1 served no ok response" >&2; exit 1; }
    [ -f "$cp" ] \
        || { echo "serve-smoke: shutdown left no checkpoint" >&2; exit 1; }

    echo "==> serve-smoke: phase 2 (restart from checkpoint, stream the rest)"
    tail -n +"$((split + 1))" "$dir/requests.ndjson" > "$dir/phase2.ndjson"
    run_phase < "$dir/phase2.ndjson" > "$dir/phase2.out"
    grep -q "restored checkpoint" "$log" \
        || { echo "serve-smoke: restarted daemon did not restore the checkpoint" >&2; exit 1; }
    grep -q '"verdict":"not-comp-c"' "$dir/phase2.out" \
        || { echo "serve-smoke: no violation verdict after the full stream" >&2; exit 1; }
    [ "$code" -eq 1 ] \
        || { echo "serve-smoke: expected exit 1 (violation served), got $code" >&2; exit 1; }
    kill -0 "$daemon_pid" 2>/dev/null \
        && { echo "serve-smoke: daemon still running after shutdown" >&2; exit 1; }

    # Phase 3: two clients interleave the same append stream against one
    # fresh daemon while a third connection sits idle — per-connection
    # reader threads mean the idle one cannot stall the active two, and
    # every append still lands in global order.
    echo "==> serve-smoke: phase 3 (two concurrent clients, one daemon)"
    : > "$log"
    ./target/release/compc-serve --listen 127.0.0.1:0 2> "$log" &
    daemon_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "serve-smoke: phase-3 daemon never announced its port" >&2; exit 1; }
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    exec 4<>"/dev/tcp/127.0.0.1/$port"
    exec 5<>"/dev/tcp/127.0.0.1/$port"   # idle third: connects, never writes
    : > "$dir/phase3.out"
    local i=0 fd response
    while IFS= read -r line; do
        if [ $((i % 2)) -eq 0 ]; then fd=3; else fd=4; fi
        printf '%s\n' "$line" >&"$fd"
        IFS= read -r -u "$fd" response
        printf '%s\n' "$response" >> "$dir/phase3.out"
        i=$((i + 1))
    done < "$dir/requests.ndjson"
    [ "$(grep -c '"ok":true' "$dir/phase3.out")" -eq "$total" ] \
        || { echo "serve-smoke: not every interleaved append was acked" >&2; exit 1; }
    printf '{"op": "stats"}\n' >&3
    IFS= read -r -u 3 response
    printf '%s' "$response" | grep -q '"peak_connections":3' \
        || { echo "serve-smoke: stats did not see 3 concurrent connections: $response" >&2; exit 1; }
    printf '{"op": "shutdown"}\n' >&4
    IFS= read -r -u 4 response
    exec 3>&- 3<&- 4>&- 4<&- 5>&- 5<&-
    set +e
    wait "$daemon_pid"
    code=$?
    set -e
    [ "$code" -eq 1 ] \
        || { echo "serve-smoke: phase 3 expected exit 1, got $code" >&2; exit 1; }

    # Phase 4: two named sessions routed to *distinct* dispatch shards
    # ("left" and "right" differ under FNV-1a mod 2), journaled with group
    # commit, through one hard restart. Session "left" gets the first half
    # of the Figure 3 stream plus the rest after the restart (the violation
    # must surface there); "right" gets the whole stream before the restart
    # and its append count must survive it.
    echo "==> serve-smoke: phase 4 (named sessions on distinct shards, one restart)"
    sed 's/^{"append":/{"session":"left","append":/' "$dir/requests.ndjson" > "$dir/left.ndjson"
    sed 's/^{"append":/{"session":"right","append":/' "$dir/requests.ndjson" > "$dir/right.ndjson"
    local cp4="$dir/p4-checkpoint.json" jr4="$dir/p4-journal.ndjson"

    run_phase4() {
        : > "$log"
        ./target/release/compc-serve --listen 127.0.0.1:0 --checkpoint "$cp4" \
            --journal "$jr4" --commit-batch 8 --dispatch-shards 2 2> "$log" &
        daemon_pid=$!
        port=""
        for _ in $(seq 1 100); do
            port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        [ -n "$port" ] || { echo "serve-smoke: phase-4 daemon never announced its port" >&2; exit 1; }
        exec 3<>"/dev/tcp/127.0.0.1/$port"
        local line response
        while IFS= read -r line; do
            printf '%s\n' "$line" >&3
            IFS= read -r response <&3
            printf '%s\n' "$response"
        done
        printf '{"op": "stats", "session": "right"}\n' >&3
        IFS= read -r response <&3
        printf '%s\n' "$response"
        printf '{"op": "shutdown"}\n' >&3
        IFS= read -r response <&3
        exec 3>&- 3<&-
        set +e
        wait "$daemon_pid"
        code=$?
        set -e
    }

    head -n "$split" "$dir/left.ndjson" > "$dir/p4a.ndjson"
    cat "$dir/right.ndjson" >> "$dir/p4a.ndjson"
    run_phase4 < "$dir/p4a.ndjson" > "$dir/p4a.out"
    [ "$(grep -c '"ok":true' "$dir/p4a.out")" -ge "$((split + total))" ] \
        || { echo "serve-smoke: phase 4 did not ack both sessions' appends" >&2; exit 1; }
    grep '"session":"right"' "$dir/p4a.out" | grep -q '"session_appends":'"$total"',' \
        || { echo "serve-smoke: session right did not count $total appends" >&2; exit 1; }
    grep -q '"session": "left"' "$cp4" && grep -q '"session": "right"' "$cp4" \
        || { echo "serve-smoke: multi-session checkpoint lacks the named sessions" >&2; exit 1; }

    tail -n +"$((split + 1))" "$dir/left.ndjson" > "$dir/p4b.ndjson"
    run_phase4 < "$dir/p4b.ndjson" > "$dir/p4b.out"
    grep -q "restored checkpoint" "$log" \
        || { echo "serve-smoke: phase-4 restart did not restore the checkpoint" >&2; exit 1; }
    grep '"verdict":"not-comp-c"' "$dir/p4b.out" | grep -q '"session":"left"' \
        || { echo "serve-smoke: session left lost its violation across the restart" >&2; exit 1; }
    grep '"session":"right"' "$dir/p4b.out" | grep -q '"session_appends":'"$total"',' \
        || { echo "serve-smoke: session right's appends did not survive the restart" >&2; exit 1; }
    [ "$code" -eq 1 ] \
        || { echo "serve-smoke: phase 4 expected exit 1 (violation served), got $code" >&2; exit 1; }
    rm -rf "$dir"
    trap - EXIT
    echo "==> serve-smoke: OK"
}

# Crash-recovery gate: the kill-anywhere soak. A resilient client streams
# a seeded random workload at a journaled daemon while the harness
# SIGKILLs it at uniformly random points (including mid-journal-write,
# mid-compaction, and mid-startup-replay) and restarts it, asserting zero
# acked-append loss after every restart and a bit-identical final verdict
# versus an uninterrupted batch check. CI runs >= 20 kills; run
# `./target/release/serve-soak --kills 200` locally for the full dose.
serve_soak() {
    echo "==> serve-soak: kill-anywhere crash recovery (seeded, 20 kills, batch 8, 2 shards)"
    cargo build --release -q --bin compc-serve --bin serve-soak
    ./target/release/serve-soak --kills 20 --seed 2026 --roots 16 \
        --clients 2 --commit-batch 8 --dispatch-shards 2 \
        || { echo "serve-soak: the durability contract did not hold" >&2; exit 1; }
    echo "==> serve-soak: OK"
}

# Exhaustive-exploration gate: sweep every trace-inequivalent composite
# schedule up to small bounds in --naive mode, so one run asserts (a) a
# clean four-way verdict agreement on every representative (backends,
# oracle, session replay), (b) the sleep-set pruning's counting gates
# against the full naive enumeration, and (c) verdict constancy within
# every trace class. The larger committed artifact lives in
# docs/results/explore_sweep.txt; regenerate it with the flags recorded
# in its own header.
explore_smoke() {
    echo "==> explore-smoke: naive-gated exhaustive sweep (ops<=2 items<=2 nodes<=8)"
    cargo build --release -q -p compc-explore
    out="$(./target/release/compc-explore --max-ops 2 --max-items 2 --max-nodes 8 --naive)" \
        || { echo "explore-smoke: sweep found a disagreement or gate failure" >&2; \
             echo "$out" >&2; exit 1; }
    echo "$out"
    echo "$out" | grep -q 'clean sweep' \
        || { echo "explore-smoke: sweep did not report a clean completion" >&2; exit 1; }
    classes="$(echo "$out" | sed -n 's/^trace classes: \([0-9]*\) per-schedule.*/\1/p')"
    [ -n "$classes" ] && [ "$classes" -gt 0 ] \
        || { echo "explore-smoke: zero trace classes — the enumerator explored nothing" >&2; exit 1; }
    echo "$out" | grep -q 'counts agree with sleep-set classes' \
        || { echo "explore-smoke: naive/pruned count agreement not reported" >&2; exit 1; }
    echo "==> explore-smoke: OK"
}

# Scale gate: validation and reduction cost follows the declared pairs, not
# the square of the member count, and order rows cover only the elements an
# order relates. An 18,420-node, 3.5 MB two-level stack (1,200 roots,
# sparse conflicts) is checked in about 0.25 s; an all-pairs scan or rows
# sized to the largest node id take about 10 s, past the 3 s timeout.
# Runs `compc-check FILE` under `timeout SECONDS` and fails unless it
# exits with WANT: the scale-smoke cases below.
scale_case() {
    local what="$1" secs="$2" want="$3" file="$4" code
    set +e
    timeout "$secs" ./target/release/compc-check "$file" > /dev/null 2>&1
    code=$?
    set -e
    [ "$code" -ne 124 ] \
        || { echo "scale-smoke: $what took longer than $secs s" >&2; return 1; }
    [ "$code" -eq "$want" ] \
        || { echo "scale-smoke: $what: expected exit $want, got $code" >&2; return 1; }
}

# A chain: one schedule, N roots with one leaf each, and `output_weak` a
# chain over the leaves (its closure holds N(N-1)/2 pairs). FAULT makes it
# invalid: `back` ends the chain with a pair back to its first leaf (a
# cycle, found when the order closes); `input` adds a conflict between the
# first two leaves and an input order against the chain's (found by
# validation, after the order closes).
chain_spec() {
    awk -v n="$1" -v fault="${2:-}" 'BEGIN {
        printf "{\"version\":1,\"schedules\":[\"S\"],\"nodes\":[";
        for (i = 0; i < n; i++)
            printf "%s{\"name\":\"T%d\",\"kind\":\"root\",\"home\":\"S\"},{\"name\":\"o%d\",\"kind\":\"leaf\",\"parent\":\"T%d\"}", (i ? "," : ""), i, i, i;
        printf "],\"output_weak\":[";
        for (i = 0; i + 1 < n; i++)
            printf "%s[\"o%d\",\"o%d\"]", (i ? "," : ""), i, i + 1;
        if (fault == "back")
            printf ",[\"o%d\",\"o0\"]", n - 1;
        printf "]";
        if (fault == "input")
            printf ",\"conflicts\":[[\"o0\",\"o1\"]],\"input_weak\":[[\"T1\",\"T0\"]]";
        print "}";
    }'
}

# One JSON object of N distinct keys, "k0" to "k<N-1>" (not a spec: its
# first key is an unknown field). Duplicate keys used to be found by
# comparing each key with every earlier one: 80,000 keys took 11.6 s.
wide_object() {
    awk -v n="$1" 'BEGIN {
        printf "{";
        for (i = 0; i < n; i++)
            printf "%s\"k%d\":1", (i ? "," : ""), i;
        print "}";
    }'
}

# Timeouts are about 3x the measured wall time on a 2-vCPU host
# (EXPERIMENTS.md E32, E33); the load path used to take 2.9 s on the
# general system, 7.8-9.9 s on each chain and 11.3 s on the wide object.
scale_smoke() {
    echo "==> scale-smoke: large stack, general and chain systems and a wide object checked in time"
    cargo build --release -q -p compc --bin compc-gen --bin compc-check
    dir="$(mktemp -d /tmp/compc-scale-XXXXXX)"
    trap 'rm -rf "$dir"' EXIT
    ./target/release/compc-gen --shape stack --roots 1200 --density 0.0002 --seed 7 \
        > "$dir/stack.json"
    ./target/release/compc-gen --shape general --roots 400 --density 0.05 --seed 3 \
        > "$dir/general.json"
    chain_spec 4000 > "$dir/chain.json"
    chain_spec 4000 back > "$dir/chain-back.json"
    chain_spec 4000 input > "$dir/chain-input.json"
    wide_object 80000 > "$dir/wide.json"
    status=0
    scale_case "18,420-node stack" 3 1 "$dir/stack.json" || status=1
    scale_case "3,000-node general system" 0.25 1 "$dir/general.json" || status=1
    scale_case "4,000-leaf chain" 0.2 0 "$dir/chain.json" || status=1
    scale_case "4,000-leaf chain closing a cycle" 1.5 2 "$dir/chain-back.json" || status=1
    scale_case "4,000-leaf chain against its input order" 0.1 2 "$dir/chain-input.json" || status=1
    scale_case "80,000-key object" 0.12 2 "$dir/wide.json" || status=1
    rm -rf "$dir"
    trap - EXIT
    [ "$status" -eq 0 ] || exit 1
    echo "==> scale-smoke: OK"
}

# The benchmark's own tests (perfbench/selftest.py). perfbench/driver builds
# against the public API by path, so this is where an API change that
# breaks the benchmark shows up before the benchmark itself runs.
perf_selftest() {
    echo "==> perf-selftest: python3 perfbench/selftest.py"
    python3 perfbench/selftest.py
    echo "==> perf-selftest: OK"
}

case "$stage" in
    tier1) tier1 ;;
    workspace-tests) workspace_tests ;;
    lint) lint ;;
    smoke) smoke ;;
    soak) soak ;;
    bench-smoke) bench_smoke ;;
    fuzz-smoke) fuzz_smoke ;;
    serve-smoke) serve_smoke ;;
    serve-soak) serve_soak ;;
    explore-smoke) explore_smoke ;;
    scale-smoke) scale_smoke ;;
    batch-smoke) batch_smoke ;;
    perf-selftest) perf_selftest ;;
    all)
        tier1
        workspace_tests
        lint
        smoke
        soak
        bench_smoke
        fuzz_smoke
        explore_smoke
        scale_smoke
        batch_smoke
        serve_smoke
        serve_soak
        perf_selftest
        ;;
    *)
        echo "usage: scripts/ci.sh [tier1|workspace-tests|lint|smoke|soak|bench-smoke|fuzz-smoke|serve-smoke|serve-soak|explore-smoke|scale-smoke|batch-smoke|perf-selftest|all]" >&2
        exit 2
        ;;
esac

echo "==> ci: OK"
