#!/usr/bin/env sh
# CI gate: formatting, lints, and the tier-1 suite. Run from the repo root.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> metadata SQL: values are bound as parameters, never written into the text"
if grep -rnE 'sql_quote\(|int_list_literal\(' crates/ --include='*.rs'; then
    echo "FAIL: the SQL escaping helpers are back (bind the value with execute_with)"
    exit 1
fi
# A format! whose string opens a SQL statement (on its own line or the next)
# is a statement built from run-time values. Statement texts in the catalog
# are constants; a table name that is a `const` belongs in the literal.
if grep -nE -A1 'format!\(' crates/meta/src/catalog.rs crates/meta/src/store.rs |
    grep -E '"(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|EXPLAIN) '; then
    echo "FAIL: catalog.rs/store.rs format a value into SQL text (bind it with execute_with)"
    exit 1
fi

echo "==> one path per job: the deleted code paths and their options stay deleted"
if git grep -nE 'ThreadPerConn|RuntimeMode|serial_dispatch|lockstep_rpc|rpc_lockstep|lockstep_gate|set_lockstep|v1_pending|plan_reads|plan_writes|ScatterPiece|fn read_frame<|fn write_frame<' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: a second client executor, dispatch mode, serving runtime or the v1 frame is back"
    exit 1
fi
if sed -n '/^pub struct ClientOptions {/,/^}/p' crates/core/src/file.rs | grep -n 'list_io'; then
    echo "FAIL: ClientOptions regained a list_io field (the wire shape is chosen per request)"
    exit 1
fi
# A client holds no metadata between calls: the generation-probing cache,
# its two options, the stat-flavoured trait twin and its counters are gone.
if git grep -nE 'CachingMetaStore|meta_cache_ttl|stat_file_attr|note_meta_cache|get_file_attr_with_gen' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the client-side metadata cache (or a piece of its plumbing) is back"
    exit 1
fi
fields=$(sed -n '/^pub struct ClientOptions {/,/^}/p' crates/core/src/file.rs | grep -c '^    pub ')
if [ "$fields" -ne 5 ]; then
    echo "FAIL: ClientOptions has $fields fields, expected 5 (an option needs two callers that differ)"
    exit 1
fi
# A handle holds no file data between calls: the handle-local brick cache,
# its read-ahead and their setters are gone (`meta_cache_stats`, the shim
# the benchmark pins, is a different name and stays), and nothing a caller
# can set on an open handle changes how its later reads behave.
if git grep -nE 'BrickCache|enable_cache|enable_prefetch|prefetch_after|[^_]cache_stats\(|last_read_end' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the client-side brick cache or read-ahead (or a piece of its plumbing) is back"
    exit 1
fi
setters=$(sed -n '/^impl FileHandle {/,/^}/p' crates/core/src/file.rs |
    grep -cE '^    pub fn (set_|enable_)' || :)
if [ "$setters" -ne 0 ]; then
    echo "FAIL: FileHandle has $setters public setter(s); how a handle reads is fixed at open"
    exit 1
fi
# The extension audit's deletions: one `figures` binary takes the figure
# numbers; the flat metad-shards ablation is frozen in EXPERIMENTS.md.
for gone in crates/bench/src/bin/fig11.rs crates/bench/src/bin/fig12.rs \
    crates/bench/src/bin/fig13.rs crates/bench/src/bin/fig14.rs \
    crates/bench/src/bin/metad_shards.rs crates/core/src/cache.rs; do
    if [ -e "$gone" ]; then
        echo "FAIL: $gone is back"
        exit 1
    fi
done
# The planner is one flat pass over the runs (bucket by server, walk the
# bucket). A map of per-brick Vecs above the test module means the
# allocation-per-brick planner is back; tests/alloc_budget.rs counts it too.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/plan.rs | grep -nE 'BTreeMap|HashMap'; then
    echo "FAIL: crates/core/src/plan.rs uses a BTreeMap/HashMap outside #[cfg(test)]"
    exit 1
fi
# Namespace ops ride the one dispatch (file.rs::issue, through issue_all):
# fs.rs talks to no I/O server on its own.
if grep -nE 'pool\.rpc\(|rpc_ok\(' crates/core/src/fs.rs; then
    echo "FAIL: crates/core/src/fs.rs has a private dispatch again (build a work list, call issue_all)"
    exit 1
fi
# Which subfile of a file lives on which server is written down once, in
# RedundancyPolicy::subfiles / copy_home; nobody else derives a mirror or
# parity name (definitions and re-exports carry no call parenthesis).
if grep -rnE '(mirror|parity)_subfile\(' crates/*/src --include='*.rs' |
    grep -v '^crates/core/src/hints.rs:'; then
    echo "FAIL: a mirror/parity subfile name is derived outside crates/core/src/hints.rs"
    exit 1
fi
# Nothing stamps, carries or stores a metadata generation, and the wrapper
# that existed to carry it is gone: `Catalog` is the embedded `MetaStore`.
# (`MetaError::from_wire(code, message)` is a different signature and stays.)
if git grep -nE 'MetaOp::Generation|last_gen_of|last_gens|fn generation\(|GEN_TABLE|EmbeddedMetaStore|pre_gen|from_wire\(.*shards' \
    -- 'crates/*/src/*' src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the metadata generation, EmbeddedMetaStore or the shard-map version is back"
    exit 1
fi
# `dpfs_meta_gen` is the rename-intent id sequence and nothing else: only
# the schema, the seeding in `Catalog::new` and `next_intent_id` name it.
if sed -e '/^#\[cfg(test)\]/,$d' -e '/^const SCHEMA/,/^\];/d' \
    -e '/^    pub fn new(db/,/^    }/d' -e '/^fn next_intent_id/,/^}/d' \
    crates/meta/src/catalog.rs | grep -v '^ *//' | grep -n 'dpfs_meta_gen'; then
    echo "FAIL: catalog.rs touches dpfs_meta_gen outside the DDL, the seed row and next_intent_id"
    exit 1
fi
# One failure path: a read returns the file's bytes (direct or rebuilt) or the
# error that lost them — the zero-fill mode, its error variant and counter
# are gone; a pool's deadline and retry policy are fixed when it is built;
# fsck moves no byte on its own (the file's handle rebuilds, in chunks).
if git grep -nE 'degraded_reads|SubfileOutcome|attach_degraded_data|note_degraded|DpfsError::Degraded|set_rpc_timeout|set_retry_policy|retry_after' \
    -- crates/ src/ tests/ 'examples/*.rs' ||
    git grep -nE 'fn (read|write)_subfile' -- 'crates/*/src/*'; then
    echo "FAIL: the zero-fill read mode, a ConnPool setter, retry_after or fsck's whole-subfile frames are back"
    exit 1
fi
if grep -nE 'Request::(Read|Write)\b' crates/core/src/fsck.rs; then
    echo "FAIL: crates/core/src/fsck.rs builds a Read/Write request (re-protection goes through FileHandle::reprotect)"
    exit 1
fi
# The redundancy algebra is written once (FileHandle::rebuild): one XOR loop
# above the test modules of the client library.
core_src=$(for f in crates/core/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)
xors=$(echo "$core_src" | grep -c '\^=' || :)
if [ "$xors" -ne 1 ]; then
    echo "FAIL: $xors XOR loops in crates/core/src, expected 1 (call FileHandle::rebuild)"
    exit 1
fi
# "Await, then retry" is written once (ConnPool::wait_retrying): its own two
# waits are the only deadline waits above the test modules, and issue,
# ConnPool::rpc and RemoteMetaStore::call are its three callers.
waits=$(echo "$core_src" | grep -cE '\.wait\([a-z_.()]*timeout' || :)
callers=$(($(echo "$core_src" | grep -o 'wait_retrying(' | wc -l) - 1))
pool_setters=$(grep -cE '^    pub(\(crate\))? fn set_' crates/core/src/conn.rs || :)
if [ "$waits" -ne 2 ] || [ "$callers" -ne 3 ] || [ "$pool_setters" -ne 0 ]; then
    echo "FAIL: $waits deadline waits (expected 2, both in wait_retrying), $callers wait_retrying callers (expected 3), $pool_setters ConnPool setters (expected 0)"
    exit 1
fi
# `unsafe` has two homes, each one safe function over one foreign thing:
# `poll(2)` and the carry-less-multiply CRC kernel. Every crate root denies
# it; only these two files lift the lint, and no other source says the word.
want_unsafe='crates/meta/src/clmul.rs crates/server/src/sys.rs'
lifts=$(git grep -l 'allow(unsafe_code)' -- 'crates/*/src/*' src | sort | tr '\n' ' ')
users=$(git grep -lw 'unsafe' -- 'crates/*/src/*' src | sort | tr '\n' ' ')
if [ "$lifts" != "$want_unsafe " ] || [ "$users" != "$want_unsafe " ]; then
    echo "FAIL: allow(unsafe_code) in [$lifts], unsafe in [$users]; expected exactly [$want_unsafe]"
    exit 1
fi
# One checksum, and one function that picks its arm: only `crc32_update`
# (codec.rs) calls the kernel.
kernel_callers=$(git grep -l 'clmul::' -- crates/ src/ tests/ examples/ | tr '\n' ' ')
if [ "$kernel_callers" != "crates/meta/src/codec.rs " ]; then
    echo "FAIL: the CRC kernel is named in [$kernel_callers]; only crates/meta/src/codec.rs may call it"
    exit 1
fi
# `open` reads the attribute row and the distribution in one `OpenFile`;
# the distribution-only lookup is gone from the wire and from `MetaStore`
# (`Catalog::get_distribution` stays inherent, for the catalog's own tests).
if git grep -nE 'GetDistribution|fn get_distribution' \
    -- crates/proto/src crates/core/src crates/metad/src crates/shell/src; then
    echo "FAIL: MetaOp::GetDistribution / MetaStore::get_distribution is back (use open_file)"
    exit 1
fi
# A file's brick lists only grow, by compare-and-set (`ExtendDistribution`):
# the blind whole-map overwrite is gone from the wire, the trait and the
# catalog — it is what let the catalog forget bricks, and the exact
# enumeration of unlink/rename/sync believes the catalog.
if git grep -nE 'UpdateDistribution|fn update_distribution' \
    -- crates/proto/src crates/meta/src crates/core/src crates/metad/src crates/shell/src; then
    echo "FAIL: MetaOp::UpdateDistribution / update_distribution is back (grow with extend_distribution)"
    exit 1
fi
nontest=$(find crates/*/src -name '*.rs' | grep -vE '^crates/(bytes|criterion|parking_lot|proptest|rand)/' |
    while read -r f; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | wc -l)
meta_ops=$(sed -n '/^pub enum MetaOp {/,/^}/p' crates/proto/src/meta.rs | grep -cE '^    [A-Z][A-Za-z]*( \{|,)$')
store_methods=$(sed -n '/^pub trait MetaStore/,/^}/p' crates/meta/src/store.rs | grep -c '^    fn ')
echo "lines in crates/core + crates/proto + crates/server: $(find crates/core crates/proto crates/server -name '*.rs' | xargs cat | wc -l); ClientOptions fields: $fields; public FileHandle setters: $setters; MetaOp variants: $meta_ops; MetaStore trait methods: $store_methods; XOR loops in crates/core/src: $xors; non-test lines over crates/*/src (vendored shims excluded): $nontest"

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: tests (tests/alloc_budget.rs gates the map -> plan allocation counts, tests/rpc_budget.rs the metad round trips per namespace op)"
cargo test -q

echo "==> workspace tests (crate-level unit, codec fuzz, CRC oracle, bytes shim)"
cargo test --workspace -q

echo "==> release tests of the two bottom crates (the CRC kernel's unsafe, wrapping arithmetic: debug alone is not enough)"
cargo test --release -q -p dpfs-meta -p dpfs-proto

echo "==> the benchmark still builds against the library surface it froze"
cargo build --release --offline --manifest-path examples/benchmark/Cargo.toml

echo "==> the benchmark's own smoke (--quick: every workload, exits non-zero on any failed operation)"
cargo run --release --quiet --offline --manifest-path examples/benchmark/Cargo.toml -- --quick \
    >target/benchmark-quick.out
tail -n 1 target/benchmark-quick.out

echo "==> docs (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> chaos: fault-injection suite with trace export"
rm -f target/trace-chaos.jsonl
DPFS_TRACE_OUT="$PWD/target/trace-chaos.jsonl" \
    cargo test --release -q --test chaos

echo "==> chaos trace summary (must contain retry spans)"
cargo run --release -q -p dpfs-bench --bin trace-summarize -- \
    --require-phase retry target/trace-chaos.jsonl

echo "==> ablation smoke (--quick) with trace export"
DPFS_TRACE_OUT=target/trace-quick.jsonl \
    cargo run --release -q -p dpfs-bench --bin ablation -- --quick

echo "==> trace summary (fails on empty or unparseable export)"
cargo run --release -q -p dpfs-bench --bin trace-summarize -- target/trace-quick.jsonl

echo "==> trace export must contain metadata RPC spans (ablation 8 remote mounts)"
grep -q '"kind":"meta\.' target/trace-quick.jsonl

echo "==> c10k smoke: 256 concurrent connections, flat thread budget, zero drops"
cargo run --release -q -p dpfs-bench --bin c10k -- --connections 256

echo "==> metad smoke: two real daemon shards fronted by dpfs-sh --metad"
# The tier-1 build only covers the root package's dependency closure; the
# daemon binaries live in workspace members, so build them explicitly.
cargo build --release -q -p dpfs-metad -p dpfs-server -p dpfs-shell --bins
rm -rf target/metad-smoke
mkdir -p target/metad-smoke/ion0
./target/release/dpfs-metad --bind 127.0.0.1:17441 --shard 0 --shards 2 \
    --stats-interval 1 >target/metad-smoke/metad0.log 2>&1 &
METAD0_PID=$!
./target/release/dpfs-metad --bind 127.0.0.1:17442 --shard 1 --shards 2 \
    >target/metad-smoke/metad1.log 2>&1 &
METAD1_PID=$!
./target/release/dpfs-iond --root target/metad-smoke/ion0 --bind 127.0.0.1:17440 \
    >target/metad-smoke/iond.log 2>&1 &
IOND_PID=$!
trap 'kill $METAD0_PID $METAD1_PID $IOND_PID 2>/dev/null || :' EXIT
sleep 1
printf '%s\n' \
    'mkdir /ci' \
    'import README.md /ci/readme.md' \
    'ls -l /ci' \
    'mv /ci/readme.md /ci/moved.md' \
    'export /ci/moved.md target/metad-smoke/readme.roundtrip' \
    'stats' \
    'rm /ci/moved.md' \
    | ./target/release/dpfs-sh \
        --metad 127.0.0.1:17441 --metad 127.0.0.1:17442 \
        --server ion0=127.0.0.1:17440 \
    >target/metad-smoke/shell.out 2>&1
# `--stats-interval 1` prints every second (it used to be clamped *up* to a
# minute): the first stats line must be there within five.
tries=0
until grep -q 'stats: conns=' target/metad-smoke/metad0.log; do
    tries=$((tries + 1))
    if [ "$tries" -gt 25 ]; then
        echo "FAIL: dpfs-metad --stats-interval 1 printed no stats line within 5 s"
        exit 1
    fi
    sleep 0.2
done
kill "$METAD0_PID" "$METAD1_PID" "$IOND_PID" 2>/dev/null || :
trap - EXIT
# The stats sections prove metadata went over TCP to *both* shards; the
# broadcast mkdir row proves each daemon executed ops; cmp proves data
# round-tripped through the real I/O daemon byte-for-byte — under the name
# a server-side Rename gave its subfile.
grep -q 'metadata: remote via metad0' target/metad-smoke/shell.out
grep -q 'metadata: remote via metad1' target/metad-smoke/shell.out
test "$(grep -c 'meta ops,' target/metad-smoke/shell.out)" -eq 2
! grep -q ' 0 meta ops,' target/metad-smoke/shell.out
test "$(grep -c 'meta\.mkdir' target/metad-smoke/shell.out)" -eq 2
cmp -s README.md target/metad-smoke/readme.roundtrip
echo "metad smoke: ok"

echo "==> redundancy smoke: Replica(2) import survives an iond kill byte-exact; a one-brick file is its 2 subfiles"
rm -rf target/red-smoke
mkdir -p target/red-smoke/ion0 target/red-smoke/ion1 target/red-smoke/ion2
./target/release/dpfs-metad --bind 127.0.0.1:17451 --shard 0 --shards 2 \
    >target/red-smoke/metad0.log 2>&1 &
RMETAD0_PID=$!
./target/release/dpfs-metad --bind 127.0.0.1:17455 --shard 1 --shards 2 \
    >target/red-smoke/metad1.log 2>&1 &
RMETAD1_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion0 --bind 127.0.0.1:17452 \
    >target/red-smoke/iond0.log 2>&1 &
RION0_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion1 --bind 127.0.0.1:17453 \
    >target/red-smoke/iond1.log 2>&1 &
RION1_PID=$!
./target/release/dpfs-iond --root target/red-smoke/ion2 --bind 127.0.0.1:17454 \
    >target/red-smoke/iond2.log 2>&1 &
RION2_PID=$!
trap 'kill $RMETAD0_PID $RMETAD1_PID $RION0_PID $RION1_PID $RION2_PID 2>/dev/null || :' EXIT
sleep 1
# Commands on stdin, through a fresh `--metad` mount of the three ionds.
red_sh() {
    ./target/release/dpfs-sh \
        --metad 127.0.0.1:17451 --metad 127.0.0.1:17455 \
        --server ion0=127.0.0.1:17452 \
        --server ion1=127.0.0.1:17453 \
        --server ion2=127.0.0.1:17454
}
# Files under the three iond roots whose name contains $1.
red_held() {
    ls target/red-smoke/ion0 target/red-smoke/ion1 target/red-smoke/ion2 | grep -c "$1" || :
}
# (`/sd1` is homed on metad shard 0 and `/sd0` on shard 1.)
printf '%s\n' \
    'import README.md /readme.md 4096 replica:2' \
    'mv /readme.md /moved.md' \
    'stat /moved.md' \
    'import README.md /short-lived.md 4096 replica:2' \
    'mv /short-lived.md /short-lived-2.md' \
    'rm /short-lived-2.md' \
    'mkdir /sd0' \
    'mkdir /sd1' \
    'import README.md /sd1/one.md 1048576 replica:2' \
    | red_sh >target/red-smoke/shell1.out 2>&1
grep -q 'redundancy: replica:2' target/red-smoke/shell1.out
# `mv` and `rm` take the redundancy policy from the row their one metadata
# call moved or removed: the mirrors follow the primaries, and a file that
# was created, moved and removed leaves nothing on any iond root.
test "$(red_held 'moved\.md')" -eq 6
if [ "$(red_held 'short-lived')" -ne 0 ]; then
    echo "FAIL: create / mv / rm of a replica:2 file left a subfile behind"
    exit 1
fi
# A file's subfiles are the servers its brick lists name: one brick is one
# primary and one mirror on three ionds, under whichever name the catalog
# holds — moved across metadata shards (the two-phase rename), then removed.
test "$(red_held 'one\.md')" -eq 2
echo 'mv /sd1/one.md /sd0/uno.md' | red_sh >target/red-smoke/shell-mv.out 2>&1
test "$(red_held 'uno\.md')" -eq 2
test "$(red_held 'one\.md')" -eq 0
echo 'rm /sd0/uno.md' | red_sh >target/red-smoke/shell-rm.out 2>&1
test "$(red_held 'uno\.md')" -eq 0
# One I/O server goes dark; the export below must reconstruct its bricks
# from the mirrors — renamed along with the primaries — and still
# round-trip byte-for-byte.
kill "$RION1_PID" 2>/dev/null || :
echo 'export /moved.md target/red-smoke/readme.roundtrip' |
    red_sh >target/red-smoke/shell2.out 2>&1
kill "$RMETAD0_PID" "$RMETAD1_PID" "$RION0_PID" "$RION2_PID" 2>/dev/null || :
trap - EXIT
cmp -s README.md target/red-smoke/readme.roundtrip
echo "redundancy smoke: ok"

echo "==> scenario harness (--quick) with slow-op log enabled"
rm -f target/slowops.jsonl
DPFS_SLOW_OP_US=1000 DPFS_SLOW_OP_OUT=target/slowops.jsonl \
    cargo run --release -q -p dpfs-load --bin scenarios -- --quick \
    --out target/scenarios-quick.json
grep -q '"bench":"scenarios"' target/scenarios-quick.json
# The checkpoint scenario's 256 KiB-per-server writes cross the 1 ms
# threshold by the hundred (at 10 ms, since the serving core stopped
# napping, a quick run often has none), so the slow-op log must exist and
# be structurally sound JSONL.
grep -q '"slow_op":true' target/slowops.jsonl
grep -q '"trace":' target/slowops.jsonl

echo "==> bench-diff: committed baseline is self-consistent"
cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json BENCH_scenarios.json

echo "==> bench-diff: quick run within tolerance of the committed baseline"
cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json target/scenarios-quick.json --tolerance 0.5

echo "==> bench-diff: gate must FAIL on a synthetic 100x regression"
if cargo run --release -q -p dpfs-load --bin bench-diff -- \
    BENCH_scenarios.json target/scenarios-quick.json \
    --tolerance 0.5 --scale-baseline 100 >/dev/null 2>&1; then
    echo "FAIL: bench-diff passed a synthetic regression"
    exit 1
fi
echo "bench-diff: synthetic regression correctly rejected"

echo "CI green."
