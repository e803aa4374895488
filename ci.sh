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
if grep -nE -A1 'format!\(' crates/meta/src/catalog.rs |
    grep -E '"(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|EXPLAIN) '; then
    echo "FAIL: catalog.rs formats a value into SQL text (bind it with execute_with)"
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
    crates/bench/src/bin/metad_shards.rs crates/core/src/cache.rs \
    crates/load/src/scenarios.rs crates/load/src/report.rs crates/load/src/bin \
    crates/bench/src/tracesum.rs crates/bench/src/bin/trace_summarize.rs \
    BENCH_scenarios.json; do
    if [ -e "$gone" ]; then
        echo "FAIL: $gone is back"
        exit 1
    fi
done
# The second extension audit's deletions: two-phase collective I/O (its
# file domains split one contiguous piece per rank into the same pieces
# independent I/O sends), SQL-level transaction control (the engine has no
# sessions: a transaction of several statements is a `Database::transaction`
# closure) and the c10k bench binary (tests/c10k.rs asserts the same at
# 1024 connections).
for gone in crates/core/src/collective.rs crates/core/tests/collective.rs \
    examples/collective_io.rs crates/bench/src/bin/c10k.rs; do
    if [ -e "$gone" ]; then
        echo "FAIL: $gone is back"
        exit 1
    fi
done
if git grep -nE 'collective\.rs|CollectiveGroup|write_collective|read_collective|collective_io|bin/c10k\.rs|Statement::(Begin|Commit|Rollback)|execute_script|parse_script' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: collective I/O, SQL transaction control, execute_script/parse_script or the c10k bench binary is back"
    exit 1
fi
# One serving mode: an I/O server runs no cost model. Its sleeps, their
# counter and spans, the throttled hand-back, the per-node model override
# and the daemon's and shell's class arguments stay gone; `dpfs-bench`
# evaluates the model over the requests the servers received.
if git grep -nE 'inject_delay|injected_delay_ns|is_unthrottled|with_model|StorageClass::parse' \
    -- crates/ src/ tests/ 'examples/*.rs' ||
    git grep -nF '"--class"' -- crates/server/src/bin; then
    echo "FAIL: the iond's delay model (inject_delay, injected_delay_ns, is_unthrottled, with_model, --class or a class argument) is back"
    exit 1
fi
# One measuring stick: the benchmark (examples/benchmark) is the only harness
# that gates a number. The storm runner, its committed baseline and gate, and
# the JSONL trace summarizer stay deleted (`dpfs-load` keeps only `Zipf`).
if git grep -nE 'bench-diff|BENCH_scenarios|TraceSummary|trace-summarize|dpfs_load::scenarios' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the scenario plane (bench-diff, BENCH_scenarios, scenarios) or the trace summarizer is back"
    exit 1
fi
# The planner is one flat pass over the runs (bucket by server, walk the
# bucket). A map of per-brick Vecs above the test module means the
# allocation-per-brick planner is back; tests/alloc_budget.rs counts it too.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/plan.rs | grep -nE 'BTreeMap|HashMap'; then
    echo "FAIL: crates/core/src/plan.rs uses a BTreeMap/HashMap outside #[cfg(test)]"
    exit 1
fi
# Namespace ops and fsck's stats ride the one dispatch (file.rs::issue):
# fs.rs and fsck.rs talk to no I/O server on their own.
if grep -nE 'pool\(?\)?\.rpc\(|rpc_ok\(' crates/core/src/fs.rs crates/core/src/fsck.rs; then
    echo "FAIL: fs.rs or fsck.rs has a private dispatch again (build a work list, call issue or issue_all)"
    exit 1
fi
# One read reply: every read, enumerated or pattern, is answered by one
# coalesced `DataList`, so the per-range chunk reply, the store's per-range
# reader and the client's chunk checks stay gone.
if git grep -nE 'Response::Data\b|fn read_ranges\b|expect_chunks|fn expect_data' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: a second read reply shape (Response::Data, read_ranges, expect_chunks, expect_data) is back"
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
# that existed to carry it is gone.
# (`MetaError::from_wire(code, message)` is a different signature and stays.)
if git grep -nE 'MetaOp::Generation|last_gen_of|last_gens|fn generation\(|GEN_TABLE|EmbeddedMetaStore|pre_gen|from_wire\(.*shards' \
    -- 'crates/*/src/*' src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the metadata generation, EmbeddedMetaStore or the shard-map version is back"
    exit 1
fi
# `dpfs_meta_gen` is the one sequence file ids and rename-intent ids are
# drawn from, and nothing else: only the schema, the seeding in
# `Catalog::for_shard` and `next_gen` name it.
if sed -e '/^#\[cfg(test)\]/,$d' -e '/^const SCHEMA/,/^\];/d' \
    -e '/^    pub fn for_shard(db/,/^    }/d' -e '/^fn next_gen/,/^}/d' \
    crates/meta/src/catalog.rs | grep -v '^ *//' | grep -n 'dpfs_meta_gen'; then
    echo "FAIL: catalog.rs touches dpfs_meta_gen outside the DDL, the seed row and next_gen"
    exit 1
fi
# Subfiles are named by file id, so a rename never reaches an I/O server:
# the subfile rename request and reply, the store's rename and the
# cross-shard rename's marker tag stay gone.
if git grep -nE 'Request::Rename\b|Response::Renamed|RENAME_INTENT_TAG' \
    -- crates/ src/ tests/ 'examples/*.rs' ||
    git grep -nF 'fn rename(' -- crates/server/src/subfile.rs; then
    echo "FAIL: the subfile rename (Request::Rename, Response::Renamed, SubfileStore::rename) or the rename marker tag is back"
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
# One fsck: the checker reads the catalog through the metadata client, so it
# runs on every mount. The table cross-checks and their repairs live in
# `Catalog::audit` (one `MetaOp::Audit` per shard); fsck.rs holds no SQL and
# never reaches for the database.
if grep -nE 'SELECT|UPDATE|INSERT|DELETE FROM|\.db\(\)|catalog\(\)|embedded_only' crates/core/src/fsck.rs; then
    echo "FAIL: crates/core/src/fsck.rs talks to the database itself (audit through MetaClient::audit)"
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
# ConnPool::rpc and MetaClient::call are its three callers.
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
# A trace span is recorded on every op: its way into the ring (the section
# of ring.rs between its record-path and read-path rules) copies no name
# into a `String` and takes no lock.
record_path=$(sed -n '/^\/\/ -* the record path$/,/^\/\/ -* the read path$/p' crates/obs/src/ring.rs)
if [ -z "$record_path" ] || ! printf '%s\n' "$record_path" | grep -q 'the read path$'; then
    echo "FAIL: ring.rs lost its record-path or read-path section rule"
    exit 1
fi
if printf '%s\n' "$record_path" | grep -nE 'to_string|String::from|Mutex'; then
    echo "FAIL: the trace ring's record path allocates a String or takes a lock"
    exit 1
fi
# Which thread answers a request is its service's `try_handle`: answer now
# or hand it back. The per-kind `may_block` rule stays gone, and the
# kernel's "would wait" (`preadv2` with `RWF_NOWAIT`) is asked in one
# place, `sys::read_run`.
if git grep -nw 'may_block' -- crates/ src/ tests/ examples/; then
    echo "FAIL: Service::may_block is back (answer or hand back in try_handle)"
    exit 1
fi
nowait_homes=$(git grep -lE 'preadv2|RWF_NOWAIT' -- crates/ src/ tests/ examples/ | tr '\n' ' ')
if [ "$nowait_homes" != "crates/server/src/sys.rs " ]; then
    echo "FAIL: preadv2/RWF_NOWAIT named in [$nowait_homes]; only crates/server/src/sys.rs may"
    exit 1
fi
# A long sparse run is gathered from a mapping of its subfile (`sys::Mapping`):
# `mmap`, `munmap`, `madvise` and `mincore` are declared in sys.rs alone.
map_homes=$(git grep -lE '\bfn (mmap|munmap|madvise|mincore) *\(|link_name *= *"(mmap|munmap|madvise|mincore)"' -- crates/ src/ tests/ examples/ | tr '\n' ' ')
if [ "$map_homes" != "crates/server/src/sys.rs " ]; then
    echo "FAIL: mmap/munmap/madvise/mincore declared in [$map_homes]; only crates/server/src/sys.rs may"
    exit 1
fi
# A touched page of a mapping past the end of its file raises SIGBUS, so no
# server path may shrink a subfile: no `File::set_len`, no truncating open.
# (`Vec::set_len` on a read's reply buffer is the one `set_len` there.)
if git grep -nE '\bset_len\b|\.truncate\(true\)' -- crates/server/src |
    grep -vE '^[^:]+:[0-9]+: *//|\breply\.set_len\('; then
    echo "FAIL: crates/server/src shrinks a file (set_len / truncate(true)); gathers map subfiles"
    exit 1
fi
# A subfile read is one `preadv2` per run of page-adjacent ranges
# (`sys::read_run`), written straight into a reply nothing zeroes first:
# the per-range nowait read and the zero-filled reply buffer stay deleted.
if git grep -nw 'fn pread_nowait' -- crates/ src/ tests/ examples/ ||
    sed '/^#\[cfg(test)\]/,$d' crates/server/src/subfile.rs | grep -nE 'vec!\[0(u8)?;'; then
    echo "FAIL: a per-range read or a zero-filled reply buffer is back in the subfile store"
    exit 1
fi
# A write payload is built in piece order (`file.rs::gather`): nothing
# zero-fills it first, so each payload byte is written once.
writes=$(sed -n -e '/^    fn execute_writes(/,/^    }$/p' -e '/^fn gather(/,/^}$/p' crates/core/src/file.rs)
if [ -z "$writes" ] || echo "$writes" | grep -nE 'vec!\[0(u8)?;'; then
    echo "FAIL: execute_writes/gather are gone from crates/core/src/file.rs or zero-fill a write payload again"
    exit 1
fi
# One checksum, and one function that picks its arm: only `crc32_update`
# (codec.rs) calls the kernels.
kernel_callers=$(git grep -l 'clmul::' -- crates/ src/ tests/ examples/ | tr '\n' ' ')
if [ "$kernel_callers" != "crates/meta/src/codec.rs " ]; then
    echo "FAIL: the CRC kernel is named in [$kernel_callers]; only crates/meta/src/codec.rs may call it"
    exit 1
fi
# `open` reads the attribute row and the distribution in one `OpenFile`;
# the distribution-only lookup is gone from the wire and from `MetaClient`
# (`Catalog::get_distribution` stays inherent, for the catalog's own tests).
if git grep -nE 'GetDistribution|fn get_distribution' \
    -- crates/proto/src crates/core/src crates/metad/src crates/shell/src; then
    echo "FAIL: MetaOp::GetDistribution / MetaClient::get_distribution is back (use open_file)"
    exit 1
fi
# A file's brick lists only grow, by compare-and-set (`ExtendDistribution`):
# the blind whole-map overwrite is gone from the wire, the client and the
# catalog — it is what let the catalog forget bricks, and the exact
# enumeration of unlink/rename/sync believes the catalog.
if git grep -nE 'UpdateDistribution|fn update_distribution' \
    -- crates/proto/src crates/meta/src crates/core/src crates/metad/src crates/shell/src; then
    echo "FAIL: MetaOp::UpdateDistribution / update_distribution is back (grow with extend_distribution)"
    exit 1
fi
# One stats document: both daemons answer `Stats` with their node of the
# `ClusterSnapshot`, so the per-daemon blobs, their version bytes and the
# scrape's translators stay gone — as do the subfile resize request, the
# server-unregistering op and the brick grouping nothing called.
if git grep -nE 'StatsSnapshot::(en|de)code|METAD_SNAPSHOT_VERSION|fn (iond|metad)_node|Request::Truncate|Response::Truncated|RemoveServer|group_by_server' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: a per-daemon stats codec or translator, Truncate, RemoveServer or group_by_server is back"
    exit 1
fi
# One metadata client: an embedded mount is a one-shard plane whose ops
# `MetaOp::apply` answers in-process, the function `dpfs-metad` runs — so
# no trait stands between `Dpfs` and its metadata, and nobody asks the
# registry for one server (`Catalog::get_server` stays inherent, for the
# catalog's own tests).
if git grep -nE 'trait MetaStore|dyn MetaStore|as_catalog|RemoteMetaStore|MetaOp::GetServer' \
    -- crates/ src/ tests/ 'examples/*.rs'; then
    echo "FAIL: the MetaStore trait, its escape hatch, RemoteMetaStore or MetaOp::GetServer is back"
    exit 1
fi
# One wire codec: every request, reply, metadata verb and pattern segment is
# a row of the one `Wire` table (`wire_enum!`/`wire_rows!`,
# crates/proto/src/message.rs), which writes its tag and its fields in wire
# order for both directions. Above the test modules, no proto source writes
# a literal tag byte or matches on a decoded tag outside `wire_enum!`.
for f in crates/proto/src/*.rs; do
    if sed -e '/^#\[cfg(test)\]/,$d' -e '/^macro_rules! wire_enum/,/^}/d' "$f" |
        grep -nE 'put_u8\([0-9]|match [^{]*get(_u8)?\(|let tag\b'; then
        echo "FAIL: $f writes or matches a wire tag by hand (add a row to its wire_enum! table)"
        exit 1
    fi
done
if git grep -nE 'fn encode_to\b|fn get_(u8|u32|u64|str|bytes)\b|(MetaOp|MetaResult)::(encode_into|decode_from)' \
    -- crates/proto/src; then
    echo "FAIL: a hand-written message encoder or a free get_* helper is back (write the type's Wire row)"
    exit 1
fi
# The caller reads its own reply: the client library starts no thread of
# its own (tests/wakeups.rs counts threads and wake-ups per round trip), so
# the per-connection reader thread and its waiter channels stay gone.
core_spawns=$(for f in crates/core/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done |
    grep -cE 'thread::(spawn|scope|Builder)|\.spawn\(' || :)
if [ "$core_spawns" -ne 0 ] || git grep -nE 'demux_loop|dpfs-demux|mpsc' -- crates/core/src/transport.rs; then
    echo "FAIL: crates/core/src starts $core_spawns thread(s) or transport.rs has a reader thread again (the caller reads its own reply)"
    exit 1
fi
wire_enums=$(cat crates/proto/src/*.rs | grep -c '^wire_enum! {' || :)
wire_rows=$(sed -n '/^wire_rows! {/,/^}/p' crates/proto/src/*.rs | grep -cE '^    [A-Z][A-Za-z]* \{' || :)
wire_types=$((wire_enums + wire_rows))
# Non-test lines: a file's lines above its test module, and no line of a
# file whose `mod` declaration sits under `#[cfg(test)]` (`#[cfg(test)] mod
# x;` in dir/mod.rs, lib.rs or main.rs is dir/x.rs; in dir/y.rs, dir/y/x.rs).
test_files=$(grep -rn -A1 '^#\[cfg(test)\]$' crates/*/src --include='*.rs' |
    sed -nE 's/^(.*)-[0-9]+-(pub )?mod ([a-z0-9_]+);$/\1 \3/p' |
    while read -r parent name; do
        case "$parent" in
        */mod.rs | */lib.rs | */main.rs) echo "${parent%/*}/$name.rs" ;;
        *) echo "${parent%.rs}/$name.rs" ;;
        esac
    done)
nontest=$(find crates/*/src -name '*.rs' | grep -vE '^crates/(bytes|criterion|parking_lot|proptest|rand)/' |
    grep -vxF "$test_files" |
    while read -r f; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | wc -l)
meta_ops=$(sed -n '/^pub enum MetaOp {/,/^}/p' crates/proto/src/meta.rs | grep -cE '^    [A-Z][A-Za-z]*( \{|,)$')
client_methods=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/meta_client.rs | grep -c '^    pub fn ')
if [ "$meta_ops" -ne 27 ]; then
    echo "FAIL: MetaOp has $meta_ops variants, expected 27 (a verb needs a caller no existing verb serves)"
    exit 1
fi
echo "lines in crates/core + crates/proto + crates/server: $(find crates/core crates/proto crates/server -name '*.rs' | xargs cat | wc -l); ClientOptions fields: $fields; public FileHandle setters: $setters; MetaOp variants: $meta_ops; types the wire table writes: $wire_types; MetaClient public methods: $client_methods; XOR loops in crates/core/src: $xors; non-test lines over crates/*/src (vendored shims excluded): $nontest"

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: release build"
cargo build --release

# The workspace's default members are the root package and every crate, so
# this one run covers the crate-level unit tests, the codec fuzz, the CRC
# oracle and the bytes shim too (`cargo test --workspace` lists the same set).
echo "==> tier-1: tests (tests/alloc_budget.rs gates the map -> plan allocation counts, tests/rpc_budget.rs the metad round trips per namespace op)"
cargo test -q

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

echo "==> chaos: fault-injection suite"
cargo test --release -q --test chaos

echo "==> figures and ablations are computed: two regenerations match the committed files byte for byte"
# (The slow-op log is tests/tracing.rs::a_slow_op_is_logged_with_its_trace_id.)
cargo build --release -q -p dpfs-bench --bins
started=$(date +%s)
for run in 1 2; do
    ./target/release/figures >target/figures-$run.txt
    # Ablation 8 is measured live and goes to stderr, outside the gate.
    ./target/release/ablation >target/ablation-$run.txt 2>target/ablation-$run.err
    for out in figures ablation; do
        if ! cmp "${out}_output.txt" "target/$out-$run.txt"; then
            diff "${out}_output.txt" "target/$out-$run.txt" || :
            echo "FAIL: run $run of $out differs from ${out}_output.txt"
            exit 1
        fi
    done
done
echo "figures + ablations regenerated twice in $(($(date +%s) - started)) s"

echo "==> ablation smoke (--quick) with trace export"
rm -f target/trace-quick.jsonl
DPFS_TRACE_OUT=target/trace-quick.jsonl \
    cargo run --release -q -p dpfs-bench --bin ablation -- --quick

echo "==> trace export must contain metadata RPC spans (ablation 8 remote mounts)"
grep -q '"kind":"meta\.' target/trace-quick.jsonl

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
# round-tripped through the real I/O daemon byte-for-byte — after the `mv`,
# which reached no I/O daemon: the subfile is named by the file's id.
grep -q 'metadata: remote via metad0' target/metad-smoke/shell.out
grep -q 'metadata: remote via metad1' target/metad-smoke/shell.out
test "$(grep -c 'meta ops,' target/metad-smoke/shell.out)" -eq 2
! grep -q ' 0 meta ops,' target/metad-smoke/shell.out
test "$(grep -c 'meta\.mkdir' target/metad-smoke/shell.out)" -eq 2
cmp -s README.md target/metad-smoke/readme.roundtrip
echo "metad smoke: ok"

echo "==> redundancy smoke: Replica(2) import survives an iond kill byte-exact; a one-brick file is its 2 subfiles; fsck --repair over --metad re-protects an emptied iond"
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
# Files under the three iond roots whose name contains $1 (all of them
# without one).
red_held() {
    find target/red-smoke/ion0 target/red-smoke/ion1 target/red-smoke/ion2 -type f -printf '%f\n' |
        grep -c "$1" || :
}
# The id file $1's subfiles are named by, as `stat` prints it.
red_id() {
    echo "stat $1" | red_sh 2>&1 | grep -o 'id: *[0-9a-f]\{16\}' | grep -o '[0-9a-f]\{16\}'
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
# Subfiles are named by the file's id, which `mv` keeps; `rm` takes the id
# and the redundancy policy from the row its one metadata call removed: the
# mirrors sit beside the primaries, and a file that was created, moved and
# removed leaves nothing on any iond root — the six subfiles of /moved.md
# and the two of /sd1/one.md are all there is.
MOVED_ID=$(red_id /moved.md)
ONE_ID=$(red_id /sd1/one.md)
test "$(red_held "$MOVED_ID")" -eq 6
if [ "$(red_held '')" -ne 8 ]; then
    echo "FAIL: create / mv / rm of a replica:2 file left a subfile behind"
    exit 1
fi
# A file's subfiles are the servers its brick lists name: one brick is one
# primary and one mirror on three ionds, under the file's id whichever name
# the catalog holds — moved across metadata shards (the two-phase rename,
# which keeps the id), then removed.
test "$(red_held "$ONE_ID")" -eq 2
echo 'mv /sd1/one.md /sd0/uno.md' | red_sh >target/red-smoke/shell-mv.out 2>&1
test "$(red_id /sd0/uno.md)" = "$ONE_ID"
test "$(red_held "$ONE_ID")" -eq 2
echo 'rm /sd0/uno.md' | red_sh >target/red-smoke/shell-rm.out 2>&1
test "$(red_held "$ONE_ID")" -eq 0
# One I/O server goes dark; the export below must reconstruct its bricks
# from the mirrors — which the rename never touched — and still
# round-trip byte-for-byte.
kill "$RION1_PID" 2>/dev/null || :
echo 'export /moved.md target/red-smoke/readme.roundtrip' |
    red_sh >target/red-smoke/shell2.out 2>&1
cmp -s README.md target/red-smoke/readme.roundtrip
# The dead iond comes back on an empty root — a replaced disk. `fsck
# --repair` over both metadata shards audits each shard's catalog and
# re-protects: what ion1 held is rebuilt from the survivors...
rm -rf target/red-smoke/ion1
mkdir -p target/red-smoke/ion1
./target/release/dpfs-iond --root target/red-smoke/ion1 --bind 127.0.0.1:17453 \
    >target/red-smoke/iond1-empty.log 2>&1 &
RION1_PID=$!
sleep 1
echo 'fsck --repair' | red_sh >target/red-smoke/fsck-repair.out 2>&1
grep -q "fixed: rebuilt $MOVED_ID of /moved.md on ion1" target/red-smoke/fsck-repair.out
grep -q "fixed: rebuilt $MOVED_ID#r1 of /moved.md on ion1" target/red-smoke/fsck-repair.out
grep -q ' 0 unfixable, 0 remaining issue(s)' target/red-smoke/fsck-repair.out
echo 'fsck --online' | red_sh >target/red-smoke/fsck-online.out 2>&1
grep -q '^clean' target/red-smoke/fsck-online.out
# ...so a second iond may go dark and the file still exports byte-exact.
kill "$RION2_PID" 2>/dev/null || :
echo 'export /moved.md target/red-smoke/readme.roundtrip2' |
    red_sh >target/red-smoke/shell3.out 2>&1
kill "$RMETAD0_PID" "$RMETAD1_PID" "$RION0_PID" "$RION1_PID" 2>/dev/null || :
trap - EXIT
cmp -s README.md target/red-smoke/readme.roundtrip2
echo "redundancy smoke: ok"

echo "CI green."
