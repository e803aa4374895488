//! The five workloads. Each builds its data set from the seed, hands out
//! one closed-loop client per thread, and checks every byte or attribute
//! an operation returns; a failed check is counted, never panicked on.
//!
//! Why each one exists — which layers it loads and which it bypasses —
//! is in `BENCHMARK.json` and the README.

use std::sync::Arc;

use dpfs_core::{
    ClientOptions, ClientStats, Datatype, Dpfs, FileHandle, Granularity, Hint, Region, Shape,
};
use dpfs_load::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::cluster::Cluster;
use crate::spans::Recorder;
use crate::Res;

pub const NAMES: [&str; 5] = [
    "array_read",
    "array_write",
    "strided_read",
    "small_read",
    "meta_churn",
];

/// Compute nodes: one thread each, `nproc` on the reference box.
pub const CLIENTS: usize = 2;

const ARRAY_DIM: u64 = 4096;
const ARRAY_BYTES: usize = (ARRAY_DIM * ARRAY_DIM) as usize;
const BRICK_DIM: u64 = 256;
/// A `(*, BLOCK)` column block: every row, 512 of the 4096 columns.
const BLOCK_COLS: u64 = 512;
const BLOCKS: u64 = ARRAY_DIM / BLOCK_COLS;
const BLOCK_BYTES: usize = (ARRAY_DIM * BLOCK_COLS) as usize;
const VARIANTS: usize = 4;

const STRIDE_PIECE: u64 = 64;
const STRIDE_COLS: u64 = ARRAY_DIM / STRIDE_PIECE;

const SMALL_FILES: usize = 256;
const SMALL_DIRS: usize = 8;
const SMALL_BYTES: usize = 8192;
const SMALL_BRICK: u64 = 4096;

const CHURN_DIRS: usize = 8;
const CHURN_SEEDED: usize = 512;

/// What layer replay needs to rebuild one representative operation.
pub struct Probe {
    pub access: Option<Access>,
    /// A file whose attributes the metadata probes look up.
    pub stat_path: Option<String>,
}

/// One data operation's inputs, as the client library saw them.
pub struct Access {
    pub handle: FileHandle,
    pub shape: AccessShape,
    /// `Some(payload)` for a write.
    pub payload: Option<Vec<u8>>,
    pub granularity: Granularity,
    pub rank: usize,
}

pub enum AccessShape {
    Region(Region),
    Datatype { base: u64, dtype: Datatype },
    Bytes { offset: u64, len: u64 },
}

pub trait Client: Send {
    /// One operation, timed by the caller as a whole; `rec` gets a span
    /// per public call. False when any call erred or any check failed.
    fn op(&mut self, rec: &mut Recorder) -> bool;

    /// Checks that need a quiet cluster, after the last window:
    /// `(checks made, checks failed)`.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }

    fn fs(&self) -> &Dpfs;

    /// Cumulative file-handle counters of this client.
    fn io_stats(&self) -> ClientStats;

    fn probe(&mut self) -> Res<Probe>;
}

/// Seeded filler: the data set is a pure function of the seed.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9)
            .wrapping_add(client as u64 + 1),
    )
}

fn block_region(block: u64) -> Region {
    Region {
        origin: vec![0, block * BLOCK_COLS],
        extent: vec![ARRAY_DIM, BLOCK_COLS],
    }
}

/// Row-major packed bytes of column block `block` of the array `truth`.
fn pack_block(truth: &[u8], block: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_BYTES);
    for row in 0..ARRAY_DIM as usize {
        let at = row * ARRAY_DIM as usize + (block * BLOCK_COLS) as usize;
        out.extend_from_slice(&truth[at..at + BLOCK_COLS as usize]);
    }
    out
}

fn block_matches(truth: &[u8], block: u64, got: &[u8]) -> bool {
    got.len() == BLOCK_BYTES
        && got
            .chunks_exact(BLOCK_COLS as usize)
            .enumerate()
            .all(|(row, piece)| {
                let at = row * ARRAY_DIM as usize + (block * BLOCK_COLS) as usize;
                piece == &truth[at..at + BLOCK_COLS as usize]
            })
}

pub fn add_stats(total: &mut ClientStats, s: ClientStats) {
    total.requests += s.requests;
    total.wire_read += s.wire_read;
    total.useful_read += s.useful_read;
    total.wire_written += s.wire_written;
}

/// The bytes workload `name` stores and later expects, a pure function of
/// the seed. Made once per run and shared by every set-up, so that the
/// process's peak memory does not depend on how the allocator recycles
/// 16 MiB blocks.
pub fn dataset(name: &str, seed: u64) -> Res<Arc<Vec<u8>>> {
    let len = match name {
        "array_read" | "array_write" | "strided_read" => ARRAY_BYTES,
        "small_read" => SMALL_FILES * SMALL_BYTES,
        "meta_churn" => 0,
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}").into()),
    };
    Ok(Arc::new(fill(seed, len)))
}

/// Store workload `name`'s `data` on `cluster` and return its clients.
pub fn setup(
    name: &str,
    cluster: &Cluster,
    seed: u64,
    data: &Arc<Vec<u8>>,
    self_test: bool,
) -> Res<Vec<Box<dyn Client>>> {
    match name {
        "array_read" => array_read(cluster, seed, data, self_test),
        "array_write" => array_write(cluster, seed, data, self_test),
        "strided_read" => strided_read(cluster, seed, data, self_test),
        "small_read" => small_read(cluster, seed, data, self_test),
        "meta_churn" => meta_churn(cluster, seed, self_test),
        other => Err(format!("unknown workload {other:?}; one of {NAMES:?}").into()),
    }
}

/// What the clients compare with: the stored data, or under `--self-test`
/// a copy with one byte flipped at every offset in `corrupt`.
fn expectations(
    data: &Arc<Vec<u8>>,
    self_test: bool,
    corrupt: impl Iterator<Item = usize>,
) -> Arc<Vec<u8>> {
    if !self_test {
        return data.clone();
    }
    let mut copy = data.to_vec();
    for at in corrupt {
        copy[at] ^= 0xff;
    }
    Arc::new(copy)
}

// ---------------------------------------------------------------- array_*

const ARRAY_PATH: &str = "/array.dat";

/// Create the 4096x4096-byte array in 256x256 bricks and fill it.
fn seed_multidim(cluster: &Cluster, truth: &[u8]) -> Res<()> {
    let fs = cluster.mount(0)?;
    let hint = Hint::multidim(
        Shape::new(vec![ARRAY_DIM, ARRAY_DIM])?,
        Shape::new(vec![BRICK_DIM, BRICK_DIM])?,
        1,
    );
    let mut handle = fs.create(ARRAY_PATH, &hint)?;
    for block in 0..BLOCKS {
        handle.write_region(&block_region(block), &pack_block(truth, block))?;
    }
    handle.sync()?;
    handle.close()?;
    Ok(())
}

struct ArrayRead {
    fs: Dpfs,
    handle: FileHandle,
    rng: StdRng,
    truth: Arc<Vec<u8>>,
}

fn array_read(
    cluster: &Cluster,
    seed: u64,
    data: &Arc<Vec<u8>>,
    self_test: bool,
) -> Res<Vec<Box<dyn Client>>> {
    seed_multidim(cluster, data)?;
    let truth = expectations(
        data,
        self_test,
        (0..BLOCKS).map(|block| (block * BLOCK_COLS) as usize),
    );
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for client in 0..CLIENTS {
        let fs = cluster.mount(client)?;
        let handle = fs.open(ARRAY_PATH)?;
        clients.push(Box::new(ArrayRead {
            fs,
            handle,
            rng: client_rng(seed, client),
            truth: truth.clone(),
        }));
    }
    Ok(clients)
}

impl Client for ArrayRead {
    fn op(&mut self, rec: &mut Recorder) -> bool {
        let block = self.rng.gen_range(0..BLOCKS);
        let region = block_region(block);
        let handle = &mut self.handle;
        match rec.layer("core.file.read", || handle.read_region(&region)) {
            Ok(got) => block_matches(&self.truth, block, &got),
            Err(_) => false,
        }
    }

    fn fs(&self) -> &Dpfs {
        &self.fs
    }

    fn io_stats(&self) -> ClientStats {
        self.handle.stats()
    }

    fn probe(&mut self) -> Res<Probe> {
        Ok(Probe {
            access: Some(Access {
                handle: self.fs.open(ARRAY_PATH)?,
                shape: AccessShape::Region(block_region(0)),
                payload: None,
                granularity: self.fs.options().granularity,
                rank: self.fs.options().rank,
            }),
            stat_path: None,
        })
    }
}

struct ArrayWrite {
    fs: Dpfs,
    handle: FileHandle,
    rng: StdRng,
    truth: Arc<Vec<u8>>,
    /// The column blocks this client alone writes.
    own: Vec<u64>,
    variants: Vec<Vec<u8>>,
    /// Per owned block: the variant and 16-byte stamp last written.
    last: Vec<Option<(usize, [u8; 16])>>,
    seq: u64,
    self_test: bool,
}

fn array_write(
    cluster: &Cluster,
    seed: u64,
    data: &Arc<Vec<u8>>,
    self_test: bool,
) -> Res<Vec<Box<dyn Client>>> {
    seed_multidim(cluster, data)?;
    let per_client = BLOCKS as usize / CLIENTS;
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for client in 0..CLIENTS {
        let fs = cluster.mount(client)?;
        let handle = fs.open(ARRAY_PATH)?;
        let variants = (0..VARIANTS)
            .map(|v| {
                fill(
                    seed ^ (((client * VARIANTS + v + 1) as u64) << 32),
                    BLOCK_BYTES,
                )
            })
            .collect();
        clients.push(Box::new(ArrayWrite {
            fs,
            handle,
            rng: client_rng(seed, client),
            truth: data.clone(),
            own: (0..per_client)
                .map(|i| (client * per_client + i) as u64)
                .collect(),
            variants,
            last: vec![None; per_client],
            seq: 0,
            self_test,
        }));
    }
    Ok(clients)
}

impl Client for ArrayWrite {
    fn op(&mut self, rec: &mut Recorder) -> bool {
        let slot = self.rng.gen_range(0..self.own.len());
        let block = self.own[slot];
        let variant = (self.seq % VARIANTS as u64) as usize;
        // Stamp the payload so that a block landing in the wrong place,
        // or an older write surviving a newer one, fails the read-back.
        let mut stamp = [0u8; 16];
        stamp[..8].copy_from_slice(&block.to_le_bytes());
        stamp[8..].copy_from_slice(&self.seq.to_le_bytes());
        self.seq += 1;
        self.variants[variant][..16].copy_from_slice(&stamp);
        let (handle, data) = (&mut self.handle, &self.variants[variant]);
        let region = block_region(block);
        let ok = rec
            .layer("core.file.write", || handle.write_region(&region, data))
            .is_ok();
        self.last[slot] = Some((variant, stamp));
        ok
    }

    fn finish(&mut self) -> (u64, u64) {
        let mut failed = u64::from(self.handle.sync().is_err());
        for (slot, &block) in self.own.iter().enumerate() {
            let mut expected = match self.last[slot] {
                None => pack_block(&self.truth, block),
                Some((variant, stamp)) => {
                    let mut e = self.variants[variant].clone();
                    e[..16].copy_from_slice(&stamp);
                    e
                }
            };
            if self.self_test {
                expected[BLOCK_BYTES / 2] ^= 0xff;
            }
            let same = self
                .handle
                .read_region(&block_region(block))
                .is_ok_and(|got| got == expected);
            failed += u64::from(!same);
        }
        (self.own.len() as u64 + 1, failed)
    }

    fn fs(&self) -> &Dpfs {
        &self.fs
    }

    fn io_stats(&self) -> ClientStats {
        self.handle.stats()
    }

    fn probe(&mut self) -> Res<Probe> {
        Ok(Probe {
            access: Some(Access {
                handle: self.fs.open(ARRAY_PATH)?,
                shape: AccessShape::Region(block_region(self.own[0])),
                payload: Some(self.variants[0].clone()),
                granularity: Granularity::Exact,
                rank: self.fs.options().rank,
            }),
            stat_path: None,
        })
    }
}

// ----------------------------------------------------------- strided_read

const LINEAR_PATH: &str = "/rows.dat";

struct StridedRead {
    fs: Dpfs,
    handle: FileHandle,
    rng: StdRng,
    truth: Arc<Vec<u8>>,
    dtype: Datatype,
}

fn exact_options(fs: &Dpfs) -> ClientOptions {
    ClientOptions {
        granularity: Granularity::Exact,
        ..fs.options()
    }
}

fn strided_read(
    cluster: &Cluster,
    seed: u64,
    data: &Arc<Vec<u8>>,
    self_test: bool,
) -> Res<Vec<Box<dyn Client>>> {
    {
        // The same array, striped linearly: one brick per 4096-byte row.
        let fs = cluster.mount(0)?;
        let mut handle = fs.create(LINEAR_PATH, &Hint::linear(ARRAY_DIM, ARRAY_BYTES as u64))?;
        for (i, chunk) in data.chunks(BLOCK_BYTES).enumerate() {
            handle.write_bytes((i * BLOCK_BYTES) as u64, chunk)?;
        }
        handle.sync()?;
        handle.close()?;
    }
    let truth = expectations(
        data,
        self_test,
        (0..STRIDE_COLS).map(|col| (col * STRIDE_PIECE) as usize),
    );
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for client in 0..CLIENTS {
        let fs = cluster.mount(client)?;
        let handle = fs.open_with(LINEAR_PATH, exact_options(&fs))?;
        clients.push(Box::new(StridedRead {
            fs,
            handle,
            rng: client_rng(seed, client),
            truth: truth.clone(),
            dtype: Datatype::vector(ARRAY_DIM, STRIDE_PIECE, ARRAY_DIM),
        }));
    }
    Ok(clients)
}

impl Client for StridedRead {
    fn op(&mut self, rec: &mut Recorder) -> bool {
        let base = self.rng.gen_range(0..STRIDE_COLS) * STRIDE_PIECE;
        let (handle, dtype) = (&mut self.handle, &self.dtype);
        match rec.layer("core.file.read", || handle.read_datatype(base, dtype)) {
            Ok(got) => {
                got.len() == (ARRAY_DIM * STRIDE_PIECE) as usize
                    && got
                        .chunks_exact(STRIDE_PIECE as usize)
                        .enumerate()
                        .all(|(row, piece)| {
                            let at = row * ARRAY_DIM as usize + base as usize;
                            piece == &self.truth[at..at + STRIDE_PIECE as usize]
                        })
            }
            Err(_) => false,
        }
    }

    fn fs(&self) -> &Dpfs {
        &self.fs
    }

    fn io_stats(&self) -> ClientStats {
        self.handle.stats()
    }

    fn probe(&mut self) -> Res<Probe> {
        Ok(Probe {
            access: Some(Access {
                handle: self.fs.open_with(LINEAR_PATH, exact_options(&self.fs))?,
                shape: AccessShape::Datatype {
                    base: 0,
                    dtype: self.dtype.clone(),
                },
                payload: None,
                granularity: Granularity::Exact,
                rank: self.fs.options().rank,
            }),
            stat_path: None,
        })
    }
}

// -------------------------------------------------------------- small_read

fn small_path(k: usize) -> String {
    format!("/s/d{}/f{k}", k % SMALL_DIRS)
}

struct SmallRead {
    fs: Dpfs,
    rng: StdRng,
    zipf: Zipf,
    truth: Arc<Vec<u8>>,
    paths: Arc<Vec<String>>,
    stats: ClientStats,
}

/// Run `f(thread)` on [`CLIENTS`] threads and gather the first error.
fn on_each_client(f: impl Fn(usize) -> Result<(), String> + Sync) -> Res<()> {
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let f = &f;
                scope.spawn(move || f(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("seeding thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect::<Result<(), String>>()?;
    Ok(())
}

fn small_read(
    cluster: &Cluster,
    seed: u64,
    data: &Arc<Vec<u8>>,
    self_test: bool,
) -> Res<Vec<Box<dyn Client>>> {
    let paths: Arc<Vec<String>> = Arc::new((0..SMALL_FILES).map(small_path).collect());
    let mounts: Vec<Dpfs> = (0..CLIENTS)
        .map(|c| cluster.mount(c))
        .collect::<Result<_, _>>()?;
    mounts[0].mkdir("/s")?;
    for d in 0..SMALL_DIRS {
        mounts[0].mkdir(&format!("/s/d{d}"))?;
    }
    on_each_client(|t| {
        for k in (t..SMALL_FILES).step_by(CLIENTS) {
            let content = &data[k * SMALL_BYTES..(k + 1) * SMALL_BYTES];
            let seeded = mounts[t]
                .create(&paths[k], &Hint::linear(SMALL_BRICK, SMALL_BYTES as u64))
                .and_then(|mut h| {
                    h.write_bytes(0, content)?;
                    h.close()
                });
            seeded.map_err(|e| format!("seeding {}: {e}", paths[k]))?;
        }
        Ok(())
    })?;
    let truth = expectations(data, self_test, (0..SMALL_FILES).map(|k| k * SMALL_BYTES));
    Ok(mounts
        .into_iter()
        .enumerate()
        .map(|(client, fs)| {
            Box::new(SmallRead {
                fs,
                rng: client_rng(seed, client),
                zipf: Zipf::new(SMALL_FILES, 1.0),
                truth: truth.clone(),
                paths: paths.clone(),
                stats: ClientStats::default(),
            }) as Box<dyn Client>
        })
        .collect())
}

impl Client for SmallRead {
    fn op(&mut self, rec: &mut Recorder) -> bool {
        let k = self.zipf.sample(&mut self.rng);
        let (fs, path) = (&self.fs, &self.paths[k]);
        let Ok(mut handle) = rec.layer("core.fs.open", || fs.open(path)) else {
            return false;
        };
        let got = rec.layer("core.file.read", || {
            handle.read_bytes(0, SMALL_BYTES as u64)
        });
        add_stats(&mut self.stats, handle.stats());
        got.is_ok_and(|got| got == self.truth[k * SMALL_BYTES..(k + 1) * SMALL_BYTES])
    }

    fn fs(&self) -> &Dpfs {
        &self.fs
    }

    fn io_stats(&self) -> ClientStats {
        self.stats
    }

    fn probe(&mut self) -> Res<Probe> {
        Ok(Probe {
            access: Some(Access {
                handle: self.fs.open(&self.paths[0])?,
                shape: AccessShape::Bytes {
                    offset: 0,
                    len: SMALL_BYTES as u64,
                },
                payload: None,
                granularity: self.fs.options().granularity,
                rank: self.fs.options().rank,
            }),
            stat_path: Some(self.paths[0].clone()),
        })
    }
}

// -------------------------------------------------------------- meta_churn

struct MetaChurn {
    fs: Dpfs,
    rng: StdRng,
    client: usize,
    /// Directories ordered so that every second step of the ring crosses
    /// to the other metadata shard.
    dirs: Arc<Vec<String>>,
    /// `(path, size)` of the seeded files `stat` draws from.
    seeded: Arc<Vec<(String, i64)>>,
    seq: u64,
}

/// Pick [`CHURN_DIRS`] directory names, half routed to each of the two
/// metadata shards, in the order A A B B A A B B: walking the ring, the
/// renames alternate between one shard and the cross-shard two-phase path.
fn churn_dirs(fs: &Dpfs) -> Res<Vec<String>> {
    let remote = fs.remote_meta().ok_or("meta_churn needs a remote mount")?;
    let mut by_shard: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for n in 0.. {
        let dir = format!("/m/d{n}");
        let shard = remote.route_dir(&dir) % 2;
        if by_shard[shard].len() < CHURN_DIRS / 2 {
            by_shard[shard].push(dir);
        }
        if by_shard.iter().all(|d| d.len() == CHURN_DIRS / 2) {
            break;
        }
        if n > 10_000 {
            return Err("shard map routes every directory to one shard".into());
        }
    }
    let mut dirs = Vec::with_capacity(CHURN_DIRS);
    for pair in 0..CHURN_DIRS / 2 {
        let shard = pair % 2;
        dirs.extend(by_shard[shard].drain(..2));
    }
    Ok(dirs)
}

fn meta_churn(cluster: &Cluster, seed: u64, self_test: bool) -> Res<Vec<Box<dyn Client>>> {
    let mounts: Vec<Dpfs> = (0..CLIENTS)
        .map(|c| cluster.mount(c))
        .collect::<Result<_, _>>()?;
    mounts[0].mkdir("/m")?;
    let dirs = Arc::new(churn_dirs(&mounts[0])?);
    for dir in dirs.iter() {
        mounts[0].mkdir(dir)?;
    }
    let mut seeded: Vec<(String, i64)> = (0..CHURN_SEEDED)
        .map(|k| {
            let size = 4096 * (1 + k as i64 % 4);
            (format!("{}/s{k}", dirs[k % CHURN_DIRS]), size)
        })
        .collect();
    on_each_client(|t| {
        for (path, size) in seeded.iter().skip(t).step_by(CLIENTS) {
            mounts[t]
                .create(path, &Hint::linear(4096, *size as u64))
                .map_err(|e| format!("seeding {path}: {e}"))?;
        }
        Ok(())
    })?;
    if self_test {
        for (_, size) in &mut seeded {
            *size += 1;
        }
    }
    let seeded = Arc::new(seeded);
    Ok(mounts
        .into_iter()
        .enumerate()
        .map(|(client, fs)| {
            Box::new(MetaChurn {
                fs,
                rng: client_rng(seed, client),
                client,
                dirs: dirs.clone(),
                seeded: seeded.clone(),
                seq: 0,
            }) as Box<dyn Client>
        })
        .collect())
}

impl Client for MetaChurn {
    fn op(&mut self, rec: &mut Recorder) -> bool {
        let from = self.rng.gen_range(0..CHURN_DIRS);
        let name = format!("c{}_{}", self.client, self.seq);
        self.seq += 1;
        let src = format!("{}/{name}", self.dirs[from]);
        let dst = format!("{}/{name}", self.dirs[(from + 1) % CHURN_DIRS]);
        let (path, size) = &self.seeded[self.rng.gen_range(0..CHURN_SEEDED)];
        let fs = &self.fs;
        let created = rec
            .layer("core.fs.create", || {
                fs.create(&src, &Hint::linear(4096, 4096))
            })
            .is_ok();
        let stat_ok = rec
            .layer("core.fs.stat", || fs.stat(path))
            .is_ok_and(|attr| attr.size == *size);
        let renamed = rec
            .layer("core.fs.rename", || fs.rename(&src, &dst))
            .is_ok();
        let unlinked = rec.layer("core.fs.unlink", || fs.unlink(&dst)).is_ok();
        let gone = rec
            .layer("core.fs.exists", || fs.exists(&dst))
            .is_ok_and(|exists| !exists);
        created && stat_ok && renamed && unlinked && gone
    }

    fn fs(&self) -> &Dpfs {
        &self.fs
    }

    fn io_stats(&self) -> ClientStats {
        ClientStats::default()
    }

    fn probe(&mut self) -> Res<Probe> {
        Ok(Probe {
            access: None,
            stat_path: Some(self.seeded[0].0.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_set_is_a_function_of_the_seed() {
        assert_eq!(fill(7, 100), fill(7, 100));
        assert_ne!(fill(7, 100), fill(8, 100));
    }

    #[test]
    fn block_check_sees_a_single_flipped_byte() {
        let truth = fill(1, ARRAY_BYTES);
        let mut block = pack_block(&truth, 3);
        assert!(block_matches(&truth, 3, &block));
        assert!(!block_matches(&truth, 2, &block));
        block[BLOCK_BYTES - 1] ^= 1;
        assert!(!block_matches(&truth, 3, &block));
    }
}
