//! `serve-mixed` and `serve-recover`: the object store behind
//! `dnastore serve`, driven over loopback TCP by closed-loop clients.
//!
//! Client sockets set `TCP_NODELAY` and send each request frame in one
//! write, so any wire stall measured here is the server's own.
//!
//! In the traced run every operation is replayed layer by layer right
//! after it completes: the same request through the in-process
//! `LocalClient`, `ObjectStore::fetch_with_workspace` on a byte-identical
//! twin of the store, then each stage of that fetch through its public
//! function (capsule read, prefilter, consensus, decode, recovery,
//! keystream, decompression). Subtracting neighbours gives the wire and
//! queue time.

use crate::noisy::Replay;
use crate::trace::{span_totals_ms, Tracer};
use crate::util::{
    mean, median, median_of_target_means, ms, payload, percentile, tail_percentile, timed, Json,
    Rng,
};
use crate::{Config, Metric, Outcome};
use dna_align::{AnchorOrienter, GreedyClusterer};
use dna_channel::{AnonymousPool, Cluster, ReadPool};
use dna_crypto::ChaCha20;
use dna_object::capsule::{
    read_strands, scan_capsules, CapsuleHeader, FLAG_COMPRESSED, FLAG_ENCRYPTED, FLAG_MANIFEST,
};
use dna_object::{compress, FetchOptions, FetchReport, ObjectStore, StoreConfig, POOL_FILE};
use dna_server::protocol::{read_response, write_quit, write_request};
use dna_server::{serve_tcp, LocalClient, Request, Response, ServeConfig, Server, TcpHandle};
use dna_storage::{DecodeWorkspace, Pipeline, RetrieveOptions};
use dna_strand::DnaString;
use std::fs::File;
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, RwLock};
use std::time::Instant;

/// Concurrent client connections on `serve-mixed` (the box's `nproc`).
const CONNECTIONS: usize = 2;
/// Server decode workers.
const WORKERS: usize = 2;
const FETCHES_PER_PUT: usize = 15;
const PUT_BYTES: usize = 8 << 10;
/// `serve-recover` PUTs this many fresh one-unit objects after every
/// RFETCH, so its write latency samples the disk across the whole run,
/// often enough that a few slow fsyncs do not set the median.
const RECOVER_PUTS: usize = 3;
const RECOVER_PUT_BYTES: usize = 6_000;
/// Object sizes on `serve-mixed`: they straddle the server's 8 KiB
/// write buffer, where served FETCHes stall.
const MIXED_SIZES: (f64, f64) = (2_000.0, 100_000.0);
/// Object sizes on `serve-recover`: one unit each, replies under 8 KiB.
/// Recovery cost grows with the size (less zero padding in the unit).
const RECOVER_SIZES: (f64, f64) = (2_000.0, 6_240.0);
/// Operations per second each schedule is sized for.
const NOMINAL_MIXED_OPS_PER_S: f64 = 75.0;
const NOMINAL_RFETCH_PER_S: f64 = 2.4;

struct Obj {
    name: String,
    data: Vec<u8>,
}

/// `n` objects with stratified sizes: one per slice of the log-size
/// range, jittered within it, so every seed sees the same size mix.
/// With `zero_runs`, alternate objects (in size order) are zero runs
/// instead of random bytes.
fn objects(seed: u64, prefix: &str, n: usize, (lo, hi): (f64, f64), zero_runs: bool) -> Vec<Obj> {
    let mut rng = Rng::new(seed, 10);
    (0..n)
        .map(|i| {
            let frac = (i as f64 + rng.unit()) / n as f64;
            let len = (lo * (hi / lo).powf(frac)) as usize;
            Obj {
                name: format!("{prefix}-{i:04}"),
                data: payload(
                    &mut rng,
                    len.clamp(lo as usize, hi as usize),
                    zero_runs && i % 2 == 1,
                ),
            }
        })
        .collect()
}

fn store_config(seed: u64) -> (StoreConfig, [u8; 32]) {
    let mut key = [0u8; 32];
    Rng::new(seed, 11).fill(&mut key);
    let config = StoreConfig::laptop()
        .expect("laptop store config")
        .with_key(key)
        .with_compression(true);
    (config, key)
}

/// A blocking wire client: `TCP_NODELAY`, one write per request frame.
struct WireClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(WireClient {
            stream,
            reader,
            frame: Vec::new(),
        })
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.frame.clear();
        write_request(&mut self.frame, request)?;
        self.stream.write_all(&self.frame)?;
        read_response(&mut self.reader)
    }

    fn quit(mut self) {
        self.frame.clear();
        if write_quit(&mut self.frame).is_ok() {
            let _ = self.stream.write_all(&self.frame);
        }
    }
}

fn fetch_request(name: &str, recover: bool) -> Request {
    Request::Fetch {
        target: name.to_string(),
        recover,
    }
}

/// A running server over one store directory.
struct Running {
    server: Server,
    tcp: TcpHandle,
    dir: PathBuf,
}

impl Running {
    fn start(store: ObjectStore, dir: PathBuf) -> Running {
        let server = Server::start(
            store,
            &ServeConfig {
                workers: WORKERS,
                queue_depth: 64,
            },
        );
        let tcp = serve_tcp(&server, "127.0.0.1:0").expect("bind loopback");
        Running { server, tcp, dir }
    }

    fn stop(self) -> u64 {
        let coalesced = self.server.stats().coalesced_fetches;
        self.tcp.stop();
        let _ = self.server.shutdown();
        coalesced
    }
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create store dir");
    dir.to_path_buf()
}

/// Flushes every file of a store directory to disk.
fn sync_store(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let path = entry.expect("store dir entry").path();
        if path.is_file() {
            File::open(&path)
                .and_then(|f| f.sync_all())
                .expect("sync store file");
        }
    }
}

/// Copies a quiescent store directory, for the traced run's in-process
/// twin.
fn copy_store(from: &Path, to: &Path) {
    fresh_dir(to);
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// Bases synthesized per live user byte, from the capsule headers and
/// the geometry, with the manifest super-capsules' share of them.
fn bases_per_byte(dir: &Path, key: [u8; 32]) -> (f64, f64, u64, u64) {
    let store = ObjectStore::open_with_key(dir, key).expect("reopen store");
    let header = store.header().clone();
    let params = header.params().expect("pool geometry");
    let strand_bases = params.strand_bases();
    let mut file = BufReader::new(File::open(dir.join(POOL_FILE)).expect("open pool"));
    let capsules = scan_capsules(&mut file, &header, strand_bases).expect("scan pool");
    let per_unit = (header.cols() * strand_bases) as u64;
    let (mut total, mut manifest) = (0u64, 0u64);
    for (_, cap) in &capsules {
        let bases = u64::from(cap.units) * per_unit;
        total += bases;
        if cap.flags & FLAG_MANIFEST != 0 {
            manifest += bases;
        }
    }
    let user: u64 = store
        .list()
        .iter()
        .filter(|o| !o.tombstone)
        .map(|o| o.bytes)
        .sum();
    (
        total as f64 / user as f64,
        manifest as f64 / total as f64,
        total,
        manifest,
    )
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    /// The object read, or the write's sequence number.
    target: usize,
    ms: f64,
    bytes: usize,
    exact: bool,
}

/// Per-connection results.
#[derive(Default)]
struct Conn {
    ops: Vec<Op>,
    failed: u64,
    mismatched: u64,
    acked: Vec<(String, Vec<u8>)>,
    tracer: Option<Tracer>,
    counts: ReplayCounts,
}

#[derive(Debug, Default, Clone, Copy)]
struct ReplayCounts {
    units: u64,
    consensus_reads: u64,
    rs_corrected: u64,
    rs_failed: u64,
    clusters_found: u64,
    capsules: u64,
    fetch_units: u64,
    fetch_reads: u64,
    prefilter_dropped: u64,
    replay_mismatches: u64,
}

impl ReplayCounts {
    fn add(&mut self, o: &ReplayCounts) {
        self.units += o.units;
        self.consensus_reads += o.consensus_reads;
        self.rs_corrected += o.rs_corrected;
        self.rs_failed += o.rs_failed;
        self.clusters_found += o.clusters_found;
        self.capsules += o.capsules;
        self.fetch_units += o.fetch_units;
        self.fetch_reads += o.fetch_reads;
        self.prefilter_dropped += o.prefilter_dropped;
        self.replay_mismatches += o.replay_mismatches;
    }

    fn add_fetch(&mut self, r: &FetchReport) {
        self.capsules += r.capsules as u64;
        self.fetch_units += r.units as u64;
        self.fetch_reads += r.reads as u64;
        self.prefilter_dropped += r.prefilter_dropped as u64;
    }
}

/// What the traced run needs beside the wire: the in-process client,
/// the twin store and the store's own pipeline geometry.
struct TraceCtx<'a> {
    local: LocalClient,
    twin: &'a RwLock<ObjectStore>,
    base: &'a Pipeline,
    key: [u8; 32],
    epoch: Instant,
}

/// The ChaCha20 nonce and per-capsule keystream stride the store uses.
fn object_nonce(id: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&id.to_le_bytes());
    nonce[8..].copy_from_slice(b"caps");
    nonce
}

fn keystream_stride_blocks(capsule_capacity: usize) -> u32 {
    capsule_capacity.div_ceil(64) as u32
}

fn strand_has_primers(s: &DnaString, cap: &CapsuleHeader, primer_len: usize) -> bool {
    s.len() >= 2 * primer_len
        && s.as_slice()[..primer_len] == *cap.left.strand().as_slice()
        && s.as_slice()[s.len() - primer_len..] == *cap.right.strand().as_slice()
}

/// Replays one fetch of object `id` on the twin store, stage by stage.
#[allow(clippy::too_many_arguments)]
fn replay_fetch(
    twin: &ObjectStore,
    ctx: &TraceCtx,
    id: u64,
    recover: bool,
    tracer: &mut Tracer,
    op: u64,
    parent: usize,
    ws: &mut DecodeWorkspace,
    replay: &mut Replay,
    counts: &mut ReplayCounts,
) -> Vec<u8> {
    let header = twin.header();
    let primer_len = usize::from(header.primer_len);
    let cols = header.cols();
    let strand_bases = ctx.base.params().strand_bases();
    let stride = keystream_stride_blocks(twin.capsule_capacity());
    let entry = twin.manifest().object(id).expect("twin has the object");
    let mut file = BufReader::new(File::open(twin.dir().join(POOL_FILE)).expect("open twin pool"));
    let mut out = Vec::new();
    let threshold = ((strand_bases - 2 * primer_len) / 4).max(3);
    for (k, seq) in entry.capsules.clone().enumerate() {
        let offset = twin.manifest().capsule(seq).expect("capsule entry").offset;
        let ((cap, units), _) = tracer.call("object.read_strands", op, Some(parent), || {
            file.seek(SeekFrom::Start(offset)).expect("seek capsule");
            let cap = CapsuleHeader::read_from(&mut file, primer_len).expect("capsule header");
            let units = read_strands(&mut file, cap.units, cols, strand_bases).expect("strands");
            let units: Vec<Vec<DnaString>> = units
                .into_iter()
                .map(|u| {
                    u.into_iter()
                        .filter(|s| strand_has_primers(s, &cap, primer_len))
                        .collect()
                })
                .collect();
            (cap, units)
        });
        let pipeline = ctx
            .base
            .clone()
            .with_primers(cap.left.clone(), cap.right.clone())
            .expect("capsule primers");
        let mut stored = Vec::with_capacity(cap.stored_len as usize);
        for unit in units {
            let (clusters, opts) = if recover {
                let pool = AnonymousPool::from_reads(unit.iter().cloned());
                let ((clusters, report), _) =
                    tracer.call("align.recover", op, Some(parent), || {
                        pipeline.recover_pool(&pool).expect("recover pool")
                    });
                counts.clusters_found += report.clusters_found as u64;
                let orienter = AnchorOrienter::new(cap.left.strand().clone());
                let mut row = Vec::new();
                let oriented: Vec<DnaString> = pool
                    .reads()
                    .iter()
                    .map(|r| orienter.orient_with(r, &mut row).1)
                    .collect();
                tracer.call("align.cluster", op, Some(parent), || {
                    GreedyClusterer::new(threshold).cluster(&oriented)
                });
                let opts =
                    RetrieveOptions::recovered(pipeline.decode_options().forced_erasures.clone());
                (clusters, opts)
            } else {
                let clusters: Vec<Cluster> = ReadPool::from_strands(unit).clusters().to_vec();
                (clusters, pipeline.decode_options().clone())
            };
            let t0 = Instant::now();
            let (payload, report) = pipeline
                .decode_unit_with_workspace(&clusters, &opts, ws)
                .expect("decode unit");
            let (decode_id, _) =
                tracer.record("storage.decode_unit", op, Some(parent), t0, Instant::now());
            let (replayed, reads) =
                replay.run(&pipeline, tracer, op, Some(decode_id), &clusters, &opts, ws);
            if replayed != payload {
                counts.replay_mismatches += 1;
            }
            counts.units += 1;
            counts.consensus_reads += reads as u64;
            counts.rs_corrected += report.total_corrected() as u64;
            counts.rs_failed += report.failed_codewords() as u64;
            stored.extend_from_slice(&payload);
        }
        stored.truncate(cap.stored_len as usize);
        if cap.flags & FLAG_ENCRYPTED != 0 {
            tracer.call("crypto.keystream", op, Some(parent), || {
                let mut cipher = ChaCha20::new(&ctx.key, &object_nonce(id));
                cipher.seek_block(k as u32 * stride);
                cipher.apply_keystream(&mut stored);
            });
        }
        if cap.flags & FLAG_COMPRESSED != 0 {
            let (plain, _) = tracer.call("object.decompress", op, Some(parent), || {
                compress::decompress(&stored, cap.plain_len as usize).expect("decompress")
            });
            stored = plain;
        }
        out.extend_from_slice(&stored);
    }
    out
}

/// Traced replay of one read operation that the wire already served.
#[allow(clippy::too_many_arguments)]
fn trace_read(
    ctx: &TraceCtx,
    name: &str,
    recover: bool,
    expected: &[u8],
    tracer: &mut Tracer,
    op: u64,
    top: usize,
    ws: &mut DecodeWorkspace,
    replay: &mut Replay,
    counts: &mut ReplayCounts,
) {
    let (local, _) = tracer.call("server.local_call", op, Some(top), || {
        ctx.local.fetch(name, recover)
    });
    if local != Response::Ok(expected.to_vec()) {
        counts.replay_mismatches += 1;
    }
    let twin = ctx.twin.read().expect("twin lock");
    let id = twin.object_id(name).expect("twin has the object");
    let mut body = Vec::with_capacity(expected.len());
    let t0 = Instant::now();
    let report = twin
        .fetch_with_workspace(
            id,
            &mut body,
            &FetchOptions {
                via_recovery: recover,
            },
            ws,
        )
        .expect("in-process fetch");
    let (fetch_id, _) = tracer.record("object.fetch", op, Some(top), t0, Instant::now());
    counts.add_fetch(&report);
    let replayed = replay_fetch(
        &twin, ctx, id, recover, tracer, op, fetch_id, ws, replay, counts,
    );
    if body != expected || replayed != expected {
        counts.replay_mismatches += 1;
    }
}

/// Traced replay of one PUT: `put_bytes` on the twin, then its
/// compress, keystream and encode stages.
fn trace_write(ctx: &TraceCtx, name: &str, data: &[u8], tracer: &mut Tracer, op: u64, top: usize) {
    let t0 = Instant::now();
    let id = ctx
        .twin
        .write()
        .expect("twin lock")
        .put_bytes(name, data)
        .expect("in-process put");
    let (put_id, _) = tracer.record("object.put", op, Some(top), t0, Instant::now());
    let (packed, _) = tracer.call("object.compress", op, Some(put_id), || {
        compress::compress(data)
    });
    let mut stored = packed.unwrap_or_else(|| data.to_vec());
    tracer.call("crypto.keystream_write", op, Some(put_id), || {
        ChaCha20::new(&ctx.key, &object_nonce(id)).apply_keystream(&mut stored);
    });
    tracer.call("storage.encode", op, Some(put_id), || {
        ctx.base.encode_chunked(&stored).expect("encode")
    });
}

/// One closed-loop connection running its schedule of `(object, is_put)`
/// steps.
#[allow(clippy::too_many_arguments)]
fn connection(
    c: usize,
    addr: SocketAddr,
    w: &Workload,
    put_seed: u64,
    start: &Barrier,
    ctx: Option<&TraceCtx>,
) -> Conn {
    let (objects, schedule, recover) = (&w.objects, &w.schedules[c], w.recover);
    let mut conn = Conn::default();
    let mut client = WireClient::connect(addr).expect("connect");
    let mut rng = Rng::new(put_seed, 100 + c as u64);
    let mut tracer = ctx.map(|ctx| Tracer::new(ctx.epoch, c));
    let mut ws = DecodeWorkspace::new();
    let mut replay = Replay::default();
    start.wait();
    for (i, step) in schedule.iter().enumerate() {
        let op = (c as u64) << 32 | i as u64;
        match *step {
            Some(o) => {
                let obj = &objects[o];
                let t0 = Instant::now();
                let response = client.call(&fetch_request(&obj.name, recover));
                let t1 = Instant::now();
                let exact = matches!(&response, Ok(Response::Ok(body)) if *body == obj.data);
                if !exact {
                    conn.failed += 1;
                    if matches!(response, Ok(Response::Ok(_))) {
                        conn.mismatched += 1;
                    }
                }
                conn.ops.push(Op {
                    kind: Kind::Read,
                    target: o,
                    ms: ms(t1 - t0),
                    bytes: obj.data.len(),
                    exact,
                });
                if let (Some(ctx), Some(tracer)) = (ctx, tracer.as_mut()) {
                    let name = if recover {
                        "server.tcp_rfetch"
                    } else {
                        "server.tcp_fetch"
                    };
                    let (top, _) = tracer.record(name, op, None, t0, t1);
                    trace_read(
                        ctx,
                        &obj.name,
                        recover,
                        &obj.data,
                        tracer,
                        op,
                        top,
                        &mut ws,
                        &mut replay,
                        &mut conn.counts,
                    );
                }
            }
            None => {
                let name = format!("put-c{c}-{i:05}");
                let zero_runs = !recover && conn.acked.len() % 2 == 1;
                let data = payload(&mut rng, w.put_bytes, zero_runs);
                let request = Request::Put {
                    name: name.clone(),
                    data: data.clone(),
                };
                let t0 = Instant::now();
                let response = client.call(&request);
                let t1 = Instant::now();
                let ok = matches!(response, Ok(Response::Ok(_)));
                if !ok {
                    conn.failed += 1;
                }
                conn.ops.push(Op {
                    kind: Kind::Write,
                    target: i,
                    ms: ms(t1 - t0),
                    bytes: w.put_bytes,
                    exact: ok,
                });
                if let (Some(ctx), Some(tracer)) = (ctx, tracer.as_mut()) {
                    let (top, _) = tracer.record("server.tcp_put", op, None, t0, t1);
                    trace_write(ctx, &name, &data, tracer, op, top);
                }
                if ok {
                    conn.acked.push((name, data));
                }
            }
        }
    }
    client.quit();
    conn.tracer = tracer;
    conn
}

/// Fetches every acknowledged object back once over a fresh connection;
/// returns (attempted, failed, mismatched).
fn fetch_back(addr: SocketAddr, acked: &[(String, Vec<u8>)]) -> (u64, u64, u64) {
    let mut client = WireClient::connect(addr).expect("connect");
    let (mut failed, mut mismatched) = (0, 0);
    for (name, data) in acked {
        match client.call(&fetch_request(name, false)) {
            Ok(Response::Ok(body)) if body == *data => {}
            Ok(Response::Ok(_)) => {
                failed += 1;
                mismatched += 1;
            }
            _ => failed += 1,
        }
    }
    client.quit();
    (acked.len() as u64, failed, mismatched)
}

struct Workload {
    recover: bool,
    connections: usize,
    objects: Vec<Obj>,
    schedules: Vec<Vec<Option<usize>>>,
    put_bytes: usize,
}

/// Each connection's schedule: `cycles` passes over every object, each
/// pass in a fresh seeded order, with `puts` PUTs after every
/// `put_every` fetches (`None` steps). Every object is fetched equally often, so
/// the size mix of the fetches is the same for every seed.
fn schedules(
    seed: u64,
    n_objects: usize,
    connections: usize,
    cycles: usize,
    (put_every, puts): (usize, usize),
) -> Vec<Vec<Option<usize>>> {
    (0..connections)
        .map(|c| {
            let mut rng = Rng::new(seed, 200 + c as u64);
            let mut perm: Vec<usize> = (0..n_objects).collect();
            let mut steps = Vec::new();
            let mut fetched = 0;
            for _ in 0..cycles {
                rng.shuffle(&mut perm);
                for &o in &perm {
                    steps.push(Some(o));
                    fetched += 1;
                    if fetched % put_every == 0 {
                        steps.extend(std::iter::repeat_n(None, puts));
                    }
                }
            }
            steps
        })
        .collect()
}

pub fn run_mixed(config: &Config) -> Outcome {
    let objects = objects(config.seed, "obj", config.scale.objects, MIXED_SIZES, true);
    let fetches = config.seconds * NOMINAL_MIXED_OPS_PER_S * FETCHES_PER_PUT as f64
        / (FETCHES_PER_PUT + 1) as f64;
    let cycles = ((fetches / (CONNECTIONS * objects.len()) as f64).round() as usize).max(1);
    let workload = Workload {
        recover: false,
        connections: CONNECTIONS,
        schedules: schedules(
            config.seed,
            objects.len(),
            CONNECTIONS,
            cycles,
            (FETCHES_PER_PUT, 1),
        ),
        objects,
        put_bytes: PUT_BYTES,
    };
    run(config, &workload)
}

pub fn run_recover(config: &Config) -> Outcome {
    // Random bytes only: a zero-run object compresses to a mostly padded
    // unit that recovers several times faster, which would split the
    // RFETCH latencies into two groups with the median between them.
    let objects = objects(
        config.seed,
        "unit",
        config.scale.recover_objects,
        RECOVER_SIZES,
        false,
    );
    let rfetches = config.seconds * NOMINAL_RFETCH_PER_S;
    let cycles = ((rfetches / objects.len() as f64).round() as usize).max(1);
    let workload = Workload {
        recover: true,
        connections: 1,
        schedules: schedules(config.seed, objects.len(), 1, cycles, (1, RECOVER_PUTS)),
        objects,
        put_bytes: RECOVER_PUT_BYTES,
    };
    run(config, &workload)
}

/// Set-up: a fresh store holding the workload's objects, written
/// in-process, then served on loopback.
fn setup(config: &Config, w: &Workload, rep: usize) -> Running {
    let (store_config, _) = store_config(config.seed);
    let dir = fresh_dir(&config.work_dir.join(format!("store-{rep}")));
    let mut store = ObjectStore::create(&dir, store_config).expect("create store");
    for obj in &w.objects {
        store.put_bytes(&obj.name, &obj.data).expect("set-up put");
    }
    Running::start(store, dir)
}

fn run(config: &Config, w: &Workload) -> Outcome {
    let epoch = Instant::now();
    let (_, key) = store_config(config.seed);
    let mut setup_s = Vec::new();
    let mut running: Option<Running> = None;
    for rep in 0..config.setup_reps {
        // Earlier set-ups' stores stay on disk until the run ends: deleting
        // them here would put the freed blocks in the next set-up's fsyncs.
        if let Some(old) = running.take() {
            old.stop();
        }
        let (r, d) = timed(|| setup(config, w, rep));
        setup_s.push(d.as_secs_f64());
        // Set-up appends tens of MB to the pool without fsync; write them
        // back now, so the kernel's deferred writeback does not land in
        // the next set-up or the timed phase.
        sync_store(&r.dir);
        running = Some(r);
    }
    let running = running.expect("at least one set-up");
    let addr = running.tcp.addr();

    let twin_dir = config.work_dir.join("twin");
    let (twin, base) = if config.trace {
        copy_store(&running.dir, &twin_dir);
        let twin = ObjectStore::open_with_key(&twin_dir, key).expect("open twin");
        let (store_config, _) = store_config(config.seed);
        let base = Pipeline::builder()
            .params(store_config.params)
            .layout(store_config.layout)
            .build()
            .expect("store pipeline");
        (Some(RwLock::new(twin)), Some(base))
    } else {
        (None, None)
    };
    let ctx = match (&twin, &base) {
        (Some(twin), Some(base)) => Some(TraceCtx {
            local: running.server.client(),
            twin,
            base,
            key,
            epoch,
        }),
        _ => None,
    };

    let probe_start = crate::util::host_probe_ms();
    let start = Barrier::new(w.connections + 1);
    let (conns, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.connections)
            .map(|c| {
                let (start, ctx, w) = (&start, ctx.as_ref(), &w);
                s.spawn(move || connection(c, addr, w, config.seed, start, ctx))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let conns: Vec<Conn> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect();
        (conns, t0.elapsed().as_secs_f64())
    });
    let probe_end = crate::util::host_probe_ms();

    // Every acknowledged PUT is read back once the run ends.
    let acked: Vec<(String, Vec<u8>)> = conns.iter().flat_map(|c| c.acked.clone()).collect();
    let (back_attempted, back_failed, back_mismatched) = fetch_back(addr, &acked);
    drop(ctx);
    let dir = running.dir.clone();
    let coalesced = running.stop();
    let (bpb, manifest_share, total_bases, manifest_bases) = bases_per_byte(&dir, key);

    let ops: Vec<Op> = conns.iter().flat_map(|c| c.ops.iter().copied()).collect();
    let reads: Vec<&Op> = ops.iter().filter(|o| o.kind == Kind::Read).collect();
    let writes: Vec<&Op> = ops.iter().filter(|o| o.kind == Kind::Write).collect();
    let read_ms: Vec<f64> = reads.iter().map(|o| o.ms).collect();
    let write_ms: Vec<f64> = writes.iter().map(|o| o.ms).collect();
    let write_bytes: usize = writes.iter().map(|o| o.bytes).sum();
    let read_bytes: usize = reads.iter().map(|o| o.bytes).sum();
    let exact = reads.iter().filter(|o| o.exact).count() as u64;
    let failed = conns.iter().map(|c| c.failed).sum::<u64>() + back_failed;
    let mismatched = conns.iter().map(|c| c.mismatched).sum::<u64>() + back_mismatched;
    let attempted = ops.len() as u64 + back_attempted;
    let tail_q = tail_percentile(read_ms.len());
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_MiB", crate::util::peak_rss_mib(), "MiB"),
        Metric::new("ops_per_s", ops.len() as f64 / wall, "1/s"),
        Metric::new(
            "read_p50_ms",
            median_of_target_means(&reads.iter().map(|o| (o.target, o.ms)).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new("read_tail_ms", percentile(&read_ms, tail_q), "ms"),
        Metric::new(
            "read_MBps",
            read_bytes as f64 / 1e6 / (read_ms.iter().sum::<f64>() / 1e3),
            "MB/s",
        ),
        Metric::new("write_p50_ms", median(&write_ms), "ms"),
        Metric::new(
            "write_MBps",
            write_bytes as f64 / 1e6 / (write_ms.iter().sum::<f64>() / 1e3),
            "MB/s",
        ),
        Metric::new("bases_per_byte", bpb, "bases/B"),
        Metric::new(
            "exact_pct",
            100.0 * exact as f64 / reads.len().max(1) as f64,
            "%",
        ),
    ];

    let mut counts = ReplayCounts::default();
    for c in &conns {
        counts.add(&c.counts);
    }
    let tracers: Vec<Tracer> = conns.into_iter().filter_map(|c| c.tracer).collect();
    let mut layers = Vec::new();
    if config.trace {
        let totals = span_totals_ms(&tracers);
        let n_reads = reads.len().max(1) as f64;
        let n_writes = writes.len().max(1) as f64;
        let units = counts.units.max(1) as f64;
        let r = |k: &str| totals.get(k).copied().unwrap_or(0.0) / n_reads;
        let wr = |k: &str| totals.get(k).copied().unwrap_or(0.0) / n_writes;
        let top = r("server.tcp_fetch") + r("server.tcp_rfetch");
        let leaves = r("object.read_strands")
            + r("align.prefilter")
            + r("consensus.reconstruct")
            + r("storage.decode_residual")
            + r("align.recover")
            + r("crypto.keystream")
            + r("object.decompress");
        let put = wr("object.put");
        layers = vec![
            Metric::new("server.wire_ms", top - r("server.local_call"), "ms"),
            Metric::new(
                "server.queue_ms",
                r("server.local_call") - r("object.fetch"),
                "ms",
            ),
            Metric::new("object.fetch_ms", r("object.fetch"), "ms"),
            Metric::new("object.read_strands_ms", r("object.read_strands"), "ms"),
            Metric::new("storage.decode_unit_ms", r("storage.decode_unit"), "ms"),
            Metric::new("align.prefilter_ms", r("align.prefilter"), "ms"),
            Metric::new("consensus.reconstruct_ms", r("consensus.reconstruct"), "ms"),
            Metric::new(
                "storage.decode_residual_ms",
                r("storage.decode_residual"),
                "ms",
            ),
            Metric::new("align.recover_ms", r("align.recover"), "ms"),
            Metric::new("align.cluster_ms", r("align.cluster"), "ms"),
            Metric::new("crypto.keystream_ms", r("crypto.keystream"), "ms"),
            Metric::new("object.decompress_ms", r("object.decompress"), "ms"),
            Metric::new("object.put_ms", put, "ms"),
            Metric::new("object.compress_ms", wr("object.compress"), "ms"),
            Metric::new("storage.encode_ms", wr("storage.encode"), "ms"),
            Metric::new(
                "object.commit_residual_ms",
                put - wr("object.compress") - wr("crypto.keystream_write") - wr("storage.encode"),
                "ms",
            ),
            Metric::new(
                "consensus.reads",
                counts.consensus_reads as f64 / units,
                "count",
            ),
            Metric::new(
                "reed-solomon.corrected_symbols",
                counts.rs_corrected as f64 / units,
                "count",
            ),
            Metric::new(
                "reed-solomon.failed_codewords",
                counts.rs_failed as f64 / units,
                "count",
            ),
            Metric::new(
                "object.capsules_per_fetch",
                counts.capsules as f64 / n_reads,
                "count",
            ),
            Metric::new(
                "object.units_per_fetch",
                counts.fetch_units as f64 / n_reads,
                "count",
            ),
            Metric::new(
                "object.reads_per_fetch",
                counts.fetch_reads as f64 / n_reads,
                "count",
            ),
            Metric::new(
                "object.prefilter_dropped",
                counts.prefilter_dropped as f64 / n_reads,
                "count",
            ),
            Metric::new(
                "align.clusters_found",
                counts.clusters_found as f64 / units,
                "count",
            ),
            Metric::new("server.coalesced_fetches", coalesced as f64, "count"),
            Metric::new("object.manifest_bases_share", manifest_share, "share"),
            Metric::new(
                "trace.unattributed_pct",
                100.0 * (r("object.fetch") - leaves) / top,
                "%",
            ),
        ];
    }
    let _ = std::fs::remove_dir_all(&twin_dir);

    let mut outcome = Outcome::new(attempted, failed);
    outcome.mismatched = mismatched;
    outcome.metrics = metrics;
    outcome.layers = layers;
    outcome.read_mean_ms = mean(&read_ms);
    outcome.counts = vec![
        ("reads", reads.len() as u64),
        ("writes", writes.len() as u64),
        ("exact_reads", exact),
        ("fetched_back", back_attempted),
        ("failed", failed),
        ("mismatched", mismatched),
        ("total_bases", total_bases),
        ("manifest_bases", manifest_bases),
        ("decoded_units", counts.units),
        ("consensus_reads", counts.consensus_reads),
        ("reed_solomon_corrected_symbols", counts.rs_corrected),
        ("reed_solomon_failed_codewords", counts.rs_failed),
        ("clusters_found", counts.clusters_found),
        ("fetch_capsules", counts.capsules),
        ("fetch_units", counts.fetch_units),
        ("fetch_reads", counts.fetch_reads),
        ("prefilter_dropped", counts.prefilter_dropped),
        ("replay_mismatches", counts.replay_mismatches),
    ];
    outcome.diagnostics = Json::new()
        .int("objects", w.objects.len() as u64)
        .int("connections", w.connections as u64)
        .int("server_workers", WORKERS as u64)
        .int(
            "schedule_ops",
            w.schedules.iter().map(Vec::len).sum::<usize>() as u64,
        )
        .num("read_tail_percentile", tail_q)
        .int("setup_reps", setup_s.len() as u64)
        .int("coalesced_fetches", coalesced)
        .num("host_probe_start_ms", probe_start)
        .num("host_probe_end_ms", probe_end)
        .num("timed_wall_s", wall);
    outcome.tracers = tracers;
    outcome
}
