//! The multi-tenant session server: many named relations, one JSONL
//! stream, one shared FIFO executor.
//!
//! Each **tenant** is a named relation holding its own [`Session`] — the
//! command loop `pfd session` runs, so recovery, append-then-ack and
//! checkpointing exist once — and, in durable mode, its own
//! [`SnapshotStore`](crate::snapshot::SnapshotStore) family:
//! `<root>/<tenant>/state.pfds` plus the `.log`/`.prev`/`.tmp` siblings and
//! the advisory `.pfdi` discovery index (written by `pfd discover
//! --snapshot` against a tenant's file, keyed to the snapshot generation,
//! and invalidated by every checkpoint). Every tenant's commands ride the
//! same [`pfd_runtime::Executor`].
//!
//! ## Protocol
//!
//! The single-tenant JSONL protocol is extended with one routing field and
//! three management ops; everything else is unchanged (the session parser
//! ignores unknown keys, so a tenant-tagged command parses exactly like
//! its solo twin):
//!
//! - every command may carry `"tenant":"name"`; when absent it routes to
//!   the tenant named [`DEFAULT_TENANT`], which is how v1 single-tenant
//!   scripts keep working;
//! - `{"op":"open","tenant":"t",...}` creates the tenant (recovering from
//!   its per-tenant snapshot family in durable mode, cold-building through
//!   the [`TenantLoader`] otherwise); acknowledged by the same `ready`
//!   event a solo session opens with;
//! - `{"op":"close","tenant":"t"}` checkpoints (durable) and drops the
//!   tenant, acknowledged by a `closed` event;
//! - `{"op":"list"}` answers synchronously with a `tenants` event.
//!
//! Every per-tenant event line is the solo session's line with
//! `"tenant":"name","seq":N` injected after the opening brace, where `N`
//! counts that tenant's events from 0. Per-tenant streams are therefore
//! byte-convertible to solo streams — the isolation property suite holds
//! the server to exactly that.
//!
//! ## Scheduling
//!
//! [`Server::submit`] never touches an engine: it routes the line to the
//! tenant's admission queue and, if no drain job is in flight for that
//! tenant, spawns one on the shared executor. A drain job claims the
//! tenant's state and processes queued lines in FIFO order until the
//! queue is empty, so per-tenant ordering is total while distinct tenants
//! proceed in parallel. It stages each command of the batch it claimed
//! and commits them as one run — one WAL sync, then every answer (group
//! commit; see [`Session`]). With [`ServerOptions::coalesce`] on,
//! a drain job merges consecutive queued edit commands into one
//! [`DeltaEngine::apply_batch`] reconciliation and answers them with one
//! combined `delta` event carrying `"coalesced":k` — higher throughput,
//! coarser acks, off by default. A tenant whose state a panicking job
//! poisoned answers every later command with one `error` event; the other
//! tenants never notice.
//!
//! ## Eviction
//!
//! In durable mode with [`ServerOptions::max_resident`] set, once the
//! resident count exceeds the cap the server evicts the least recently
//! used idle tenant: each tenant carries a `last_used` stamp from one
//! server-wide counter, set when it is opened and on every command routed
//! to it. Eviction checkpoints the tenant's session (retiring its WAL) and
//! drops it; the next command reopens the session from the snapshot
//! family. A crash mid-eviction is the same crash the snapshot layer
//! already survives — acknowledged edits are in the WAL until the
//! checkpoint supersedes them, and the recovery ladder replays them.

// A panic in a drain job silences a tenant and one in `submit` the whole
// server, so unwrapping is denied outright (tests opt back in).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::incremental::{DeltaEngine, Edit};
use crate::repair::RepairOptions;
use crate::session::{
    json, parse_command, ready_json, Session, SessionCommand, SessionStore, SessionSummary,
};
use crate::snapshot::{RecoveryPolicy, SnapshotError};
use pfd_relation::io::Io;
use pfd_relation::Relation;
use pfd_runtime::Executor;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Tenant that commands without a `tenant` field route to.
pub const DEFAULT_TENANT: &str = "default";

/// Lock a mutex whose every critical section leaves its data whole, so a
/// panic elsewhere while it was held cannot have torn it. Only tenant
/// *state* is ever left torn, and that lock is never taken through here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a server pushes its event lines. Implementations must tolerate
/// concurrent calls; per-tenant ordering is guaranteed by the caller
/// (events for one tenant are emitted under that tenant's state lock).
pub trait EventSink: Send + Sync {
    /// Deliver one complete event line (no trailing newline).
    fn emit(&self, line: String);
}

/// An [`EventSink`] that collects lines in memory — tests and benches.
#[derive(Default)]
pub struct CollectSink {
    lines: Mutex<Vec<String>>,
}

impl CollectSink {
    /// An empty sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Take every collected line, leaving the sink empty.
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut lock(&self.lines))
    }
}

impl EventSink for CollectSink {
    fn emit(&self, line: String) {
        lock(&self.lines).push(line);
    }
}

/// An [`EventSink`] that forwards lines over an `mpsc` channel — the CLI
/// uses this to stream events to its output writer while reading input.
pub struct ChannelSink {
    tx: std::sync::mpsc::Sender<String>,
}

impl ChannelSink {
    /// Wrap a channel sender.
    pub fn new(tx: std::sync::mpsc::Sender<String>) -> Self {
        ChannelSink { tx }
    }
}

impl EventSink for ChannelSink {
    fn emit(&self, line: String) {
        // A dropped receiver just means nobody is listening anymore.
        let _ = self.tx.send(line);
    }
}

/// Builds the engine for a cold `open` of a tenant. The CLI reads CSV and
/// rule files named in the command; tests resolve from in-memory catalogs.
pub trait TenantLoader: Send + Sync {
    /// Cold-build the engine for `name`. `spec` is the full `open` command
    /// object (so loaders can define their own fields, e.g. `csv`/`rules`).
    fn load(&self, name: &str, spec: &json::Value) -> Result<DeltaEngine, String>;
}

/// A loader that refuses every protocol-initiated open — for servers whose
/// tenants are only opened through [`Server::open_with`].
pub struct NoProtocolOpens;

impl TenantLoader for NoProtocolOpens {
    fn load(&self, name: &str, _spec: &json::Value) -> Result<DeltaEngine, String> {
        Err(format!(
            "tenant {name:?} cannot be cold-built: this server only opens tenants via its API"
        ))
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerOptions {
    /// Executor worker threads; 0 means the machine's parallelism.
    pub workers: usize,
    /// Max tenants kept resident in durable mode; 0 disables eviction.
    /// Ignored (no eviction) without a durable root — an ephemeral tenant
    /// has no snapshot to rebuild from.
    pub max_resident: usize,
    /// Merge consecutive queued edit commands into one `apply_batch` per
    /// drain, answered by one combined `delta` event (`"coalesced":k`).
    /// Off by default: coalescing trades per-command acks for throughput.
    pub coalesce: bool,
    /// Repair options for every tenant's chase.
    pub repair: RepairOptions,
    /// Recovery policy for durable opens and rebuild-on-touch.
    pub recovery: RecoveryPolicy,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 0,
            max_resident: 0,
            coalesce: false,
            repair: RepairOptions::default(),
            recovery: RecoveryPolicy::Strict,
        }
    }
}

/// How one tenant ended when the server shut down.
#[derive(Debug, Clone)]
pub struct TenantExit {
    /// Tenant name.
    pub name: String,
    /// Applied/rejected/violation counts at shutdown.
    pub summary: SessionSummary,
    /// Final relation, when the tenant was resident at shutdown (an
    /// evicted tenant's state lives in its snapshot family instead).
    pub relation: Option<Relation>,
    /// True when a worker job panicked while holding this tenant's state:
    /// the in-memory engine is untrusted, so the final checkpoint was
    /// skipped and `relation` is `None`. A durable tenant recovers every
    /// acknowledged command from its snapshot family on the next open.
    pub failed: bool,
}

struct DurableRoot {
    io: Arc<dyn Io + Send + Sync>,
    root: PathBuf,
}

/// What `submit` queues for a tenant drain job.
enum QueuedItem {
    /// Open, cold-building through the closure (the loader over a
    /// protocol spec, or the one given to [`Server::open_with`]) only
    /// when the tenant has no usable snapshot family.
    Open(ColdBuild),
    /// One raw command line (still to be parsed against the schema).
    Command(String),
    /// Checkpoint, emit `closed`, and forget the tenant.
    Close,
}

type ColdBuild = Box<dyn FnOnce() -> Result<DeltaEngine, String> + Send>;

struct TenantQueue {
    pending: VecDeque<QueuedItem>,
    /// True while a drain job is scheduled or running for this tenant.
    running: bool,
}

struct TenantState {
    /// The live session; `None` when evicted (durable) or never opened.
    session: Option<Session>,
    /// Set once the tenant opened successfully (survives eviction).
    opened: bool,
    /// The counts of the last session dropped by eviction or an I/O
    /// failure, which its rebuild continues.
    parked: SessionSummary,
}

impl TenantState {
    fn summary(&self) -> SessionSummary {
        self.session
            .as_ref()
            .map_or_else(|| self.parked.clone(), Session::summary)
    }
}

struct Tenant {
    name: String,
    /// `{"tenant":"<name>","seq":`, the start of every line tagged for it.
    tag: String,
    queue: Mutex<TenantQueue>,
    state: Mutex<TenantState>,
    /// Events emitted for this tenant so far; the injected `"seq"`.
    seq: AtomicU64,
    /// The server clock when the tenant was last opened or routed a
    /// command; eviction picks the idle tenant with the oldest stamp.
    last_used: AtomicU64,
}

impl Tenant {
    fn new(name: &str) -> Self {
        Tenant {
            name: name.to_string(),
            tag: format!("{{\"tenant\":{},\"seq\":", json::escaped(name)),
            queue: Mutex::new(TenantQueue {
                pending: VecDeque::new(),
                running: false,
            }),
            state: Mutex::new(TenantState {
                session: None,
                opened: false,
                parked: SessionSummary::default(),
            }),
            seq: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
        }
    }
}

struct Shared {
    options: ServerOptions,
    durable: Option<DurableRoot>,
    loader: Arc<dyn TenantLoader>,
    sink: Arc<dyn EventSink>,
    executor: Executor,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    /// Ticks once per tenant open or routed command; the stamps tenants'
    /// `last_used` take.
    clock: AtomicU64,
    /// Tenants with an engine in memory (drives eviction).
    resident: AtomicUsize,
}

// The tenant map's critical sections are single map operations, which a
// panic cannot leave half done; like `lock`, these see through poisoning.
impl Shared {
    fn tenants(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn tenants_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants().get(name).cloned()
    }
}

/// The multi-tenant session server. See the module docs for the protocol.
pub struct Server {
    shared: Arc<Shared>,
}

/// Emits a tenant's solo-session event lines to the sink, each tagged with
/// the tenant's name and its next seq.
struct TenantEmitter<'a> {
    tenant: &'a Tenant,
    sink: &'a dyn EventSink,
}

impl<'a> TenantEmitter<'a> {
    fn new(tenant: &'a Tenant, sink: &'a dyn EventSink) -> Self {
        TenantEmitter { tenant, sink }
    }

    fn emit_line(&self, line: &str) {
        debug_assert!(line.starts_with('{'), "event lines are JSON objects");
        let seq = self.tenant.seq.fetch_add(1, Ordering::Relaxed);
        let tag = &self.tenant.tag;
        // 21: the seq's at most 20 digits and its comma.
        let mut tagged = String::with_capacity(tag.len() + 21 + line.len());
        tagged.push_str(tag);
        let _ = write!(tagged, "{seq},");
        tagged.push_str(&line[1..]);
        self.sink.emit(tagged);
    }

    fn emit_error(&self, message: &str) {
        self.emit_line(&format!(
            "{{\"event\":\"error\",\"message\":{}}}",
            json::escaped(message)
        ));
    }
}

/// `[A-Za-z0-9_-]{1,64}` — no path separators, no dots, so a tenant name
/// can never escape its directory under the durable root.
fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("tenant names must be 1-64 characters".to_string());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err("tenant names may only contain [A-Za-z0-9_-]".to_string());
    }
    Ok(())
}

impl Server {
    /// An ephemeral server: tenants live in memory only, eviction is off.
    pub fn new(
        options: ServerOptions,
        loader: Arc<dyn TenantLoader>,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Server::build(options, None, loader, sink)
    }

    /// A durable server: each tenant persists a snapshot family under
    /// `<root>/<tenant>/`, every applied command is WAL-appended and synced
    /// before it is acknowledged, and cold tenants can be evicted and
    /// rebuilt.
    pub fn durable(
        io: Arc<dyn Io + Send + Sync>,
        root: impl Into<PathBuf>,
        options: ServerOptions,
        loader: Arc<dyn TenantLoader>,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        Server::build(
            options,
            Some(DurableRoot {
                io,
                root: root.into(),
            }),
            loader,
            sink,
        )
    }

    fn build(
        options: ServerOptions,
        durable: Option<DurableRoot>,
        loader: Arc<dyn TenantLoader>,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        let workers = if options.workers == 0 {
            pfd_runtime::default_parallelism()
        } else {
            options.workers
        };
        Server {
            shared: Arc::new(Shared {
                options,
                durable,
                loader,
                sink,
                executor: Executor::new(workers),
                tenants: RwLock::new(BTreeMap::new()),
                clock: AtomicU64::new(0),
                resident: AtomicUsize::new(0),
            }),
        }
    }

    /// Route one input line. Management ops (`open`/`close`/`list`) and
    /// routing errors are handled here; everything else is queued for the
    /// tenant's drain job on the shared executor. Never blocks on engine
    /// work.
    pub fn submit(&self, line: &str) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let value = match json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                self.reject(&e);
                return;
            }
        };
        let tenant = match value.get("tenant") {
            None => DEFAULT_TENANT,
            Some(json::Value::Str(s)) => s.as_str(),
            Some(_) => {
                self.reject("\"tenant\" must be a string");
                return;
            }
        };
        match value.get("op").and_then(json::Value::as_str) {
            Some("open") => {
                let loader = Arc::clone(&self.shared.loader);
                let (name, spec) = (tenant.to_string(), value.clone());
                self.handle_open(tenant, Box::new(move || loader.load(&name, &spec)));
            }
            Some("close") => self.enqueue(tenant, QueuedItem::Close),
            Some("list") => self.handle_list(),
            _ => self.enqueue(tenant, QueuedItem::Command(trimmed.to_string())),
        }
    }

    /// Answer an input line that belongs to no tenant — one the caller
    /// could not read (not UTF-8, or longer than
    /// [`json::MAX_LINE_BYTES`]), or that [`Server::submit`] could not
    /// route — with one untagged `error` event.
    pub fn reject(&self, message: &str) {
        emit_global_error(&self.shared, None, message);
    }

    /// Open a tenant whose engine `cold` builds: the CLI's auto-opened
    /// default tenant reads its CSV and rules there, and a caller holding a
    /// built engine passes `move || Ok(engine)`. In durable mode `cold` is
    /// the last rung of the recovery ladder: it runs on the tenant's drain
    /// job only when no snapshot family for the name is usable, and its
    /// error fails the open like a loader's.
    ///
    /// Errors synchronously on invalid names and duplicate opens; the
    /// `ready` (or `error`) event still flows through the sink like a
    /// protocol open.
    pub fn open_with(
        &self,
        name: &str,
        cold: impl FnOnce() -> Result<DeltaEngine, String> + Send + 'static,
    ) -> Result<(), String> {
        validate_tenant_name(name)?;
        if self.shared.tenant(name).is_some() {
            return Err(format!("tenant {name:?} is already open"));
        }
        self.handle_open(name, Box::new(cold));
        Ok(())
    }

    /// Block until every queued command has been processed, then panic on
    /// any worker-job panic — the test and bench hook, where a panic is a
    /// bug to fail loudly on. Production paths use [`Server::drain_report`]
    /// instead. Call from the owning thread, never from a job.
    pub fn drain(&self) {
        let panics = self.drain_report();
        assert!(
            panics.is_empty(),
            "server worker job panicked: {}",
            panics.join("; ")
        );
    }

    /// Block until every queued command has been processed, surfacing any
    /// worker-job panic as an `error` event instead of panicking the
    /// caller — one misbehaving tenant must not take the whole server
    /// down. Returns the drained panic messages (empty in a healthy run).
    /// Call from the owning thread, never from a job.
    pub fn drain_report(&self) -> Vec<String> {
        self.shared.executor.wait_idle();
        let panics = self.shared.executor.take_panics();
        for p in &panics {
            self.reject(&format!("worker job panicked: {p}"));
        }
        panics
    }

    /// Names of currently open tenants (sorted — the map is a `BTreeMap`).
    pub fn tenant_names(&self) -> Vec<String> {
        self.shared.tenants().keys().cloned().collect()
    }

    /// Tenants with an engine resident in memory.
    pub fn resident_count(&self) -> usize {
        self.shared.resident.load(Ordering::Relaxed)
    }

    /// Always 0: the shared executor is one FIFO queue and no longer
    /// steals. Kept only for the benchmark harness's
    /// `runtime.executor.steals` metric; the next benchmark change removes
    /// this method together with that metric.
    pub fn executor_steals(&self) -> usize {
        0
    }

    /// Clone a tenant's current relation (for tests). `None` when the
    /// tenant is unknown, not resident, or poisoned; call [`Server::drain`]
    /// first for a quiescent answer.
    pub fn relation_of(&self, name: &str) -> Option<Relation> {
        let tenant = self.shared.tenant(name)?;
        let state = tenant.state.lock().ok()?;
        let session = state.session.as_ref()?;
        Some(session.repairer().relation().clone())
    }

    /// Force-evict a tenant now (test hook; normal eviction is LRU-driven
    /// by `max_resident`). Returns `Ok(true)` when an engine was dropped,
    /// `Ok(false)` when the tenant was unknown, idle-less, or already
    /// evicted. Requires a durable root.
    pub fn evict(&self, name: &str) -> Result<bool, SnapshotError> {
        match self.shared.tenant(name) {
            Some(tenant) => evict_tenant(&self.shared, &tenant),
            None => Ok(false),
        }
    }

    /// Drain, close every tenant (final checkpoint in durable mode), and
    /// return per-tenant exits. Consumes the server; the executor joins
    /// on drop. Worker panics are surfaced as error events and as
    /// [`TenantExit::failed`] on the tenants whose state they poisoned —
    /// shutdown itself never panics on a misbehaving job.
    pub fn shutdown(self) -> Vec<TenantExit> {
        self.drain_report();
        let tenants = std::mem::take(&mut *self.shared.tenants_mut());
        let mut exits = Vec::with_capacity(tenants.len());
        for (name, tenant) in tenants {
            let (mut state, failed) = match tenant.state.lock() {
                Ok(guard) => (guard, false),
                // A drain job panicked mid-mutation: the counts are still
                // readable, but the engine is untrusted — checkpointing it
                // could persist a torn state over a good snapshot.
                Err(e) => (e.into_inner(), true),
            };
            let summary = state.summary();
            let mut relation = None;
            if let Some(mut session) = state.session.take().filter(|_| !failed) {
                if let Err(e) = session.checkpoint() {
                    emit_global_error(
                        &self.shared,
                        Some(&name),
                        &format!("shutdown checkpoint failed: {e}"),
                    );
                }
                relation = Some(session.into_repairer().into_relation());
            }
            exits.push(TenantExit {
                name,
                summary,
                relation,
                failed,
            });
        }
        exits
    }

    fn handle_open(&self, name: &str, cold: ColdBuild) {
        if let Err(why) = validate_tenant_name(name) {
            self.reject(&format!(
                "invalid tenant name {}: {why}",
                json::escaped(name)
            ));
            return;
        }
        let tenant = Arc::clone(
            self.shared
                .tenants_mut()
                .entry(name.to_string())
                // A duplicate open is queued too, so its error lands in
                // order with the tenant's other commands.
                .or_insert_with(|| Arc::new(Tenant::new(name))),
        );
        self.enqueue_on(&tenant, QueuedItem::Open(cold));
    }

    fn handle_list(&self) {
        let names = self.tenant_names();
        let mut line = String::from("{\"event\":\"tenants\",\"open\":[");
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&json::escaped(name));
        }
        line.push_str("]}");
        self.shared.sink.emit(line);
    }

    fn enqueue(&self, name: &str, item: QueuedItem) {
        match self.shared.tenant(name) {
            Some(tenant) => self.enqueue_on(&tenant, item),
            None => emit_global_error(
                &self.shared,
                Some(name),
                &format!("unknown tenant {} (open it first)", json::escaped(name)),
            ),
        }
    }

    /// Queue `item` for the tenant, stamping it used, and spawn its drain
    /// job unless one is in flight.
    fn enqueue_on(&self, tenant: &Arc<Tenant>, item: QueuedItem) {
        let now = self.shared.clock.fetch_add(1, Ordering::Relaxed);
        tenant.last_used.store(now, Ordering::Relaxed);
        let spawn = {
            let mut queue = lock(&tenant.queue);
            queue.pending.push_back(item);
            !std::mem::replace(&mut queue.running, true)
        };
        if spawn {
            let shared = Arc::clone(&self.shared);
            let tenant = Arc::clone(tenant);
            self.shared
                .executor
                .spawn(move || drain_tenant(&shared, &tenant));
        }
    }
}

fn emit_global_error(shared: &Shared, tenant: Option<&str>, message: &str) {
    let line = match tenant {
        Some(t) => format!(
            "{{\"event\":\"error\",\"tenant\":{},\"message\":{}}}",
            json::escaped(t),
            json::escaped(message)
        ),
        None => format!(
            "{{\"event\":\"error\",\"message\":{}}}",
            json::escaped(message)
        ),
    };
    shared.sink.emit(line);
}

/// The most answer bytes a tenant's session holds before its drain job
/// commits the run. The bound is checked after each staged command, so
/// one command's answers (a large `repair`, say) are the least a run
/// holds. Peak memory grows with it: on a two-tenant durable serve of
/// 10,000 sets (answers of 0.3 and 11.6 KB), 16, 32 and 64 KiB added
/// 0.30, 0.41 and 0.62 MiB to the peak RSS of 11.45 MiB; at 32 KiB it
/// synced the WAL 733 times instead of 10,006.
const MAX_HELD_BYTES: usize = 32 << 10;

/// A drain job's claimed items, and how many answers its tenant's session
/// holds for staged commands not yet committed. Should the job panic,
/// dropping this answers every unacknowledged item — staged, claimed or
/// still queued — with one `error` event and clears `running`, so the
/// tenant keeps answering instead of going silent behind a dead job.
struct DrainJob<'a> {
    shared: &'a Shared,
    tenant: &'a Tenant,
    claimed: VecDeque<QueuedItem>,
    held: usize,
}

impl Drop for DrainJob<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut queue = lock(&self.tenant.queue);
            let unanswered = self.held + self.claimed.len() + queue.pending.len();
            queue.pending.clear();
            answer_poisoned(self.shared, self.tenant, unanswered);
            queue.running = false;
        }
    }
}

/// Answer `items` queued items of a tenant whose drain job panicked, or
/// whose state a panic poisoned.
fn answer_poisoned(shared: &Shared, tenant: &Tenant, items: usize) {
    let emitter = TenantEmitter::new(tenant, &*shared.sink);
    let message = format!(
        "tenant {} is unavailable: a worker job panicked while serving it",
        json::escaped(&tenant.name)
    );
    for _ in 0..items {
        emitter.emit_error(&message);
    }
}

/// The drain job: claim the tenant's state and process queued items in
/// FIFO order until the queue is empty. Exactly one drain job exists per
/// tenant at a time (`TenantQueue::running`), which is what makes
/// per-tenant processing single-writer while tenants run in parallel.
fn drain_tenant(shared: &Arc<Shared>, tenant: &Arc<Tenant>) {
    let mut job = DrainJob {
        shared,
        tenant,
        claimed: VecDeque::new(),
        held: 0,
    };
    loop {
        {
            let mut queue = lock(&tenant.queue);
            if queue.pending.is_empty() {
                queue.running = false;
                break;
            }
            job.claimed.extend(queue.pending.drain(..));
        }
        match tenant.state.lock() {
            Ok(mut state) => job.process_batch(&mut state),
            Err(_) => answer_poisoned(shared, tenant, job.claimed.drain(..).count()),
        }
        // Between batches (state released): enforce the residency cap.
        maybe_evict(shared);
    }
    maybe_evict(shared);
}

impl DrainJob<'_> {
    /// Process the claimed batch under the tenant state lock. Each command
    /// is staged; the run commits — one WAL sync, then every held answer —
    /// when the batch is used up, before an `open` or `close` item, and
    /// once the held answers reach [`MAX_HELD_BYTES`].
    fn process_batch(&mut self, state: &mut TenantState) {
        let (shared, tenant) = (self.shared, self.tenant);
        let emitter = TenantEmitter::new(tenant, &*shared.sink);
        // Pending coalesced edit run: merged edits + source command count.
        let mut run: (Vec<Edit>, usize) = (Vec::new(), 0);
        while let Some(item) = self.claimed.pop_front() {
            let line = match item {
                QueuedItem::Command(line) => line,
                QueuedItem::Open(cold) => {
                    self.flush_run(state, &emitter, &mut run);
                    self.commit(state, &emitter);
                    handle_open_item(shared, tenant, state, &emitter, cold);
                    continue;
                }
                QueuedItem::Close => {
                    self.flush_run(state, &emitter, &mut run);
                    self.commit(state, &emitter);
                    handle_close_item(shared, tenant, state, &emitter);
                    continue;
                }
            };
            if shared.options.coalesce {
                let Some(session) = resident_session(shared, tenant, state, &emitter) else {
                    continue;
                };
                match parse_command(&line, session.repairer().relation().schema()) {
                    Ok(SessionCommand::Single(edit)) => {
                        run.0.push(edit);
                        run.1 += 1;
                        continue;
                    }
                    Ok(SessionCommand::Batch(edits)) => {
                        run.0.extend(edits);
                        run.1 += 1;
                        continue;
                    }
                    // Repair/check/parse errors flush the run and take the
                    // ordinary per-line path below.
                    _ => self.flush_run(state, &emitter, &mut run),
                }
            }
            if let Some(session) = resident_session(shared, tenant, state, &emitter) {
                let staged = session.stage_line(&line);
                self.after_stage(state, &emitter, staged);
            }
        }
        self.flush_run(state, &emitter, &mut run);
        self.commit(state, &emitter);
    }

    /// Stage a coalesced run of edits as one `apply_batch`, answered by one
    /// combined delta event tagged `"coalesced":k`.
    fn flush_run(
        &mut self,
        state: &mut TenantState,
        emitter: &TenantEmitter<'_>,
        run: &mut (Vec<Edit>, usize),
    ) {
        if run.1 == 0 {
            return;
        }
        let (edits, commands) = std::mem::take(run);
        if let Some(session) = resident_session(self.shared, self.tenant, state, emitter) {
            let staged = session.stage_coalesced(&edits, commands);
            self.after_stage(state, emitter, staged);
        }
    }

    /// Count one staged answer, committing once the hold is full. A failed
    /// append ends the run instead: the commands staged before it commit,
    /// then the failing one gets its `error`.
    fn after_stage(
        &mut self,
        state: &mut TenantState,
        emitter: &TenantEmitter<'_>,
        staged: io::Result<()>,
    ) {
        match staged {
            Ok(()) => {
                self.held += 1;
                let held_bytes = state.session.as_ref().map_or(0, Session::held_bytes);
                if held_bytes >= MAX_HELD_BYTES {
                    self.commit(state, emitter);
                }
            }
            Err(e) => {
                self.commit(state, emitter);
                fail_tenant_io(self.shared, self.tenant, state, emitter, &e, 1);
            }
        }
    }

    /// Commit the session's staged run and emit its answers. A failed sync
    /// acknowledged none of it: each held answer becomes one `error`, and
    /// the session is dropped.
    fn commit(&mut self, state: &mut TenantState, emitter: &TenantEmitter<'_>) {
        if let Some(session) = state.session.as_mut() {
            match session.commit() {
                Ok(answers) => (answers.split_terminator('\n')).for_each(|l| emitter.emit_line(l)),
                Err(e) => fail_tenant_io(self.shared, self.tenant, state, emitter, &e, self.held),
            }
        }
        self.held = 0;
    }
}

/// An I/O failure mid-processing: answer each of `answers` unacknowledged
/// commands with one `error` and, in durable mode, drop the session so the
/// next touch recovers from durable state (every acknowledged command is
/// already in the snapshot family; the failed ones were never acked).
fn fail_tenant_io(
    shared: &Shared,
    tenant: &Tenant,
    state: &mut TenantState,
    emitter: &TenantEmitter<'_>,
    error: &io::Error,
    answers: usize,
) {
    let message = format!("tenant {} i/o failed: {error}", tenant.name);
    for _ in 0..answers {
        emitter.emit_error(&message);
    }
    if shared.durable.is_some() {
        if let Some(session) = state.session.take() {
            state.parked = session.summary();
            shared.resident.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Open a tenant's session: recover its snapshot family in durable mode
/// (cold-building through `cold` when there is none), `cold` otherwise.
/// A `recovered` event is emitted at once, ahead of every other event of
/// the session.
fn open_session(
    shared: &Shared,
    tenant: &Tenant,
    emitter: &TenantEmitter<'_>,
    cold: impl FnOnce() -> Result<DeltaEngine, String>,
) -> Result<Session, String> {
    let store = shared.durable.as_ref().map(|durable| SessionStore {
        io: Arc::clone(&durable.io),
        path: durable.root.join(&tenant.name).join("state.pfds"),
        policy: shared.options.recovery,
    });
    let (session, recovered) =
        Session::open(store, shared.options.repair, cold).map_err(|e| e.to_string())?;
    if let Some(line) = recovered {
        emitter.emit_line(&line);
    }
    Ok(session)
}

/// The tenant's session, reopened from its snapshot family when evicted;
/// `None` (after an `error` event) when the tenant is not open or the
/// rebuild failed.
fn resident_session<'s>(
    shared: &Shared,
    tenant: &Tenant,
    state: &'s mut TenantState,
    emitter: &TenantEmitter<'_>,
) -> Option<&'s mut Session> {
    if !state.opened {
        emitter.emit_error(&format!(
            "tenant {} is not open",
            json::escaped(&tenant.name)
        ));
        return None;
    }
    if state.session.is_none() {
        let evicted = || Err("evicted tenant has no snapshot family".to_string());
        match open_session(shared, tenant, emitter, evicted) {
            Ok(mut session) => {
                session.resume_counts(&state.parked);
                state.session = Some(session);
                shared.resident.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                emitter.emit_error(&format!("rebuild from snapshot failed: {e}"));
                return None;
            }
        }
    }
    state.session.as_mut()
}

/// Open (or reject a duplicate open of) a tenant, under its state lock.
fn handle_open_item(
    shared: &Shared,
    tenant: &Tenant,
    state: &mut TenantState,
    emitter: &TenantEmitter<'_>,
    cold: ColdBuild,
) {
    if state.opened {
        emitter.emit_error(&format!(
            "tenant {} is already open",
            json::escaped(&tenant.name)
        ));
        return;
    }
    let dir = shared.durable.as_ref().map(|durable| {
        durable
            .io
            .create_dir_all(&durable.root.join(&tenant.name))
            .map_err(|e| format!("create tenant dir: {e}"))
    });
    match dir
        .unwrap_or(Ok(()))
        .and_then(|()| open_session(shared, tenant, emitter, cold))
    {
        Ok(session) => {
            emitter.emit_line(&ready_json(session.repairer()));
            state.session = Some(session);
            state.opened = true;
            shared.resident.fetch_add(1, Ordering::Relaxed);
        }
        Err(message) => {
            emitter.emit_error(&format!("open failed: {message}"));
            forget_tenant(shared, tenant);
        }
    }
}

/// Close a tenant: final checkpoint (durable), `closed` event, forget.
fn handle_close_item(
    shared: &Shared,
    tenant: &Tenant,
    state: &mut TenantState,
    emitter: &TenantEmitter<'_>,
) {
    if !state.opened {
        emitter.emit_error(&format!(
            "tenant {} is not open",
            json::escaped(&tenant.name)
        ));
        return;
    }
    if let Some(session) = state.session.as_mut() {
        if let Err(e) = session.checkpoint() {
            emitter.emit_error(&format!("close checkpoint failed: {e}"));
            return;
        }
    }
    let summary = state.summary();
    if state.session.take().is_some() {
        shared.resident.fetch_sub(1, Ordering::Relaxed);
    }
    state.opened = false;
    emitter.emit_line(&format!(
        "{{\"event\":\"closed\",\"applied\":{},\"rejected\":{},\"violations\":{}}}",
        summary.applied, summary.rejected, summary.violations
    ));
    forget_tenant(shared, tenant);
}

/// Remove a tenant from the registry (failed open, close).
fn forget_tenant(shared: &Shared, tenant: &Tenant) {
    shared.tenants_mut().remove(&tenant.name);
}

/// Whether a tenant can be evicted now: no drain job scheduled, nothing
/// queued, and an engine resident. `try_lock`, so a busy tenant is just
/// skipped.
fn idle_and_resident(tenant: &Tenant) -> bool {
    let Ok(queue) = tenant.queue.try_lock() else {
        return false;
    };
    if queue.running || !queue.pending.is_empty() {
        return false;
    }
    (tenant.state.try_lock()).is_ok_and(|state| state.session.is_some())
}

/// While the resident count exceeds the cap, checkpoint-and-drop the idle
/// tenant used least recently. No-op without a durable root or with the
/// cap off.
fn maybe_evict(shared: &Shared) {
    let max = shared.options.max_resident;
    if shared.durable.is_none() || max == 0 {
        return;
    }
    while shared.resident.load(Ordering::Relaxed) > max {
        let candidate = (shared.tenants().values())
            .filter(|tenant| idle_and_resident(tenant))
            .min_by_key(|tenant| tenant.last_used.load(Ordering::Relaxed))
            .cloned();
        let Some(tenant) = candidate else { return };
        match evict_tenant(shared, &tenant) {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => {
                emit_global_error(
                    shared,
                    Some(&tenant.name),
                    &format!("eviction checkpoint failed: {e}"),
                );
                return;
            }
        }
    }
}

/// Checkpoint a tenant's session and drop it. Returns whether a session
/// was actually evicted. On checkpoint failure the session stays resident
/// — acknowledged state is still covered by snapshot + WAL — and a
/// poisoned tenant is never checkpointed.
fn evict_tenant(shared: &Shared, tenant: &Tenant) -> Result<bool, SnapshotError> {
    if shared.durable.is_none() {
        return Ok(false);
    }
    let Ok(mut state) = tenant.state.lock() else {
        return Ok(false);
    };
    let Some(session) = state.session.as_mut() else {
        return Ok(false);
    };
    session.checkpoint()?;
    // The parked counts must reflect the state being parked: an evicted
    // tenant that is never touched again reports them in its exit.
    state.parked = session.summary();
    state.session = None;
    shared.resident.fetch_sub(1, Ordering::Relaxed);
    Ok(true)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::pfd::Pfd;
    use crate::snapshot::SnapshotStore;
    use crate::tableau::TableauRow;
    use pfd_relation::MemIo;
    use std::io::BufRead as _;

    fn name_relation() -> Relation {
        Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["John Charles", "M"],
                vec!["John Bosco", "M"],
                vec!["Susan Orlean", "F"],
                vec!["Susan Boyle", "M"], // dirty
            ],
        )
        .unwrap()
    }

    fn gender_pfd(rel: &Relation) -> Pfd {
        let mut pfd =
            Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")
                .unwrap();
        pfd.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
            .unwrap();
        pfd
    }

    fn engine() -> DeltaEngine {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        DeltaEngine::new(rel, pfds)
    }

    fn ephemeral_server(sink: Arc<CollectSink>) -> Server {
        Server::new(
            ServerOptions {
                workers: 2,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink,
        )
    }

    /// The per-tenant slice of a sink dump, untagged back to solo lines.
    fn untag(lines: &[String], tenant: &str) -> Vec<String> {
        let prefix = format!("{{\"tenant\":{},\"seq\":", json::escaped(tenant));
        let mut out = Vec::new();
        for (expect_seq, line) in lines.iter().filter(|l| l.starts_with(&prefix)).enumerate() {
            let rest = &line[prefix.len()..];
            let (seq, rest) = rest.split_once(',').expect("seq then payload");
            assert_eq!(
                seq.parse::<u64>().unwrap(),
                expect_seq as u64,
                "per-tenant seq numbers are dense from 0"
            );
            out.push(format!("{{{rest}"));
        }
        out
    }

    #[test]
    fn tagged_stream_matches_solo_session() {
        let script = [
            r#"{"op":"set","row":3,"attr":"gender","value":"F"}"#,
            r#"{"op":"check"}"#,
            r#"{"op":"set","row":0,"attr":"gender","value":"nope"}"#,
            r#"{"op":"repair"}"#,
        ];

        // Solo reference: the single-tenant session over the same script.
        let mut solo = Vec::new();
        let input = std::io::Cursor::new(script.join("\n"));
        crate::session::run_session_with(
            crate::repair::RepairEngine::from_engine(engine(), RepairOptions::default()),
            input,
            &mut solo,
        )
        .unwrap();
        let solo: Vec<String> = solo.lines().map(Result::unwrap).collect();

        // Server: same script routed to one tenant (tagged and implicit).
        for tenant_field in ["", r#""tenant":"t1","#] {
            let sink = Arc::new(CollectSink::new());
            let server = ephemeral_server(sink.clone());
            let name = if tenant_field.is_empty() {
                DEFAULT_TENANT
            } else {
                "t1"
            };
            server.open_with(name, || Ok(engine())).unwrap();
            for cmd in &script {
                server.submit(&format!("{{{tenant_field}{}", &cmd[1..]));
            }
            server.drain();
            assert_eq!(untag(&sink.take(), name), solo);
            let exits = server.shutdown();
            assert_eq!(exits.len(), 1);
            assert_eq!(exits[0].summary.applied, 4);
        }
    }

    #[test]
    fn routing_and_name_errors() {
        let sink = Arc::new(CollectSink::new());
        let server = ephemeral_server(sink.clone());
        server.submit(r#"{"op":"check","tenant":"ghost"}"#);
        server.submit(r#"{"op":"check","tenant":42}"#);
        server.submit(r#"{"op":"open","tenant":"../evil"}"#);
        server.submit("not json");
        // Lines nested past the parser's depth cap: one error each, and the
        // server keeps answering.
        server.submit(&"[".repeat(200_000));
        server.submit(&format!(
            r#"{{"op":"check","x":{}{}}}"#,
            "[".repeat(10_000),
            "]".repeat(10_000)
        ));
        server.submit(r#"{"op":"list"}"#);
        server.drain();
        let lines = sink.take();
        assert_eq!(lines.len(), 7, "{lines:?}");
        assert!(
            lines[0].contains("unknown tenant \\\"ghost\\\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("must be a string"), "{}", lines[1]);
        assert!(lines[2].contains("invalid tenant name"), "{}", lines[2]);
        assert!(lines[3].contains("error"), "{}", lines[3]);
        for line in &lines[4..6] {
            assert!(
                line.starts_with(r#"{"event":"error","message":"JSON nested deeper than 64"#),
                "{line}"
            );
        }
        assert_eq!(lines[6], r#"{"event":"tenants","open":[]}"#);
        assert!(server.tenant_names().is_empty());
    }

    #[test]
    fn list_close_and_duplicate_open() {
        let sink = Arc::new(CollectSink::new());
        let server = ephemeral_server(sink.clone());
        server.open_with("a", || Ok(engine())).unwrap();
        server.open_with("b", || Ok(engine())).unwrap();
        assert!(server.open_with("a", || Ok(engine())).is_err());
        server.drain();
        server.submit(r#"{"op":"list"}"#);
        server.submit(r#"{"op":"close","tenant":"a"}"#);
        server.submit(r#"{"op":"check","tenant":"a"}"#); // races close; drain first
        server.drain();
        let lines = sink.take();
        assert!(lines
            .iter()
            .any(|l| l == r#"{"event":"tenants","open":["a","b"]}"#));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"closed\"") && l.contains("\"tenant\":\"a\"")));
        // After close, the check either reached the queue before the close
        // (not here: submit order is FIFO per tenant) or errors.
        assert!(lines
            .iter()
            .any(|l| l.contains("is not open") || l.contains("unknown tenant")));
        assert_eq!(server.tenant_names(), ["b"]);
    }

    #[test]
    fn coalescing_merges_consecutive_edits() {
        let sink = Arc::new(CollectSink::new());
        let server = Server::new(
            ServerOptions {
                workers: 1,
                coalesce: true,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain(); // ready flushed; now queue edits while no job runs

        // Park the lone worker so all three commands are queued before the
        // drain job runs — otherwise it could legally answer them one at a
        // time and never coalesce.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#);
        server.submit(r#"{"op":"set","row":2,"attr":"gender","value":"F","tenant":"t"}"#);
        server.submit(r#"{"op":"check","tenant":"t"}"#);
        release.send(()).unwrap();
        server.drain();
        let lines = sink.take();
        // Both sets answered by one delta bearing the coalesced count...
        let coalesced: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"coalesced\":2"))
            .collect();
        assert_eq!(coalesced.len(), 1, "{lines:?}");
        // ...and the final state is the same fixpoint.
        let rel = server.relation_of("t").unwrap();
        assert_eq!(rel.row(3).get(1), "F");
        let exits = server.shutdown();
        assert_eq!(exits[0].summary.applied, 3);
        assert_eq!(exits[0].summary.violations, 0);
    }

    #[test]
    fn durable_eviction_round_trip() {
        let io: Arc<dyn Io + Send + Sync> = Arc::new(MemIo::new());
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io.clone(),
            "/srv",
            ServerOptions {
                workers: 2,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#);
        server.drain();
        assert_eq!(server.resident_count(), 1);

        // Evict: state parks in /srv/t, engine dropped.
        assert!(server.evict("t").unwrap());
        assert_eq!(server.resident_count(), 0);
        assert!(server.relation_of("t").is_none());

        // Touch: rebuilt from the snapshot family, edits survived.
        server.submit(r#"{"op":"set","row":0,"attr":"gender","value":"M","tenant":"t"}"#);
        server.drain();
        assert_eq!(server.resident_count(), 1);
        let rel = server.relation_of("t").unwrap();
        assert_eq!(rel.row(3).get(1), "F");
        server.shutdown();

        // A fresh server over the same root recovers the tenant cold-free.
        let sink2 = Arc::new(CollectSink::new());
        let server2 = Server::durable(
            io,
            "/srv",
            ServerOptions::default(),
            Arc::new(NoProtocolOpens),
            sink2.clone(),
        );
        server2.submit(r#"{"op":"open","tenant":"t"}"#);
        server2.drain();
        let rel = server2.relation_of("t").unwrap();
        assert_eq!(rel.row(3).get(1), "F");
    }

    /// An [`Io`] wrapper that fails exactly one chosen `append` call
    /// (nothing lands) and works normally before and after — the
    /// transient-fault twin of `FailpointIo`, which stays dead once its
    /// fuel runs out.
    struct FlakyAppendIo {
        inner: MemIo,
        fail_on: u64,
        calls: AtomicU64,
    }

    impl FlakyAppendIo {
        fn new(inner: MemIo, fail_on: u64) -> Self {
            FlakyAppendIo {
                inner,
                fail_on,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Io for FlakyAppendIo {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, data)
        }
        fn append(&self, path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_on {
                return Err(std::io::Error::other("injected transient append failure"));
            }
            self.inner.append(path, data)
        }
        fn truncate(&self, path: &std::path::Path, len: u64) -> std::io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
            self.inner.sync(path)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &std::path::Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn exists(&self, path: &std::path::Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// Regression: a transient WAL append failure mid-batch drops the
    /// engine, and the next command in the same batch recovers — whose
    /// checkpoint retires the log file. The batch-local writer must not
    /// survive that rebuild: appending through it would recreate the log
    /// without its header and silently orphan every later acked command.
    #[test]
    fn transient_wal_failure_mid_batch_keeps_later_acks_durable() {
        let disk = MemIo::new();
        // Appends are only WAL record frames (headers and checkpoints go
        // through `write`/`rename`), so append #2 is the second command.
        let io: Arc<dyn Io + Send + Sync> = Arc::new(FlakyAppendIo::new(disk.clone(), 2));
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                recovery: RecoveryPolicy::Salvage,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();

        // Park the lone worker so all four commands land in one batch —
        // the stale-writer window only exists within a single drain job.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#); // acked
        server.submit(r#"{"op":"set","row":2,"attr":"gender","value":"M","tenant":"t"}"#); // append fails
        server.submit(r#"{"op":"set","row":1,"attr":"gender","value":"F","tenant":"t"}"#); // post-recovery
        server.submit(r#"{"op":"set","row":0,"attr":"gender","value":"F","tenant":"t"}"#); // post-recovery
        release.send(()).unwrap();
        server.drain();

        let lines = sink.take();
        let acked = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"delta\""))
            .count();
        assert_eq!(acked, 3, "commands 1, 3, 4 are acked; 2 failed: {lines:?}");
        assert!(lines.iter().any(|l| l.contains("i/o failed")), "{lines:?}");

        // Crash (no shutdown checkpoint): recovery from the surviving
        // family must restore every acknowledged command.
        drop(server);
        let store = SnapshotStore::new(&disk, "/srv/t/state.pfds");
        let recovered = store
            .recover(RecoveryPolicy::Salvage, || {
                Err::<DeltaEngine, String>("no cold source".to_string())
            })
            .unwrap();
        let rel = recovered.engine.relation();
        assert_eq!(rel.row(3).get(1), "F", "command 1 survives");
        assert_eq!(rel.row(2).get(1), "F", "command 2 was never acked");
        assert_eq!(rel.row(1).get(1), "F", "command 3 survives the rebuild");
        assert_eq!(rel.row(0).get(1), "F", "command 4 survives the rebuild");
    }

    /// Regression: a coalesced run whose WAL append fails was never
    /// acknowledged, so it must not be counted as applied.
    #[test]
    fn failed_batch_append_is_not_counted_applied() {
        let disk = MemIo::new();
        let io: Arc<dyn Io + Send + Sync> = Arc::new(FlakyAppendIo::new(disk, 1));
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                coalesce: true,
                recovery: RecoveryPolicy::Salvage,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#);
        server.submit(r#"{"op":"set","row":2,"attr":"gender","value":"F","tenant":"t"}"#);
        release.send(()).unwrap();
        server.drain();
        let lines = sink.take();
        assert!(
            !lines.iter().any(|l| l.contains("\"coalesced\"")),
            "the failed run must not be acked: {lines:?}"
        );
        let exits = server.shutdown();
        assert_eq!(exits[0].summary.applied, 0, "unacked run is not applied");
    }

    /// The sync twin of [`FlakyAppendIo`]: the chosen `sync` calls of a WAL
    /// file (counting only `.log` paths) fail, or panic, and every other
    /// call works. A fresh log's header is synced by the first run's own
    /// sync, so that sync is call 1.
    struct FlakySyncIo {
        inner: MemIo,
        fail_on: &'static [u64],
        panics: bool,
        calls: AtomicU64,
    }

    impl FlakySyncIo {
        fn new(inner: MemIo, fail_on: &'static [u64], panics: bool) -> Self {
            FlakySyncIo {
                inner,
                fail_on,
                panics,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Io for FlakySyncIo {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, data)
        }
        fn append(&self, path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.append(path, data)
        }
        fn truncate(&self, path: &std::path::Path, len: u64) -> std::io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
            let log = path.extension().is_some_and(|ext| ext == "log");
            let call = || self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if log && self.fail_on.contains(&call()) {
                assert!(!self.panics, "injected WAL sync panic");
                return Err(std::io::Error::other("injected WAL sync failure"));
            }
            self.inner.sync(path)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &std::path::Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn exists(&self, path: &std::path::Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// A run whose one sync fails acknowledged nothing: each staged command
    /// gets exactly one `error`, none counts as applied, the next command
    /// rebuilds the tenant, and recovery holds every acknowledged command.
    #[test]
    fn failed_run_sync_answers_each_staged_command_once() {
        let disk = MemIo::new();
        let io: Arc<dyn Io + Send + Sync> = Arc::new(FlakySyncIo::new(disk.clone(), &[1], false));
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                recovery: RecoveryPolicy::Salvage,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();
        // Park the lone worker so the three commands share one run.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#);
        server.submit(r#"{"op":"set","row":2,"attr":"gender","value":"M","tenant":"t"}"#);
        server.submit(r#"{"op":"check","tenant":"t"}"#);
        release.send(()).unwrap();
        server.drain();
        let mut lines = sink.take();
        let events = untag(&lines, "t");
        assert_eq!(events.len(), 4, "ready + one answer each: {events:?}");
        for event in &events[1..] {
            assert!(
                event.starts_with(r#"{"event":"error","message":"tenant t i/o failed"#),
                "{event}"
            );
        }

        // The next command rebuilds the tenant from its family. The failed
        // run's records reached the log unsynced, so they may replay.
        server.submit(r#"{"op":"set","row":0,"attr":"gender","value":"F","tenant":"t"}"#);
        server.drain();
        lines.extend(sink.take());
        let events = untag(&lines, "t");
        assert_eq!(events.len(), 6, "{events:?}");
        assert!(
            events[4].starts_with(r#"{"event":"recovered""#),
            "{events:?}"
        );
        assert!(events[5].starts_with(r#"{"event":"delta""#), "{events:?}");

        // Crash now: salvage recovery holds the acknowledged edit.
        let crashed = MemIo::new();
        for path in disk.paths() {
            crashed.write(&path, &disk.read(&path).unwrap()).unwrap();
        }
        let recovered = SnapshotStore::new(&crashed, "/srv/t/state.pfds")
            .recover(RecoveryPolicy::Salvage, || {
                Err::<DeltaEngine, String>("no cold source".to_string())
            })
            .unwrap();
        assert_eq!(recovered.engine.relation().row(0).get(1), "F");

        let exits = server.shutdown();
        assert_eq!(
            exits[0].summary.applied, 1,
            "only the edit after the rebuild was acknowledged"
        );
    }

    /// A rebuild's `recovered` event is emitted as soon as the tenant
    /// reopens, ahead of the run that follows: when that run's sync fails
    /// as well, the stream still reads `recovered`, then one `error` per
    /// staged command.
    #[test]
    fn recovered_precedes_a_failed_run_after_a_rebuild() {
        let io: Arc<dyn Io + Send + Sync> =
            Arc::new(FlakySyncIo::new(MemIo::new(), &[1, 2], false));
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                recovery: RecoveryPolicy::Salvage,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();
        // Two runs of two commands each, the lone worker parked so each
        // pair shares one run. The first run's records reach the log
        // unsynced, so the second run's rebuild replays them.
        for rows in [[3, 2], [1, 0]] {
            let (release, parked) = std::sync::mpsc::channel::<()>();
            server.shared.executor.spawn(move || parked.recv().unwrap());
            for row in rows {
                server.submit(&format!(
                    r#"{{"op":"set","row":{row},"attr":"gender","value":"F","tenant":"t"}}"#
                ));
            }
            release.send(()).unwrap();
            server.drain();
        }
        let events = untag(&sink.take(), "t");
        let kinds: Vec<&str> = (events.iter())
            .map(|e| e.split('"').nth(3).unwrap())
            .collect();
        assert_eq!(
            kinds,
            ["ready", "error", "error", "recovered", "error", "error"],
            "{events:?}"
        );
        assert!(
            events[3].contains(r#""log_records_applied":2"#),
            "{}",
            events[3]
        );
        assert_eq!(server.shutdown()[0].summary.applied, 0);
    }

    /// A sync that panics leaves every staged command unacknowledged: the
    /// dying drain job answers them, and the claimed commands it had not
    /// reached, with one `error` each. The held answers pass the bound
    /// mid-batch here, so the run commits with commands still claimed.
    #[test]
    fn panicking_run_sync_answers_staged_and_claimed_commands() {
        let io: Arc<dyn Io + Send + Sync> = Arc::new(FlakySyncIo::new(MemIo::new(), &[1], true));
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        server.open_with("t", || Ok(engine())).unwrap();
        server.drain();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"t"}"#);
        let check = r#"{"op":"check","tenant":"t"}"#;
        let state_bytes = {
            let mut solo = Vec::new();
            let script = std::io::Cursor::new(check);
            let repairer =
                crate::repair::RepairEngine::from_engine(engine(), RepairOptions::default());
            crate::session::run_session_with(repairer, script, &mut solo).unwrap();
            solo.len() / 2
        };
        let checks = 2 * MAX_HELD_BYTES / state_bytes;
        for _ in 0..checks {
            server.submit(check);
        }
        release.send(()).unwrap();
        assert_eq!(server.drain_report().len(), 1);
        server.submit(check);
        server.drain();
        let events = untag(&sink.take(), "t");
        assert_eq!(
            events.len(),
            1 + 1 + checks + 1,
            "ready, then one answer per command"
        );
        assert!(
            events[1..]
                .iter()
                .all(|e| e.contains("is unavailable: a worker job panicked")),
            "{:?}",
            &events[..3]
        );
        assert!(server.shutdown()[0].failed);
    }

    /// Regression: eviction refreshes the violation summary, so a tenant
    /// repaired clean and then evicted (never touched again) exits clean.
    #[test]
    fn eviction_refreshes_the_violation_summary() {
        let io: Arc<dyn Io + Send + Sync> = Arc::new(MemIo::new());
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        // Dirty at open (Susan Boyle is M): violations == 1 in the summary.
        server.open_with("t", || Ok(engine())).unwrap();
        server.submit(r#"{"op":"repair","tenant":"t"}"#);
        server.drain();
        assert!(server.evict("t").unwrap());
        let exits = server.shutdown();
        assert_eq!(
            exits[0].summary.violations, 0,
            "repaired-then-evicted tenant exits clean"
        );
        assert!(!exits[0].failed);
    }

    /// A worker-job panic must fail only the tenant whose state it
    /// poisoned; shutdown reports it instead of crashing the process.
    #[test]
    fn worker_panic_fails_one_tenant_without_crashing_shutdown() {
        let sink = Arc::new(CollectSink::new());
        let server = ephemeral_server(sink.clone());
        server.open_with("ok", || Ok(engine())).unwrap();
        server.open_with("sad", || Ok(engine())).unwrap();
        server.drain();
        let sad = server
            .shared
            .tenants
            .read()
            .unwrap()
            .get("sad")
            .cloned()
            .unwrap();
        server.shared.executor.spawn(move || {
            let _guard = sad.state.lock().expect("not poisoned yet");
            panic!("injected drain-job panic");
        });
        assert_eq!(server.drain_report().len(), 1);
        // The poisoned tenant answers each command with one error; the
        // healthy one keeps serving.
        server.submit(r#"{"op":"check","tenant":"sad"}"#);
        server.submit(r#"{"op":"set","row":3,"attr":"gender","value":"F","tenant":"sad"}"#);
        server.submit(r#"{"op":"check","tenant":"ok"}"#);
        let exits = server.shutdown();
        let lines = sink.take();
        assert!(
            lines.iter().any(|l| l.contains("worker job panicked")),
            "the panic is surfaced as an error event: {lines:?}"
        );
        let sad_events = untag(&lines, "sad");
        assert_eq!(
            sad_events.len(),
            3,
            "ready + one answer per command: {lines:?}"
        );
        for event in &sad_events[1..] {
            assert!(
                event.starts_with(r#"{"event":"error","message":"tenant \"sad\" is unavailable"#),
                "{event}"
            );
        }
        let ok_events = untag(&lines, "ok");
        assert!(
            ok_events.len() == 2 && ok_events[1].starts_with(r#"{"event":"state""#),
            "{lines:?}"
        );
        let sad_exit = exits.iter().find(|e| e.name == "sad").unwrap();
        assert!(sad_exit.failed, "poisoned tenant is reported failed");
        assert!(sad_exit.relation.is_none(), "untrusted state is withheld");
        let ok_exit = exits.iter().find(|e| e.name == "ok").unwrap();
        assert!(!ok_exit.failed);
        assert!(ok_exit.relation.is_some(), "healthy tenant is unaffected");
    }

    /// A loader that panics: the drain job running the open dies mid-batch.
    struct PanickingLoader;

    impl TenantLoader for PanickingLoader {
        fn load(&self, _name: &str, _spec: &json::Value) -> Result<DeltaEngine, String> {
            panic!("injected loader panic")
        }
    }

    /// A drain job that panics mid-batch answers the commands it had not
    /// reached and clears `running`, so later commands are answered too.
    #[test]
    fn drain_job_panic_answers_the_rest_of_its_batch() {
        let sink = Arc::new(CollectSink::new());
        let server = Server::new(
            ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
            Arc::new(PanickingLoader),
            sink.clone(),
        );
        // Park the lone worker so the open and the check share one batch.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        server.shared.executor.spawn(move || parked.recv().unwrap());
        server.submit(r#"{"op":"open","tenant":"boom"}"#);
        server.submit(r#"{"op":"check","tenant":"boom"}"#);
        release.send(()).unwrap();
        assert_eq!(server.drain_report().len(), 1);
        server.submit(r#"{"op":"check","tenant":"boom"}"#);
        server.drain();
        let errors = untag(&sink.take(), "boom");
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors.iter().all(|e| e.contains("is unavailable")),
            "{errors:?}"
        );
        let exits = server.shutdown();
        assert!(exits[0].failed);
    }

    /// Eviction picks the least recently touched idle tenant: a rebuild
    /// evicts the tenant opened before the one a command touched since.
    #[test]
    fn eviction_picks_the_least_recently_touched_tenant() {
        let io: Arc<dyn Io + Send + Sync> = Arc::new(MemIo::new());
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                max_resident: 2,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        let resident = |server: &Server| -> Vec<&str> {
            (["a", "b", "c"].into_iter())
                .filter(|name| server.relation_of(name).is_some())
                .collect()
        };
        for name in ["a", "b", "c"] {
            server.open_with(name, || Ok(engine())).unwrap();
            server.drain();
        }
        assert_eq!(resident(&server), ["b", "c"], "opening c evicts a");
        for name in ["b", "a"] {
            server.submit(&format!(r#"{{"op":"check","tenant":"{name}"}}"#));
            server.drain();
        }
        assert_eq!(
            resident(&server),
            ["a", "b"],
            "rebuilding a evicts c, touched before b"
        );
        let states = (sink.take().iter())
            .filter(|l| l.contains(r#""event":"state""#))
            .count();
        assert_eq!(states, 2);
    }

    #[test]
    fn max_resident_evicts_cold_tenants() {
        let io: Arc<dyn Io + Send + Sync> = Arc::new(MemIo::new());
        let sink = Arc::new(CollectSink::new());
        let server = Server::durable(
            io,
            "/srv",
            ServerOptions {
                workers: 1,
                max_resident: 2,
                ..ServerOptions::default()
            },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        for name in ["a", "b", "c", "d"] {
            server.open_with(name, || Ok(engine())).unwrap();
            server.drain();
        }
        server.drain();
        assert!(
            server.resident_count() <= 2,
            "LRU keeps at most max_resident engines in memory, saw {}",
            server.resident_count()
        );
        assert_eq!(server.tenant_names(), ["a", "b", "c", "d"]);
        // Every tenant still answers (evicted ones rebuild on touch).
        for name in ["a", "b", "c", "d"] {
            server.submit(&format!("{{\"op\":\"check\",\"tenant\":\"{name}\"}}"));
        }
        server.drain();
        let states = sink
            .take()
            .iter()
            .filter(|l| l.contains("\"event\":\"state\""))
            .count();
        assert_eq!(states, 4);
    }
}
