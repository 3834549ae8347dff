//! The discrete-event engine: hosts, routes, and the event loop.

use std::cell::OnceCell;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use tspu_obs::{Histogram, MetricValue, Snapshot, Tracer};
use tspu_wire::fasthash::{FxHashMap, FxHasher};
use tspu_wire::icmpv4::Icmpv4Repr;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

use crate::app::{Application, Output};
use crate::capture::{Capture, TracePoint};
use crate::middlebox::{Direction, Middlebox, MiddleboxId, MiddleboxImage, Verdict};
use crate::time::Time;
use crate::queue::EventQueue;

/// Index of a host registered with a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// One step of a directed route: a router hop followed by the middleboxes
/// sitting on the link *after* that hop.
///
/// TTL semantics follow traceroute: a packet sent with TTL `k` expires at
/// the `k`-th router, so it reaches the devices after router `k` only with
/// TTL ≥ `k + 1`. This matches the paper's "TSPU device exists between hop
/// N and N+1" reporting (§7.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteStep {
    /// The router's address, used as the source of ICMP time-exceeded.
    pub hop_addr: Ipv4Addr,
    /// Middleboxes on the link after this router, each with the traffic
    /// direction this route represents from the device's point of view.
    pub devices: Vec<(MiddleboxId, Direction)>,
}

impl RouteStep {
    /// A plain router hop with no devices.
    pub fn router(hop_addr: Ipv4Addr) -> RouteStep {
        RouteStep { hop_addr, devices: Vec::new() }
    }

    /// A router hop with one device on its outgoing link.
    pub fn with_device(hop_addr: Ipv4Addr, device: MiddleboxId, direction: Direction) -> RouteStep {
        RouteStep { hop_addr, devices: vec![(device, direction)] }
    }
}

/// A directed path between two hosts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Route {
    pub steps: Vec<RouteStep>,
}

/// Index of an interned [`Route`] in a [`Network`]'s route arena.
///
/// Routes are deduplicated on installation: every (src, dst) pair whose
/// path is structurally identical — common in topologies where a cluster
/// of clients shares one provider path — maps to the same arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId(u32);

/// One step of an interned route as the arena stores it: the router's
/// address and its run of the arena's device array.
#[derive(Clone, Copy)]
struct ArenaStep {
    hop_addr: Ipv4Addr,
    first_device: u32,
    device_count: u32,
}

impl ArenaStep {
    fn device_range(self) -> std::ops::Range<usize> {
        self.first_device as usize..(self.first_device + self.device_count) as usize
    }
}

/// Every interned route, stored flat: a `(first step, step count)` span per
/// route over one step array, whose steps hold spans of one device array.
/// A route costs its 12-byte steps and its devices, with no allocation of
/// its own.
#[derive(Clone, Default)]
struct RouteArena {
    spans: Vec<(u32, u32)>,
    steps: Vec<ArenaStep>,
    devices: Vec<(MiddleboxId, Direction)>,
    /// Route hash → id. A route whose hash is already taken by an unequal
    /// route takes the next free key, so a lookup probes on from its hash
    /// until it meets an equal route or a free key.
    intern: FxHashMap<u64, RouteId>,
}

impl RouteArena {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn steps(&self, rid: RouteId) -> &[ArenaStep] {
        let (first, count) = self.spans[rid.0 as usize];
        &self.steps[first as usize..(first + count) as usize]
    }

    /// The route `rid` as the value it was installed as.
    fn route(&self, rid: RouteId) -> Route {
        let steps = self.steps(rid).iter().map(|step| RouteStep {
            hop_addr: step.hop_addr,
            devices: self.devices[step.device_range()].to_vec(),
        });
        Route { steps: steps.collect() }
    }

    fn holds(&self, rid: RouteId, route: &Route) -> bool {
        let steps = self.steps(rid);
        steps.len() == route.steps.len()
            && steps.iter().zip(&route.steps).all(|(stored, step)| {
                stored.hop_addr == step.hop_addr && self.devices[stored.device_range()] == step.devices[..]
            })
    }

    /// The id of the route equal to `route`, probing from `key`, or the
    /// first free key on the way.
    fn find(&self, mut key: u64, route: &Route) -> Result<RouteId, u64> {
        while let Some(&rid) = self.intern.get(&key) {
            if self.holds(rid, route) {
                return Ok(rid);
            }
            key = key.wrapping_add(1);
        }
        Err(key)
    }

    /// Appends `route` under the free key `key`.
    ///
    /// # Panics
    /// Panics once the routes, steps or devices outgrow `u32` indices.
    fn push(&mut self, key: u64, route: &Route) -> RouteId {
        let first = self.steps.len();
        let devices = route.steps.iter().map(|step| step.devices.len()).sum::<usize>();
        assert!(
            self.spans.len() < u32::MAX as usize
                && first + route.steps.len() <= u32::MAX as usize
                && self.devices.len() + devices <= u32::MAX as usize,
            "route arena overflow"
        );
        for step in &route.steps {
            self.steps.push(ArenaStep {
                hop_addr: step.hop_addr,
                first_device: self.devices.len() as u32,
                device_count: step.devices.len() as u32,
            });
            self.devices.extend_from_slice(&step.devices);
        }
        let rid = RouteId(self.spans.len() as u32);
        self.spans.push((first as u32, route.steps.len() as u32));
        self.intern.insert(key, rid);
        rid
    }
}

/// A typed, copyable reference to a middlebox owned by a [`Network`].
///
/// The network owns middleboxes as `Box<dyn Middlebox>`; experiments that
/// reconfigure a device mid-run (the March 4 policy switch from throttling
/// to RST, §5.2) or inspect its counters afterwards keep one of these and
/// borrow the concrete device back through [`Network::middlebox`] /
/// [`Network::middlebox_mut`]. This replaces the old `Rc<RefCell<…>>`
/// `Shared<M>` wrapper, which made the whole simulator `!Send`.
pub struct MiddleboxHandle<M> {
    id: MiddleboxId,
    _concrete: PhantomData<fn() -> M>,
}

impl<M> Clone for MiddleboxHandle<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for MiddleboxHandle<M> {}

impl<M> std::fmt::Debug for MiddleboxHandle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MiddleboxHandle({})", self.id.0)
    }
}

impl<M> MiddleboxHandle<M> {
    /// The untyped id, for route attachments.
    pub fn id(self) -> MiddleboxId {
        self.id
    }
}

impl Route {
    /// A direct path with no intermediate routers.
    pub fn direct() -> Route {
        Route { steps: Vec::new() }
    }

    /// A path through the given plain router hops.
    pub fn through(hops: &[Ipv4Addr]) -> Route {
        Route { steps: hops.iter().map(|&a| RouteStep::router(a)).collect() }
    }
}

struct HostState {
    addr: Ipv4Addr,
    sink: Sink,
}

/// Where a host's deliveries go: one sink, never both.
enum Sink {
    /// Deliveries kept for [`Network::take_inbox`], at a host without an
    /// application.
    Inbox(Vec<(Time, Vec<u8>)>),
    App(Box<dyn Application>),
}

/// A host pair as the route table keys it. [`Network::add_host`] keeps
/// every host index below `u32::MAX`, so the narrowing is exact.
fn pair(src: HostId, dst: HostId) -> (u32, u32) {
    (src.0 as u32, dst.0 as u32)
}

#[derive(Debug)]
enum EventKind {
    /// A packet bound for `dst` arriving at step `step` of route `rid`:
    /// a hop with devices, or the hop where its TTL runs out
    /// ([`Network::schedule_walk`] covers the hops in between). The id is
    /// the route the packet was sent on, so a reroute never moves a packet
    /// already in flight.
    Hop { dst: HostId, rid: RouteId, step: usize, packet: Vec<u8> },
    /// Final delivery to a host interface.
    Deliver { dst: HostId, packet: Vec<u8> },
    /// A host transmission (possibly delayed by an application).
    SendFrom { host: HostId, packet: Vec<u8> },
    /// An application timer.
    Timer { host: HostId },
    /// A scheduled routing-table flip: at its instant, the (src, dst)
    /// entry starts resolving to `rid`. Packets already in flight keep the
    /// route id their hop events carry — mirroring how a BGP path change
    /// affects new traffic, not packets already past the decision point.
    Reroute { src: HostId, dst: HostId, rid: RouteId },
}

/// The deterministic simulator. See the crate docs for the model.
///
/// The topology half — address map, route table, route arena —
/// lives behind [`Arc`]s so [`Network::image`]/[`NetworkImage::fork`] can
/// share it across forked copies without rebuilding it. Mutation goes
/// through [`Arc::make_mut`], so a network that never forks (or a fork
/// that re-routes after forking) behaves exactly as before, paying one
/// copy-on-write clone of the touched table.
pub struct Network {
    now: Time,
    /// Pending events, popped in `(time, seq)` order.
    queue: EventQueue<EventKind>,
    /// Events popped from the queue and dispatched so far.
    events_popped: u64,
    hosts: Vec<HostState>,
    /// Address → host index.
    addr_map: Arc<FxHashMap<Ipv4Addr, u32>>,
    /// `(src, dst)` host indices → the route installed between them.
    routes: Arc<FxHashMap<(u32, u32), RouteId>>,
    route_arena: Arc<RouteArena>,
    /// One slot per middlebox id. [`Network::add_middlebox`] fills its slot
    /// at once; a fork starts with every slot empty and
    /// [`Network::slot`] fills one from `middlebox_images` the first time
    /// anything touches it, so a cell builds (and later drops) only the
    /// devices its packets cross. A device's pristine state is a pure
    /// function of its image, so one filled late is identical to one that
    /// would have been filled at fork time.
    middleboxes: Vec<OnceCell<Box<dyn Middlebox>>>,
    /// What empty slots are filled from: the image this network was forked
    /// from, shared with its siblings. Empty on a network built by hand,
    /// whose slots are never empty.
    middlebox_images: Arc<[Box<dyn MiddleboxImage>]>,
    hop_latency: Duration,
    capture_enabled: bool,
    captures: Capture,
    /// Capture records written so far (the log itself can be drained).
    captures_recorded: u64,
    /// High-water pending-event count, taken at every push.
    queue_depth_max: usize,
    /// Route flips applied ([`Network::schedule_reroute`]) — the churn
    /// rate the tomography campaigns read back.
    route_flips: u64,
    /// Pending-event count sampled every 64th event; allocated at the first
    /// sample, so a short cell never pays for it. Observational only: no
    /// result reads it, the export does.
    queue_depth: Option<Histogram>,
    /// `hop` / `deliver` spans, recorded only while
    /// [`Network::set_tracing`] has switched it on.
    tracer: Tracer,
    /// The packets at one hop's device chain, each with its queueing
    /// delay so far: empty between events, kept so a hop reuses its
    /// capacity instead of allocating.
    train: Vec<(Vec<u8>, Duration)>,
}

/// Records and packet bytes a capture log starts with. A
/// `DifferentialCampaign` cell (TLS, HTTP and DNS volleys through one
/// audited device, seed-2022 domains) captures 87.9 records and ~9.3 KiB
/// on average, at most 88 records and 9,958 bytes, so its log never grows.
const CELL_CAPTURE_RECORDS: usize = 88;
const CELL_CAPTURE_BYTES: usize = 10 * 1024;

impl Network {
    /// Creates a network with the given per-hop latency.
    ///
    /// # Panics
    /// Panics unless the latency is a positive whole number of
    /// microseconds: [`Time`] counts whole µs, and a send must land
    /// strictly after the instant it leaves, which is what lets a send run
    /// inline ([`Network::send_from`]).
    pub fn new(hop_latency: Duration) -> Network {
        assert!(
            !hop_latency.is_zero() && hop_latency.subsec_nanos().is_multiple_of(1_000),
            "hop latency must be a positive whole number of microseconds, got {hop_latency:?}"
        );
        Network {
            now: Time::ZERO,
            queue: EventQueue::new(),
            events_popped: 0,
            hosts: Vec::new(),
            addr_map: Arc::default(),
            routes: Arc::default(),
            route_arena: Arc::default(),
            middleboxes: Vec::new(),
            middlebox_images: Arc::new([]),
            hop_latency,
            capture_enabled: false,
            captures: Capture::new(),
            captures_recorded: 0,
            queue_depth_max: 0,
            route_flips: 0,
            queue_depth: None,
            tracer: Tracer::new(),
            train: Vec::new(),
        }
    }

    /// Creates a network with a 1 ms per-hop latency.
    pub fn with_default_latency() -> Network {
        Network::new(Duration::from_millis(1))
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed so far (throughput benches, per-event
    /// latency math). An event is processed as it is popped, so this is
    /// also the exported `netsim.events_popped` gauge.
    pub fn events_processed(&self) -> u64 {
        self.events_popped
    }

    /// Events currently scheduled — the instantaneous queue depth.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The most events ever pending at once.
    pub fn queue_depth_max(&self) -> usize {
        self.queue_depth_max
    }

    /// Route flips applied so far, scheduled or immediate.
    pub fn route_flips(&self) -> u64 {
        self.route_flips
    }

    /// Enables or disables virtual-time span tracing: a `hop` span at each
    /// device hop and TTL death, a `deliver` span at each delivery. Off by
    /// default so the event loop pays only a branch.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Exports the engine's counts under `netsim.*` (no spans) as a
    /// [`Snapshot`]. `events_popped` is a last-value gauge: merging forked
    /// cells in index order keeps the final cell's count, matching how the
    /// accessor reads after a run. Gauges at 0 are omitted.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.insert("netsim.events_processed", MetricValue::Counter(self.events_popped));
        snap.insert("netsim.captures_recorded", MetricValue::Counter(self.captures_recorded));
        snap.insert("netsim.route_flips", MetricValue::Counter(self.route_flips));
        if self.events_popped != 0 {
            snap.insert("netsim.events_popped", MetricValue::GaugeLast(self.events_popped as i64));
        }
        if self.queue_depth_max != 0 {
            snap.insert("netsim.queue_depth_max", MetricValue::Gauge(self.queue_depth_max as i64));
        }
        if let Some(depths) = &self.queue_depth {
            snap.insert("netsim.queue_depth", MetricValue::Hist(depths.clone()));
        }
        snap
    }

    /// [`Network::obs_snapshot`] with the recorded spans drained into it.
    pub fn take_obs(&mut self) -> Snapshot {
        let mut snap = self.obs_snapshot();
        self.tracer.drain_into(&mut snap);
        snap
    }

    /// Enables or disables packet capture. Off until asked for: a capture
    /// appends every packet at every trace point to one log (its bytes to
    /// one buffer, a fixed-size record beside them), so only the consumers
    /// that replay one (the oracle audit, pcap export, differential tests)
    /// switch it on. Packets take the same path either way. Switching it on
    /// with an unallocated log reserves one audited cell's worth
    /// (`CELL_CAPTURE_RECORDS`, `CELL_CAPTURE_BYTES`), so such a cell
    /// captures in two allocations.
    pub fn set_capture(&mut self, enabled: bool) {
        self.capture_enabled = enabled;
        if enabled && self.captures.capacity() == (0, 0) {
            self.captures.reserve(CELL_CAPTURE_RECORDS, CELL_CAPTURE_BYTES);
        }
    }

    /// Registers a host with the given address.
    ///
    /// # Panics
    /// Panics if the address is already registered, or at the
    /// `u32::MAX`-th host.
    pub fn add_host(&mut self, addr: Ipv4Addr) -> HostId {
        self.add_host_with_sink(addr, Sink::Inbox(Vec::new()))
    }

    /// Registers a host with an application attached.
    pub fn add_host_with_app(&mut self, addr: Ipv4Addr, app: Box<dyn Application>) -> HostId {
        self.add_host_with_sink(addr, Sink::App(app))
    }

    fn add_host_with_sink(&mut self, addr: Ipv4Addr, sink: Sink) -> HostId {
        assert!(self.hosts.len() < u32::MAX as usize, "host table overflow");
        let id = self.hosts.len() as u32;
        let prev = Arc::make_mut(&mut self.addr_map).insert(addr, id);
        assert!(prev.is_none(), "duplicate host address {addr}");
        self.hosts.push(HostState { addr, sink });
        HostId(id as usize)
    }

    /// Attaches (or replaces) the application on a host. Its sink becomes
    /// the application: an inbox it had is dropped.
    pub fn set_app(&mut self, host: HostId, app: Box<dyn Application>) {
        self.hosts[host.0].sink = Sink::App(app);
    }

    /// Looks a host up by address.
    pub fn host_by_addr(&self, addr: Ipv4Addr) -> Option<HostId> {
        self.addr_map.get(&addr).map(|&id| HostId(id as usize))
    }

    /// Registers a middlebox, returning its id for route attachments.
    pub fn add_middlebox(&mut self, mb: Box<dyn Middlebox>) -> MiddleboxId {
        let id = MiddleboxId(self.middleboxes.len());
        self.middleboxes.push(OnceCell::from(mb));
        id
    }

    /// The middlebox in slot `id`, instantiated from the fork's image if
    /// nothing has touched it yet — the one place a slot is filled, behind
    /// every read, write, packet and [`Network::image`].
    fn slot(&self, id: MiddleboxId) -> &dyn Middlebox {
        &**self.middleboxes[id.0].get_or_init(|| self.middlebox_images[id.0].instantiate())
    }

    /// [`Network::slot`], mutably.
    fn slot_mut(&mut self, id: MiddleboxId) -> &mut dyn Middlebox {
        self.slot(id);
        // `slot` fills the cell or finds it full, so it holds a middlebox.
        &mut **self.middleboxes[id.0].get_mut().expect("slot filled just above")
    }

    /// How many middleboxes this network has instantiated so far: all of
    /// them when built by hand, only the touched ones in a fork.
    pub fn middleboxes_built(&self) -> usize {
        self.middleboxes.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Whether slot `id` holds its middlebox yet, without filling it.
    /// An empty slot's middlebox is pristine: it has seen no packet, moved
    /// no counter and recorded no span.
    pub fn middlebox_built(&self, id: MiddleboxId) -> bool {
        self.middleboxes[id.0].get().is_some()
    }

    /// Registers a concrete middlebox, returning a typed handle that can
    /// borrow it back after the network takes ownership. Use
    /// [`MiddleboxHandle::id`] for route attachments.
    pub fn install_middlebox<M: Middlebox + 'static>(&mut self, mb: M) -> MiddleboxHandle<M> {
        let id = self.add_middlebox(Box::new(mb));
        MiddleboxHandle { id, _concrete: PhantomData }
    }

    /// Borrows a middlebox at its concrete type.
    ///
    /// # Panics
    /// Panics if the handle came from a different network whose slot holds
    /// another type — handles are only meaningful for the network that
    /// created them.
    pub fn middlebox<M: Middlebox + 'static>(&self, handle: MiddleboxHandle<M>) -> &M {
        // This network's `install_middlebox::<M>` minted the handle for a slot holding an `M`.
        self.slot(handle.id).as_any().downcast_ref::<M>().expect("middlebox handle type mismatch")
    }

    /// Mutably borrows a middlebox at its concrete type.
    ///
    /// # Panics
    /// Panics on handle/slot type mismatch, as in [`Network::middlebox`].
    pub fn middlebox_mut<M: Middlebox + 'static>(&mut self, handle: MiddleboxHandle<M>) -> &mut M {
        // As in `middlebox`: the handle's type is the type its slot was filled with.
        self.slot_mut(handle.id).as_any_mut().downcast_mut::<M>().expect("middlebox handle type mismatch")
    }

    /// Runs a closure with mutable access to a middlebox — the explicit
    /// mid-run reconfiguration API.
    pub fn with_middlebox_mut<M: Middlebox + 'static, R>(
        &mut self,
        handle: MiddleboxHandle<M>,
        f: impl FnOnce(&mut M) -> R,
    ) -> R {
        f(self.middlebox_mut(handle))
    }

    /// Interns a route, returning the arena slot shared by all
    /// structurally identical routes. Re-interning a route already in the
    /// arena — the common case under routing churn, where paths flip back
    /// and forth between a small set of alternatives — returns the
    /// existing slot without growing the arena.
    ///
    /// Public so topology builders can pre-intern alternate paths (e.g. a
    /// backup provider route) and later install them by id via
    /// [`Network::schedule_reroute`]; ids obtained before
    /// [`Network::image`] stay valid in every fork, since forks share the
    /// arena.
    pub fn intern_route(&mut self, route: Route) -> RouteId {
        let mut hasher = FxHasher::default();
        route.hash(&mut hasher);
        self.intern_keyed(hasher.finish(), &route)
    }

    /// [`Network::intern_route`] under a given hash: the arena is copied
    /// (when shared) only to add a route it does not hold.
    fn intern_keyed(&mut self, key: u64, route: &Route) -> RouteId {
        match self.route_arena.find(key, route) {
            Ok(rid) => rid,
            Err(free) => Arc::make_mut(&mut self.route_arena).push(free, route),
        }
    }

    /// Number of distinct routes in the arena (after interning).
    pub fn interned_routes(&self) -> usize {
        self.route_arena.len()
    }

    /// Installs the directed route from `src` to `dst`.
    pub fn set_route(&mut self, src: HostId, dst: HostId, route: Route) {
        let rid = self.intern_route(route);
        self.set_route_id(src, dst, rid);
    }

    /// Points the directed (src, dst) entry at an interned route:
    /// [`Network::set_route`] for a builder that installs one path between
    /// many pairs and interns it once.
    pub fn set_route_id(&mut self, src: HostId, dst: HostId, rid: RouteId) {
        Arc::make_mut(&mut self.routes).insert(pair(src, dst), rid);
    }

    /// Installs the same (mirrored) route in both directions: the reverse
    /// direction visits hops in reverse order with flipped device
    /// directions. Use [`Network::set_route`] twice for asymmetric paths.
    pub fn set_route_symmetric(&mut self, a: HostId, b: HostId, route: Route) {
        let mut reverse = Route { steps: route.steps.clone() };
        reverse.steps.reverse();
        for step in &mut reverse.steps {
            for (_, dir) in &mut step.devices {
                *dir = dir.flip();
            }
        }
        let forward = self.intern_route(route);
        let backward = self.intern_route(reverse);
        self.set_route_id(a, b, forward);
        self.set_route_id(b, a, backward);
    }

    /// The route from `src` to `dst`, if installed, read back out of the
    /// arena.
    pub fn route(&self, src: HostId, dst: HostId) -> Option<Route> {
        self.routes.get(&pair(src, dst)).map(|&rid| self.route_arena.route(rid))
    }

    /// Queues a packet for transmission from `host` at the current time.
    /// The destination is taken from the packet's IPv4 destination field.
    pub fn send_from(&mut self, host: HostId, packet: Vec<u8>) {
        // When nothing is pending at the current instant the send event
        // would be dispatched next anyway, so run it inline and skip the
        // queue round-trip. Any queued event at `now` (an earlier
        // same-instant send) must keep its seq-order priority, so that case
        // still queues.
        let head_later = match self.queue.peek_time() {
            None => true,
            Some(head_time) => head_time > self.now,
        };
        if head_later {
            self.do_send(host, packet);
            return;
        }
        self.push_event(self.now, EventKind::SendFrom { host, packet });
    }

    /// Schedules `on_timer` on `host`'s application after `delay` of
    /// virtual time — the bootstrap for self-driving applications (e.g. a
    /// policy updater firing registry deltas at scheduled timestamps)
    /// that otherwise only wake on their own requested timers.
    pub fn arm_timer(&mut self, host: HostId, delay: Duration) {
        self.push_event(self.now + delay, EventKind::Timer { host });
    }

    /// Schedules a routing-table flip: after `delay` of virtual time the
    /// directed (src, dst) entry resolves to `rid` — an interned route id
    /// from [`Network::intern_route`]. This is the churn primitive: a
    /// topology arms a whole flip schedule up front (like
    /// `PolicyUpdater`'s timer-driven deltas) and the event loop applies
    /// each flip at its exact instant, deterministically. The flip is a
    /// single map insert against the copy-on-write route table, so a
    /// forked network churns without touching its siblings.
    pub fn schedule_reroute(&mut self, delay: Duration, src: HostId, dst: HostId, rid: RouteId) {
        assert!(
            (rid.0 as usize) < self.route_arena.len(),
            "schedule_reroute: route id {} not in arena (len {})",
            rid.0,
            self.route_arena.len()
        );
        self.push_event(self.now + delay, EventKind::Reroute { src, dst, rid });
    }

    /// Immediately repoints the directed (src, dst) entry at an interned
    /// route — the synchronous form of [`Network::schedule_reroute`].
    pub fn apply_reroute(&mut self, src: HostId, dst: HostId, rid: RouteId) {
        assert!(
            (rid.0 as usize) < self.route_arena.len(),
            "apply_reroute: route id {} not in arena (len {})",
            rid.0,
            self.route_arena.len()
        );
        self.set_route_id(src, dst, rid);
        self.route_flips += 1;
    }

    /// Drains the packets delivered to `host` so far. Only a host without
    /// an [`Application`] has any: a packet delivered to a host with one
    /// goes to the application alone.
    pub fn take_inbox(&mut self, host: HostId) -> Vec<(Time, Vec<u8>)> {
        match &mut self.hosts[host.0].sink {
            Sink::Inbox(inbox) => std::mem::take(inbox),
            Sink::App(_) => Vec::new(),
        }
    }

    /// The capture log accumulated so far.
    pub fn captures(&self) -> &Capture {
        &self.captures
    }

    /// Drains the capture log.
    pub fn take_captures(&mut self) -> Capture {
        std::mem::take(&mut self.captures)
    }

    /// Runs until no events remain. Panics after an absurd number of
    /// events (a ping-pong loop between applications).
    pub fn run_until_idle(&mut self) {
        let mut budget: u64 = 100_000_000;
        while let Some((time, kind)) = self.queue.pop() {
            self.now = time;
            self.dispatch(kind);
            budget -= 1;
            assert!(budget > 0, "event budget exhausted: likely an application loop");
        }
    }

    /// Runs all events scheduled within the next `duration` of virtual
    /// time, then advances the clock to exactly `now + duration`.
    ///
    /// This is the time warp the timeout-inference experiments (§5.3.3)
    /// rely on: "SLEEP 480" costs nothing.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now + duration;
        while self.queue.peek_time().is_some_and(|head| head <= deadline) {
            let Some((time, kind)) = self.queue.pop() else { break };
            self.now = time;
            self.dispatch(kind);
        }
        self.now = deadline;
    }

    fn push_event(&mut self, time: Time, kind: EventKind) {
        self.queue.push(time, kind);
        self.queue_depth_max = self.queue_depth_max.max(self.queue.len());
    }

    fn capture(&mut self, point: TracePoint, bytes: &[u8]) {
        if self.capture_enabled {
            self.captures_recorded += 1;
            self.captures.push(self.now, point, bytes);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.events_popped += 1;
        // Queue depth is sampled 1-in-64 on the event count: the
        // statistics keep their shape while the histogram update leaves the
        // per-event hot path (the depth high-water mark is exact:
        // `push_event` takes it where depth rises). Event-count sampling is
        // deterministic — no thread-count leak.
        if self.events_popped & 63 == 0 {
            self.queue_depth.get_or_insert_with(Histogram::new).record(self.queue.len() as u64);
        }
        // Spans use virtual time, which does not advance inside a handler,
        // so hop/deliver spans are instants marking where simulated time
        // was spent — byte-identical across thread counts by construction.
        let now_us = self.now.as_micros();
        match kind {
            EventKind::SendFrom { host, packet } => self.do_send(host, packet),
            EventKind::Hop { dst, rid, step, packet } => {
                self.tracer.span("hop", "netsim", now_us, now_us);
                self.do_hop(dst, rid, step, packet);
            }
            EventKind::Deliver { dst, packet } => {
                self.tracer.span("deliver", "netsim", now_us, now_us);
                self.do_deliver(dst, packet);
            }
            EventKind::Timer { host } => self.do_timer(host),
            EventKind::Reroute { src, dst, rid } => self.apply_reroute(src, dst, rid),
        }
    }

    fn do_send(&mut self, host: HostId, packet: Vec<u8>) {
        self.capture(TracePoint::HostTx(host), &packet);
        let Ok(view) = Ipv4Packet::new_checked(&packet[..]) else {
            // Unparseable garbage: dropped at the NIC. Still recorded, so
            // scan post-mortems can distinguish "never sent" from "sent
            // and eaten on the path".
            self.capture(TracePoint::Dropped { step: 0 }, &packet);
            return;
        };
        let dst_addr = view.dst_addr();
        let Some(dst) = self.host_by_addr(dst_addr) else {
            self.capture(TracePoint::Dropped { step: 0 }, &packet);
            return;
        };
        let time = self.now + self.hop_latency;
        match self.routes.get(&pair(host, dst)) {
            Some(&rid) => self.schedule_walk(dst, rid, 0, time, packet),
            // No installed route: direct delivery, one hop of latency later.
            None => self.push_event(time, EventKind::Deliver { dst, packet }),
        }
    }

    /// The packet reaches step `step` of route `rid`, which has devices or
    /// is where its TTL runs out: the router decrements the TTL or kills
    /// the packet, then the step's devices run, then
    /// [`Network::schedule_walk`] takes every packet they forward on to
    /// the next step.
    fn do_hop(&mut self, dst: HostId, rid: RouteId, step: usize, mut packet: Vec<u8>) {
        // Router: decrement TTL; expire with ICMP time-exceeded. The walk
        // stops at the hop a packet dies on, so this is the one place a
        // packet dies of its TTL.
        {
            let Ok(mut view) = Ipv4Packet::new_checked(&mut packet[..]) else {
                self.capture(TracePoint::Dropped { step }, &packet);
                return;
            };
            let ttl = view.ttl();
            if ttl <= 1 {
                let orig_src = view.src_addr();
                self.capture(TracePoint::Dropped { step }, &packet);
                let hop_addr = self.route_arena.steps(rid)[step].hop_addr;
                self.emit_time_exceeded(hop_addr, orig_src, step);
                return;
            }
            view.rewrite_ttl(ttl - 1);
        }

        // Middleboxes on this link, chained in order and device-major: each
        // device sees the whole train — one packet, or a fragment train a
        // device flushed — before the next device runs, so captures come
        // out device by device. The train lives in a buffer kept on the
        // network, so a hop allocates nothing, and a verdict edits it in
        // place: a forwarded packet keeps its slot (rewritten in place or
        // replaced when a device says so), and only a drop or a fan-out
        // moves the packets behind it. The arena's device array is
        // re-indexed per device so no `&self` borrow is live across
        // `process`. Device-level trace points bracket each call: an
        // ingress record for the packet as the device saw it, an egress
        // record per packet it forwarded. Extra queueing delay from Delay
        // verdicts rides along with each packet.
        let now = self.now;
        let devices = self.route_arena.steps(rid)[step].device_range();
        let mut train = std::mem::take(&mut self.train);
        train.push((packet, Duration::ZERO));
        for di in devices {
            let (mb_id, direction) = self.route_arena.devices[di];
            // The packets before `i` have passed this device.
            let mut i = 0;
            while i < train.len() {
                let (pkt, delay) = &mut train[i];
                self.capture(TracePoint::DeviceIngress { device: mb_id, step }, pkt);
                match self.slot_mut(mb_id).process(now, direction, pkt) {
                    Verdict::Pass => {}
                    Verdict::Replace(replacement) => *pkt = replacement,
                    Verdict::Delay(extra) => *delay += extra,
                    Verdict::Fanout(packets) if !packets.is_empty() => {
                        let delay = *delay;
                        for out in &packets {
                            self.capture(TracePoint::DeviceEgress { device: mb_id, step }, out);
                        }
                        let n = packets.len();
                        train.splice(i..=i, packets.into_iter().map(|out| (out, delay)));
                        i += n;
                        continue;
                    }
                    Verdict::Drop | Verdict::Fanout(_) => {
                        self.capture(TracePoint::Dropped { step }, pkt);
                        train.remove(i);
                        continue;
                    }
                }
                self.capture(TracePoint::DeviceEgress { device: mb_id, step }, &train[i].0);
                i += 1;
            }
        }
        for (pkt, delay) in train.drain(..) {
            self.schedule_walk(dst, rid, step + 1, now + self.hop_latency + delay, pkt);
        }
        self.train = train;
    }

    /// The one hop scheduler: the packet reaches route step `step` at
    /// `time`. Walks the run of device-free steps the packet survives —
    /// each one pure bookkeeping, a TTL decrement at a known instant — and
    /// pushes the single event that ends the run: a [`Network::do_hop`]
    /// at the first step with devices or at the step where the TTL runs
    /// out, or final delivery.
    fn schedule_walk(&mut self, dst: HostId, rid: RouteId, step: usize, mut time: Time, mut packet: Vec<u8>) {
        let steps = self.route_arena.steps(rid);
        let total = steps.len();
        // An unparseable packet walks nowhere: `do_hop` drops it.
        let ttl = Ipv4Packet::new_checked(&packet[..]).map_or(0, |view| usize::from(view.ttl()));
        let mut next = step;
        // Step `next` is survived when the packet reaches it with TTL > 1.
        while next < total && steps[next].device_count == 0 && next - step + 1 < ttl {
            next += 1;
        }
        let skipped = next - step;
        if skipped > 0 {
            let mut view = Ipv4Packet::new_unchecked(&mut packet[..]);
            view.rewrite_ttl((ttl - skipped) as u8);
            time += self.hop_latency * skipped as u32;
        }
        if next == total {
            self.push_event(time, EventKind::Deliver { dst, packet });
        } else {
            self.push_event(time, EventKind::Hop { dst, rid, step: next, packet });
        }
    }

    /// Sends an ICMP time-exceeded from a router back to the probe source.
    /// The reply is delivered directly (after a latency proportional to the
    /// distance) rather than routed hop-by-hop: the reverse path of an ICMP
    /// error is irrelevant to every experiment modeled here, and routers
    /// are not hosts.
    fn emit_time_exceeded(&mut self, hop_addr: Ipv4Addr, orig_src: Ipv4Addr, steps_back: usize) {
        let Some(src_host) = self.host_by_addr(orig_src) else {
            return;
        };
        let icmp = Icmpv4Repr::TimeExceeded.build();
        let repr = Ipv4Repr::new(hop_addr, orig_src, Protocol::Icmp, icmp.len());
        let packet = repr.build(&icmp);
        let time = self.now + self.hop_latency * (steps_back + 1) as u32;
        self.push_event(time, EventKind::Deliver { dst: src_host, packet });
    }

    /// Hands the packet to the host's application, or keeps it in the
    /// host's inbox if it has none — one sink, never both.
    fn do_deliver(&mut self, dst: HostId, packet: Vec<u8>) {
        self.capture(TracePoint::HostRx(dst), &packet);
        match &mut self.hosts[dst.0].sink {
            Sink::App(app) => {
                let outputs = app.on_packet(self.now, &packet);
                self.apply_outputs(dst, outputs);
            }
            Sink::Inbox(inbox) => inbox.push((self.now, packet)),
        }
    }

    fn do_timer(&mut self, host: HostId) {
        if let Sink::App(app) = &mut self.hosts[host.0].sink {
            let outputs = app.on_timer(self.now);
            self.apply_outputs(host, outputs);
        }
    }

    /// Carries out one handler call's outputs. A reply made only of
    /// zero-delay sends goes through [`Network::send_from`], inline when
    /// nothing else is due now: queued, those `SendFrom`s would pop next
    /// and back to back, each pushing what the inline send pushes. A batch
    /// with a timer or a delayed send is queued whole — an inline send
    /// would jump ahead of a timer due at the instant its hop lands.
    fn apply_outputs(&mut self, host: HostId, outputs: Vec<Output>) {
        let all_sends_now = outputs.iter().all(|o| matches!(o, Output::Send { delay, .. } if delay.is_zero()));
        for output in outputs {
            match output {
                Output::Send { packet, .. } if all_sends_now => self.send_from(host, packet),
                Output::Send { delay, packet } => {
                    let time = self.now + delay;
                    self.push_event(time, EventKind::SendFrom { host, packet });
                }
                Output::Timer { delay } => {
                    let time = self.now + delay;
                    self.push_event(time, EventKind::Timer { host });
                }
            }
        }
    }

    /// Snapshots this network's immutable configuration as a shareable
    /// [`NetworkImage`]. The image captures hosts (addresses only — not
    /// inboxes or applications), routes, middlebox configuration, and
    /// the tracing switch; [`NetworkImage::fork`] then stamps out pristine
    /// copies without re-interning routes.
    ///
    /// # Panics
    /// Panics if any installed middlebox does not implement
    /// [`Middlebox::image`].
    pub fn image(&self) -> NetworkImage {
        let middleboxes = (0..self.middleboxes.len())
            .map(|i| {
                let mb = self.slot(MiddleboxId(i));
                mb.image().unwrap_or_else(|| {
                    panic!("middlebox '{}' does not support snapshotting", mb.label())
                })
            })
            .collect();
        NetworkImage {
            host_addrs: self.hosts.iter().map(|h| h.addr).collect(),
            addr_map: Arc::clone(&self.addr_map),
            routes: Arc::clone(&self.routes),
            route_arena: Arc::clone(&self.route_arena),
            middleboxes,
            hop_latency: self.hop_latency,
            capture_enabled: self.capture_enabled,
            tracer: self.tracer.fork_reset(),
        }
    }
}

/// The immutable, shareable half of a [`Network`]: topology, middlebox
/// configuration, and the capture and tracing switches, with none of the
/// per-run state.
///
/// Unlike `Network` (whose boxed middleboxes are only `Send`), an image is
/// `Send + Sync`, so sweep workers can fork from one `&NetworkImage`
/// concurrently. Forking shares the address map, route table, interned
/// route arena, and middlebox images by [`Arc`] and rebuilds only the small
/// mutable cell: event queue, host inboxes, captures, and counts.
/// Middleboxes are instantiated on first touch: a fork performs the same
/// number of allocations at any graph size and lays down one 16-byte empty
/// slot per device.
///
/// Applications are not captured: a forked network starts with no apps
/// attached, exactly like a freshly built one, and drivers re-attach their
/// per-cell applications after forking.
pub struct NetworkImage {
    host_addrs: Vec<Ipv4Addr>,
    addr_map: Arc<FxHashMap<Ipv4Addr, u32>>,
    routes: Arc<FxHashMap<(u32, u32), RouteId>>,
    route_arena: Arc<RouteArena>,
    middleboxes: Arc<[Box<dyn MiddleboxImage>]>,
    hop_latency: Duration,
    capture_enabled: bool,
    tracer: Tracer,
}

impl NetworkImage {
    /// Builds a pristine network from the image: virtual time zero, empty
    /// queue and inboxes, middleboxes instantiated fresh as each is first
    /// touched, zeroed counts — byte-identical in behavior to the
    /// network the image was taken from as it stood at construction time.
    pub fn fork(&self) -> Network {
        Network {
            now: Time::ZERO,
            queue: EventQueue::new(),
            events_popped: 0,
            hosts: self
                .host_addrs
                .iter()
                .map(|&addr| HostState { addr, sink: Sink::Inbox(Vec::new()) })
                .collect(),
            addr_map: Arc::clone(&self.addr_map),
            routes: Arc::clone(&self.routes),
            route_arena: Arc::clone(&self.route_arena),
            middleboxes: self.middleboxes.iter().map(|_| OnceCell::new()).collect(),
            middlebox_images: Arc::clone(&self.middleboxes),
            hop_latency: self.hop_latency,
            capture_enabled: self.capture_enabled,
            captures: Capture::new(),
            captures_recorded: 0,
            queue_depth_max: 0,
            route_flips: 0,
            queue_depth: None,
            tracer: self.tracer.fork_reset(),
            train: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::PoisonError;
    use tspu_wire::ipv4::{Ipv4Repr, Protocol};

    fn packet(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, payload: &[u8]) -> Vec<u8> {
        let mut repr = Ipv4Repr::new(src, dst, Protocol::Other(0xfd), payload.len());
        repr.ttl = ttl;
        repr.build(payload)
    }

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const R1: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 1);
    const R2: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 2);

    #[test]
    fn direct_delivery() -> Result<(), tspu_wire::Error> {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::direct());
        net.send_from(a, packet(A, B, 64, b"hi"));
        net.run_until_idle();
        let inbox = net.take_inbox(b);
        assert_eq!(inbox.len(), 1);
        let view = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        assert_eq!(view.payload(), b"hi");
        Ok(())
    }

    #[test]
    fn ttl_decrements_per_router() -> Result<(), tspu_wire::Error> {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&[R1, R2]));
        net.send_from(a, packet(A, B, 64, b"x"));
        net.run_until_idle();
        let inbox = net.take_inbox(b);
        let view = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        assert_eq!(view.ttl(), 62);
        assert!(view.verify_checksum());
        Ok(())
    }

    #[test]
    fn ttl_expiry_returns_time_exceeded_from_hop() -> Result<(), tspu_wire::Error> {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&[R1, R2]));
        // TTL 2 expires at the second router.
        net.send_from(a, packet(A, B, 2, b"probe"));
        net.run_until_idle();
        assert!(net.take_inbox(b).is_empty());
        let inbox = net.take_inbox(a);
        assert_eq!(inbox.len(), 1);
        let view = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        assert_eq!(view.src_addr(), R2);
        assert_eq!(view.protocol(), Protocol::Icmp);
        Ok(())
    }

    #[test]
    fn unroutable_packet_is_dropped() {
        let mut net = Network::with_default_latency();
        net.set_capture(true);
        let a = net.add_host(A);
        net.send_from(a, packet(A, Ipv4Addr::new(8, 8, 8, 8), 64, b"x"));
        net.run_until_idle();
        assert!(net
            .captures()
            .iter()
            .any(|c| matches!(c.point, TracePoint::Dropped { .. })));
    }

    struct DropAll;
    impl Middlebox for DropAll {
        fn process(&mut self, _now: Time, _dir: Direction, _packet: &mut Vec<u8>) -> Verdict {
            Verdict::Drop
        }
    }

    #[derive(Default)]
    struct CountDirections {
        local_to_remote: usize,
        remote_to_local: usize,
    }
    impl Middlebox for CountDirections {
        fn process(&mut self, _now: Time, dir: Direction, _packet: &mut Vec<u8>) -> Verdict {
            match dir {
                Direction::LocalToRemote => self.local_to_remote += 1,
                Direction::RemoteToLocal => self.remote_to_local += 1,
            }
            Verdict::Pass
        }
    }

    #[test]
    fn middlebox_can_drop() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let mb = net.add_middlebox(Box::new(DropAll));
        let route = Route {
            steps: vec![RouteStep::with_device(R1, mb, Direction::LocalToRemote)],
        };
        net.set_route_symmetric(a, b, route);
        net.send_from(a, packet(A, B, 64, b"x"));
        net.run_until_idle();
        assert!(net.take_inbox(b).is_empty());
    }

    #[test]
    fn symmetric_route_flips_direction() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let counter = net.install_middlebox(CountDirections::default());
        let route = Route {
            steps: vec![RouteStep::with_device(R1, counter.id(), Direction::LocalToRemote)],
        };
        net.set_route_symmetric(a, b, route);
        net.send_from(a, packet(A, B, 64, b"up"));
        net.send_from(b, packet(B, A, 64, b"down"));
        net.run_until_idle();
        assert_eq!(net.middlebox(counter).local_to_remote, 1);
        assert_eq!(net.middlebox(counter).remote_to_local, 1);
    }

    #[test]
    fn asymmetric_route_gives_partial_visibility() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let counter = net.install_middlebox(CountDirections::default());
        // Device only on the upstream (a -> b) path: paper §7.1.1.
        net.set_route(a, b, Route {
            steps: vec![RouteStep::with_device(R1, counter.id(), Direction::LocalToRemote)],
        });
        net.set_route(b, a, Route::through(&[R2]));
        net.send_from(a, packet(A, B, 64, b"up"));
        net.send_from(b, packet(B, A, 64, b"down"));
        net.run_until_idle();
        assert_eq!(net.middlebox(counter).local_to_remote, 1);
        assert_eq!(net.middlebox(counter).remote_to_local, 0);
        assert_eq!(net.take_inbox(a).len(), 1);
        assert_eq!(net.take_inbox(b).len(), 1);
    }

    #[test]
    fn with_middlebox_mut_reconfigures_in_place() {
        let mut net = Network::with_default_latency();
        let counter = net.install_middlebox(CountDirections::default());
        net.with_middlebox_mut(counter, |c| c.local_to_remote = 41);
        net.middlebox_mut(counter).local_to_remote += 1;
        assert_eq!(net.middlebox(counter).local_to_remote, 42);
    }

    struct Echo {
        own: Ipv4Addr,
    }
    impl Application for Echo {
        fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
            let Ok(view) = Ipv4Packet::new_checked(packet) else { return Vec::new() };
            let repr = Ipv4Repr::new(self.own, view.src_addr(), view.protocol(), view.payload().len());
            vec![Output::send(repr.build(view.payload()))]
        }
    }

    #[test]
    fn application_replies() -> Result<(), tspu_wire::Error> {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host_with_app(B, Box::new(Echo { own: B }));
        net.set_route_symmetric(a, b, Route::through(&[R1]));
        net.send_from(a, packet(A, B, 64, b"ping"));
        net.run_until_idle();
        let inbox = net.take_inbox(a);
        assert_eq!(inbox.len(), 1);
        let view = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        assert_eq!(view.payload(), b"ping");
        // One sink: the ping went to the echo application and nowhere else.
        assert!(net.take_inbox(b).is_empty(), "an application host kept a copy");
        Ok(())
    }

    struct TimerApp {
        fired: std::sync::Arc<std::sync::Mutex<Vec<Time>>>,
    }
    impl Application for TimerApp {
        fn on_packet(&mut self, _now: Time, _packet: &[u8]) -> Vec<Output> {
            vec![Output::Timer { delay: Duration::from_secs(5) }]
        }
        fn on_timer(&mut self, now: Time) -> Vec<Output> {
            self.fired.lock().unwrap_or_else(PoisonError::into_inner).push(now);
            Vec::new()
        }
    }

    #[test]
    fn timers_fire_at_virtual_time() {
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host_with_app(B, Box::new(TimerApp { fired: std::sync::Arc::clone(&fired) }));
        net.set_route_symmetric(a, b, Route::direct());
        net.send_from(a, packet(A, B, 64, b"go"));
        net.run_until_idle();
        let fired = fired.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(fired.len(), 1);
        // 1 hop latency (1 ms) + 5 s timer.
        assert_eq!(fired[0], Time::from_micros(5_001_000));
    }

    #[test]
    fn run_for_advances_clock_exactly() {
        let mut net = Network::with_default_latency();
        net.run_for(Duration::from_secs(480));
        assert_eq!(net.now(), Time::from_secs(480));
    }

    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
    }

    #[test]
    fn network_image_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetworkImage>();
    }

    #[derive(Default)]
    struct CountAll {
        seen: usize,
        /// Times this device's image has been instantiated, shared with
        /// the image and every instance it makes.
        built: Arc<AtomicUsize>,
    }
    impl Middlebox for CountAll {
        fn process(&mut self, _now: Time, _dir: Direction, _packet: &mut Vec<u8>) -> Verdict {
            self.seen += 1;
            Verdict::Pass
        }
        fn image(&self) -> Option<Box<dyn MiddleboxImage>> {
            Some(Box::new(CountAllImage(Arc::clone(&self.built))))
        }
    }
    struct CountAllImage(Arc<AtomicUsize>);
    impl MiddleboxImage for CountAllImage {
        fn instantiate(&self) -> Box<dyn Middlebox> {
            self.0.fetch_add(1, Relaxed);
            Box::new(CountAll { seen: 0, built: Arc::clone(&self.0) })
        }
    }

    #[test]
    fn forked_networks_share_topology_but_not_state() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let counter = net.install_middlebox(CountAll::default());
        net.set_route_symmetric(a, b, Route {
            steps: vec![RouteStep::with_device(R1, counter.id(), Direction::LocalToRemote)],
        });
        let image = net.image();

        // Dirty the original and one fork; a second fork stays pristine.
        net.send_from(a, packet(A, B, 64, b"orig"));
        net.run_until_idle();
        let mut fork_a = image.fork();
        fork_a.send_from(a, packet(A, B, 64, b"fork"));
        fork_a.run_until_idle();
        let fork_b = image.fork();

        assert_eq!(net.middlebox(counter).seen, 1);
        assert_eq!(fork_a.middlebox(counter).seen, 1);
        assert_eq!(fork_b.middlebox(counter).seen, 0);
        assert_eq!(fork_b.now(), Time::ZERO);
        assert_eq!(fork_b.events_processed(), 0);
        assert!(fork_b.captures().is_empty());
        // Shared topology: same routes without re-interning.
        assert_eq!(fork_a.interned_routes(), net.interned_routes());
        assert_eq!(fork_a.route(a, b).map(|r| r.steps[0].hop_addr), Some(R1));
    }

    #[test]
    fn fork_instantiates_only_the_devices_it_touches() {
        let built = Arc::new(AtomicUsize::new(0));
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let c = net.add_host(Ipv4Addr::new(203, 0, 113, 2));
        let install =
            |net: &mut Network| net.install_middlebox(CountAll { seen: 0, built: Arc::clone(&built) });
        let (first, second, off_path, unrouted) =
            (install(&mut net), install(&mut net), install(&mut net), install(&mut net));
        net.set_route(a, b, Route {
            steps: vec![
                RouteStep::with_device(R1, first.id(), Direction::LocalToRemote),
                RouteStep::with_device(R2, second.id(), Direction::LocalToRemote),
            ],
        });
        net.set_route(a, c, Route {
            steps: vec![RouteStep::with_device(R1, off_path.id(), Direction::LocalToRemote)],
        });
        let image = net.image();
        assert_eq!(built.load(Relaxed), 0, "taking an image builds nothing");

        let mut fork = image.fork();
        assert_eq!(built.load(Relaxed), 0, "a fork builds nothing until touched");
        assert_eq!((net.middleboxes_built(), fork.middleboxes_built()), (4, 0));
        fork.send_from(a, packet(A, B, 64, b"x"));
        fork.run_until_idle();
        assert_eq!(fork.take_inbox(b).len(), 1);
        assert_eq!(built.load(Relaxed), 2, "one routed packet builds exactly the on-path devices");
        assert_eq!(fork.middleboxes_built(), 2);
        assert_eq!(fork.middlebox(first).seen, 1);
        assert_eq!(fork.middlebox(second).seen, 1);
        assert_eq!(built.load(Relaxed), 2, "reading a built device builds nothing");

        // A shared borrow of an untouched handle yields a pristine device,
        // built once.
        assert_eq!(fork.middlebox(off_path).seen, 0);
        assert_eq!(fork.middlebox(off_path).seen, 0);
        assert_eq!(built.load(Relaxed), 3);
        fork.middlebox_mut(unrouted).seen = 7;
        assert_eq!(fork.middlebox(unrouted).seen, 7);
        assert_eq!(built.load(Relaxed), 4);

        // An image taken from a fork covers its untouched slots too, and a
        // device added after forking lands in a filled slot.
        let mut sibling = image.fork();
        let late = sibling.install_middlebox(CountAll { seen: 5, built: Arc::clone(&built) });
        assert_eq!(sibling.middlebox(late).seen, 5);
        assert_eq!(built.load(Relaxed), 4);
        let regrown = sibling.image().fork();
        assert_eq!(regrown.middlebox(late).seen, 0);
        assert_eq!(regrown.middlebox(first).seen, 0);
    }

    #[test]
    fn post_fork_route_mutation_does_not_leak_into_siblings() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&[R1]));
        let image = net.image();

        let mut fork_a = image.fork();
        let fork_b = image.fork();
        fork_a.set_route(a, b, Route::through(&[R1, R2]));
        let c = fork_a.add_host(Ipv4Addr::new(203, 0, 113, 9));

        // Fork A sees its own changes; fork B and the original don't.
        assert_eq!(fork_a.route(a, b).map(|r| r.steps.len()), Some(2));
        assert_eq!(fork_a.host_by_addr(Ipv4Addr::new(203, 0, 113, 9)), Some(c));
        assert_eq!(fork_b.route(a, b).map(|r| r.steps.len()), Some(1));
        assert_eq!(fork_b.host_by_addr(Ipv4Addr::new(203, 0, 113, 9)), None);
        assert_eq!(net.route(a, b).map(|r| r.steps.len()), Some(1));
    }

    #[test]
    fn scheduled_reroute_flips_path_at_virtual_instant() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let primary = net.intern_route(Route::through(&[R1]));
        let backup = net.intern_route(Route::through(&[R1, R2]));
        net.apply_reroute(a, b, primary);
        net.schedule_reroute(Duration::from_secs(10), a, b, backup);

        // Before the flip: one router, TTL decremented once.
        net.send_from(a, packet(A, B, 64, b"pre"));
        net.run_for(Duration::from_secs(5));
        let pre = net.take_inbox(b);
        assert_eq!(Ipv4Packet::new_checked(&pre[0].1[..]).map(|v| v.ttl()), Ok(63));
        assert_eq!(net.route(a, b).map(|r| r.steps.len()), Some(1));

        // Past the flip instant: the backup path, two routers.
        net.run_for(Duration::from_secs(10));
        assert_eq!(net.route(a, b).map(|r| r.steps.len()), Some(2));
        net.send_from(a, packet(A, B, 64, b"post"));
        net.run_until_idle();
        let post = net.take_inbox(b);
        assert_eq!(Ipv4Packet::new_checked(&post[0].1[..]).map(|v| v.ttl()), Ok(62));
    }

    #[test]
    fn scheduled_reroute_does_not_leak_into_forks() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&[R1]));
        let backup = net.intern_route(Route::through(&[R1, R2]));
        let image = net.image();

        let mut fork_a = image.fork();
        let fork_b = image.fork();
        // The interned id survives into the fork (shared arena) and the
        // flip stays private to the fork that applied it.
        fork_a.schedule_reroute(Duration::from_secs(1), a, b, backup);
        fork_a.run_until_idle();
        assert_eq!(fork_a.route(a, b).map(|r| r.steps.len()), Some(2));
        assert_eq!(fork_b.route(a, b).map(|r| r.steps.len()), Some(1));
        assert_eq!(net.route(a, b).map(|r| r.steps.len()), Some(1));
    }

    #[test]
    fn repeated_route_flips_do_not_grow_the_arena() {
        // The churn regression: flipping the same (src, dst) pair between
        // two alternatives 1,000 times — whether by re-interning the full
        // route each time or by scheduled reroute — must leave the arena
        // at exactly its two slots.
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let primary = Route::through(&[R1]);
        let backup = Route::through(&[R1, R2]);
        net.set_route(a, b, primary.clone());
        net.set_route(a, b, backup.clone());
        let arena = net.interned_routes();
        assert_eq!(arena, 2);

        for i in 0..1_000 {
            let route = if i % 2 == 0 { primary.clone() } else { backup.clone() };
            net.set_route(a, b, route);
        }
        assert_eq!(net.interned_routes(), arena, "re-interning flipped routes grew the arena");

        let rid_primary = net.intern_route(primary);
        let rid_backup = net.intern_route(backup);
        for i in 0..1_000u32 {
            let rid = if i % 2 == 0 { rid_backup } else { rid_primary };
            net.schedule_reroute(Duration::from_millis(u64::from(i) + 1), a, b, rid);
        }
        net.run_until_idle();
        assert_eq!(net.interned_routes(), arena, "scheduled reroutes grew the arena");
        assert_eq!(net.route_flips(), 1_000);
    }

    #[test]
    fn nothing_is_captured_until_capture_is_switched_on() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&[R1]));
        net.send_from(a, packet(A, B, 64, b"unseen"));
        net.run_until_idle();
        assert_eq!(net.take_inbox(b).len(), 1);
        assert!(net.captures().is_empty(), "a fresh network must not capture");
        assert_eq!(net.obs_snapshot().counter("netsim.captures_recorded"), 0);

        net.set_capture(true);
        net.send_from(a, packet(A, B, 64, b"seen"));
        net.run_until_idle();
        assert!(net.captures().iter().any(|c| matches!(c.point, TracePoint::HostRx(_))));
        // The switch rides into images and forks like any other setting.
        let mut fork = net.image().fork();
        fork.send_from(a, packet(A, B, 64, b"fork"));
        fork.run_until_idle();
        assert!(!fork.captures().is_empty());
    }

    #[test]
    fn unparseable_packet_records_nic_drop() {
        let mut net = Network::with_default_latency();
        net.set_capture(true);
        let a = net.add_host(A);
        net.send_from(a, vec![0xff; 7]); // too short to be an IPv4 header
        net.run_until_idle();
        assert!(net
            .captures()
            .iter()
            .any(|c| matches!(c.point, TracePoint::Dropped { step: 0 })));
    }

    #[test]
    fn identical_routes_intern_to_one_arena_slot() {
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let c = net.add_host(Ipv4Addr::new(203, 0, 113, 2));
        net.set_route(a, b, Route::through(&[R1, R2]));
        net.set_route(a, c, Route::through(&[R1, R2]));
        net.set_route(b, a, Route::through(&[R2, R1]));
        assert_eq!(net.interned_routes(), 2);
        // Interned slots still resolve per (src, dst) pair.
        assert_eq!(net.route(a, b).map(|r| r.steps[0].hop_addr), Some(R1));
        assert_eq!(net.route(b, a).map(|r| r.steps[0].hop_addr), Some(R2));
    }

    #[test]
    fn unequal_routes_under_one_hash_key_keep_their_own_ids() {
        // A 64-bit hash collision, forced: the second route probes on to
        // the next key instead of taking the first one's id.
        let mut net = Network::with_default_latency();
        let first = Route::through(&[R1]);
        let second = Route { steps: vec![RouteStep::with_device(R2, MiddleboxId(0), Direction::LocalToRemote)] };
        let a = net.intern_keyed(7, &first);
        let b = net.intern_keyed(7, &second);
        assert_ne!(a, b);
        assert_eq!((net.intern_keyed(7, &first), net.intern_keyed(7, &second)), (a, b));
        assert_eq!(net.interned_routes(), 2);
        assert_eq!(net.route_arena.route(a), first);
        assert_eq!(net.route_arena.route(b), second);
    }

    #[test]
    fn a_host_fits_in_32_bytes() {
        assert!(std::mem::size_of::<HostState>() <= 32, "{}", std::mem::size_of::<HostState>());
    }

    #[test]
    fn a_stored_route_step_fits_in_12_bytes() {
        assert!(std::mem::size_of::<ArenaStep>() <= 12, "{}", std::mem::size_of::<ArenaStep>());
    }

    #[test]
    fn a_packet_in_flight_keeps_its_route_across_a_reroute() {
        // Sent at 0 on R1, R2, R3+device, the packet reaches the device hop
        // at 3 ms. The (a, b) entry flips at 1.5 ms to a one-router route;
        // the packet is past the decision point and must finish the route
        // it was sent on: seen by the device, delivered at 4 ms, TTL 61.
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host(B);
        let counter = net.install_middlebox(CountAll::default());
        net.set_route(a, b, Route {
            steps: vec![
                RouteStep::router(R1),
                RouteStep::router(R2),
                RouteStep::with_device(Ipv4Addr::new(10, 255, 0, 3), counter.id(), Direction::LocalToRemote),
            ],
        });
        let short = net.intern_route(Route::through(&[R1]));
        net.schedule_reroute(Duration::from_micros(1_500), a, b, short);
        net.send_from(a, packet(A, B, 64, b"in flight"));
        net.run_until_idle();
        assert_eq!(net.route(a, b).map(|r| r.steps.len()), Some(1), "the flip applied");
        assert_eq!(net.middlebox(counter).seen, 1, "the device on the old route never saw the packet");
        let inbox = net.take_inbox(b);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].0, Time::from_micros(4_000));
        assert_eq!(Ipv4Packet::new_checked(&inbox[0].1[..]).map(|v| v.ttl()), Ok(61));
    }

    /// What ran, in order: a device's `process` and an application's
    /// `on_timer` both append to it.
    type Log = Arc<std::sync::Mutex<Vec<&'static str>>>;

    struct LogHops(Log);
    impl Middlebox for LogHops {
        fn process(&mut self, _now: Time, _dir: Direction, _packet: &mut Vec<u8>) -> Verdict {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).push("hop");
            Verdict::Pass
        }
    }

    const C: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

    /// Answers a packet with a send to C and a timer one hop latency out.
    struct SendThenTimer(Log);
    impl Application for SendThenTimer {
        fn on_packet(&mut self, _now: Time, _packet: &[u8]) -> Vec<Output> {
            vec![Output::send(packet(B, C, 64, b"on")), Output::Timer { delay: Duration::from_millis(1) }]
        }
        fn on_timer(&mut self, _now: Time) -> Vec<Output> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).push("timer");
            Vec::new()
        }
    }

    #[test]
    fn same_instant_order_survives_inline_sends() {
        // B's reply reaches the device at step 0 of B → C one hop latency
        // later, the instant its timer fires. Queued, the send's hop event
        // is pushed only when its `SendFrom` pops, after the timer: the
        // timer runs first. Inlining a batch that holds a timer would
        // push the hop ahead of it.
        let log = Log::default();
        let mut net = Network::with_default_latency();
        let a = net.add_host(A);
        let b = net.add_host_with_app(B, Box::new(SendThenTimer(Arc::clone(&log))));
        let c = net.add_host(C);
        let logger = net.add_middlebox(Box::new(LogHops(Arc::clone(&log))));
        net.set_route(b, c, Route { steps: vec![RouteStep::with_device(R1, logger, Direction::LocalToRemote)] });
        net.send_from(a, packet(A, B, 64, b"go"));
        net.run_until_idle();
        assert_eq!(net.take_inbox(c).len(), 1);
        assert_eq!(*log.lock().unwrap_or_else(PoisonError::into_inner), ["timer", "hop"]);
    }

    #[test]
    #[should_panic(expected = "whole number of microseconds")]
    fn hop_latency_must_be_whole_microseconds() {
        Network::new(Duration::from_nanos(1_500));
    }

    #[test]
    fn deterministic_ordering() {
        // Two identical runs produce identical capture logs.
        let run = || {
            let mut net = Network::with_default_latency();
            net.set_capture(true);
            let a = net.add_host(A);
            let b = net.add_host_with_app(B, Box::new(Echo { own: B }));
            net.set_route_symmetric(a, b, Route::through(&[R1, R2]));
            for i in 0..10u8 {
                net.send_from(a, packet(A, B, 64, &[i]));
            }
            net.run_until_idle();
            net.take_captures()
        };
        assert_eq!(run(), run());
    }
}
