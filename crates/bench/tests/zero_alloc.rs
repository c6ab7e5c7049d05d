//! Counting-allocator proofs of the allocation contracts.
//!
//! `selfaware::comms` promises that the steady-state reliable
//! send/deliver/ack cycle performs no heap allocation per message
//! (payload slab + bitmap dedup + recycled delivery buffers), and
//! that the retry path stays allocation-free while the explanation
//! log is disabled. This test installs a counting `GlobalAlloc` and
//! holds the layer to it: after a warmup that populates every reused
//! buffer, a long steady-state run must leave the allocation counter
//! untouched.
//!
//! The router supervisor checkpoints the learned CPN router every
//! tick, so a `Router` clone must cost a fixed, small number of
//! allocations whatever the network size, and the supervised
//! composed city must stay within a per-tick allocation budget.
//!
//! `simkernel::SimScheduler` reuses freed wake entries through its
//! slab's free list, so once its buffers have grown to the number of
//! pending wakes, scheduling and delivering wakes allocates nothing,
//! whether a wake lands in the tick ring or in the far heap.
//!
//! The counter is **per-thread**: the libtest harness thread keeps
//! running (and occasionally allocating for its timed bookkeeping)
//! while the test thread measures, so a process-wide counter would be
//! flaky. Only allocations made by the measuring thread itself count.

use compose::{CityConfig, CityPolicy};
use cpn::graph::Graph;
use cpn::routing::RoutingStrategy;
use selfaware::comms::{Channel, ChannelOutcome, CommsNetwork, CommsPolicy, IdealChannel};
use selfaware::explain::ExplanationLog;
use simkernel::{obs, SeedTree, SimScheduler, Tick};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised Cell: reading/bumping it never allocates, so
    // the allocator cannot recurse into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: a thread whose TLS is already torn down (destructor
    // running a final allocation) simply goes uncounted instead of
    // panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a plain
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Loses every first attempt of a data frame; retransmissions and
/// acks pass. Forces the retry path on every single message.
struct FirstAttemptDrop;

const ACK_BIT: u64 = 1 << 63;
const ATTEMPT_SHIFT: u32 = 48;

impl Channel for FirstAttemptDrop {
    fn transmit(&self, _src: usize, _dst: usize, seq: u64, now: Tick) -> ChannelOutcome {
        let is_ack = seq & ACK_BIT != 0;
        let attempt = (seq & !ACK_BIT) >> ATTEMPT_SHIFT;
        if !is_ack && attempt == 0 {
            ChannelOutcome::lost()
        } else {
            ChannelOutcome::delivered(now)
        }
    }
}

/// Runs `ticks` send+step cycles and returns how many allocations
/// they performed.
fn run_cycles<C: Channel>(
    net: &mut CommsNetwork<u64>,
    ch: &C,
    log: &mut ExplanationLog,
    start: u64,
    ticks: u64,
) -> u64 {
    let mut inbox = Vec::with_capacity(16);
    // One send per tick from each direction keeps both links hot.
    let before = allocations();
    for t in start..start + ticks {
        net.send(ch, 0, 1, t, Tick(t), log);
        net.send(ch, 1, 0, t, Tick(t), log);
        inbox.clear();
        net.step_into(ch, Tick(t), log, &mut inbox);
    }
    allocations() - before
}

#[test]
fn steady_state_comms_cycle_is_allocation_free() {
    // Force observability off regardless of the environment: span
    // timing is outside this contract.
    obs::set_override(Some(false));

    // Phase A: ideal channel, explanation log enabled (the steady
    // state records nothing, so enabled logging must still be free).
    let mut net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
    let mut log = ExplanationLog::new(64);
    let warmup = run_cycles(&mut net, &IdealChannel, &mut log, 0, 64);
    assert!(warmup > 0, "warmup should populate the reused buffers");
    let steady = run_cycles(&mut net, &IdealChannel, &mut log, 64, 512);
    assert_eq!(
        steady, 0,
        "ideal-channel send/deliver/ack steady state must not allocate"
    );

    // Phase B: every message loses its first attempt, so every
    // message exercises backoff bookkeeping and retransmission. With
    // the log disabled, the lazy explanation construction must keep
    // the whole retry path allocation-free too.
    let mut lossy_net: CommsNetwork<u64> = CommsNetwork::new(CommsPolicy::default());
    let mut quiet = ExplanationLog::new(64);
    quiet.set_enabled(false);
    run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut quiet, 0, 64);
    let retry_allocs = run_cycles(&mut lossy_net, &FirstAttemptDrop, &mut quiet, 64, 512);
    assert_eq!(
        retry_allocs, 0,
        "retry/ack steady state with a disabled log must not allocate"
    );
    assert!(
        lossy_net.stats().retries > 500,
        "the lossy phase must actually exercise retries (saw {})",
        lossy_net.stats().retries
    );

    obs::set_override(None);
}

#[test]
fn cpn_router_clone_cost_does_not_grow_with_the_network() {
    obs::set_override(Some(false));
    let clone_allocs = |side: usize| {
        let g = Graph::grid(side, side);
        let router = RoutingStrategy::supervised_cpn_default().build(&g);
        let before = allocations();
        let copy = std::hint::black_box(router.clone());
        let allocs = allocations() - before;
        drop(copy);
        allocs
    };
    let (small, large) = (clone_allocs(4), clone_allocs(8));
    assert_eq!(
        small, large,
        "cloning a 16-router and a 64-router CPN must cost the same allocations"
    );
    assert!(large <= 3, "a CPN router clone made {large} allocations");
    obs::set_override(None);
}

#[test]
fn supervised_cascade_city_stays_within_its_allocation_budget() {
    const STEPS: u64 = 600;
    obs::set_override(Some(false));
    let city_seeds = SeedTree::new(1).child("city");
    let mut cfg = CityConfig::standard(CityPolicy::supervised(), STEPS, &city_seeds);
    cfg.campaign = sas_bench::f9_campaign(&city_seeds, STEPS);
    let before = allocations();
    let r = compose::run_city(&cfg, &city_seeds);
    let per_tick = (allocations() - before) as f64 / STEPS as f64;
    assert!(r.metrics.get("serviced").unwrap_or(0.0) > 0.0);
    assert!(
        per_tick < 100.0,
        "supervised cascade run_city made {per_tick:.1} allocations per tick"
    );
    obs::set_override(None);
}

/// Runs a `wake_at`/`pop_due` loop over `ticks` ticks from `start`: each
/// delivered entity re-schedules itself, alternately a few ticks ahead
/// (into the tick ring) and more than a ring window ahead (into the far
/// heap), so the number of pending wakes stays constant. Returns the
/// allocations made and the wakes delivered.
fn run_wakes(sched: &mut SimScheduler<usize>, start: u64, ticks: u64) -> (u64, u64) {
    const FAR: u64 = 5_000;
    let mut delivered = 0u64;
    let before = allocations();
    for t in start..start + ticks {
        while let Some((_, _, i)) = sched.pop_due(Tick(t)) {
            delivered += 1;
            let gap = if (delivered + i as u64).is_multiple_of(2) {
                1 + i as u64 % 37
            } else {
                FAR + i as u64 % 500
            };
            sched.wake_at(Tick(t + gap), (i % 3) as u8, i);
        }
    }
    (allocations() - before, delivered)
}

#[test]
fn steady_state_scheduler_is_allocation_free() {
    const PENDING: usize = 512;
    obs::set_override(Some(false));
    let mut sched: SimScheduler<usize> = SimScheduler::new();
    // Warm-up: every wake starts in the far heap and later migrates
    // into the ring together, so both buffers reach PENDING entries.
    for i in 0..PENDING {
        sched.wake_at(Tick(5_000 + i as u64 % 50), (i % 3) as u8, i);
    }
    let (warmup, _) = run_wakes(&mut sched, 0, 20_000);
    assert!(warmup > 0, "warmup should grow the scheduler's buffers");
    let (steady, delivered) = run_wakes(&mut sched, 20_000, 100_000);
    assert_eq!(sched.len(), PENDING);
    assert!(delivered > 10 * PENDING as u64, "only {delivered} wakes");
    assert_eq!(
        steady, 0,
        "{steady} allocations over {delivered} steady-state wakes"
    );
    obs::set_override(None);
}

#[test]
fn cloud_trace_setup_allocations_do_not_grow_with_the_fleet() {
    // A zero-tick run is the F12 cloud world's set-up alone. Every
    // per-node structure lives in a handful of fleet-wide buffers, so
    // building 4,096 nodes must cost the same allocations as 64.
    obs::set_override(Some(false));
    let setup_allocs = |nodes: usize| {
        let cfg = cloudsim::DesCloudConfig::at_scale(nodes, 0, 8.0);
        let before = allocations();
        let r = std::hint::black_box(cloudsim::run_des_cloud(&cfg, &SeedTree::new(1)));
        let allocs = allocations() - before;
        drop(r);
        allocs
    };
    let (small, large) = (setup_allocs(64), setup_allocs(4_096));
    assert_eq!(
        small, large,
        "a 64-node and a 4,096-node set-up must cost the same allocations"
    );
    assert!(
        large <= 32,
        "a zero-tick cloud run made {large} allocations"
    );
    obs::set_override(None);
}
