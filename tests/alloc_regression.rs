//! Allocation-regression gate for the zero-allocation DSP kernel layer.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm-up trial has populated every pooled buffer (worker scratch, FFT
//! plans, packet frame storage), subsequent gen2 fast-path trials must
//! perform **zero** heap allocations. This pins the PR's core contract: the
//! steady-state Monte-Carlo inner loop never touches the allocator.
//!
//! This integration-test binary deliberately contains a single `#[test]` so
//! no concurrently running test can pollute the allocation counter. The
//! matching 1-vs-N-thread determinism gate lives in
//! `tests/montecarlo_determinism.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uwb_net::{plan_network, NetAccumulator, NetScenario, NetWorker};
use uwb_phy::Gen2Config;
use uwb_platform::link::{BatchScratch, LinkScenario, LinkWorker};
use uwb_platform::ErrorCounter;
use uwb_sim::{ChannelModel, Rand};

/// System allocator wrapper that counts every allocation entry point.
///
/// Counts are kept **per thread** (const-init TLS cell, itself
/// allocation-free) in addition to the global total: the libtest harness's
/// main thread lazily initializes its mpmc receive context *while the test
/// thread runs*, so a process-global count intermittently blames the gate
/// for two harness-owned allocations. The contract under test is "the trial
/// loop on *this* thread allocates nothing", which is exactly what the
/// thread-local count measures.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static THREAD_ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one allocator entry on this thread. `try_with` because the
/// allocator can be entered during TLS teardown, when the cell is gone.
fn count() {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOC_CALLS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation as far as the
        // zero-alloc contract is concerned.
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Steady-state gen2 fast-path trials allocate nothing: warm a few trials,
/// then run many more and require the allocation counter to stand still.
/// Uses the same smoke scenario as the Monte-Carlo engine and `dspbench`
/// (AWGN, `preamble_repeats = 2`, 24-byte payload) on the streamed
/// synthesis path (`trial_ber_streamed`): the streaming operators draw all
/// per-block workspace from the worker's scratch pool and carry their state
/// in reused storage. (All sections live in this one `#[test]` so no
/// concurrent test can pollute the counter.)
#[test]
fn gen2_fast_path_steady_state_is_allocation_free() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, 20050307);
    let mut worker = LinkWorker::new(&scenario);
    let mut counter = ErrorCounter::default();

    const BLOCK: usize = 4096;
    // Warm-up: builds FFT plans (cached per thread), sizes every pooled
    // buffer in the worker, settles the payload/frame storage and the
    // streaming channel's taps/history.
    for t in 0..3 {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_ber_streamed(&scenario, 24, BLOCK, &mut rng, &mut counter);
    }

    let before = thread_allocs();
    for t in 0..200 {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_ber_streamed(&scenario, 24, BLOCK, &mut rng, &mut counter);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state streamed trials must not allocate ({} allocations \
         across 200 trials at block {})",
        after - before,
        BLOCK
    );
    // Sanity: the loop actually demodulated bits.
    assert!(counter.total > 0, "trials produced no bits");

    // --- CM3 multipath: the same streamed trial on a fresh Saleh–Valenzuela
    //     draw per trial — tap regeneration (whose merge sort borrows the
    //     tap Vec's spare capacity), discretization, the real-excitation
    //     kernel's rails and the convolution tail. Tap counts vary per draw,
    //     so warm-up runs exactly the trial seeds replayed below: every
    //     buffer has then reached that range's high-water mark. ---
    let cm3 = LinkScenario {
        channel: ChannelModel::Cm3,
        ..LinkScenario::awgn(scenario.config.clone(), 10.0, 20050317)
    };
    let mut cm3_worker = LinkWorker::new(&cm3);
    let mut cm3_counter = ErrorCounter::default();
    const CM3_TRIALS: std::ops::Range<u64> = 0..40;
    for t in CM3_TRIALS {
        let mut rng = Rand::for_trial(cm3.seed, t);
        cm3_worker.trial_ber_streamed(&cm3, 32, BLOCK, &mut rng, &mut cm3_counter);
    }

    let before = thread_allocs();
    for t in CM3_TRIALS {
        let mut rng = Rand::for_trial(cm3.seed, t);
        cm3_worker.trial_ber_streamed(&cm3, 32, BLOCK, &mut rng, &mut cm3_counter);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "replayed CM3 streamed trials must not allocate ({} allocations \
         across {} trials)",
        after - before,
        CM3_TRIALS.end - CM3_TRIALS.start
    );
    assert!(cm3_counter.total > 0, "CM3 trials produced no bits");

    // --- Batched stage-sweep path: same contract, 8 trials per batch. ---
    // The batch arenas, payload snapshots, and synthesis-metadata vectors
    // all ratchet to their high-water capacity during warm-up; warm batches
    // must add zero allocations.
    const BATCH: u64 = 8;
    let mut scratch = BatchScratch::new();
    for b in 0..3 {
        worker.trial_batch_ber_streamed(
            &scenario,
            24,
            BLOCK,
            b * BATCH..(b + 1) * BATCH,
            &mut scratch,
            &mut counter,
        );
    }

    let before = thread_allocs();
    for b in 0..25 {
        worker.trial_batch_ber_streamed(
            &scenario,
            24,
            BLOCK,
            b * BATCH..(b + 1) * BATCH,
            &mut scratch,
            &mut counter,
        );
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state batched trials must not allocate ({} allocations \
         across 25 batches of {})",
        after - before,
        BATCH
    );

    // --- Network warm path: a 2-link co-channel piconet round must also
    //     be allocation-free. Each round runs two full clean syntheses,
    //     two superposition mixes (own + coupled foreign + AWGN), and two
    //     receptions — all out of `NetWorker`'s reused storage. ---
    let mut net_scenario = NetScenario::ring(2, 6.0, 20050314);
    net_scenario.policy = uwb_net::ChannelPolicy::Static(vec![
        uwb_phy::bandplan::Channel::new(3).unwrap(),
    ]);
    let plan = plan_network(&net_scenario);
    assert!(
        plan.coupling.iter().all(|row| !row.is_empty()),
        "the 2-link gate must exercise real co-channel mixing"
    );
    let mut net_worker = NetWorker::new(&plan);
    let mut acc = NetAccumulator::default();
    // Warm-up: sizes the per-link workers, the clean-synthesis table, and
    // the mix buffer.
    for r in 0..3 {
        net_worker.round(&plan, r, &mut acc);
    }

    let before = thread_allocs();
    for r in 0..100 {
        net_worker.round(&plan, r, &mut acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state network rounds must not allocate ({} allocations \
         across 100 two-link rounds)",
        after - before
    );
    assert!(
        acc.links.iter().all(|l| l.ber.total > 0),
        "network rounds produced no bits"
    );

    // --- 64-user sparse round: the arena-scheduled, event-driven network
    //     path must also be allocation-free once warm — lazy record
    //     synthesis into recycled arena slots, config-pooled workers,
    //     payload snapshots, and per-victim mixing all out of `NetWorker`'s
    //     preallocated storage. The finite coupling floor makes the graph
    //     sparse, so slots really are recycled mid-round. ---
    let mut city = NetScenario::ring(64, 6.0, 20050315);
    city.probe_spectral = false;
    city.coupling.floor_db = -60.0;
    let plan = plan_network(&city);
    let edges: usize = plan.coupling.iter().map(|r| r.len()).sum();
    assert!(edges > 0, "the 64-user gate must exercise real mixing");
    let mut net_worker = NetWorker::new(&plan);
    let mut acc = NetAccumulator::default();
    for r in 0..2 {
        net_worker.round(&plan, r, &mut acc);
    }

    let before = thread_allocs();
    for r in 2..6 {
        net_worker.round(&plan, r, &mut acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state 64-user rounds must not allocate ({} allocations \
         across 4 rounds)",
        after - before
    );
    assert!(
        acc.links.iter().all(|l| l.ber.total > 0),
        "64-user rounds produced no bits"
    );

    // --- MAC discrete-event trials: the warm steady-state loop (event
    //     heap, queue rings, record pool, mix buffer, telemetry names)
    //     must also be allocation-free. A saturated co-channel pair
    //     exercises every path: arrivals, queueing, carrier-sense defer,
    //     waveform synthesis into pooled records, overlap mixing, decode
    //     failures, ARQ retries, and record recycling. ---
    let mut mac_sc = uwb_mac::MacScenario::ring(2, 6.0, 1.5, 20050316);
    mac_sc.net.policy = uwb_net::ChannelPolicy::Static(vec![
        uwb_phy::bandplan::Channel::new(3).unwrap(),
    ]);
    mac_sc.horizon_slots = 200;
    let mac_plan = uwb_mac::plan_mac(&mac_sc);
    assert!(
        mac_plan.net.coupling.iter().all(|row| !row.is_empty()),
        "the MAC gate must exercise real co-channel mixing"
    );
    let mut mac_worker = uwb_mac::MacWorker::new(&mac_plan);
    let mut mac_acc = uwb_mac::MacAccumulator::default();
    // Warm-up: ratchets the event heap, pooled record buffers, and the
    // telemetry name registry to their high-water marks.
    for rep in 0..3 {
        mac_worker.trial(&mac_plan, rep, &mut mac_acc);
    }

    let before = thread_allocs();
    for rep in 3..8 {
        mac_worker.trial(&mac_plan, rep, &mut mac_acc);
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "steady-state MAC trials must not allocate ({} allocations \
         across 5 saturated two-link trials)",
        after - before
    );
    assert!(
        mac_acc.links.iter().all(|l| l.delivered > 0),
        "MAC trials delivered no packets"
    );
}
