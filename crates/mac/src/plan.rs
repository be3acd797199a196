//! The frozen MAC plan: everything the event loop needs, precomputed.
//!
//! [`plan_mac`] runs the network planner ([`uwb_net::plan_network`] —
//! channel allocation, coupling graph, per-link adapted configs), then
//! derives the MAC-specific statics:
//!
//! * **Airtimes** — one probe waveform is synthesized per *distinct*
//!   config (not per link) to measure the record length, which is
//!   quantized up to sense slots. Under multipath models the per-trial
//!   delay spread can jitter the record length a little; the airtime is
//!   the nominal probe value and the mixer clips any excess at buffer
//!   bounds.
//! * **Sense sets** — the symmetrized subgraph of the coupling graph at
//!   or above the carrier-sense threshold ([`uwb_net::sense_sets`]).
//!   Coupling edges *below* the threshold are the hidden terminals: they
//!   still mix into the victim's record but never cause a defer.
//! * **Arrival rates** — the scenario's Erlang load divided by each
//!   link's nominal service cycle (`airtime + ack`).

use crate::scenario::MacScenario;
use crate::traffic::TrafficModel;
use uwb_net::{plan_network, sense_sets, NetPlan, WorkerPool};
use uwb_sim::Rand;

/// Probe round id for MAC airtime measurement. Distinct from the network
/// planner's probe round (`u64::MAX`) and from any trial waveform uid.
const MAC_PROBE_ROUND: u64 = u64::MAX - 1;

/// The MAC knobs copied verbatim from the scenario (everything except the
/// wrapped [`uwb_net::NetScenario`]).
#[derive(Debug, Clone, Copy)]
pub struct MacParams {
    /// Per-link arrival process.
    pub traffic: TrafficModel,
    /// Bounded FIFO depth.
    pub queue_cap: usize,
    /// Sense-slot granularity in samples.
    pub slot_samples: usize,
    /// Carrier-sense coupling threshold in dB.
    pub sense_threshold_db: f64,
    /// Base contention window in slots.
    pub cw0: u64,
    /// Backoff-exponent cap.
    pub bexp_max: u32,
    /// ARQ retry limit.
    pub max_retries: u32,
    /// ACK airtime in slots.
    pub ack_slots: u64,
    /// ACK-timeout delay after data-frame end, in slots.
    pub ack_timeout_slots: u64,
    /// Forward-delivered-but-ACK-lost probability.
    pub ack_loss: f64,
    /// Arrival horizon in slots.
    pub horizon_slots: u64,
    /// Monte-Carlo replications.
    pub replications: u64,
}

/// The frozen, immutable input to the measurement phase.
#[derive(Debug)]
pub struct MacPlan {
    /// The underlying frozen network plan (links, configs, coupling).
    pub net: NetPlan,
    /// MAC parameters.
    pub params: MacParams,
    /// Nominal data-frame airtime per link, in sense slots (≥ 1).
    pub airtime_slots: Vec<u64>,
    /// Maximum airtime over all links — the record-retention window.
    pub max_airtime_slots: u64,
    /// Depth of each link's ring of recent transmissions (its mixing
    /// sources): a frame is never evicted while a frame of up to
    /// `max_airtime_slots` may still overlap it. 2 for uniform airtimes.
    pub tx_ring: usize,
    /// Probe record length per link, in samples.
    pub record_len: Vec<usize>,
    /// Maximum probe record length — pre-sizing bound for record buffers.
    pub max_record_len: usize,
    /// Per-link sensable-neighbor sets (symmetrized, ascending, deduped).
    pub sense: Vec<Vec<usize>>,
    /// Out-degree of each link in the coupling graph: how many victims'
    /// rows reference this transmitter. Zero means nobody ever mixes this
    /// link's waveform, so its records recycle immediately after its own
    /// decode.
    pub out_deg: Vec<u32>,
    /// Per-link arrival rate in packets per sense slot.
    pub rate_pps: Vec<f64>,
}

impl MacPlan {
    /// Number of links.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// `true` when the plan has no links.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Master seed (the network master).
    pub fn seed(&self) -> u64 {
        self.net.seed
    }

    /// Nominal service cycle of link `l` in slots: data airtime plus ACK.
    pub fn cycle_slots(&self, l: usize) -> u64 {
        self.airtime_slots[l] + self.params.ack_slots
    }
}

/// Freezes a scenario into a [`MacPlan`]. Serial; allocation here is
/// fine — the measurement phase reuses everything.
pub fn plan_mac(sc: &MacScenario) -> MacPlan {
    assert!(sc.queue_cap >= 1, "queue_cap must be at least 1");
    assert!(sc.slot_samples >= 1, "slot_samples must be at least 1");
    assert!(sc.cw0 >= 1, "cw0 must be at least 1");
    assert!(
        sc.ack_timeout_slots >= sc.ack_slots,
        "ack_timeout_slots must be >= ack_slots"
    );
    assert!(
        (0.0..=1.0).contains(&sc.ack_loss),
        "ack_loss must be a probability"
    );

    let net = plan_network(&sc.net);
    let n = net.len();

    // One probe synthesis per distinct config measures the record length.
    let mut pool = WorkerPool::new(&net);
    let mut probe_len = vec![0usize; pool.worker_count()];
    let mut buf = Vec::new();
    for l in 0..n {
        let c = pool.config_index(l);
        if probe_len[c] == 0 {
            let scen = net.links[l].scenario.clone();
            let mut rng = Rand::for_trial(scen.seed, MAC_PROBE_ROUND);
            let _ = pool.worker_for(l).synthesize_clean_streamed_record(
                &scen,
                net.payload_len,
                net.block_len,
                &mut rng,
                &mut buf,
            );
            probe_len[c] = buf.len().max(1);
        }
    }

    let record_len: Vec<usize> = (0..n).map(|l| probe_len[pool.config_index(l)]).collect();
    let max_record_len = record_len.iter().copied().max().unwrap_or(1);
    let airtime_slots: Vec<u64> = record_len
        .iter()
        .map(|&len| (len.div_ceil(sc.slot_samples)).max(1) as u64)
        .collect();
    let max_airtime_slots = airtime_slots.iter().copied().max().unwrap_or(1);
    // A victim decoding at `T` mixes every frame of link `u` that ended
    // after `T − max_airtime`, i.e. started in `(T − max_airtime − A_u, T]`;
    // consecutive starts of `u` are at least `A_u + ack_slots` apart.
    let tx_ring = airtime_slots
        .iter()
        .map(|&a| ((max_airtime_slots + a - 1) / (a + sc.ack_slots)) as usize + 1)
        .fold(2, usize::max);

    let sense = sense_sets(&net.coupling, sc.sense_threshold_db);
    let mut out_deg = vec![0u32; n];
    for row in &net.coupling {
        for &(u, _) in row {
            out_deg[u] += 1;
        }
    }

    let load = sc.traffic.load();
    let rate_pps: Vec<f64> = airtime_slots
        .iter()
        .map(|&a| load / (a + sc.ack_slots) as f64)
        .collect();

    MacPlan {
        net,
        params: MacParams {
            traffic: sc.traffic,
            queue_cap: sc.queue_cap,
            slot_samples: sc.slot_samples,
            sense_threshold_db: sc.sense_threshold_db,
            cw0: sc.cw0,
            bexp_max: sc.bexp_max,
            max_retries: sc.max_retries,
            ack_slots: sc.ack_slots,
            ack_timeout_slots: sc.ack_timeout_slots,
            ack_loss: sc.ack_loss,
            horizon_slots: sc.horizon_slots,
            replications: sc.replications,
        },
        airtime_slots,
        max_airtime_slots,
        tx_ring,
        record_len,
        max_record_len,
        sense,
        out_deg,
        rate_pps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MacScenario;

    #[test]
    fn plan_derives_airtime_sense_and_rates() {
        let sc = MacScenario::ring(4, 9.0, 0.8, 11);
        let plan = plan_mac(&sc);
        assert_eq!(plan.len(), 4);
        assert!(plan.max_airtime_slots >= 1);
        for l in 0..4 {
            assert!(plan.airtime_slots[l] >= 1);
            assert_eq!(
                plan.airtime_slots[l],
                (plan.record_len[l].div_ceil(sc.slot_samples)).max(1) as u64
            );
            let expect = 0.8 / plan.cycle_slots(l) as f64;
            assert!((plan.rate_pps[l] - expect).abs() < 1e-12);
            // Sense sets are symmetric.
            for &u in &plan.sense[l] {
                assert!(plan.sense[u].contains(&l), "sense graph must be symmetric");
            }
        }
    }

    #[test]
    fn same_config_links_share_airtime() {
        // 2-user ring on round-robin channels: different channels, but the
        // waveform length is config-shaped, so airtimes still match the
        // per-config probe exactly (each config probed once).
        let sc = MacScenario::ring(2, 8.0, 0.5, 3);
        let plan = plan_mac(&sc);
        assert_eq!(plan.record_len.len(), 2);
        assert!(plan.record_len.iter().all(|&r| r > 0));
    }
}
