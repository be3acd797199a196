//! Repo-level gates for the streaming signal chain (`scripts/check.sh
//! stream`): the chunk-size invariance contract, end-to-end parity with a
//! whole-record reference, and bounded receiver memory.
//!
//! The property under test is the one that makes block streaming *safe to
//! adopt everywhere*: the partition of a record into blocks is
//! unobservable. Any random split of the impairment chain's input, and any
//! random split of the receiver's input, must produce bit-identical
//! records / identical decoded packets — and the streamed link trial must
//! count exactly what whole-record synthesis counts.

use proptest::prelude::*;
use std::sync::OnceLock;
use uwb::dsp::math::db_to_pow;
use uwb::dsp::stream::BlockProcessor;
use uwb::dsp::{Complex, DspScratch};
use uwb::phy::packet::{decode_payload_bits, reference_payload_bits};
use uwb::phy::{
    Burst, FrameScratch, FrameSlots, Gen2Config, Gen2Receiver, Gen2Transmitter, ReceivedPacket,
    RxState, SpectralMonitor, StreamRx,
};
use uwb::platform::link::{LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb::platform::ErrorCounter;
use uwb::rf::TunableNotch;
use uwb::sim::awgn::add_awgn_complex_in_place;
use uwb::sim::stream::{StreamingAwgn, StreamingChannel, StreamingInterferer};
use uwb::sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb::sim::time::SampleRate;
use uwb::sim::{Interferer, Rand};

fn small_config() -> Gen2Config {
    Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    }
}

/// Deterministic pseudo-signal (not RNG-driven so the RNG draw order stays
/// reserved for the operators under test).
fn test_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((0.137 * i as f64).sin(), (0.071 * i as f64).cos()))
        .collect()
}

/// Applies channel → CW interferer → AWGN to `input` split at the given
/// block lengths (cycled until the record is consumed), returning the full
/// impaired record including the flushed multipath tail.
fn impair_with_blocks(input: &[Complex], seed: u64, blocks: &[usize]) -> Vec<Complex> {
    let fs = SampleRate::from_gsps(1.0);
    let mut rng = Rand::new(seed);
    let ch = ChannelRealization::generate(ChannelModel::Cm2, &mut rng);
    let mut channel = StreamingChannel::from_realization(&ch, fs);
    let intf = Interferer::cw(150e6, 2.0);
    let mut interferer = StreamingInterferer::new(&intf, fs.as_hz(), &mut rng);
    let mut awgn = StreamingAwgn::new(0.3, rng.clone());
    let mut scratch = DspScratch::new();

    let mut out = Vec::with_capacity(input.len() + channel.tail_len());
    let mut start = 0;
    let mut bi = 0;
    while start < input.len() {
        let bl = blocks[bi % blocks.len()].max(1);
        bi += 1;
        let end = (start + bl).min(input.len());
        out.extend_from_slice(&input[start..end]);
        let block = &mut out[start..end];
        channel.process_block(block, &mut scratch);
        interferer.process_block(block, &mut scratch);
        awgn.process_block(block, &mut scratch);
        start = end;
    }
    let n = out.len();
    channel.flush_into(&mut out, &mut scratch);
    if out.len() > n {
        let tail = &mut out[n..];
        interferer.process_block(tail, &mut scratch);
        awgn.process_block(tail, &mut scratch);
    }
    out
}

/// Whole-record reference link: every impairment runs once over the
/// assembled record (FFT channel convolution, then the interferer, the
/// calibrated AWGN and the optional monitor + notch defense), drawing from
/// the trial RNG in the link's order — payload bytes, channel realization,
/// interferer phase, noise — and the record is decoded with known timing.
/// It is the oracle the streamed link trial is checked against.
struct WholeRecordLink {
    sc: LinkScenario,
    tx: Gen2Transmitter,
    rx: Gen2Receiver,
    state: RxState,
    scratch: DspScratch,
    channel: ChannelRealization,
    burst: Burst,
    frame: FrameScratch,
}

impl WholeRecordLink {
    fn new(sc: &LinkScenario) -> Self {
        WholeRecordLink {
            sc: sc.clone(),
            tx: Gen2Transmitter::new(sc.config.clone()).expect("tx config"),
            rx: Gen2Receiver::new(sc.config.clone()).expect("rx config"),
            state: RxState::new(),
            scratch: DspScratch::new(),
            channel: ChannelRealization::identity(),
            burst: Burst {
                samples: Vec::new(),
                sample_rate: sc.config.sample_rate,
                slot0_center: 0,
                samples_per_slot: 0,
                slots: FrameSlots::default(),
            },
            frame: FrameScratch::new(),
        }
    }

    /// One trial on `rng`, adding its bit errors to `counter`.
    fn trial(&mut self, payload_len: usize, rng: &mut Rand, counter: &mut ErrorCounter) {
        let fs = self.sc.config.sample_rate;
        let mut payload = vec![0u8; payload_len];
        rng.fill_bytes(&mut payload);
        self.tx
            .transmit_packet_into(&payload, &mut self.burst, &mut self.frame)
            .expect("payload size");
        self.channel.regenerate(self.sc.channel, rng);
        let mut record = Vec::new();
        self.channel
            .apply_into(&self.burst.samples, fs, &mut self.scratch, &mut record);
        if let Some(intf) = &self.sc.interferer {
            intf.add_to_in_place(&mut record, fs.as_hz(), rng);
        }
        // Eb/N0 on information bits (payload + FCS).
        let slot_energy: f64 = self.burst.slots.payload.iter().map(|a| a * a).sum();
        let eb = slot_energy / (8.0 * (payload_len + 4) as f64);
        add_awgn_complex_in_place(&mut record, eb / db_to_pow(self.sc.ebn0_db), rng);
        if self.sc.notch_enabled {
            let report = SpectralMonitor::new().analyze(&record, fs.as_hz());
            if report.detected {
                let mut notch = TunableNotch::new(fs, 30.0);
                notch.tune(report.frequency);
                record = notch.process(&record);
            }
        }
        let slot0_start = self.burst.slot0_center - self.tx.pulse().len() / 2;
        let mut stats = Vec::new();
        self.rx.payload_statistics_predigitized_with(
            &self.rx.digitize(&record),
            slot0_start,
            payload_len,
            &mut self.state,
            &mut stats,
        );
        if let Ok(bits) = decode_payload_bits(&stats, payload_len, &self.sc.config) {
            counter.add_bits(&reference_payload_bits(&payload), &bits);
        }
    }
}

/// Trials `0..trials` of `sc` through the whole-record reference.
fn whole_record_counter(sc: &LinkScenario, payload_len: usize, trials: u64) -> ErrorCounter {
    let mut link = WholeRecordLink::new(sc);
    let mut c = ErrorCounter::default();
    for t in 0..trials {
        link.trial(payload_len, &mut Rand::for_trial(sc.seed, t), &mut c);
    }
    c
}

/// Trials `0..trials` of `sc` through the streamed link trial.
fn streamed_counter(
    sc: &LinkScenario,
    payload_len: usize,
    block_len: usize,
    trials: u64,
) -> ErrorCounter {
    let mut worker = LinkWorker::new(sc);
    let mut c = ErrorCounter::default();
    for t in 0..trials {
        let mut rng = Rand::for_trial(sc.seed, t);
        worker.trial_ber_streamed(sc, payload_len, block_len, &mut rng, &mut c);
    }
    c
}

/// Shared noisy three-packet capture for the receiver-side properties
/// (built once; proptest cases only re-chunk it).
fn capture() -> &'static (Gen2Config, Vec<Complex>, Vec<Vec<u8>>) {
    static CAPTURE: OnceLock<(Gen2Config, Vec<Complex>, Vec<Vec<u8>>)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let config = small_config();
        let tx = Gen2Transmitter::new(config.clone()).expect("tx config");
        let mut rng = Rand::new(20050307);
        let payloads: Vec<Vec<u8>> = vec![
            b"stream parity 0".to_vec(),
            b"stream parity 1".to_vec(),
            b"p2".to_vec(),
        ];
        let mut record = vec![Complex::ZERO; 2500];
        for p in &payloads {
            let burst = tx.transmit_packet(p).expect("payload size");
            let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
            record.extend(ch.apply(&burst.samples, config.sample_rate));
            record.extend(std::iter::repeat_n(Complex::ZERO, 2200));
        }
        let p = uwb_dsp::complex::mean_power(&record);
        let noisy = uwb::sim::awgn::add_awgn_complex(&record, p / 10.0, &mut rng);
        (config, noisy, payloads)
    })
}

/// Decodes the shared capture through a `StreamRx`, feeding it in blocks of
/// the given lengths (cycled).
fn decode_with_blocks(blocks: &[usize]) -> Vec<(usize, ReceivedPacket)> {
    let (config, capture, _) = capture();
    let mut rx = StreamRx::new(config.clone(), 64).expect("rx config");
    let mut start = 0;
    let mut bi = 0;
    while start < capture.len() {
        let bl = blocks[bi % blocks.len()].max(1);
        bi += 1;
        let end = (start + bl).min(capture.len());
        rx.push_block(&capture[start..end]);
        start = end;
    }
    rx.finish();
    rx.drain_packets().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Impairment chain (multipath + CW interferer + AWGN): any random
    /// block partition produces a bit-identical record, tail included.
    #[test]
    fn impairment_chain_is_partition_invariant(
        seed in 0u64..1000,
        blocks in prop::collection::vec(1usize..striding_max(), 1..8),
    ) {
        let input = test_signal(700);
        let whole = impair_with_blocks(&input, seed, &[input.len()]);
        let split = impair_with_blocks(&input, seed, &blocks);
        prop_assert_eq!(split.len(), whole.len());
        for (i, (s, w)) in split.iter().zip(&whole).enumerate() {
            prop_assert!(
                s.re.to_bits() == w.re.to_bits() && s.im.to_bits() == w.im.to_bits(),
                "sample {} differs: {:?} vs {:?} (blocks {:?})", i, s, w, &blocks
            );
        }
    }

    /// The streamed link trial is bit-identical to the whole-record
    /// reference on the AWGN scenario for any block length, seed, and
    /// payload size.
    #[test]
    fn streamed_link_trial_matches_batch(
        seed in 0u64..500,
        block_len in 1usize..20_000,
        payload_len in 8usize..64,
    ) {
        let sc = LinkScenario::awgn(small_config(), 5.0, seed);
        let whole = whole_record_counter(&sc, payload_len, 1);
        let streamed = streamed_counter(&sc, payload_len, block_len, 1);
        prop_assert_eq!(whole, streamed);
    }

    /// `StreamRx` decodes the same packets (offsets and payloads) no matter
    /// how the capture is chunked.
    #[test]
    fn stream_rx_is_chunk_invariant(
        blocks in prop::collection::vec(1usize..4096, 1..6),
    ) {
        let whole = decode_with_blocks(&[usize::MAX / 2]);
        let (_, _, payloads) = capture();
        prop_assert_eq!(whole.len(), payloads.len(), "reference decode incomplete");
        let split = decode_with_blocks(&blocks);
        prop_assert_eq!(split.len(), whole.len());
        for ((off_s, pkt_s), (off_w, pkt_w)) in split.iter().zip(&whole) {
            prop_assert_eq!(off_s, off_w);
            prop_assert_eq!(&pkt_s.payload, &pkt_w.payload);
            prop_assert_eq!(pkt_s.header, pkt_w.header);
        }
    }
}

/// Largest random block length for the impairment-chain property — spans
/// sub-tail-length blocks up to whole-record blocks.
fn striding_max() -> usize {
    900
}

/// Receiver memory is bounded by the frame budget, not the stream length:
/// pushing a long noise-only stream (with a decodable frame embedded to
/// prove the scan is alive) never grows the buffer past a fixed budget.
#[test]
fn stream_rx_memory_is_bounded_by_frame_not_stream() {
    let (config, _, _) = capture();
    let tx = Gen2Transmitter::new(config.clone()).expect("tx config");
    let burst = tx.transmit_packet(b"bounded").expect("payload size");
    let mut rng = Rand::new(99);

    let mut rx = StreamRx::new(config.clone(), 64).expect("rx config");
    let mut pushed = 0usize;
    let mut capacity_after_warmup = 0usize;
    let mut noise_block = vec![Complex::ZERO; 2048];
    for round in 0..60 {
        // Mostly noise; every 10th round carries a frame.
        if round % 10 == 5 {
            rx.push_block(&burst.samples);
            pushed += burst.samples.len();
        }
        for z in noise_block.iter_mut() {
            *z = Complex::new(0.05 * rng.gaussian(), 0.05 * rng.gaussian());
        }
        rx.push_block(&noise_block);
        pushed += noise_block.len();
        if round == 20 {
            capacity_after_warmup = rx.buffer_capacity();
        }
    }
    rx.finish();

    assert!(pushed > 120_000, "stream too short to be meaningful");
    assert!(rx.packets().len() >= 5, "scan found {} packets", rx.packets().len());
    assert!(
        rx.buffer_capacity() <= capacity_after_warmup,
        "buffer kept growing after warm-up: {} -> {}",
        capacity_after_warmup,
        rx.buffer_capacity()
    );
    assert!(
        rx.buffer_capacity() < pushed / 8,
        "buffer capacity {} not bounded vs {} pushed",
        rx.buffer_capacity(),
        pushed
    );
}

/// AWGN only: the streamed record is bit-identical to the whole record for
/// every block partition, so the counters must agree exactly.
#[test]
fn streamed_trial_matches_whole_record_awgn_bitwise() {
    let sc = LinkScenario::awgn(small_config(), 4.0, 31);
    let whole = whole_record_counter(&sc, 32, 24);
    assert!(
        whole.errors > 0,
        "operating point produced no errors: {whole:?}"
    );
    for block_len in [64usize, 1024, DEFAULT_STREAM_BLOCK, usize::MAX / 2] {
        assert_eq!(
            streamed_counter(&sc, 32, block_len, 24),
            whole,
            "block {block_len}"
        );
    }
}

/// The CW interferer draws one phase at the same RNG position in both
/// paths; the streamed counter must match bit-for-bit.
#[test]
fn streamed_trial_matches_whole_record_with_cw_interferer() {
    let sc = LinkScenario {
        interferer: Some(Interferer::cw(150e6, 2.0)),
        ..LinkScenario::awgn(small_config(), 8.0, 33)
    };
    let whole = whole_record_counter(&sc, 24, 24);
    assert!(
        whole.errors > 0,
        "operating point produced no errors: {whole:?}"
    );
    assert_eq!(streamed_counter(&sc, 24, DEFAULT_STREAM_BLOCK, 24), whole);
}

/// Notch path: both paths assemble the record first, then run the same
/// monitor + filter over it.
#[test]
fn streamed_trial_matches_whole_record_with_notch() {
    let mut cfg = small_config();
    cfg.adc_bits = 5;
    let sc = LinkScenario {
        interferer: Some(Interferer::cw(150e6, 10.0)),
        notch_enabled: true,
        ..LinkScenario::awgn(cfg, 10.0, 35)
    };
    let whole = whole_record_counter(&sc, 24, 16);
    assert!(whole.total > 0);
    assert_eq!(streamed_counter(&sc, 24, DEFAULT_STREAM_BLOCK, 16), whole);
}

/// Multipath records agree only to numerical precision (direct-form vs FFT
/// convolution), so the contract is decision-level: both paths observe the
/// same number of bits and (allowing the odd borderline decision to flip
/// either way) the same errors.
#[test]
fn streamed_multipath_matches_whole_record_decisions() {
    let sc = LinkScenario {
        channel: ChannelModel::Cm1,
        ..LinkScenario::awgn(small_config(), 15.0, 37)
    };
    let whole = whole_record_counter(&sc, 32, 12);
    let streamed = streamed_counter(&sc, 32, DEFAULT_STREAM_BLOCK, 12);
    assert_eq!(streamed.total, whole.total);
    assert!(
        streamed.errors.abs_diff(whole.errors) <= 2,
        "streamed {streamed:?} vs whole record {whole:?}"
    );
}
