//! Criterion benches for the digital back end blocks of paper Fig. 3:
//! acquisition correlator bank, channel estimator, RAKE combining, Viterbi
//! decoding, MLSE, and the Saleh–Valenzuela channel generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uwb_dsp::{Complex, DspScratch};
use uwb_phy::chanest::{estimate_cir_into, ChannelEstimate};
use uwb_phy::mlse::{apply_symbol_channel, MlseEqualizer};
use uwb_phy::{AcquisitionConfig, CoarseAcquisition, ConvCode, Gen2Config, Gen2Transmitter, RakeReceiver};
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb_sim::Rand;

fn bench_acquisition(c: &mut Criterion) {
    let cfg = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
    let burst = tx.transmit_packet(&[0u8; 16]).unwrap();
    let engine = CoarseAcquisition::new(
        tx.preamble_correlator(),
        AcquisitionConfig::with_clock(cfg.sample_rate.as_hz()),
    );
    let period = cfg.preamble_length() * cfg.samples_per_slot();
    c.bench_function("acquisition_full_period", |b| {
        b.iter(|| engine.acquire(std::hint::black_box(&burst.samples), period))
    });
}

fn bench_chanest(c: &mut Criterion) {
    let cfg = Gen2Config::nominal_100mbps();
    let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
    let burst = tx.transmit_packet(&[0u8; 16]).unwrap();
    let correlator = tx.preamble_correlator();
    let period = cfg.preamble_length() * cfg.samples_per_slot();
    let mut scratch = DspScratch::new();
    let mut est = ChannelEstimate::new(vec![Complex::ZERO]);
    c.bench_function("channel_estimate_64tap_3periods", |b| {
        b.iter(|| {
            estimate_cir_into(
                std::hint::black_box(&burst.samples),
                &correlator,
                burst.slot0_center,
                64,
                3,
                period,
                &mut scratch,
                &mut est,
            )
        })
    });
}

fn bench_rake(c: &mut Criterion) {
    let mut rng = Rand::new(1);
    let taps: Vec<Complex> = (0..64)
        .map(|_| Complex::new(rng.gaussian(), rng.gaussian()) * 0.2)
        .collect();
    let est = ChannelEstimate::new(taps);
    let mf: Vec<Complex> = (0..100_000)
        .map(|i| Complex::cis(0.001 * i as f64))
        .collect();
    let mut group = c.benchmark_group("rake_combine_1000_symbols");
    for fingers in [1usize, 4, 8, 16] {
        let rake = RakeReceiver::from_estimate(&est, fingers);
        group.bench_with_input(BenchmarkId::from_parameter(fingers), &rake, |b, rake| {
            b.iter(|| rake.combine_stream(std::hint::black_box(&mf), 0, 10, 1000))
        });
    }
    group.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let mut group = c.benchmark_group("viterbi_decode_1000bits");
    let mut rng = Rand::new(2);
    let bits: Vec<bool> = (0..1000).map(|_| rng.bit()).collect();
    for code in [ConvCode::k3(), ConvCode::k7()] {
        let coded = code.encode(&bits);
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 } + 0.3 * rng.gaussian())
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("K{}", code.constraint_length)),
            &soft,
            |b, soft| b.iter(|| code.decode_soft(std::hint::black_box(soft))),
        );
    }
    group.finish();
}

fn bench_mlse(c: &mut Criterion) {
    let h = vec![
        Complex::new(1.0, 0.0),
        Complex::new(0.5, 0.1),
        Complex::new(-0.2, 0.2),
    ];
    let eq = MlseEqualizer::new(h.clone());
    let mut rng = Rand::new(3);
    let symbols: Vec<bool> = (0..1000).map(|_| rng.bit()).collect();
    let rx = apply_symbol_channel(&symbols, &h);
    c.bench_function("mlse_3tap_1000symbols", |b| {
        b.iter(|| eq.equalize(std::hint::black_box(&rx)))
    });
}

fn bench_sv_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sv_channel_generate");
    for model in [ChannelModel::Cm1, ChannelModel::Cm4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{model}")),
            &model,
            |b, &model| {
                let mut rng = Rand::new(4);
                b.iter(|| ChannelRealization::generate(model, &mut rng))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_acquisition, bench_chanest, bench_rake, bench_viterbi, bench_mlse, bench_sv_channel
}
criterion_main!(benches);
