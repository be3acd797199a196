//! Integration: the paper's headline quantitative claims, as assertions.
//! These are the fast versions of the experiment binaries in `uwb-bench`.

use uwb::gen1::{Gen1Config, Gen1PowerModel};
use uwb::phy::power::PowerModel;
use uwb::phy::pulse::{measure_bandwidth, PulseShape};
use uwb::phy::{Channel, Gen2Config};
use uwb::platform::link::{
    run_ber_fast_streamed_tuned, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb::sim::time::SampleRate;
use uwb::sim::ChannelModel;

/// §3: "The system is designed to transmit 100 Mbps."
#[test]
fn gen2_rate_is_100mbps() {
    assert_eq!(Gen2Config::nominal_100mbps().bit_rate(), 100e6);
}

/// §2: "A wireless link of 193 kbps was demonstrated."
#[test]
fn gen1_rate_is_193kbps() {
    let r = Gen1Config::demonstrated_193kbps().bit_rate();
    assert!((r - 193e3).abs() / 193e3 < 0.01, "{r}");
}

/// §2: "packet synchronization is obtained in less than 70 µs".
#[test]
fn gen1_sync_under_70us() {
    assert!(Gen1Config::demonstrated_193kbps().sync_time_us() < 70.0);
}

/// §1: preamble duration "comparable with current wireless systems (~20 µs)".
#[test]
fn gen2_preamble_near_20us() {
    let mut cfg = Gen2Config::nominal_100mbps();
    cfg.preamble_repeats = 4;
    let d = cfg.preamble_duration_us();
    assert!(d < 20.0, "preamble {d} µs");
}

/// §3: "upconverted to one of 14 channels (sub-bands) in the 3.1-10.6 GHz
/// band".
#[test]
fn fourteen_channels_in_band() {
    assert_eq!(Channel::all().count(), 14);
    for ch in Channel::all() {
        assert!(ch.center().as_ghz() > 3.1 && ch.center().as_ghz() < 10.6);
    }
}

/// §3 / Fig. 4: 500 MHz bandwidth pulses.
#[test]
fn pulse_bandwidth_500mhz() {
    let fs = SampleRate::from_gsps(4.0);
    let p = PulseShape::gen2_default().generate(fs);
    let bw = measure_bandwidth(&p, fs, 10.0);
    assert!((bw.as_mhz() - 500.0).abs() < 75.0, "{}", bw.as_mhz());
}

/// §1: "more than half of the system power being dissipated in the digital
/// back end and the ADC" — both generations.
#[test]
fn power_fraction_over_half() {
    let g2 = PowerModel::cmos180().breakdown(&Gen2Config::nominal_100mbps());
    assert!(g2.digital_and_adc_fraction() > 0.5);
    let g1 = Gen1PowerModel::cmos180().breakdown(&Gen1Config::demonstrated_193kbps());
    assert!(g1.digital_and_adc_fraction() > 0.5);
}

/// §1: robust communication under severe multipath (~20 ns rms): the CM3
/// link still closes at a moderate Eb/N0.
#[test]
fn cm3_link_closes() {
    let config = Gen2Config {
        rake_fingers: 16,
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let c = run_ber_fast_streamed_tuned(
        &LinkScenario {
            channel: ChannelModel::Cm3,
            ..LinkScenario::awgn(config, 14.0, 7)
        },
        32,
        DEFAULT_STREAM_BLOCK,
        30,
        60_000,
        TrialBudget::default(),
        None,
        None,
    );
    assert!(c.rate() < 0.03, "CM3 at 14 dB: {}", c.rate());
}

/// §1: FCC limit constants.
#[test]
fn fcc_constants() {
    assert_eq!(uwb::sim::pathloss::FCC_LIMIT_DBM_PER_MHZ, -41.3);
    let p500 = uwb::sim::pathloss::max_tx_power_dbm(uwb::sim::Hertz::from_mhz(500.0));
    assert!((p500 + 14.31).abs() < 0.05);
}
