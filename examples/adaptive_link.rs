//! Link adaptation walkthrough: the receiver measures the channel and
//! reconfigures itself (paper §3: trading power, complexity, QoS and rate) —
//! and every chosen operating point is then *verified* by measuring its BER
//! on the streamed fast path (`run_ber_fast_streamed_tuned`), block by block, the
//! way the real-time platform would.
//!
//! Run with: `cargo run --release --example adaptive_link`

use uwb::phy::power::PowerModel;
use uwb::phy::{ChannelConditions, Gen2Config, LinkAdapter};
use uwb::platform::link::{
    run_ber_fast_streamed_tuned, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb::sim::{ChannelModel, ChannelRealization, Rand};

fn main() {
    let adapter = LinkAdapter::new(
        Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        },
        PowerModel::cmos180(),
    );
    let mut rng = Rand::new(77);

    // Walk through progressively worse environments; the delay spread comes
    // from actual Saleh-Valenzuela realizations.
    let environments = [
        ("desktop, line of sight", ChannelModel::Cm1, 22.0),
        ("office, NLOS", ChannelModel::Cm2, 15.0),
        ("across the room, NLOS", ChannelModel::Cm3, 9.0),
        ("extreme NLOS", ChannelModel::Cm4, 4.0),
    ];

    // Reused across environments: `trade_curve_into` keeps the sweep
    // allocation-free once warm.
    let mut curve = Vec::new();

    for (name, model, snr_db) in environments {
        let ch = ChannelRealization::generate(model, &mut rng);
        let conditions = ChannelConditions {
            snr_db,
            delay_spread_ns: ch.rms_delay_spread_ns(),
            interferer_present: false,
        };
        let op = adapter.adapt(&conditions);
        println!(
            "{name} ({model}, {snr_db:.0} dB SNR, {:.1} ns rms):",
            ch.rms_delay_spread_ns()
        );
        println!(
            "  -> {:.1} Mbps | FEC {} | {} pulses/bit | {} fingers | MLSE {} | {:.1} mW",
            op.bit_rate / 1e6,
            op.config
                .fec
                .map(|c| format!("K={}", c.constraint_length))
                .unwrap_or_else(|| "off".into()),
            op.config.pulses_per_bit,
            op.config.rake_fingers,
            if op.config.mlse_taps > 0 {
                format!("{} taps", op.config.mlse_taps)
            } else {
                "off".into()
            },
            op.power.total_mw()
        );
        println!("  policy: {}", op.rationale);

        // How the choice moves around the operating point: the rate/power
        // trade curve ±4 dB about the measured SNR.
        adapter.trade_curve_into(
            &[snr_db - 4.0, snr_db, snr_db + 4.0],
            conditions.delay_spread_ns,
            &mut curve,
        );
        let knee: Vec<String> = curve
            .iter()
            .zip([snr_db - 4.0, snr_db, snr_db + 4.0])
            .map(|(p, s)| {
                format!("{s:.0} dB→{:.0} Mbps/{:.0} mW", p.bit_rate / 1e6, p.power.total_mw())
            })
            .collect();
        println!("  trade curve: {}", knee.join(", "));

        // Verify the adapted configuration on the streamed fast path: the
        // same block-by-block synthesis the real-time platform runs.
        let scenario = LinkScenario {
            config: op.config.clone(),
            channel: model,
            ebn0_db: snr_db,
            interferer: None,
            notch_enabled: false,
            seed: 0xADA9 ^ snr_db.to_bits(),
        };
        let measured = run_ber_fast_streamed_tuned(
            &scenario,
            32,
            DEFAULT_STREAM_BLOCK,
            50,
            40_000,
            TrialBudget::default(),
            None,
            None,
        );
        println!(
            "  measured (streamed): BER {:.2e} over {} bits [{}]\n",
            measured.rate(),
            measured.total,
            measured.stop
        );
    }

    // An interferer appears: the ADC floor rises to 4 bits and the notch
    // engages.
    let op = adapter.adapt(&ChannelConditions {
        snr_db: 15.0,
        delay_spread_ns: 8.0,
        interferer_present: true,
    });
    println!(
        "with interferer: ADC >= {} bits, policy: {}",
        op.config.adc_bits, op.rationale
    );
}
