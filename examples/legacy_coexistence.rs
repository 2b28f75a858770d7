//! Incremental deployment: FLARE clients sharing a cell with conventional
//! HAS players, which FLARE services "like other data traffic without any
//! bitrate guarantees" (the paper's Section V).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example legacy_coexistence
//! ```

use flare_core::FlareConfig;
use flare_lte::mobility::MobilityConfig;
use flare_scenarios::{CellSim, ChannelKind, SchemeKind, SimConfig};
use flare_sim::TimeDelta;

fn main() {
    let config = SimConfig::builder()
        .seed(17)
        .duration(TimeDelta::from_secs(600))
        .videos(8)
        .legacy_video(4) // the last four players run plain FESTIVE
        .channel(ChannelKind::StationaryRandom(MobilityConfig))
        .scheme(SchemeKind::Flare(FlareConfig::default()))
        .build();
    let result = CellSim::new(config).run();

    println!("8 video UEs: 4 FLARE-coordinated, 4 conventional (FESTIVE)\n");
    println!(
        "{:<10}{:<14}{:>12}{:>10}{:>12}",
        "client", "kind", "rate(kbps)", "changes", "stalled(s)"
    );
    for v in &result.videos {
        let kind = if v.index < 4 { "FLARE" } else { "conventional" };
        println!(
            "{:<10}{:<14}{:>12.0}{:>10}{:>12.1}",
            v.index,
            kind,
            v.stats.average_rate.as_kbps(),
            v.stats.bitrate_changes,
            v.stats.underflow_time.as_secs_f64(),
        );
    }
    println!(
        "\nFLARE clients keep GBR-protected, stable service; conventional\n\
         players still stream (as best-effort traffic) without disturbing\n\
         them — the paper's incremental-deployment story, plus the adoption\n\
         incentive: switching to FLARE buys guaranteed rates."
    );
}
