//! `claims <id>`: prints one paper claim's experiment, byte for byte the
//! table `tests/baselines/<id>.txt` holds. Exits 1 (reason on stderr) if
//! the measured shape is not the one the paper claims, 2 on an unknown id.

use pm2_bench::claims::{claim, CLAIMS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(claim) = (args.len() == 1).then(|| claim(&args[0])).flatten() else {
        eprintln!("usage: claims <id>");
        for c in &CLAIMS {
            eprintln!("  {:<14} {}", c.id, c.section);
        }
        return ExitCode::from(2);
    };
    let out = (claim.run)();
    print!("{}", out.printed);
    let Err(why) = out.holds else {
        return ExitCode::SUCCESS;
    };
    eprintln!("{}: shape does not hold: {why}", claim.id);
    ExitCode::FAILURE
}
